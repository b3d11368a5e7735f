"""Reference answers that do not come from the code under test.

Truth tables for tiny formulas, a small DPLL for the solver corpus, the
size laws of both reductions, and a naive from-scratch quotient replay
for twin-width witnesses.
"""

from __future__ import annotations

from itertools import product

from inputs import Edge, Formula


class WrongAnswer(Exception):
    """The program printed or wrote something a reference contradicts."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def answered(report: dict, key: str, what: str) -> bool:
    """True if the report gives `key`, False if it has a SKIP line instead."""
    if key in report:
        return True
    expect(bool(report["SKIP"]), f"{what}: the report has neither {key} nor a SKIP line")
    return False


def parse_report(text: str) -> dict[str, str]:
    """Key/value lines of a run report; SKIP and FAIL lines are kept as lists."""
    out: dict = {"SKIP": [], "FAIL": []}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            continue
        if key in ("SKIP", "FAIL"):
            out[key].append(value)
        else:
            out[key] = value
    return out


def _holds(f: Formula, assignment: dict[int, bool]) -> bool:
    for clause in f.clauses:
        values = [assignment[abs(l)] == (l > 0) for l in clause]
        if not any(values) or (f.nae and all(values)):
            return False
    return True


def truth_table_sat(f: Formula) -> bool:
    """Exhaustive check; for the tiny formulas of the roundtrip and chromatic corpora."""
    return any(_holds(f, dict(zip(range(1, f.n + 1), bits)))
               for bits in product((False, True), repeat=f.n))


def dpll_sat(f: Formula) -> bool:
    """Unit-propagating DPLL; an NAE formula is solved as itself plus its mirror."""
    clauses = [frozenset(c) for c in f.clauses]
    if f.nae:
        clauses += [frozenset(-l for l in c) for c in f.clauses]

    def solve(cls: list[frozenset]) -> bool:
        while True:
            if not cls:
                return True
            if any(not c for c in cls):
                return False
            unit = next((c for c in cls if len(c) == 1), None)
            if unit is None:
                break
            (lit,) = unit
            cls = [c - {-lit} for c in cls if lit not in c]
        lit = next(iter(min(cls, key=len)))
        return any(solve([c - {-choice} for c in cls if choice not in c])
                   for choice in (lit, -lit))

    return solve(clauses)


def check_model(f: Formula, report: dict) -> None:
    literals = [int(t) for t in report["assignment"].split()]
    expect(sorted(abs(l) for l in literals) == list(range(1, f.n + 1)),
           "assignment does not name every variable once")
    expect(_holds(f, {abs(l): l > 0 for l in literals}),
           "printed assignment does not satisfy the formula")


def mincol_size(f: Formula) -> int:
    return (4 * f.n + 1) * (2 * f.n + f.m)


def threecol_size(f: Formula, k: int = 3) -> int:
    """n*m path vertices, parity subdivisions, 3m triangle corners, the hub, k-3 universals."""
    subdivisions = 0
    for var in range(1, f.n + 1):
        occ = [(j, next(l > 0 for l in c if abs(l) == var))
               for j, c in enumerate(f.clauses) if any(abs(l) == var for l in c)]
        for (j0, s0), (j1, s1) in zip(occ, occ[1:]):
            if ((j1 - j0) % 2 == 0) != (s0 == s1):
                subdivisions += 1
    return f.n * f.m + subdivisions + 3 * f.m + 1 + (k - 3)


def read_merges(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    expect(lines[0][0] == "seq", "sequence file has no 'seq' header")
    expect(int(lines[0][2]) == len(lines) - 1, "sequence header disagrees with its merge lines")
    return int(lines[0][1]), [(int(a) - 1, int(b) - 1) for _, a, b in lines[1:]]


def naive_width(n: int, edges: list[Edge], merges: list[tuple[int, int]]) -> int:
    """Replay merges from scratch: rebuild every part pair after each step."""
    adjacent = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    part = list(range(n))
    width = 0
    for a, b in merges:
        pa, pb = part[a], part[b]
        expect(pa != pb, "witness merges two vertices of one part")
        part = [pa if p == pb else p for p in part]
        groups: dict[int, list[int]] = {}
        for v, p in enumerate(part):
            groups.setdefault(p, []).append(v)
        members = list(groups.values())
        red = [0] * len(members)
        for i, x in enumerate(members):
            for j in range(i + 1, len(members)):
                y = members[j]
                links = sum((u, v) in adjacent for u in x for v in y)
                if 0 < links < len(x) * len(y):
                    red[i] += 1
                    red[j] += 1
        width = max(width, max(red))
    expect(len(set(part)) == 1, "witness does not end in a single part")
    return width


def check_coloring(text: str, n: int, edges: list[Edge], k: int) -> None:
    colors = {}
    for line in text.splitlines():
        vid, color = map(int, line.split())
        colors[vid - 1] = color
    expect(sorted(colors) == list(range(n)), "coloring does not cover every vertex once")
    expect(all(1 <= c <= k for c in colors.values()), f"coloring uses a color outside 1..{k}")
    expect(all(colors[u] != colors[v] for u, v in edges), "coloring is not proper")
