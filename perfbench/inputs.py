"""Seeded inputs for the benchmark, written in the program's text formats.

Nothing here imports the program: formulas and graphs come from the
benchmark's own generators, so a change to the program cannot change
what it is measured on.  The one exception is the chromatic corpus,
whose graphs are the program's own `reduce mincol` output (see
`relabel_by_roles`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Edge = tuple[int, int]


@dataclass(frozen=True)
class Formula:
    n: int
    clauses: tuple[tuple[int, int, int], ...]
    nae: bool

    @property
    def m(self) -> int:
        return len(self.clauses)


def random_formula(rng: random.Random, n: int, m: int, nae: bool) -> Formula:
    """Every variable occurs; NAE clauses use three distinct variables.

    3-SAT clauses may repeat a variable, always with one sign, so that no
    clause holds a variable and its negation.
    """
    if 3 * m < n or (nae and n < 3):
        raise ValueError(f"cannot cover {n} variables with {m} clauses")
    slots: list[list[int]] = [[] for _ in range(m)]
    positions = [j for j in range(m) for _ in range(3)]
    rng.shuffle(positions)
    for var, j in zip(rng.sample(range(1, n + 1), n), positions):
        slots[j].append(var)
    clauses = []
    for chosen in slots:
        while len(chosen) < 3:
            var = rng.randint(1, n)
            if not (nae and var in chosen):
                chosen.append(var)
        rng.shuffle(chosen)
        sign = {var: rng.choice((1, -1)) for var in sorted(set(chosen))}
        clauses.append(tuple(sign[var] * var for var in chosen))
    return Formula(n, tuple(clauses), nae)


def dimacs(f: Formula) -> str:
    lines = [f"p cnf {f.n} {f.m}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in f.clauses)
    return "\n".join(lines) + "\n"


def tgf(n: int, edges) -> str:
    """Plain graph in the trigraph text format, 1-based ids, canonical order."""
    canon = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    lines = [f"tgf {n} {len(canon)} 0"]
    lines.extend(f"b {u + 1} {v + 1}" for u, v in canon)
    return "\n".join(lines) + "\n"


def relabel(edges, perm: list[int]) -> list[Edge]:
    return [(perm[u], perm[v]) for u, v in edges]


# --- graphs with known twin-width ----------------------------------------

def path(n: int) -> list[Edge]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> list[Edge]:
    return path(n) + [(n - 1, 0)]


def random_cograph(rng: random.Random, n: int) -> list[Edge]:
    """Built by disjoint unions and joins only, so its twin-width is 0."""
    parts = [[v] for v in range(n)]
    edges: list[Edge] = []
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        if rng.random() < 0.5:
            edges.extend((u, v) for u in a for v in b)
        parts.append(a + b)
    return edges


def random_graph(rng: random.Random, n: int, p: float) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


# --- files written by the program -------------------------------------------

def parse_tgf(text: str) -> tuple[int, list[Edge]]:
    lines = [ln.split() for ln in text.splitlines() if ln and not ln.startswith("#")]
    n = int(lines[0][1])
    return n, [(int(u) - 1, int(v) - 1) for tag, u, v in lines[1:] if tag == "b"]


def parse_roles(text: str) -> dict[int, tuple]:
    out = {}
    for line in text.splitlines():
        vid, *role = line.split()
        out[int(vid) - 1] = tuple(int(t) if t.lstrip("-").isdigit() else t for t in role)
    return out


def relabel_by_roles(n: int, edges: list[Edge], roles: dict[int, tuple],
                     rng: random.Random) -> list[Edge]:
    """Renumber a reduction graph from its construction roles, then shuffle.

    Going through the roles first makes the result depend only on the
    construction and the rng, not on the ids the program chose, so the
    corpus stays the same when a later change renumbers vertices.
    """
    canonical = sorted(range(n), key=lambda v: (len(roles[v]), tuple(map(str, roles[v]))))
    perm = list(range(n))
    rng.shuffle(perm)
    target = {old: perm[rank] for rank, old in enumerate(canonical)}
    return [(target[u], target[v]) for u, v in edges]
