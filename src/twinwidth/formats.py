"""On-disk formats: trigraphs and sequences, DIMACS in, colorings/assignments/roles out.

All vertex and variable ids are 1-based on disk and converted exactly
once here; writers emit a canonical ordering so a read/write cycle is
byte-exact.  Lines starting with '#' are comments in the native formats,
'c' lines in DIMACS.
"""

from __future__ import annotations

from .cnf import Clause, CnfFormula, Dialect
from .contraction import PartitionSequence, sequence_from_vertex_merges
from .errors import OverlapError, ParseError, SequenceError, TwinwidthError
from .oracles import Coloring
from .trigraph import MAX_VERTICES, Trigraph, edge_count


def _data_lines(text: str) -> list[str]:
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return [line for raw in lines if (line := raw.strip())]


def _header(lines: list[str], tag: str, count: int) -> list[int]:
    """The `count` integers after `tag` on the first line; the first is a vertex count."""
    if not lines or lines[0].split(None, 1)[0] != tag:
        raise ParseError(f"missing '{tag}' header")
    try:
        values = [int(t) for t in lines[0].split()[1:]]
    except ValueError:
        values = []
    if len(values) != count:
        raise ParseError(f"malformed header: {lines[0]!r}")
    if values[0] < 0:
        raise ParseError(f"vertex count must be non-negative, got {values[0]}")
    if values[0] > MAX_VERTICES:
        raise ParseError(f"header declares {values[0]} vertices, above the cap of {MAX_VERTICES}")
    return values


# --- trigraph text format -------------------------------------------------

def write_trigraph(g: Trigraph) -> str:
    names = [str(v + 1) for v in range(g.n)]  # each id string is made once
    # An edge line is two pieces, its lower end's head and the higher
    # end's name; one join at the end makes the text, so no line is a string.
    pieces = [f"tgf {g.n} {edge_count(g.black_adj)} {edge_count(g.red_adj)}"]
    for tag, adj in (("b", g.black_adj), ("r", g.red_adj)):
        for u, nbrs in enumerate(adj):
            if nbrs:
                head = f"\n{tag} {names[u]} "
                for v in sorted(nbrs):
                    if v > u:
                        pieces.append(head)
                        pieces.append(names[v])
    return "".join(pieces) + "\n"


def read_trigraph(text: str) -> Trigraph:
    """Each pair may appear on one edge line only, in either orientation."""
    lines = _data_lines(text)
    n, n_black, n_red = _header(lines, "tgf", 3)
    black, red = [None] * n, [None] * n  # a vertex's neighbor lists, made when it is named
    sides = {"b": black, "r": red}
    vertex: dict[str, int] = {}  # edge-line token -> its 0-based id, one int object each
    edge_lines = iter(lines)  # lets the lines go when it runs out, before the sets are made
    next(edge_lines)
    del lines
    for line in edge_lines:  # the hot loop on large graphs: no helper calls
        try:
            tag, a, b = line.split()
            adj = sides[tag]
        except (ValueError, KeyError):
            raise ParseError(f"malformed edge line: {line!r}") from None
        u, v = vertex.get(a), vertex.get(b)
        if u is None or v is None or u == v:  # a token not seen before, or a loop
            try:
                if u is None:
                    u = int(a) - 1
                if v is None:
                    v = int(b) - 1
            except ValueError:
                raise ParseError(f"malformed edge line: {line!r}") from None
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge line {line!r} does not join two vertices of 1..{n}")
            vertex[a], vertex[b] = u, v
            if black[u] is None:
                black[u], red[u] = [], []
            if black[v] is None:
                black[v], red[v] = [], []
        adj[u].append(v)
        adj[v].append(u)
    found_black, found_red = edge_count(filter(None, black)), edge_count(filter(None, red))
    if found_black != n_black or found_red != n_red:
        raise ParseError(
            f"header declares {n_black} black / {n_red} red edges, "
            f"found {found_black} / {found_red}")
    try:
        g = Trigraph(n, black, red)
    except OverlapError:  # the lists are frozen sets by now
        u, v = min((u, v) for u, nbrs in enumerate(black) for v in nbrs & red[u] if u < v)
        raise ParseError(f"pair {u + 1} {v + 1} is both a black and a red edge") from None
    if edge_count(g.black_adj) + edge_count(g.red_adj) < n_black + n_red:
        pairs = sorted(sorted(map(int, line.split()[1:])) for line in _data_lines(text)[1:])
        u, v = next(a for a, b in zip(pairs, pairs[1:]) if a == b)
        raise ParseError(f"pair {u} {v} is on two edge lines")
    return g


# --- contraction sequence format -------------------------------------------

def write_sequence(seq: PartitionSequence) -> str:
    lines = [f"seq {seq.n} {len(seq.steps)}"]
    lines.extend(f"m {a + 1} {b + 1}" for a, b in seq.steps)
    return "\n".join(lines) + "\n"


def read_sequence(text: str) -> PartitionSequence:
    """Merge lines may name any vertex of each part; steps come back canonical."""
    lines = _data_lines(text)
    n, n_steps = _header(lines, "seq", 2)
    merges = []
    merge_lines = iter(lines)
    next(merge_lines)
    del lines
    for line in merge_lines:  # the hot loop on long scripts: no helper calls
        try:
            tag, a, b = line.split()
            if tag == "m":
                merges.append((int(a) - 1, int(b) - 1))
                continue
        except ValueError:
            pass
        raise ParseError(f"malformed merge line: {line!r}")
    if len(merges) != n_steps:
        raise ParseError(f"header declares {n_steps} steps, found {len(merges)}")
    try:
        return sequence_from_vertex_merges(n, merges, base=1)
    except SequenceError as exc:
        raise ParseError(str(exc)) from None


# --- coloring and assignment formats ----------------------------------------

def write_coloring(col: Coloring) -> str:
    lines = [f"{v + 1} {c}" for v, c in enumerate(col.colors)]
    return "\n".join(lines) + ("\n" if lines else "")


def write_assignment(assignment: dict[int, bool]) -> str:
    lines = [f"{v} {int(assignment[v])}" for v in sorted(assignment)]
    return "\n".join(lines) + ("\n" if lines else "")


# --- role file ---------------------------------------------------------------

def write_roles(g: Trigraph) -> str:
    lines = [f"{v + 1} {g.labels[v]}" for v in sorted(g.labels)]
    return "\n".join(lines) + ("\n" if lines else "")


# --- DIMACS CNF ----------------------------------------------------------------

def parse_dimacs_cnf(text: str, dialect: Dialect = Dialect.THREE_SAT) -> CnfFormula:
    """Parse 'p cnf n m' DIMACS with exactly-3-literal clauses.

    The dialect is chosen by the caller, never inferred from the file.
    """
    n_vars = n_clauses = None
    clauses: list[Clause] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise ParseError(f"second problem line: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError(f"malformed problem line: {line!r}")
            try:
                n_vars, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed problem line: {line!r}") from None
            continue
        if n_vars is None:
            raise ParseError("clause line before the problem line")
        try:
            literals = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"malformed clause line: {line!r}") from None
        for lit in literals:  # a clause may span lines or share one
            if lit:
                pending.append(lit)
            elif len(pending) != 3:
                raise ParseError(f"clause {pending} does not have exactly 3 literals")
            else:
                clauses.append(tuple(pending))
                pending = []
    if n_vars is None:
        raise ParseError("missing problem line")
    if pending:
        raise ParseError(f"trailing literals without terminating 0: {pending}")
    if len(clauses) != n_clauses:
        raise ParseError(f"header declares {n_clauses} clauses, found {len(clauses)}")
    try:
        return CnfFormula(n_vars, tuple(clauses), dialect)
    except TwinwidthError as exc:
        raise ParseError(str(exc)) from None
