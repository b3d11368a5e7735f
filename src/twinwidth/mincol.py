"""3-SAT to coloring-number reduction on graphs of twin-width at most 3.

The built graph has p = 2n + m blocks.  Two vertex-disjoint sides A and B
are the (2n-1)-th powers of paths on 2np vertices, split into blocks
A_1..A_p and B_1..B_p of 2n consecutive vertices each; every block is a
2n-clique and consecutive blocks overlap in a staircase pattern.  Block i
gets one apex vertex v_i whose non-neighbors inside A_i and B_i encode a
variable (blocks 1..2n) or a clause (blocks 2n+1..2n+m).  The graph is
2n-colorable exactly when the formula is satisfiable, and it always
admits a width-3 contraction sequence.

All accessors below take the 1-based coordinates used throughout the
block construction (block index i, offset j); vertex ids are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cnf import Assignment, CnfFormula, Dialect, literal_value, satisfies
from .contraction import PartitionSequence, sequence_from_vertex_merges
from .errors import TwinwidthError
from .oracles import Coloring, is_proper
from .trigraph import Trigraph, check_size


@dataclass(frozen=True)
class MinColInstance:
    formula: CnfFormula
    n: int
    p: int
    graph: Trigraph

    @property
    def color_budget(self) -> int:
        return 2 * self.n

    # 1-based coordinates in, 0-based vertex ids out.
    def a(self, i: int, j: int) -> int:
        return (i - 1) * 2 * self.n + (j - 1)

    def b(self, i: int, j: int) -> int:
        return 2 * self.n * self.p + (i - 1) * 2 * self.n + (j - 1)

    def v(self, i: int) -> int:
        return 4 * self.n * self.p + (i - 1)


def mincol_size(n: int, m: int) -> tuple[int, int]:
    """Vertex and edge counts of the block graph for n variables and m clauses.

    Each side is a (2n-1)-th path power on 2np vertices; a variable apex
    has 4n-3 neighbors and a clause apex 2n.
    """
    width, p = 2 * n, 2 * n + m
    r = width - 1
    path_powers = 2 * (r * width * p - r * (r + 1) // 2)
    return (2 * width + 1) * p, path_powers + width * (2 * width - 3) + width * m


def build_mincol(formula: CnfFormula) -> MinColInstance:
    """Build the block graph for a 3-SAT formula with n >= 2 variables."""
    if formula.dialect is not Dialect.THREE_SAT:
        raise TwinwidthError("the coloring-number reduction takes 3-SAT input")
    n, m = formula.n_vars, formula.n_clauses
    if n < 2:
        raise TwinwidthError("need at least two variables")
    p = 2 * n + m
    check_size(*mincol_size(n, m))
    width = 2 * n
    side = width * p
    layout = MinColInstance(formula, n, p, None)
    a, b, v = layout.a, layout.b, layout.v
    # Each side is the (2n-1)-th power of a path: vertices at path
    # distance < 2n are adjacent.  Block i's apex gets its list from join.
    # Lists slice one shared int per id rather than making one per mention.
    ids = list(range((4 * n + 1) * p))
    adj: list = [ids[max(lo, x - width + 1):x] + ids[x + 1:min(lo + side, x + width)]
                 for lo in (0, side) for x in range(lo, lo + side)] + [()] * p

    def join(block: int, nbrs: list[int]) -> None:
        apex = ids[v(block)]
        adj[apex] = [ids[u] for u in nbrs]
        for u in nbrs:
            adj[u].append(apex)

    # Variable apexes: v_{2i-1} and v_{2i} miss three block vertices each.
    for i in range(1, n + 1):
        odd, even = 2 * i - 1, 2 * i
        missing_odd = {a(odd, 2 * i - 1), a(odd, 2 * i), b(odd, 2 * i - 1)}
        missing_even = {a(even, 2 * i - 1), a(even, 2 * i), b(even, 2 * i)}
        for block, missing in ((odd, missing_odd), (even, missing_even)):
            join(block, [u for j in range(1, width + 1) for u in (a(block, j), b(block, j))
                         if u not in missing])

    # Clause apexes: keep most of B_i, pick one A_i vertex per literal
    # (column 2j-1 for a positive literal on x_j, column 2j for a
    # negative one).  Repeated literals collapse by set semantics.
    for c_idx, clause in enumerate(formula.clauses):
        block = 2 * n + c_idx + 1
        skipped_b = {b(block, 2 * abs(lit)) for lit in clause}
        join(block, [b(block, j) for j in range(1, width + 1) if b(block, j) not in skipped_b]
             + [a(block, 2 * abs(lit) - (1 if lit > 0 else 0)) for lit in clause])

    labels = {}
    for i in range(1, p + 1):
        for j in range(1, width + 1):
            labels[a(i, j)] = f"A {i} {j}"
            labels[b(i, j)] = f"B {i} {j}"
        labels[v(i)] = f"V {i}"

    return replace(layout, graph=Trigraph(len(adj), adj, [()] * len(adj), labels))


def build_mincol_3sequence(inst: MinColInstance) -> PartitionSequence:
    """Two-stage width-3 contraction sequence for a built instance.

    Stage 1 collapses each block to a point, sweeping offsets left to
    right across all blocks.  Stage 2 folds all A-blocks together, all
    B-blocks together, and all apexes together, then merges the last
    three parts (A-part with B-part, then with the apex part).
    """
    merges: list[tuple[int, int]] = []
    for j in range(2, 2 * inst.n + 1):
        for i in range(1, inst.p + 1):
            merges.append((inst.a(i, 1), inst.a(i, j)))
            merges.append((inst.b(i, 1), inst.b(i, j)))
    for i in range(2, inst.p + 1):
        merges.append((inst.a(1, 1), inst.a(i, 1)))
        merges.append((inst.b(1, 1), inst.b(i, 1)))
        merges.append((inst.v(1), inst.v(i)))
    merges.append((inst.a(1, 1), inst.b(1, 1)))
    merges.append((inst.a(1, 1), inst.v(1)))
    return sequence_from_vertex_merges(inst.graph.n, merges)


def mincol_coloring_from_assignment(inst: MinColInstance, assignment: Assignment) -> Coloring:
    """The canonical 2n-coloring induced by a satisfying assignment.

    B-columns keep their offset as color; A-column pairs {2j-1, 2j} are
    straight when x_j is true and swapped when false; apex v_i takes
    color i on variable blocks and twice the variable index of the first
    satisfied literal on clause blocks.
    """
    if not satisfies(inst.formula, assignment):
        raise TwinwidthError("assignment does not satisfy the formula")
    n, p, width = inst.n, inst.p, 2 * inst.n
    colors = [0] * inst.graph.n
    for i in range(1, p + 1):
        for j in range(1, width + 1):
            colors[inst.b(i, j)] = j
        for j in range(1, n + 1):
            lo, hi = (2 * j - 1, 2 * j) if assignment[j] else (2 * j, 2 * j - 1)
            colors[inst.a(i, 2 * j - 1)] = lo
            colors[inst.a(i, 2 * j)] = hi
    for i in range(1, width + 1):
        colors[inst.v(i)] = i
    for c_idx, clause in enumerate(inst.formula.clauses):
        sat_var = next(abs(lit) for lit in clause if literal_value(lit, assignment))
        colors[inst.v(width + c_idx + 1)] = 2 * sat_var
    return Coloring(tuple(colors), width)


def mincol_assignment_from_coloring(inst: MinColInstance, col: Coloring) -> Assignment:
    """Extract a satisfying assignment from any proper <=2n-coloring.

    Normalizes by the unique color permutation that maps block B_1 to
    the identity pattern, then reads each variable off the orientation
    of its A-column pair.
    """
    width = 2 * inst.n
    if max(col.colors) > width:
        raise TwinwidthError(f"coloring uses color {max(col.colors)}, budget is {width}")
    if not is_proper(inst.graph, col):
        raise TwinwidthError("coloring is not proper")
    # B_1 is a clique, so a proper coloring gives its columns distinct colors
    perm = {col.colors[inst.b(1, j)]: j for j in range(1, width + 1)}
    normalized = [perm[c] for c in col.colors]

    assignment: Assignment = {}
    for j in range(1, inst.n + 1):
        pair = {normalized[inst.a(1, 2 * j - 1)], normalized[inst.a(1, 2 * j)]}
        if pair != {2 * j - 1, 2 * j}:
            raise TwinwidthError(f"A-column pair for variable {j} is {pair}")
        assignment[j] = normalized[inst.a(1, 2 * j - 1)] == 2 * j - 1
        for i in range(2, inst.p + 1):
            if normalized[inst.a(i, 2 * j - 1)] != normalized[inst.a(1, 2 * j - 1)]:
                raise TwinwidthError(f"column colors depend on the block index at ({i},{j})")
    if not satisfies(inst.formula, assignment):
        raise TwinwidthError("extracted assignment does not satisfy the formula")
    return assignment
