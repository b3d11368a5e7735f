"""NAE-3-SAT to 3-coloring reduction on graphs of twin-width at most 4.

One triangle per clause, one path per variable with m base vertices
(one per clause column), parity-controlled single subdivisions between
consecutive occurrences, and a hub vertex adjacent to every path vertex.
The hub pins one color, so each variable path 2-colors and the parity of
occurrence distances makes equal colors mean equal signs.  A triangle is
3-colorable against its three path neighbors exactly when they are not
monochromatic, i.e. when the clause is NAE-satisfied.

Coordinates are 1-based (variable i, clause column j); slot names the
triangle corner for literal 1, 2 or 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .cnf import Assignment, CnfFormula, Dialect, nae_satisfies
from .contraction import PartitionSequence, sequence_from_vertex_merges
from .errors import TwinwidthError
from .oracles import Coloring, is_proper
from .trigraph import Trigraph, check_size, edge_count

_SLOTS = ("u", "v", "w")
# lift_to_k adds k-3 pairwise-adjacent vertices, each joined to the whole
# base graph, so k is capped before any of them is allocated
MAX_K = 64


def subdivision_positions(formula: CnfFormula) -> set[tuple[int, int]]:
    """(variable, clause column) pairs whose incoming path edge is subdivided.

    Between consecutive occurrences the path distance must be even
    exactly when the signs agree; a single subdivision just before the
    later occurrence fixes the parity whenever the raw column gap has it
    wrong.
    """
    if formula.dialect is not Dialect.NAE_THREE_SAT:
        raise TwinwidthError("subdivision positions are defined for NAE input")
    out: set[tuple[int, int]] = set()
    for i in range(1, formula.n_vars + 1):
        occ = formula.occurrences(i)
        for (j_prev, s_prev), (j_next, s_next) in zip(occ, occ[1:]):
            gap_even = (j_next - j_prev) % 2 == 0
            if gap_even != (s_prev == s_next):
                out.add((i, j_next))
    return out


@dataclass(frozen=True)
class ThreeColInstance:
    """Ids run path by path, each path's vertices contiguous (a subdivision
    sits one id below the path vertex it precedes), then the triangles
    clause by clause, then the hub.
    """

    formula: CnfFormula
    n: int
    m: int
    graph: Trigraph
    # derived from the formula, so left out of equality and hashing:
    # (variable, clause column) -> path vertex id, and the subdivided positions
    path_index: Mapping[tuple[int, int], int] = field(compare=False, repr=False)
    subdivisions: frozenset[tuple[int, int]] = field(compare=False, repr=False)

    def path_vertex(self, i: int, j: int) -> int:
        return self.path_index[(i, j)]

    def path(self, i: int) -> range:
        """Variable i's path vertices and subdivisions, in path order."""
        return range(self.path_vertex(i, 1), self.path_vertex(i, self.m) + 1)

    def triangle(self, j: int, slot: str) -> int:
        base = self.n * self.m + len(self.subdivisions)
        return base + 3 * (j - 1) + _SLOTS.index(slot)

    @property
    def z(self) -> int:
        return self.graph.n - 1


def build_3col(formula: CnfFormula) -> ThreeColInstance:
    """Build the triangle/path/hub graph for a NAE-3-SAT formula."""
    if formula.dialect is not Dialect.NAE_THREE_SAT:
        raise TwinwidthError("the 3-coloring reduction takes NAE-3-SAT input")
    n, m = formula.n_vars, formula.n_clauses
    if n < 1 or m < 1:
        raise TwinwidthError("need at least one variable and one clause")
    subdivisions = frozenset(subdivision_positions(formula))
    size = n * m + len(subdivisions) + 3 * m + 1  # paths, subdivisions, triangles, hub
    check_size(size)  # fewer than 2 edges a vertex, so the vertex cap bounds them too
    adj: list = [[] for _ in range(size)]  # neighbor lists
    # each id is drawn once, so every list that names a vertex shares one int
    ids = iter(range(size))
    labels: dict[int, str] = {}
    path_at: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        prev = None
        for j in range(1, m + 1):
            for kind in ("S", "P") if (i, j) in subdivisions else ("P",):
                vid = next(ids)
                labels[vid] = f"{kind} {i} {j}"
                if prev is not None:
                    adj[prev].append(vid)
                    adj[vid].append(prev)
                prev = vid
            path_at[(i, j)] = vid
    on_paths = list(labels)  # every path vertex and subdivision, in id order

    for j in range(1, m + 1):
        u, v, w = next(ids), next(ids), next(ids)
        for vid, slot in zip((u, v, w), _SLOTS):
            labels[vid] = f"T {j} {slot}"
        adj[u], adj[v], adj[w] = [v, w], [u, w], [v, u]
        for slot_id, lit in zip((u, v, w), formula.clauses[j - 1]):
            x = path_at[(abs(lit), j)]
            adj[slot_id].append(x)
            adj[x].append(slot_id)

    hub = next(ids)
    labels[hub] = "Z"
    adj[hub] = on_paths
    for vid in on_paths:
        adj[vid].append(hub)

    graph = Trigraph(len(adj), adj, [()] * len(adj), labels)
    return ThreeColInstance(formula, n, m, graph, path_at, subdivisions)


def build_3col_4sequence(inst: ThreeColInstance) -> PartitionSequence:
    """Four-stage width-4 contraction sequence for a built instance.

    Collapse each triangle, absorb subdivision vertices into their path
    vertices, fold all paths onto the first one column by column, then
    fold columns and triangles left and finish hub last.
    """
    merges: list[tuple[int, int]] = []
    for j in range(1, inst.m + 1):
        u, v, w = (inst.triangle(j, s) for s in _SLOTS)
        merges.append((u, v))
        merges.append((u, w))
    for i, j in sorted(inst.subdivisions):
        vid = inst.path_vertex(i, j)
        merges.append((vid, vid - 1))
    for i in range(2, inst.n + 1):
        for j in range(1, inst.m + 1):
            merges.append((inst.path_vertex(1, j), inst.path_vertex(i, j)))
    for j in range(2, inst.m + 1):
        merges.append((inst.path_vertex(1, 1), inst.path_vertex(1, j)))
        merges.append((inst.triangle(1, "u"), inst.triangle(j, "u")))
    merges.append((inst.path_vertex(1, 1), inst.z))
    merges.append((inst.path_vertex(1, 1), inst.triangle(1, "u")))
    return sequence_from_vertex_merges(inst.graph.n, merges)


def threecol_coloring_from_assignment(inst: ThreeColInstance,
                                      assignment: Assignment) -> Coloring:
    """The canonical 3-coloring induced by a NAE-satisfying assignment.

    Hub gets 3; each path alternates 1/2 anchored so that occurrence
    vertices of true literals get 1; each triangle opposes its two
    lowest differing path neighbors and parks color 3 on the third.
    """
    if not nae_satisfies(inst.formula, assignment):
        raise TwinwidthError("assignment does not NAE-satisfy the formula")
    colors = [0] * inst.graph.n
    colors[inst.z] = 3
    for i in range(1, inst.n + 1):
        j_star, sign = inst.formula.occurrences(i)[0]
        anchor = inst.path_vertex(i, j_star)
        anchor_color = 1 if assignment[i] == sign else 2
        for vid in inst.path(i):
            colors[vid] = anchor_color if (vid - anchor) % 2 == 0 else 3 - anchor_color
    for j, clause in enumerate(inst.formula.clauses, start=1):
        neighbor = [colors[inst.path_vertex(abs(lit), j)] for lit in clause]
        a, b = next((a, b) for a, b in ((0, 1), (0, 2), (1, 2))
                    if neighbor[a] != neighbor[b])
        for slot in range(3):
            vid = inst.triangle(j, _SLOTS[slot])
            colors[vid] = 3 - neighbor[slot] if slot in (a, b) else 3
    return Coloring(tuple(colors), 3)


def threecol_assignment_from_coloring(inst: ThreeColInstance,
                                      col: Coloring) -> Assignment:
    """Extract a NAE-witness from any proper 3-coloring.

    Colors are permuted so the hub gets 3 and the first path vertex of
    variable 1 gets 1 (those two are adjacent, so always distinct); the
    paths then live in {1, 2} and occurrence colors read off signs.
    """
    if max(col.colors) > 3:
        raise TwinwidthError(f"coloring uses color {max(col.colors)}, budget is 3")
    if not is_proper(inst.graph, col):
        raise TwinwidthError("coloring is not proper")
    c_hub = col.colors[inst.z]
    c_first = col.colors[inst.path_vertex(1, 1)]
    perm = {c_hub: 3, c_first: 1}
    perm.update({c: 2 for c in (1, 2, 3) if c not in perm})
    normalized = [perm[c] for c in col.colors]

    assignment: Assignment = {}
    for i in range(1, inst.n + 1):
        # each occurrence implies a value: color 1 on a positive one means True
        values = {(normalized[inst.path_vertex(i, j)] == 1) == sign
                  for j, sign in inst.formula.occurrences(i)}
        if len(values) > 1:
            raise TwinwidthError(f"occurrence colors of variable {i} violate parity")
        assignment[i] = values.pop()
    if not nae_satisfies(inst.formula, assignment):
        raise TwinwidthError("extracted assignment does not NAE-satisfy the formula")
    return assignment


def lift_to_k(inst: ThreeColInstance, k: int) -> tuple[Trigraph, PartitionSequence]:
    """Add k-3 universal vertices; k-colorable iff the base is 3-colorable.

    Returns the lifted graph and its contraction sequence.

    Universal vertices are pairwise twins, so the emitted sequence
    merges them into one part first, replays the width-4 sequence on the
    base graph, and folds the universal part in last; the width bound is
    unchanged.  k must lie in 3..MAX_K.
    """
    if k < 3:
        raise TwinwidthError(f"k must be at least 3, got {k}")
    if k > MAX_K:
        raise TwinwidthError(f"k must be at most {MAX_K}, got {k}")
    base = inst.graph
    extra = k - 3
    total = base.n + extra
    check_size(total, edge_count(base.black_adj) + extra * base.n + extra * (extra - 1) // 2)
    universal = range(base.n, total)  # each adjacent to every other vertex
    adj = [[*nbrs, *universal] for nbrs in base.black_adj]
    adj += [[*range(u), *range(u + 1, total)] for u in universal]
    labels = dict(base.labels)
    labels.update((u, f"U {u - base.n + 1}") for u in universal)
    graph = Trigraph(total, adj, [()] * total, labels)

    # Canonical as it stands: the base steps are canonical and end in part 0,
    # and base.n is the smallest member of the universal part.
    steps = [(base.n, base.n + t) for t in range(1, extra)]
    steps.extend(build_3col_4sequence(inst).steps)
    if extra > 0:
        steps.append((0, base.n))
    return graph, PartitionSequence(total, tuple(steps))
