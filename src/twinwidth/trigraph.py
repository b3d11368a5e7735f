"""Trigraphs: graphs with disjoint black (definite) and red (error) edge sets.

Vertices are dense 0-based integers.  Each vertex's black and red
neighbors are frozensets, the only edge state.  A plain graph has no red
edges.  Instances are immutable, and operations here return fresh objects.
`quotient` reads its quotients off the contraction engine, ContractionState.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping

from .errors import OverlapError, TwinwidthError

# The readers refuse larger headers and the reductions larger instances,
# each before allocating anything.
MAX_VERTICES = 2**20
MAX_EDGES = 2**22

_NO_NEIGHBORS: frozenset[int] = frozenset()


def check_size(vertices: int, edges: int = 0) -> None:
    """Refuse a reduction instance above MAX_VERTICES or MAX_EDGES before it is built."""
    for count, cap, what in ((vertices, MAX_VERTICES, "vertices"), (edges, MAX_EDGES, "edges")):
        if count > cap:
            raise TwinwidthError(f"the instance would have {count} {what}, above the cap of {cap}")


def edge_count(adj: Iterable[Collection[int]]) -> int:
    """Number of edges of a symmetric neighbor-set table, from its degree sum."""
    return sum(map(len, adj)) // 2


class Trigraph:
    """Vertex set 0..n-1 with disjoint black and red neighbor sets `black_adj`, `red_adj`."""

    def __init__(self, n: int, black: list, red: list, labels: Mapping[int, str] | None = None):
        """n symmetric, loop-free, in-range neighbor lists a side; the caller checks them."""
        if n < 0:
            raise TwinwidthError(f"vertex count must be non-negative, got {n}")
        if len(black) != n or len(red) != n:
            raise TwinwidthError(f"need {n} neighbor lists a side, got {len(black)} and {len(red)}")
        # Frozen in place, also when the sides overlap, so one copy is alive;
        # repeated entries collapse, and every empty side shares one set.
        for adj in (black, red):
            for v, nbrs in enumerate(adj):
                adj[v] = frozenset(nbrs) if nbrs else _NO_NEIGHBORS
        self.n, self.black_adj, self.red_adj = n, tuple(black), tuple(red)
        if not all(map(frozenset.isdisjoint, self.black_adj, self.red_adj)):
            both = [(u, v) for u, nbrs in enumerate(black) for v in sorted(nbrs & red[u]) if u < v]
            raise OverlapError(f"edges both black and red: {both}")
        self.labels: dict[int, str] = dict(labels) if labels else {}  # role text, e.g. "A 2 5"

    def __repr__(self) -> str:
        return f"Trigraph(n={self.n}, black={edge_count(self.black_adj)}, red={edge_count(self.red_adj)})"


def quotient(g: Trigraph, parts: Iterable[Collection[int]]) -> Trigraph:
    """One vertex per part, in part order; the parts must split 0..n-1.

    Each part is merged into its smallest vertex on the one engine,
    ContractionState, and the quotient is read off the merged state.
    """
    from .contraction import ContractionState  # not at the top: contraction imports this module

    parts = [set(part) for part in parts]
    if not all(parts) or sorted(v for part in parts for v in part) != list(range(g.n)):
        raise TwinwidthError(f"parts {[sorted(part) for part in parts]} do not split 0..{g.n - 1}")
    reps = [min(part) for part in parts]
    state = ContractionState(g)
    state.merge((r, v) for r, part in zip(reps, parts) for v in part if v != r)
    index = {r: i for i, r in enumerate(reps)}
    black = [[index[q] for q in state.black_adj[r]] for r in reps]
    red = [[index[q] for q in state.red_adj[r]] for r in reps]
    return Trigraph(len(parts), black, red)
