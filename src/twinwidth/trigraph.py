"""Trigraphs: graphs with disjoint black (definite) and red (error) edge sets.

Vertices are dense 0-based integers.  Each vertex's black and red
neighbors are frozensets, the only edge state.  A plain graph has no red
edges.  Instances are immutable, and operations here return fresh objects.
"""

from __future__ import annotations

from itertools import combinations
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


class Partition:
    """Disjoint nonempty vertex sets covering 0..n-1, in a fixed order."""

    def __init__(self, n: int, parts: Iterable[Iterable[int]]):
        self.n = n
        self.parts: tuple[frozenset[int], ...] = tuple(frozenset(p) for p in parts)
        part_of: list[int] = [-1] * n
        for idx, part in enumerate(self.parts):
            if not part:
                raise TwinwidthError("empty part")
            for v in part:
                if not 0 <= v < n:
                    raise TwinwidthError(f"vertex {v} out of range for n={n}")
                if part_of[v] != -1:
                    raise TwinwidthError(f"vertex {v} in two parts")
                part_of[v] = idx
        if any(idx == -1 for idx in part_of):
            missing = [v for v, idx in enumerate(part_of) if idx == -1]
            raise TwinwidthError(f"vertices not covered: {missing}")


def quotient(g: Trigraph, p: Partition) -> Trigraph:
    """One vertex per part of p, in part order.

    A part pair is black when every cross pair is a black edge; red when
    some cross pair is red, or the cross adjacency is mixed (some pair
    black, some pair not adjacent); otherwise not adjacent.
    """
    if p.n != g.n:
        raise TwinwidthError(f"partition is over {p.n} vertices, trigraph has {g.n}")
    black, red = [[] for _ in p.parts], [[] for _ in p.parts]
    for (i, part_i), (j, part_j) in combinations(enumerate(p.parts), 2):
        blacks = reds = 0
        for u in part_i:
            blacks += len(g.black_adj[u] & part_j)
            reds += len(g.red_adj[u] & part_j)
        if reds or blacks:
            side = red if reds or blacks < len(part_i) * len(part_j) else black
            side[i].append(j)
            side[j].append(i)
    return Trigraph(len(p.parts), black, red)
