"""Trigraphs: graphs with disjoint black (definite) and red (error) edge sets.

Vertices are dense 0-based integers.  Edge sets are stored as canonical
(min, max) pairs.  A plain graph is a trigraph with no red edges.
Instances are immutable after construction; all operations here are pure
functions returning fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import LoopError, OverlapError, PartitionError, RangeError

Edge = tuple[int, int]


@dataclass(frozen=True)
class VertexRole:
    """Names a vertex by its role in a generated instance, e.g. A(2,5).

    Pure metadata for tests, role files and reports; no graph algorithm
    reads it.  Kinds: A/B (block vertices), V (gadget apex), T (clause
    triangle, coords (j, slot) with slot in u/v/w), P (variable-path
    vertex), S (subdivision vertex), Z (the hub), U (universal vertex).
    """

    kind: str
    coords: tuple = ()

    def __str__(self) -> str:
        return " ".join([self.kind, *map(str, self.coords)])

    @classmethod
    def parse(cls, text: str) -> "VertexRole":
        parts = text.split()
        coords = tuple(int(p) if p.lstrip("-").isdigit() else p for p in parts[1:])
        return cls(parts[0], coords)


def _canonical_edges(n: int, pairs: Iterable[Edge], kind: str) -> frozenset[Edge]:
    out = set()
    for u, v in pairs:
        if u == v:
            raise LoopError(f"{kind} edge ({u},{v}) is a self-loop")
        if not (0 <= u < n and 0 <= v < n):
            raise RangeError(f"{kind} edge ({u},{v}) out of range for n={n}")
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


class Trigraph:
    """Vertex set 0..n-1 with disjoint black and red edge sets."""

    def __init__(self, n: int, black: Iterable[Edge] = (), red: Iterable[Edge] = (),
                 labels: Optional[Mapping[int, VertexRole]] = None):
        if n < 0:
            raise RangeError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self.black = _canonical_edges(n, black, "black")
        self.red = _canonical_edges(n, red, "red")
        overlap = self.black & self.red
        if overlap:
            raise OverlapError(f"edges both black and red: {sorted(overlap)}")
        self.labels: dict[int, VertexRole] = dict(labels) if labels else {}

    @cached_property
    def black_adj(self) -> tuple[frozenset[int], ...]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.black:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def red_adj(self) -> tuple[frozenset[int], ...]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.red:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def __repr__(self) -> str:
        return f"Trigraph(n={self.n}, black={len(self.black)}, red={len(self.red)})"


def make_trigraph(n: int, black: Iterable[Edge] = (), red: Iterable[Edge] = (),
                  labels: Optional[Mapping[int, VertexRole]] = None) -> Trigraph:
    """Validated constructor; duplicate edges within one list collapse."""
    return Trigraph(n, black, red, labels)


class Partition:
    """Disjoint nonempty vertex sets covering 0..n-1, in a fixed order."""

    def __init__(self, n: int, parts: Iterable[Iterable[int]]):
        self.n = n
        self.parts: tuple[frozenset[int], ...] = tuple(frozenset(p) for p in parts)
        part_of: list[int] = [-1] * n
        for idx, part in enumerate(self.parts):
            if not part:
                raise PartitionError("empty part")
            for v in part:
                if not 0 <= v < n:
                    raise PartitionError(f"vertex {v} out of range for n={n}")
                if part_of[v] != -1:
                    raise PartitionError(f"vertex {v} in two parts")
                part_of[v] = idx
        if any(idx == -1 for idx in part_of):
            missing = [v for v, idx in enumerate(part_of) if idx == -1]
            raise PartitionError(f"vertices not covered: {missing}")

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, [[v] for v in range(n)])

    def __len__(self) -> int:
        return len(self.parts)


def red_degree(g: Trigraph, v: int) -> int:
    """Number of red edges incident to v."""
    if not 0 <= v < g.n:
        raise RangeError(f"vertex {v} out of range for n={g.n}")
    return len(g.red_adj[v])


def max_red_degree(g: Trigraph) -> int:
    """Maximum red degree over all vertices; 0 for an edgeless or fully black trigraph."""
    return max((len(a) for a in g.red_adj), default=0)


def quotient(g: Trigraph, p: Partition) -> Trigraph:
    """One vertex per part of p, in part order.

    A part pair is black when every cross pair is a black edge; red when
    some cross pair is red, or the cross adjacency is mixed (some pair
    black, some pair not adjacent); otherwise not adjacent.
    """
    if p.n != g.n:
        raise PartitionError(f"partition is over {p.n} vertices, trigraph has {g.n}")
    k = len(p.parts)
    black_pairs = []
    red_pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            blacks = reds = 0
            for u in p.parts[i]:
                bu, ru = g.black_adj[u], g.red_adj[u]
                for v in p.parts[j]:
                    if v in bu:
                        blacks += 1
                    elif v in ru:
                        reds += 1
            total = len(p.parts[i]) * len(p.parts[j])
            if reds > 0 or 0 < blacks < total:
                red_pairs.append((i, j))
            elif blacks == total:
                black_pairs.append((i, j))
    return Trigraph(k, black_pairs, red_pairs)


def redify(g: Trigraph) -> Trigraph:
    """Reclassify every black edge as red (cannot decrease twin-width)."""
    return Trigraph(g.n, (), g.black | g.red, g.labels)
