"""Partition sequences as merge scripts, with incremental width tracking.

A part is identified by its representative: the smallest vertex id it
contains.  A full sequence on n vertices has exactly n-1 steps and ends
with a single part; anything shorter is a partial sequence.

The incremental state keeps, for every pair of live parts, a census of
their cross pairs (how many are black edges, how many red) in the base
trigraph.  A part pair is black iff the black count equals the number of
cross pairs and no pair is red; it is red iff some pair is red or the
black count is strictly between zero and the total.  This reproduces the
from-scratch quotient exactly, merge by merge, touching only pairs
incident to the merged part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import PartialSequenceError, SequenceError
from .trigraph import Trigraph


@dataclass(frozen=True)
class MergeStep:
    """Merge the parts represented by a and b (a < b after normalization)."""

    a: int
    b: int


@dataclass(frozen=True)
class PartitionSequence:
    n: int
    steps: tuple[MergeStep, ...]

    @property
    def is_full(self) -> bool:
        return len(self.steps) == self.n - 1


@dataclass(frozen=True)
class WidthProfile:
    """Max red degree of the quotient after each step, plus the start."""

    initial_width: int
    per_step_width: tuple[int, ...]
    overall_width: int

    @property
    def argmax_step(self) -> int:
        """1-based index of the first step attaining the overall width; 0 if the start does."""
        if self.initial_width == self.overall_width:
            return 0
        return self.per_step_width.index(self.overall_width) + 1


def sequence_from_vertex_merges(n: int, merges: Iterable[tuple[int, int]],
                                base: int = 0) -> PartitionSequence:
    """Normalize a merge script into a PartitionSequence.

    Each named vertex stands for its current part (union-find semantics);
    normalized steps name the two parts' smallest members.  Error
    messages show vertex ids plus `base`; readers of 1-based files pass 1.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    steps = []
    for u, v in merges:
        if not (0 <= u < n and 0 <= v < n):
            raise SequenceError(f"merge ({u + base},{v + base}) out of range for n={n}")
        ru, rv = find(u), find(v)
        if ru == rv:
            raise SequenceError(
                f"merge ({u + base},{v + base}) names two vertices already in the same part")
        lo, hi = (ru, rv) if ru < rv else (rv, ru)
        parent[hi] = lo
        steps.append(MergeStep(lo, hi))
    if len(steps) > n - 1:
        raise SequenceError(f"{len(steps)} steps cannot fit an {n}-vertex sequence")
    return PartitionSequence(n, tuple(steps))


class ContractionState:
    """Incremental quotient of a fixed base trigraph under merges."""

    def __init__(self, g: Trigraph):
        n = g.n
        self.size = [1] * n
        self.live: set[int] = set(range(n))
        # cross[p][q] -> [black, red] cross-pair counts; the same list
        # object is shared under both keys.
        self.cross: list[dict[int, list[int]]] = [dict() for _ in range(n)]
        self.red_adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in g.black:
            cnt = [1, 0]
            self.cross[u][v] = cnt
            self.cross[v][u] = cnt
        for u, v in g.red:
            cnt = [0, 1]
            self.cross[u][v] = cnt
            self.cross[v][u] = cnt
            self.red_adj[u].add(v)
            self.red_adj[v].add(u)

    def merge(self, a: int, b: int) -> int:
        """Merge the live parts with representatives a and b; returns min(a, b)."""
        if a not in self.live or b not in self.live:
            raise SequenceError(f"merge ({a},{b}) references a dead part")
        if a == b:
            raise SequenceError(f"merge ({a},{a}) names the same part twice")
        if b < a:
            a, b = b, a
        self.live.discard(b)
        cross, red_adj, size = self.cross, self.red_adj, self.size
        cross[a].pop(b, None)
        cross[b].pop(a, None)
        red_adj[a].discard(b)
        red_adj[b].discard(a)
        new_size = size[a] + size[b]
        others = set(cross[a]) | set(cross[b])
        for q in others:
            ca = cross[a].get(q)
            cb = cross[b].get(q)
            blacks = (ca[0] if ca else 0) + (cb[0] if cb else 0)
            reds = (ca[1] if ca else 0) + (cb[1] if cb else 0)
            cnt = [blacks, reds]
            cross[a][q] = cnt
            cross[q][a] = cnt
            cross[q].pop(b, None)
            red_adj[q].discard(b)
            if reds > 0 or 0 < blacks < new_size * size[q]:
                red_adj[a].add(q)
                red_adj[q].add(a)
            else:
                red_adj[a].discard(q)
                red_adj[q].discard(a)
        size[a] = new_size
        size[b] = 0
        cross[b] = dict()
        red_adj[b] = set()
        return a

    def merged(self, a: int, b: int) -> "ContractionState":
        """A copy with parts a and b merged; shares the count lists, which merge never mutates."""
        new = object.__new__(ContractionState)
        new.size = self.size.copy()
        new.live = self.live.copy()
        new.cross = [c.copy() for c in self.cross]
        new.red_adj = [s.copy() for s in self.red_adj]
        new.merge(a, b)
        return new

    def red_degree(self, p: int) -> int:
        return len(self.red_adj[p])

    def max_red_degree(self) -> int:
        return max((len(self.red_adj[p]) for p in self.live), default=0)

    def pair_colors(self) -> dict[tuple[int, int], str]:
        """Current quotient edges keyed by representative pair, as 'black'/'red'."""
        out = {}
        for p in self.live:
            sp = self.size[p]
            for q, (blacks, reds) in self.cross[p].items():
                if p < q:
                    if reds > 0 or 0 < blacks < sp * self.size[q]:
                        out[(p, q)] = "red"
                    elif blacks == sp * self.size[q]:
                        out[(p, q)] = "black"
        return out


def replay(g: Trigraph, seq: PartitionSequence) -> WidthProfile:
    """Simulate seq on g and report the width after every step."""
    if seq.n != g.n:
        raise SequenceError(f"sequence is for n={seq.n}, trigraph has n={g.n}")
    state = ContractionState(g)
    initial = state.max_red_degree()
    widths = []
    for step in seq.steps:
        state.merge(step.a, step.b)
        widths.append(state.max_red_degree())
    overall = max([initial, *widths])
    return WidthProfile(initial, tuple(widths), overall)


def verify_d_sequence(g: Trigraph, seq: PartitionSequence, d: int) -> tuple[bool, WidthProfile]:
    """True iff seq is a full sequence of width at most d; profile always returned."""
    if not seq.is_full:
        raise PartialSequenceError(
            f"need a full sequence ({g.n - 1} steps), got {len(seq.steps)}")
    profile = replay(g, seq)
    return profile.overall_width <= d, profile
