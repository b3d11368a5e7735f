"""Partition sequences as merge scripts, with incremental width tracking.

A part is identified by its representative: the smallest vertex id it
contains.  A full sequence on n vertices has exactly max(n-1, 0) steps
and ends with at most one part; anything shorter is a partial sequence.

The incremental state keeps, for every live part, the parts it is black
to and the parts it is red to.  A part pair is black iff every cross
pair is a black edge, so when a and b merge, the color of the merged
part to a third part q follows from the colors of a-q and b-q alone:
black iff both were black, red iff either was red or q is adjacent to
only one of a and b, absent iff q is adjacent to neither.  This
reproduces the from-scratch quotient exactly, merge by merge, touching
only pairs incident to the merged parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import SequenceError
from .trigraph import Trigraph


@dataclass(frozen=True)
class PartitionSequence:
    n: int
    # (a, b) with a < b: merge the parts whose smallest members are a and b
    steps: tuple[tuple[int, int], ...]

    @property
    def is_full(self) -> bool:
        return len(self.steps) == max(self.n - 1, 0)


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
    if n < 0:
        raise SequenceError(f"vertex count must be non-negative, got {n}")
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
        steps.append((lo, hi))
    return PartitionSequence(n, tuple(steps))


class ContractionState:
    """Incremental quotient of a fixed base trigraph under merges.

    red_count[d] is the number of live parts of red degree d and top is
    at least the largest such d, so a replay costs its merges' own work
    and not a scan of the live parts per step.
    """

    def __init__(self, g: Trigraph):
        self.live: set[int] = set(range(g.n))
        self.black_adj: list[set[int]] = list(map(set, g.black_adj))
        self.red_adj: list[set[int]] = list(map(set, g.red_adj))
        self.red_count = [0] * (g.n + 1)
        for reds in self.red_adj:
            self.red_count[len(reds)] += 1
        self.top = max(map(len, self.red_adj), default=0)

    def merge(self, a: int, b: int) -> int:
        """Merge the live parts with representatives a and b; returns min(a, b)."""
        if a not in self.live or b not in self.live:
            raise SequenceError(f"merge ({a},{b}) references a dead part")
        if a == b:
            raise SequenceError(f"merge ({a},{a}) names the same part twice")
        if b < a:
            a, b = b, a
        self.live.discard(b)
        black, red, count = self.black_adj, self.red_adj, self.red_count
        black_a, red_a, black_b, red_b = black[a], red[a], black[b], red[b]
        count[len(red_a)] -= 1
        count[len(red_b)] -= 1
        black_a.discard(b)
        red_a.discard(b)
        black_b.discard(a)
        red_b.discard(a)
        top = self.top
        # Red to b: red to the merged part, whatever it was to a.
        for q in red_b:
            red_q = red[q]
            d = len(red_q)
            red_q.discard(b)
            red_q.add(a)
            red_a.add(q)
            black_a.discard(q)
            black[q].discard(a)
            if len(red_q) != d:
                count[d] -= 1
                count[len(red_q)] += 1
                top = max(top, len(red_q))
        # Black to b: stays black if black to a, stays red if red to a.
        for q in black_b:
            black[q].discard(b)
        # Black to one of a and b and not adjacent to the other: the
        # merged part sees a mixed cross, so the pair turns red.
        for q in (black_a ^ black_b) - red_a:
            black_a.discard(q)
            black[q].discard(a)
            d = len(red[q])
            red[q].add(a)
            red_a.add(q)
            count[d] -= 1
            count[d + 1] += 1
            top = max(top, d + 1)
        count[len(red_a)] += 1
        self.top = max(top, len(red_a))
        black[b] = set()
        red[b] = set()
        return a

    def merged(self, a: int, b: int) -> "ContractionState":
        """A copy with parts a and b merged; the receiver is left unchanged."""
        new = object.__new__(ContractionState)
        new.live = self.live.copy()
        new.black_adj = [s.copy() for s in self.black_adj]
        new.red_adj = [s.copy() for s in self.red_adj]
        new.red_count = self.red_count.copy()
        new.top = self.top
        new.merge(a, b)
        return new

    def merged_width(self, a: int, b: int) -> int:
        """merged(a, b).max_red_degree() for live a != b, without building the copy."""
        black, red, count = self.black_adj, self.red_adj, self.red_count
        reds = (red[a] | red[b] | (black[a] ^ black[b])) - {a, b}
        width, old = len(reds), [len(red[a]), len(red[b])]
        for q in reds:
            red_q = red[q]
            old.append(len(red_q))
            width = max(width, len(red_q) + 1 - (a in red_q) - (b in red_q))
        # Every other part keeps its degree: the histogram less a, b and reds.
        top = self.top
        if top <= width:
            return width
        for d in old:
            count[d] -= 1
        while top and not count[top]:
            top -= 1
        for d in old:
            count[d] += 1
        return max(width, top)

    def max_red_degree(self) -> int:
        count, top = self.red_count, self.top
        while top and not count[top]:
            top -= 1
        self.top = top
        return top


def replay(g: Trigraph, seq: PartitionSequence) -> WidthProfile:
    """Simulate seq on g and report the width after every step."""
    if seq.n != g.n:
        raise SequenceError(f"sequence is for n={seq.n}, trigraph has n={g.n}")
    state = ContractionState(g)
    initial = state.max_red_degree()
    widths = []
    for a, b in seq.steps:
        state.merge(a, b)
        widths.append(state.max_red_degree())
    overall = max([initial, *widths])
    return WidthProfile(initial, tuple(widths), overall)


def verify_d_sequence(g: Trigraph, seq: PartitionSequence, d: int) -> tuple[bool, WidthProfile]:
    """True iff seq is a full sequence of width at most d; profile always returned."""
    # A sequence for another n is left to replay's size error, which is the real fault.
    if seq.n == g.n and not seq.is_full:
        raise SequenceError(
            f"need a full sequence ({g.n - 1} steps), got {len(seq.steps)}")
    profile = replay(g, seq)
    return profile.overall_width <= d, profile
