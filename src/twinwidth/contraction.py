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
only pairs incident to the merged parts.  It is the package's one
quotient engine: `trigraph.quotient` reads its quotients off this state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SequenceError, TwinwidthError
from .trigraph import _NO_NEIGHBORS, Trigraph


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
    steps = []
    for u, v in merges:
        if not (0 <= u < n and 0 <= v < n):
            raise SequenceError(f"merge ({u + base},{v + base}) out of range for n={n}")
        ru, rv = u, v  # find both roots, halving each path on the way
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
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
    the largest such d, so a replay costs its merges' own work
    and not a scan of the live parts per step.  A dead part's neighbor
    sets are the shared empty frozenset, which nothing writes to.
    """

    def __init__(self, g: Trigraph):
        self.live: set[int] = set(range(g.n))
        self.black_adj: list[set[int]] = list(map(set, g.black_adj))
        self.red_adj: list[set[int]] = list(map(set, g.red_adj))
        self.red_count = [0] * (g.n + 1)
        for reds in self.red_adj:
            self.red_count[len(reds)] += 1
        self.top = max(map(len, self.red_adj), default=0)

    def merge(self, steps: Iterable[tuple[int, int]]) -> list[int]:
        """Merge each pair of live parts in turn; returns the max red degree after each step.

        This is the one merge body.  A step that names a dead part or one
        part twice raises before it changes anything, so the state stays
        valid at the last step that succeeded.
        """
        live, black, red, count = self.live, self.black_adj, self.red_adj, self.red_count
        top = self.top
        widths = []
        try:
            for a, b in steps:
                if a not in live or b not in live:
                    raise SequenceError(f"merge ({a},{b}) references a dead part")
                if a == b:
                    raise SequenceError(f"merge ({a},{a}) names the same part twice")
                if b < a:
                    a, b = b, a
                live.discard(b)
                black_a, red_a, black_b, red_b = black[a], red[a], black[b], red[b]
                count[len(red_a)] -= 1
                count[len(red_b)] -= 1
                black_a.discard(b)
                red_a.discard(b)
                black_b.discard(a)
                red_b.discard(a)
                # Red to b: red to the merged part, whatever it was to a.  A
                # part red to both loses one red neighbor; any other swaps b for a.
                for q in red_b:
                    red_q = red[q]
                    red_q.discard(b)
                    if a in red_q:
                        d = len(red_q)
                        count[d + 1] -= 1
                        count[d] += 1
                    else:
                        red_q.add(a)
                        black[q].discard(a)
                black_a -= red_b
                red_a |= red_b
                # Black to b: stays black if black to a, stays red if red to a.
                for q in black_b:
                    black[q].discard(b)
                # Black to one of a and b and not adjacent to the other: the
                # merged part sees a mixed cross, so the pair turns red.
                mixed = (black_a ^ black_b) - red_a
                black_a -= mixed
                red_a |= mixed
                for q in mixed:
                    black[q].discard(a)
                    red_q = red[q]
                    d = len(red_q)
                    red_q.add(a)
                    count[d] -= 1
                    count[d + 1] += 1
                    if d >= top:
                        top = d + 1
                d = len(red_a)
                count[d] += 1
                if d > top:
                    top = d
                black[b] = red[b] = _NO_NEIGHBORS
                while top and not count[top]:
                    top -= 1
                widths.append(top)
        finally:
            self.top = top  # a step that raises leaves the state as the last one left it
        return widths

    def merged(self, a: int, b: int) -> "ContractionState":
        """A copy with parts a and b merged; the receiver is left unchanged."""
        new = object.__new__(ContractionState)
        new.live = self.live.copy()
        new.black_adj = [s.copy() for s in self.black_adj]
        new.red_adj = [s.copy() for s in self.red_adj]
        new.red_count = self.red_count.copy()
        new.top = self.top
        new.merge(((a, b),))
        return new

    def fitting_pairs(self, d: int) -> Iterator[tuple[int, int]]:
        """Yield the live pairs (a, b), a < b, in lexicographic order, whose
        merge leaves every red degree at most d.

        The state's width must be at most d, or the first step raises
        TwinwidthError.  Then a merge can push above d only the merged
        part, whose red set is (red[a] | red[b] | (black[a] ^ black[b])) -
        {a, b}, and a part in that set at degree d red to neither a nor b.
        """
        if self.top > d:
            raise TwinwidthError(f"the state has width {self.top}, above the bound {d}")
        black, red, live = self.black_adj, self.red_adj, sorted(self.live)
        for i, a in enumerate(live):
            black_a, red_a = black[a], red[a]
            for b in live[i + 1:]:
                mixed = black_a ^ black[b]
                if len(mixed) > d + 2:  # the red set holds all of it but a and b
                    continue
                reds = mixed.union(red_a, red[b])
                reds -= {a, b}
                if len(reds) > d:
                    continue
                for q in reds:
                    red_q = red[q]
                    if len(red_q) == d and a not in red_q and b not in red_q:
                        break
                else:
                    yield a, b

    def max_red_degree(self) -> int:
        return self.top


def replay(g: Trigraph, seq: PartitionSequence) -> WidthProfile:
    """Simulate seq on g and report the width after every step."""
    if seq.n != g.n:
        raise SequenceError(f"sequence is for n={seq.n}, trigraph has n={g.n}")
    state = ContractionState(g)
    initial = state.max_red_degree()
    widths = state.merge(seq.steps)
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
