"""Property test: the incremental engine against the by-definition quotient.

Runs when the optional test extra (hypothesis) is installed.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from reference import (max_red_degree, pair_colors, quotient_by_definition,  # noqa: E402
                       quotient_width, trigraph)
from twinwidth import ContractionState  # noqa: E402


@st.composite
def trigraph_and_merges(draw):
    n = draw(st.integers(2, 10))
    black, red = [], []
    for u in range(n):
        for v in range(u + 1, n):
            color = draw(st.sampled_from(("none", "black", "red")))
            if color == "black":
                black.append((u, v))
            elif color == "red":
                red.append((u, v))
    reps = list(range(n))
    merges = []
    while len(reps) > 1:
        a, b = draw(st.lists(st.sampled_from(reps), min_size=2, max_size=2, unique=True))
        merges.append((min(a, b), max(a, b)))
        reps.remove(max(a, b))
    return trigraph(n, black, red), merges


@settings(max_examples=200, deadline=None)
@given(trigraph_and_merges())
def test_every_prefix_matches_quotient(case):
    g, merges = case
    state = ContractionState(g)
    parts = {v: {v} for v in range(g.n)}
    assert state.max_red_degree() == max_red_degree(g)
    for a, b in merges:
        state.merge([(a, b)])
        parts[a] |= parts.pop(b)
        reps = sorted(parts)
        by_def = quotient_by_definition(g, [parts[r] for r in reps])
        assert pair_colors(state) == {(reps[i], reps[j]): color for (i, j), color in by_def.items()}
        for p in range(g.n):  # symmetric and disjoint neighbor sets; none for dead parts
            black, red = state.black_adj[p], state.red_adj[p]
            assert not black & red and (p in state.live or not black | red)
            assert all(p in state.black_adj[q] for q in black)
            assert all(p in state.red_adj[q] for q in red)
        assert state.max_red_degree() == quotient_width(g, [parts[r] for r in reps])


@settings(max_examples=200, deadline=None)
@given(trigraph_and_merges())
def test_fitting_pairs_match_the_merged_copies(case):
    g, merges = case
    state = ContractionState(g)
    for a, b in merges:
        colors, count = pair_colors(state), state.red_count.copy()
        widths = {p: state.merged(*p).max_red_degree() for p in combinations(sorted(state.live), 2)}
        for d in range(state.max_red_degree(), g.n + 1):
            assert list(state.fitting_pairs(d)) == [p for p, w in widths.items() if w <= d]
        assert (pair_colors(state), state.red_count) == (colors, count)
        state.merge([(a, b)])
