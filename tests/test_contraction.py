from itertools import combinations
import random

import pytest

from corpus import random_formula
from reference import (all_graphs, max_red_degree, pair_colors,
                       quotient_by_definition, quotient_width, redify, trigraph)
from twinwidth import (ContractionState, Dialect, PartitionSequence,
                       build_3col, build_3col_4sequence, replay,
                       sequence_from_vertex_merges, verify_d_sequence)
from twinwidth import WidthProfile
from twinwidth import exact_twinwidth
from twinwidth.errors import SequenceError, TwinwidthError


def test_merge_script_normalizes_to_representatives():
    seq = sequence_from_vertex_merges(4, [(3, 2), (3, 1), (0, 2)])
    assert seq.steps == ((2, 3), (1, 2), (0, 1))
    assert seq.is_full


def test_merge_script_rejects_same_part():
    with pytest.raises(SequenceError):
        sequence_from_vertex_merges(3, [(0, 1), (1, 0)])
    with pytest.raises(SequenceError):
        sequence_from_vertex_merges(3, [(0, 3)])
    # one merge more than a full sequence always names a single part twice
    for n in (1, 2, 5):
        with pytest.raises(SequenceError, match="already in the same part"):
            sequence_from_vertex_merges(n, [(v, v + 1) for v in range(n - 1)] + [(n - 1, 0)])


def test_empty_script_is_partial():
    seq = sequence_from_vertex_merges(2, [])
    assert not seq.is_full
    g = trigraph(2, [], [(0, 1)])
    profile = replay(g, seq)
    assert profile.per_step_width == ()
    assert profile.overall_width == 1  # the base trigraph's own width counts
    empty = sequence_from_vertex_merges(0, [])  # no vertices: 0 steps are full
    assert empty.is_full
    assert verify_d_sequence(trigraph(0), empty, 0) == (True, WidthProfile(0, (), 0))


def test_replay_twins():
    g = trigraph(2, [(0, 1)])
    profile = replay(g, sequence_from_vertex_merges(2, [(0, 1)]))
    assert profile.per_step_width == (0,)
    assert profile.overall_width == 0


def test_replay_p4_middle_merge():
    g = trigraph(4, [(0, 1), (1, 2), (2, 3)])
    profile = replay(g, sequence_from_vertex_merges(4, [(1, 2)]))
    assert profile.per_step_width == (2,)
    state = ContractionState(g)
    state.merge([(1, 2)])
    assert len(state.red_adj[1]) == 2


def test_replay_errors():
    g = trigraph(3, [(0, 1)])
    with pytest.raises(SequenceError):
        replay(g, sequence_from_vertex_merges(4, [(0, 1)]))
    with pytest.raises(SequenceError):
        replay(g, PartitionSequence(3, ((0, 1), (0, 1))))
    with pytest.raises(SequenceError, match=r"merge \(1,1\) names the same part twice"):
        ContractionState(g).merge([(1, 1)])


def test_verify_requires_full_sequence():
    g = trigraph(3, [(0, 1)])
    with pytest.raises(SequenceError, match=r"need a full sequence \(2 steps\), got 1"):
        verify_d_sequence(g, sequence_from_vertex_merges(3, [(0, 1)]), 1)
    with pytest.raises(SequenceError, match="sequence is for n=2, trigraph has n=3"):
        verify_d_sequence(g, sequence_from_vertex_merges(2, []), 1)  # short and for another n


def test_k4_is_a_zero_sequence_in_any_twin_order():
    k4 = trigraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    rng = random.Random(5)
    for _ in range(10):
        reps = list(range(4))
        merges = []
        while len(reps) > 1:
            a, b = rng.sample(reps, 2)
            merges.append((a, b))
            reps.remove(max(a, b))
        ok, profile = verify_d_sequence(k4, sequence_from_vertex_merges(4, merges), 0)
        assert ok and profile.overall_width == 0


def test_part_count_shrinks_by_one_per_step():
    g = trigraph(5, [(0, 1), (2, 3)])
    state = ContractionState(g)
    seq = sequence_from_vertex_merges(5, [(0, 1), (2, 3), (0, 4), (0, 2)])
    assert len(seq.steps) == g.n - 1
    for idx, step in enumerate(seq.steps, start=1):
        state.merge([step])
        assert len(state.live) == g.n - idx


def _random_full_merges(n, rng):
    reps = list(range(n))
    merges = []
    while len(reps) > 1:
        a, b = rng.sample(reps, 2)
        merges.append((a, b))
        reps.remove(max(a, b))
    return merges


def test_incremental_matches_definition_on_random_graphs():
    """Every prefix of random sequences agrees with the by-definition quotient."""
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        black = [e for e in pairs if rng.random() < 0.4]
        red = [e for e in pairs if e not in black and rng.random() < 0.25]
        g = trigraph(n, black, red)
        state = ContractionState(g)
        parts = {v: frozenset([v]) for v in range(n)}
        for a, b in _random_full_merges(n, rng):
            a, b = min(a, b), max(a, b)
            colors, width = pair_colors(state), state.max_red_degree()
            child = state.merged(a, b)
            assert (pair_colors(state), state.max_red_degree()) == (colors, width)
            state.merge([(a, b)])
            assert pair_colors(child) == pair_colors(state)
            assert child.max_red_degree() == state.max_red_degree()
            parts[a] = parts[a] | parts.pop(b)
            ordered = sorted(parts)
            by_def = quotient_by_definition(g, [parts[r] for r in ordered])
            expect = {(ordered[i], ordered[j]): color
                      for (i, j), color in by_def.items()}
            assert pair_colors(state) == expect


def test_fitting_pairs_match_the_merged_copies():
    """Along random scripts and for every bound d from the state's width up
    to n, fitting_pairs(d) yields, in order, the live pairs whose merged copy
    has width at most d, and scoring leaves the receiver as it was."""
    rng = random.Random(314)
    checks = 0
    for _ in range(80):
        n = rng.randint(2, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        black = [e for e in pairs if rng.random() < 0.4]
        red = [e for e in pairs if e not in black and rng.random() < 0.2]
        state = ContractionState(trigraph(n, black, red))
        for a, b in _random_full_merges(n, rng):
            colors, count = pair_colors(state), state.red_count.copy()
            widths = {p: state.merged(*p).max_red_degree()
                      for p in combinations(sorted(state.live), 2)}
            for d in range(state.max_red_degree(), n + 1):
                assert list(state.fitting_pairs(d)) == [p for p, w in widths.items() if w <= d]
                checks += len(widths)
            assert (pair_colors(state), state.red_count) == (colors, count)
            state.merge([(a, b)])
    assert checks > 20000


def test_fitting_pairs_refuse_a_bound_below_the_width():
    # the red path 0 - 1 - 2 has width 2, and merging 0 with 2 leaves width 1:
    # below the state's width a part outside the merge can decide, so it raises
    state = ContractionState(trigraph(3, [], [(0, 1), (1, 2)]))
    assert state.merged(0, 2).max_red_degree() == 1
    with pytest.raises(TwinwidthError, match=r"^the state has width 2, above the bound 1$"):
        next(state.fitting_pairs(1))
    assert list(state.fitting_pairs(2)) == [(0, 1), (0, 2), (1, 2)]


def test_width_monotone_under_redify():
    rng = random.Random(13)
    for g in list(all_graphs(4)):
        merges = _random_full_merges(4, rng)
        seq = sequence_from_vertex_merges(4, merges)
        assert replay(redify(g), seq).overall_width >= replay(g, seq).overall_width


def test_overall_width_includes_initial_trigraph():
    g = trigraph(4, [], [(0, 1), (0, 2), (0, 3)])
    seq = sequence_from_vertex_merges(4, [(1, 2), (1, 3), (0, 1)])
    profile = replay(g, seq)
    assert profile.initial_width == 3
    assert profile.overall_width >= 3
    assert profile.argmax_step == 0


def _scanned_width(state):
    """The maximum red degree by a scan of every live part."""
    return max((len(state.red_adj[p]) for p in state.live), default=0)


def test_red_degree_histogram_matches_scan_and_quotient():
    """The histogram's maximum follows a from-scratch scan as it rises and falls."""
    rng = random.Random(2025)
    rises = falls = 0
    for _ in range(25):
        n = rng.randint(2, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        black = [e for e in pairs if rng.random() < 0.3]
        red = [e for e in pairs if e not in black and rng.random() < 0.08]
        g = trigraph(n, black, red)
        state = ContractionState(g)
        parts = {v: {v} for v in range(n)}
        width = state.max_red_degree()
        assert width == _scanned_width(state) == max_red_degree(g)
        for a, b in _random_full_merges(n, rng):
            a, b = min(a, b), max(a, b)
            before = (state.red_count.copy(), state.top, state.max_red_degree())
            child = state.merged(a, b)
            if len(child.live) > 1:
                child.merge([sorted(child.live)[-2:]])
            assert (state.red_count, state.top, state.max_red_degree()) == before
            state.merge([(a, b)])
            parts[a] |= parts.pop(b)
            new = state.max_red_degree()
            by_def = quotient_width(g, [parts[r] for r in sorted(parts)])
            assert new == _scanned_width(state) == by_def
            assert all(not state.black_adj[p] & state.red_adj[p] for p in state.live)
            rises += new > width
            falls += new < width
            width = new
    assert rises > 0 and falls > 0


def _scanned_profile(g, seq):
    state = ContractionState(g)
    initial = _scanned_width(state)
    widths = []
    for step in seq.steps:
        state.merge([step])
        widths.append(_scanned_width(state))
    return WidthProfile(initial, tuple(widths), max([initial, *widths]))


def test_replay_matches_scanned_profile_on_reductions(mincol_demo, mincol_demo_sequence,
                                                      threecol_demo, threecol_demo_sequence):
    for g, seq in ((mincol_demo.graph, mincol_demo_sequence),
                   (threecol_demo.graph, threecol_demo_sequence)):
        assert seq.is_full
        assert replay(g, seq) == _scanned_profile(g, seq)


def test_engine_leaves_the_graph_alone(mincol_demo, mincol_demo_sequence):
    """The engine copies the graph's neighbor sets and never writes to them."""
    red_graph = trigraph(5, [(0, 1), (1, 2), (3, 4)], [(0, 2), (2, 3), (1, 4)])
    red_seq = sequence_from_vertex_merges(5, [(0, 1), (2, 3), (0, 4), (0, 2)])
    for g, seq in ((red_graph, red_seq), (mincol_demo.graph, mincol_demo_sequence)):
        before = [set(s) for s in g.black_adj + g.red_adj]
        profile = replay(g, seq)
        ContractionState(g).merged(0, 1)
        if g is red_graph:
            exact_twinwidth(g)
        assert list(g.black_adj + g.red_adj) == before
        assert replay(g, seq) == profile


def _random_red_trigraph(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    black = [e for e in pairs if rng.random() < 0.35]
    red = [e for e in pairs if e not in black and rng.random() < 0.2]
    return trigraph(n, black, red)


def test_one_merge_over_a_prefix_matches_stepwise_merges():
    """One merge over a prefix leaves the state that one-step merges plus
    max_red_degree reach step by step, and that state is the quotient."""
    rng = random.Random(1919)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = _random_red_trigraph(rng, n)
        script = _random_full_merges(n, rng)
        stepwise = ContractionState(g)
        parts = {v: frozenset([v]) for v in range(n)}
        widths = []
        for k, (a, b) in enumerate(script, start=1):
            stepwise.merge([(a, b)])
            widths.append(stepwise.max_red_degree())
            a, b = min(a, b), max(a, b)
            parts[a] = parts[a] | parts.pop(b)
            state = ContractionState(g)
            assert state.merge(script[:k]) == widths
            assert state.live == stepwise.live == set(parts)
            for merged in (state, stepwise):
                assert merged.max_red_degree() == max(len(merged.red_adj[v]) for v in merged.live)
            assert state.red_count == stepwise.red_count
            assert pair_colors(state) == pair_colors(stepwise)
            ordered = sorted(parts)
            by_def = quotient_by_definition(g, [parts[r] for r in ordered])
            assert pair_colors(state) == {(ordered[i], ordered[j]): color
                                          for (i, j), color in by_def.items()}
        assert replay(g, sequence_from_vertex_merges(n, script)).per_step_width == tuple(widths)


def test_failed_step_in_merge_leaves_a_valid_state():
    """A dead-part or same-part step raises mid-script; the state keeps the
    steps before it, and its width is the one a scan of the live parts finds."""
    rng = random.Random(4242)
    risen = 0
    for trial in range(60):
        n = rng.randint(3, 12)
        g = _random_red_trigraph(rng, n)
        seq = sequence_from_vertex_merges(n, _random_full_merges(n, rng))
        cut = rng.randint(1, len(seq.steps) - 1)
        a, b = seq.steps[cut - 1]
        bad, message = (((b, a), "references a dead part") if trial % 2 else
                        ((a, a), "names the same part twice"))
        state = ContractionState(g)
        initial = state.max_red_degree()
        with pytest.raises(SequenceError, match=message):
            state.merge([*seq.steps[:cut], bad, *seq.steps[cut:]])
        prefix = replay(g, PartitionSequence(n, seq.steps[:cut]))
        assert state.max_red_degree() == _scanned_width(state) == prefix.per_step_width[-1]
        assert len(state.live) == n - cut
        risen += state.max_red_degree() > initial
        # the state goes on from where the failed step left it
        assert state.merge(seq.steps[cut:]) == list(replay(g, seq).per_step_width[cut:])
    assert risen > 5


def test_replay_is_one_merge_loop(monkeypatch):
    """Replay runs the merge loop once: one merge call and no width query per step."""
    inst = build_3col(random_formula(10, 40, Dialect.NAE_THREE_SAT, random.Random(10)))
    seq = build_3col_4sequence(inst)
    calls = {"merge": 0, "max_red_degree": 0}
    for name in calls:
        original = getattr(ContractionState, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ContractionState, name, counted)
    ok, profile = verify_d_sequence(inst.graph, seq, 4)
    assert ok and len(profile.per_step_width) == inst.graph.n - 1 > 500
    assert calls["merge"] == 1
    assert calls["max_red_degree"] <= 1
