import ast
from itertools import count
import pathlib
import random
import sys

import pytest

from corpus import random_formula, random_threesat_corpus
from reference import (all_graphs, brute_chromatic, brute_nae, brute_sat,
                       brute_twinwidth, greedy_merge_width, random_cograph)
from reference import (backtrack_solve, edges, exact_twinwidth_by_copies, greedy_clique_by_scan,
                       redify, trigraph)
import twinwidth
from twinwidth import (CnfFormula, Coloring, ContractionState, Dialect,
                       chromatic_number, exact_twinwidth, is_k_colorable,
                       is_proper, nae_satisfies, satisfies,
                       sequence_from_vertex_merges, solve_nae, solve_sat,
                       verify_d_sequence)
from twinwidth import build_mincol
from twinwidth.errors import BudgetExceeded, TwinwidthError
from twinwidth.oracles import _base_order, greedy_clique

K3 = trigraph(3, [(0, 1), (1, 2), (0, 2)])
C5 = trigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = trigraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
P4 = trigraph(4, [(0, 1), (1, 2), (2, 3)])
# its mincol graph (117 vertices, 6 colors) once took up to 2.49M search
# expansions, depending only on how the vertices were numbered
STRESS = CnfFormula(3, ((-3, -3, -2), (-2, -1, 3), (-1, 2, 2)), Dialect.THREE_SAT)


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return trigraph(g.n, [(perm[u], perm[v]) for u, v in edges(g.black_adj)])


def test_is_proper():
    assert is_proper(K3, Coloring((1, 2, 3), 3))
    assert not is_proper(K3, Coloring((1, 1, 2), 3))
    with pytest.raises(TwinwidthError, match="coloring has 2 entries, graph has 3 vertices"):
        is_proper(K3, Coloring((1, 2), 3))
    with pytest.raises(TwinwidthError, match="propriety is defined for plain graphs"):
        is_proper(trigraph(2, [], [(0, 1)]), Coloring((1, 2), 2))


def test_coloring_colors_lie_within_budget():
    with pytest.raises(TwinwidthError, match=r"vertex 0 has color 0, outside 1\.\.1"):
        Coloring((0,), 1)
    with pytest.raises(TwinwidthError, match=r"vertex 1 has color 3, outside 1\.\.2"):
        Coloring((1, 3), 2)


def test_chromatic_examples():
    assert chromatic_number(C5)[0] == 3
    assert chromatic_number(trigraph(5))[0] == 1
    assert chromatic_number(K4)[0] == 4
    assert chromatic_number(trigraph(0))[0] == 0


def test_k_colorable_examples():
    ok, witness = is_k_colorable(K4, 3)
    assert not ok and witness is None
    ok, witness = is_k_colorable(trigraph(3, [(0, 1), (1, 2)]), 2)
    assert ok
    # middle vertex has the highest degree, so it is colored first
    assert witness.colors == (2, 1, 2)
    assert is_proper(trigraph(3, [(0, 1), (1, 2)]), witness)


def test_no_colors_and_no_vertices():
    p3 = trigraph(3, [(0, 1), (1, 2)])
    assert is_k_colorable(p3, 0) == (False, None)
    assert is_k_colorable(p3, -2) == (False, None)
    assert is_k_colorable(p3, 0, budget=0) == (False, None)
    assert is_k_colorable(trigraph(0), 0) == (True, Coloring((), 0))
    assert is_k_colorable(trigraph(0), -1) == (True, Coloring((), 0))
    with pytest.raises(TwinwidthError, match="colorability is defined for plain graphs"):
        is_k_colorable(trigraph(2, [], [(0, 1)]), 0)
    with pytest.raises(TwinwidthError, match="chromatic number is defined for plain graphs"):
        chromatic_number(trigraph(2, [], [(0, 1)]))
    assert chromatic_number(trigraph(1)) == (1, Coloring((1,), 1))


def test_k_colorable_is_deterministic():
    g = trigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    runs = {is_k_colorable(g, 3)[1].colors for _ in range(3)}
    assert len(runs) == 1


def test_chromatic_cross_check_small():
    for g in all_graphs(4):
        chi, _ = chromatic_number(g)
        assert chi == brute_chromatic(g)
        assert is_k_colorable(g, chi)[0]
        assert chi == 1 or not is_k_colorable(g, chi - 1)[0]
    rng = random.Random(21)
    for n in (5, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(120):
            g = trigraph(n, [e for e in pairs if rng.random() < 0.45])
            chi, _ = chromatic_number(g)
            assert chi == brute_chromatic(g)
            ok, witness = is_k_colorable(g, chi)
            assert ok and is_proper(g, witness)


def test_chromatic_witness_uses_exactly_chi_colors():
    rng = random.Random(22)
    graphs = list(all_graphs(4)) + [P4, C5, K4, trigraph(0)]
    pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    graphs += [trigraph(7, [e for e in pairs if rng.random() < 0.5]) for _ in range(40)]
    for g in graphs:
        chi, witness = chromatic_number(g)
        assert is_proper(g, witness)
        assert witness.k == chi and set(witness.colors) == set(range(1, chi + 1))
    # greedy meets the clique bound on P4, so no search runs and no budget is spent
    assert chromatic_number(P4, budget=0) == (2, Coloring((2, 1, 2, 1), 2))


def test_colorability_budget():
    with pytest.raises(BudgetExceeded):
        is_k_colorable(C5, 3, budget=1)
    with pytest.raises(BudgetExceeded) as exc:
        chromatic_number(C5, budget=1)
    assert exc.value.upper is not None


def test_greedy_clique_matches_full_scan():
    rng = random.Random(23)
    graphs = [trigraph(0), P4, C5, K4, build_mincol(STRESS).graph]
    for _ in range(200):
        n = rng.randint(1, 40)
        density = rng.choice((0.1, 0.3, 0.6, 0.9))
        graphs.append(trigraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                        if rng.random() < density]))
    for g in graphs:
        assert greedy_clique(g, _base_order(g)) == greedy_clique_by_scan(g)


def test_coloring_verdicts_survive_relabeling():
    corpus = random_threesat_corpus(100, seed=20_240_303)  # part of acceptance 04
    # the stress graph, then two satisfiable corpus formulas and one that is not
    cases = [(STRESS, 16)] + [(corpus[i], 4) for i in (1, 3, 21)]
    # about ten times the median search over 64 relabelings of STRESS (189)
    budget = 2_000
    for formula, copies in cases:
        inst = build_mincol(formula)
        g, k = inst.graph, inst.color_budget
        expected = is_k_colorable(g, k, budget=budget)[0], chromatic_number(g, budget=budget)[0]
        assert expected[0] == (solve_sat(formula) is not None)
        rng = random.Random(g.n)
        for _ in range(copies):
            h = relabeled(g, rng)
            ok, witness = is_k_colorable(h, k, budget=budget)
            chi, chi_witness = chromatic_number(h, budget=budget)
            assert (ok, chi) == expected
            assert not ok or is_proper(h, witness)
            assert is_proper(h, chi_witness)


def test_many_k_cliques_cost_no_more_than_one_try_per_vertex():
    # K_2k minus a perfect matching has chromatic number k and 2^k
    # k-cliques; listing every one of them ran over budget=100_000 at k=14
    for k in (8, 14, 20):
        n = 2 * k
        g = trigraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if u // 2 != v // 2])
        ok, witness = is_k_colorable(g, k, budget=n)
        assert ok and is_proper(g, witness)
        assert chromatic_number(g, budget=n)[0] == k
        # its greedy clique already has k members
        assert is_k_colorable(g, k - 1, budget=0) == (False, None)

def test_exact_twinwidth_examples():
    assert exact_twinwidth(K4)[0] == 0
    k22 = trigraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert exact_twinwidth(k22)[0] == 0
    width, seq = exact_twinwidth(P4)
    assert width == 1
    assert verify_d_sequence(P4, seq, 1)[0]
    for g in all_graphs(3):
        assert exact_twinwidth(g)[0] == 0


def test_exact_twinwidth_cross_check():
    for g in all_graphs(4):
        width, seq = exact_twinwidth(g)
        assert width == brute_twinwidth(g)
        ok, _ = verify_d_sequence(g, seq, width)
        assert ok
    rng = random.Random(4)
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    for _ in range(60):
        g = trigraph(5, [e for e in pairs if rng.random() < 0.5])
        assert exact_twinwidth(g)[0] == brute_twinwidth(g)


def test_exact_twinwidth_on_trigraphs_with_red_edges():
    width, seq = exact_twinwidth(redify(P4))
    assert width >= 1
    assert verify_d_sequence(redify(P4), seq, width)[0]


def test_exact_twinwidth_budget():
    g = trigraph(7, [(i, (i + 1) % 7) for i in range(7)])
    with pytest.raises(BudgetExceeded) as exc:
        exact_twinwidth(g, budget=1)
    # C7: the width-0 level fails in one expansion, so width 1 is the bound
    assert (exc.value.lower, exc.value.upper) == (1, None)
    with pytest.raises(BudgetExceeded):
        exact_twinwidth(g, budget=7)
    width, seq = exact_twinwidth(g, budget=8)
    assert width == 2
    assert list(seq.steps) == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return trigraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _pinned_twinwidth_graphs():
    graphs = {f"path-{n}": trigraph(n, [(i, i + 1) for i in range(n - 1)]) for n in (5, 8, 11)}
    graphs.update((f"cycle-{n}", trigraph(n, [(i, (i + 1) % n) for i in range(n)]))
                  for n in (6, 9, 11))
    graphs.update((f"cograph-{seed}", random_cograph(n, random.Random(seed)))
                  for seed, n in ((1, 7), (2, 10)))
    graphs.update((f"gnp-{n}-{p}-{seed}", _gnp(n, p, seed)) for seed, (n, p) in enumerate(
        [(7, .5), (8, .3), (9, .5), (10, .3), (10, .5), (11, .3), (11, .5)]))
    graphs["red"] = trigraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (1, 4)],
                                  [(0, 3), (2, 5), (1, 6)])
    graphs["width1-7"] = trigraph(7, [(0, 4), (0, 5), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (3, 4)])
    graphs["width1-red-6"] = trigraph(6, [(0, 4), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)],
                                      [(0, 5)])
    return graphs


# name: (width, witness steps, smallest budget that decides); pinned so
# that any change to the search order or its pruning shows here
TWINWIDTH_PINS = {
    "path-5": (1, [(0, 1), (0, 2), (0, 3), (0, 4)], 5),
    "path-8": (1, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)], 8),
    "path-11": (1, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9),
                    (0, 10)], 11),
    "cycle-6": (2, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], 7),
    "cycle-9": (2, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8)], 10),
    "cycle-11": (2, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9),
                     (0, 10)], 12),
    "cograph-1": (0, [(0, 1), (2, 3), (2, 4), (2, 5), (2, 6), (0, 2)], 6),
    "cograph-2": (0, [(1, 2), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (1, 3), (0, 1)], 9),
    "gnp-7-0.5-0": (1, [(0, 1), (0, 3), (0, 2), (0, 4), (0, 5), (0, 6)], 7),
    "gnp-8-0.3-1": (2, [(0, 1), (0, 4), (0, 5), (0, 7), (0, 2), (0, 3), (0, 6)], 18),
    "gnp-9-0.5-2": (2, [(0, 4), (1, 2), (1, 5), (1, 3), (0, 7), (0, 1), (0, 6), (0, 8)], 13),
    "gnp-10-0.3-3": (2, [(0, 2), (0, 6), (0, 7), (0, 1), (0, 4), (0, 8), (0, 3), (0, 5), (0, 9)], 18),
    "gnp-10-0.5-4": (2, [(0, 1), (0, 5), (2, 4), (0, 2), (3, 6), (0, 3), (0, 7), (0, 8), (0, 9)], 40),
    "gnp-11-0.3-5": (2, [(0, 4), (0, 6), (2, 5), (3, 9), (3, 8), (1, 2), (3, 7), (0, 1), (0, 3),
                         (0, 10)], 14),
    "gnp-11-0.5-6": (3, [(0, 4), (0, 6), (1, 2), (1, 3), (0, 8), (0, 1), (0, 5), (0, 7), (0, 9),
                         (0, 10)], 65),
    "red": (2, [(1, 3), (0, 6), (0, 2), (0, 1), (0, 4), (0, 5)], 8),
    "width1-7": (1, [(0, 5), (3, 4), (0, 2), (0, 3), (0, 1), (0, 6)], 11),
    "width1-red-6": (1, [(3, 5), (0, 2), (0, 3), (0, 1), (0, 4)], 7),
}


def test_exact_twinwidth_pinned_witnesses_and_budgets():
    graphs = _pinned_twinwidth_graphs()
    assert graphs.keys() == TWINWIDTH_PINS.keys()
    for name, g in graphs.items():
        width, steps, budget = TWINWIDTH_PINS[name]
        if g.n <= 8:
            assert brute_twinwidth(g) == width, name
        found, seq = exact_twinwidth(g)
        assert (found, list(seq.steps)) == (width, steps), name
        assert verify_d_sequence(g, seq, width)[0]
        assert exact_twinwidth(g, budget=budget) == (found, seq), name
        # one short of deciding, the search is on the answer's level: every width below is ruled out
        with pytest.raises(BudgetExceeded) as exc:
            exact_twinwidth(g, budget=budget - 1)
        assert (exc.value.lower, exc.value.upper) == (width, None), name


def test_exact_twinwidth_witnesses_are_normalized():
    """The search merges live representatives a < b, which is already the normal form."""
    for name, g in _pinned_twinwidth_graphs().items():
        seq = exact_twinwidth(g)[1]
        assert seq == sequence_from_vertex_merges(g.n, seq.steps), name


def test_exact_twinwidth_beats_the_greedy_bound():
    # greedy merging reaches width 2 on these, so only the exact search finds width 1
    graphs = _pinned_twinwidth_graphs()
    for name in ("width1-7", "width1-red-6"):
        g = graphs[name]
        width, steps, _ = TWINWIDTH_PINS[name]
        assert (greedy_merge_width(g), brute_twinwidth(g), width) == (2, 1, 1), name
        found, seq = exact_twinwidth(g)
        assert (found, list(seq.steps)) == (width, steps), name
        assert verify_d_sequence(g, seq, width)[0]


def test_exact_twinwidth_budget_zero_scores_no_pair(monkeypatch):
    """Budget 0 stops at the first level's count: no state is built and no pair scored."""
    calls = {"__init__": 0, "fitting_pairs": 0}
    for name in calls:
        original = getattr(ContractionState, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ContractionState, name, counted)
    with pytest.raises(BudgetExceeded):
        exact_twinwidth(_gnp(40, 0.1, 40), budget=0)
    assert calls == {"__init__": 0, "fitting_pairs": 0}


def test_exact_twinwidth_copies_only_the_states_it_descends_into(monkeypatch):
    # the budget counts one per level and one per descent, so a search that
    # copies a state only to descend makes budget - levels copies
    calls = 0
    merged = ContractionState.merged

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return merged(self, a, b)

    monkeypatch.setattr(ContractionState, "merged", counted)
    copies = {}
    for name, g in _pinned_twinwidth_graphs().items():
        width, _, budget = TWINWIDTH_PINS[name]
        levels = width - ContractionState(g).max_red_degree() + 1
        calls = 0
        exact_twinwidth(g)
        copies[name] = (calls, budget - levels)
    assert all(made == expected for made, expected in copies.values()), copies
    assert copies["width1-7"] == (9, 9)


def test_exact_twinwidth_matches_the_search_by_copies():
    # the same width, witness and smallest deciding budget as the search
    # that scores each pair by its merged copy, and the same lower bound
    # one expansion short of deciding
    rng = random.Random(2026)
    with_red = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        black = [e for e in pairs if rng.random() < rng.choice((0.3, 0.5))]
        red = [e for e in pairs if e not in black and rng.random() < 0.3] if rng.random() < 0.4 else []
        with_red += bool(red)
        g = trigraph(n, black, red)
        width, seq, budget = exact_twinwidth_by_copies(g)
        assert exact_twinwidth(g) == exact_twinwidth(g, budget=budget) == (width, seq)
        lowers = []
        for search in (exact_twinwidth, exact_twinwidth_by_copies):
            with pytest.raises(BudgetExceeded) as exc:
                search(g, budget=budget - 1)
            lowers.append(exc.value.lower)
        assert lowers == [width, width]
    assert with_red > 50, with_red


def test_exact_twinwidth_skip_bound_is_sound():
    # each budget short of deciding raises with a lower bound that brute force confirms
    for seed in range(150):
        g = _gnp(6, (seed % 9 + 1) / 10, seed)
        for h in (g, redify(g)):
            truth = brute_twinwidth(h)
            for budget in count():
                try:
                    width, _ = exact_twinwidth(h, budget=budget)
                except BudgetExceeded as exc:
                    assert exc.lower <= truth, (seed, budget)
                else:
                    assert width == truth, seed
                    break


def _pinned_coloring_graphs(mincol_demo, threecol_demo):
    """name: (graph, k)."""
    petersen = trigraph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    # Groetzsch: the Mycielskian of C5, triangle-free with chromatic number 4
    groetzsch = trigraph(11, [(i, (i + 1) % 5) for i in range(5)]
                              + [(5 + i, (i + s) % 5) for i in range(5) for s in (1, 4)]
                              + [(10, 5 + i) for i in range(5)])
    # M5: the Mycielskian of Groetzsch, triangle-free with chromatic number 5
    pairs = sorted(edges(groetzsch.black_adj))
    m5 = trigraph(23, pairs + [(11 + u, v) for u, v in pairs] + [(11 + v, u) for u, v in pairs]
                  + [(22, 11 + i) for i in range(11)])
    # not 3-colorable (brute force agrees), and the precoloring of the
    # greedy clique {0, 1, 8} already leaves a vertex without a color
    dead_end = trigraph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 8), (1, 4), (1, 5), (1, 6), (1, 8),
                            (2, 3), (2, 5), (2, 7), (2, 8), (3, 4), (3, 6), (3, 7), (4, 5), (5, 7),
                            (5, 8), (6, 7), (7, 8)])
    # W6: a hub joined to every vertex of C5
    wheel = trigraph(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)])
    return {
        "C5": (C5, 2), "C7": (trigraph(7, [(i, (i + 1) % 7) for i in range(7)]), 3),
        "petersen": (petersen, 3), "groetzsch": (groetzsch, 3), "W6": (wheel, 4), "K4": (K4, 4),
        "mincol-demo-5": (mincol_demo.graph, 5), "mincol-demo-6": (mincol_demo.graph, 6),
        "threecol-demo-3": (threecol_demo.graph, 3),
        "gnp-24-0.5-24": (_gnp(24, .5, 24), 6), "gnp-28-0.6-22": (_gnp(28, .6, 22), 8),
        "gnp-30-0.4-25": (_gnp(30, .4, 25), 6),
        "gnp-30-0.7-28": (_gnp(30, .7, 28), 9),  # the n*k enumeration cap binds
        # k >= clique + 2, so colors above max_used + 1 are cut by symmetry
        "groetzsch-4": (groetzsch, 4), "M5-4": (m5, 4), "M5-5": (m5, 5),
        "precolor-dead-end-9": (dead_end, 3),
    }


# name: (k-colorable, witness colors as digits, smallest budget that decides
# k, chromatic number, smallest budget that decides it, the bounds of the
# BudgetExceeded one below that); pinned so that any change to the search
# order, its pruning or its clique enumeration shows here
COLORING_PINS = {
    "C5": (False, None, 4, 3, 4, (2, 3)),
    "C7": (True, "1212123", 7, 3, 6, (2, 3)),
    "petersen": (True, "1212321332", 10, 3, 4, (2, 3)),
    "groetzsch": (False, None, 26, 4, 26, (3, 4)),
    "W6": (True, "232341", 6, 4, 5, (3, 4)),
    "K4": (True, "1234", 4, 4, 0, None),
    "mincol-demo-5": (False, None, 0, 6, 104, (6, 8)),
    "mincol-demo-6": (True, "5623415623415623415623415623415623415623415623415623"
                            "4156234156234156234156234156234156234156234156234113", 104, 6, 104, (6, 8)),
    "threecol-demo-3": (True, "32323232332323232322323232323232323232232323232323"
                              "23232323323232321231321232133121321321231", 91, 3, 91, (3, 4)),
    "gnp-24-0.5-24": (True, "615462354126123534315413", 47, 6, 47, (6, 7)),
    "gnp-28-0.6-22": (False, None, 206, 9, 206, (8, 9)),
    "gnp-30-0.4-25": (True, "641235213254525144163131664535", 186, 6, 186, (6, 7)),
    "gnp-30-0.7-28": (False, None, 13, 10, 30, (10, 11)),
    # triangle-free, so the clique precolors 2 of the k >= 4 colors and the
    # symmetry cut (a new color is only max used + 1) binds at the first levels
    "groetzsch-4": (True, "21231232341", 11, 4, 26, (3, 4)),
    "M5-4": (False, None, 883, 5, 883, (4, 5)),
    "M5-5": (True, "32342111112323423434521", 23, 5, 883, (4, 5)),
    "precolor-dead-end-9": (False, None, 3, 4, 3, (3, 4)),
}


def test_coloring_pinned_witnesses_and_budgets(mincol_demo, threecol_demo):
    graphs = _pinned_coloring_graphs(mincol_demo, threecol_demo)
    assert graphs.keys() == COLORING_PINS.keys()
    for name, (g, k) in graphs.items():
        verdict, digits, budget, chi, chi_budget, bounds = COLORING_PINS[name]
        ok, witness = is_k_colorable(g, k)
        assert (ok, witness and "".join(map(str, witness.colors))) == (verdict, digits), name
        assert is_k_colorable(g, k, budget) == (ok, witness), name
        if budget:
            with pytest.raises(BudgetExceeded):
                is_k_colorable(g, k, budget - 1)
        assert chromatic_number(g)[0] == chi, name
        assert chromatic_number(g, chi_budget) == chromatic_number(g), name
        if chi_budget:
            with pytest.raises(BudgetExceeded) as exc:
                chromatic_number(g, chi_budget - 1)
            assert (exc.value.lower, exc.value.upper) == bounds, name


def _depth():
    """The caller's call depth, as the interpreter counts it for its recursion limit."""
    limit, depth = sys.getrecursionlimit(), 1
    while True:
        try:  # refused while the depth here is at least the new limit
            sys.setrecursionlimit(depth)
            break
        except RecursionError:
            depth += 1
    sys.setrecursionlimit(limit)
    return depth - 2


def test_searches_do_not_recurse():
    # the loops need 6 calls below this frame; a recursion of one call per
    # colored vertex, clique member or merge overflows on each input
    cycle = trigraph(301, [(i, (i + 1) % 301) for i in range(301)])
    clique = trigraph(40, [(i, j) for i in range(40) for j in range(i + 1, 40)])
    graph = _pinned_twinwidth_graphs()["gnp-11-0.5-6"]
    limit, trace = sys.getrecursionlimit(), sys.gettrace()
    sys.settrace(None)  # a trace function would run a call deeper, past the lowered limit
    sys.setrecursionlimit(_depth() + 7)
    try:
        assert is_k_colorable(cycle, 3)[0]
        assert is_k_colorable(clique, 40)[0]  # the clique enumeration nests 40 members deep
        assert exact_twinwidth(graph)[0] == 3
    finally:
        sys.setrecursionlimit(limit)
        sys.settrace(trace)


def test_no_function_calls_itself():
    for path in sorted(pathlib.Path(twinwidth.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls = {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
                assert not calls & {fn.name, f"self.{fn.name}"}, f"{path.name}: {fn.name} recurses"


def test_exact_twinwidth_cographs():
    rng = random.Random(17)
    for _ in range(25):
        g = random_cograph(rng.randint(1, 8), rng)
        width, seq = exact_twinwidth(g)
        assert width == 0
        assert verify_d_sequence(g, seq, 0)[0]


def test_solve_sat_examples():
    f = CnfFormula(1, ((1, 1, 1),), Dialect.THREE_SAT)
    assert solve_sat(f) == {1: True}
    f = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)), Dialect.THREE_SAT)
    assert solve_sat(f) is None
    f = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)), Dialect.THREE_SAT)
    model = solve_sat(f)
    assert model is not None and satisfies(f, model)
    assert satisfies(f, {1: False, 2: True, 3: True})


def test_solve_sat_lexicographic():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 5)
        m = rng.randint(max(1, (n + 2) // 3), 6)
        f = random_formula(n, m, Dialect.THREE_SAT, rng)
        assert solve_sat(f) == brute_sat(f)


def test_solve_nae_examples():
    f = CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT)
    assert solve_nae(f) == {1: False, 2: False, 3: True}
    f2 = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)), Dialect.NAE_THREE_SAT)
    model = solve_nae(f2)
    assert model is not None and nae_satisfies(f2, model)


def test_solve_nae_matches_enumeration_and_complement_symmetry():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(3, 5)
        m = rng.randint(max(1, (n + 2) // 3), 5)
        f = random_formula(n, m, Dialect.NAE_THREE_SAT, rng)
        model = solve_nae(f)
        assert model == brute_nae(f)
        if model is not None:
            flipped = {v: not b for v, b in model.items()}
            assert nae_satisfies(f, flipped)
        # negating every literal preserves NAE-satisfiability
        negated = CnfFormula(
            f.n_vars, tuple(tuple(-l for l in c) for c in f.clauses), f.dialect)
        assert (solve_nae(negated) is None) == (model is None)


def test_solvers_are_repeatable():
    rng = random.Random(43)
    f = random_formula(4, 5, Dialect.THREE_SAT, rng)
    g = random_formula(5, 4, Dialect.NAE_THREE_SAT, rng)
    assert len({tuple(sorted((solve_sat(f) or {}).items())) for _ in range(3)}) == 1
    assert len({tuple(sorted((solve_nae(g) or {}).items())) for _ in range(3)}) == 1


def test_solve_nae_demo(nae_demo, nae_demo_assignment):
    assert nae_satisfies(nae_demo, nae_demo_assignment)
    model = solve_nae(nae_demo)
    assert model is not None and nae_satisfies(nae_demo, model)


def test_solver_dialect_guards():
    sat = CnfFormula(3, ((1, 2, 3),), Dialect.THREE_SAT)
    nae = CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT)
    with pytest.raises(TwinwidthError, match="solve_sat expects the 3-SAT dialect"):
        solve_sat(nae)
    with pytest.raises(TwinwidthError, match="solve_nae expects the NAE-3-SAT dialect"):
        solve_nae(sat)


def test_solvers_match_plain_backtracking():
    # unit propagation prunes only subtrees without a model, so index-order
    # DPLL meets its first model where plain backtracking does.  At m = 4n
    # no NAE formula is satisfiable, so NAE also runs at m = 2n.
    rng = random.Random(53)
    models = 0
    for dialect, ratio in ((Dialect.THREE_SAT, 4), (Dialect.NAE_THREE_SAT, 4),
                           (Dialect.NAE_THREE_SAT, 2)):
        solve = solve_nae if dialect is Dialect.NAE_THREE_SAT else solve_sat
        for _ in range(24):
            n = rng.randint(16, 20)
            f = random_formula(n, ratio * n, dialect, rng)
            model = solve(f)
            assert model == backtrack_solve(f)
            models += model is not None
    assert models >= 12
