"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines.  Oracle budgets are node-expansion counts pinned here; they are
sized far above observed usage so results are deterministic and the
whole suite stays well under its time budget.  One more test pins the
coloring search's expansions on two of the corpora.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from corpus import (exhaustive_threesat_corpus, random_nae_corpus,
                    random_formula, random_threesat_corpus,
                    structured_nae_corpus)
from reference import pair_colors, quotient_by_definition, random_cograph, redify, trigraph
from twinwidth import (ContractionState, Dialect,
                       build_3col, build_3col_4sequence, build_mincol,
                       build_mincol_3sequence, chromatic_number,
                       exact_twinwidth, is_k_colorable, is_proper, lift_to_k,
                       mincol_assignment_from_coloring,
                       mincol_coloring_from_assignment,
                       satisfies, solve_nae,
                       solve_sat, threecol_coloring_from_assignment,
                       verify_d_sequence)
from twinwidth import oracles
from twinwidth.mincol import mincol_size
from twinwidth.trigraph import edge_count
from conftest import NAE_DEMO_SUBDIVISIONS

COLOR_BUDGET = 50_000_000
TWW_BUDGET = 10_000_000


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    info = {}
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    detail = info.get("detail", "")
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail}{elapsed:.1f}s)")


# --- shared corpora ---------------------------------------------------------

@pytest.fixture(scope="module")
def mincol_200():
    rng = random.Random(20_240_101)
    out = []
    for _ in range(200):
        n = rng.randint(2, 6)
        m = rng.randint(max(1, (n + 2) // 3), 8)
        f = random_formula(n, m, Dialect.THREE_SAT, rng)
        out.append((f, build_mincol(f)))
    return out


@pytest.fixture(scope="module")
def threecol_200():
    # the NAE dialect needs three distinct variables per clause and full
    # coverage, so n starts at 3 rather than the criterion's literal 1
    rng = random.Random(20_240_202)
    out = []
    for _ in range(200):
        n = rng.randint(3, 7)
        m = rng.randint(max(1, (n + 2) // 3), 8)
        f = random_formula(n, m, Dialect.NAE_THREE_SAT, rng)
        out.append((f, build_3col(f)))
    return out


@pytest.fixture(scope="module")
def sat_corpus():
    return exhaustive_threesat_corpus((2, 3), 3) + \
        random_threesat_corpus(100, seed=20_240_303)


@pytest.fixture(scope="module")
def sat_corpus_verdicts(sat_corpus):
    """(formula, instance, model) for the whole coloring-number corpus."""
    out = []
    for f in sat_corpus:
        out.append((f, build_mincol(f), solve_sat(f)))
    return out


@pytest.fixture(scope="module")
def nae_corpus():
    corpus = structured_nae_corpus()
    corpus += random_nae_corpus(40, seed=20_240_404, n_range=(3, 5), m_range=(1, 5))
    return [f for f in corpus if f.n_vars <= 5 and f.n_clauses <= 5]


# --- criteria ----------------------------------------------------------------

def test_acceptance_01_quotient_oracle_equivalence():
    with criterion(1, "quotient oracle equivalence") as info:
        started = time.perf_counter()
        pairs = list(itertools.combinations(range(5), 2))
        checked = 0
        for bits in range(1 << 10):
            g = trigraph(5, [e for t, e in enumerate(pairs) if bits >> t & 1])
            for s in range(50):
                rng = random.Random(bits * 997 + s)
                state = ContractionState(g)
                parts = {v: {v} for v in range(5)}
                reps = list(range(5))
                while len(reps) > 1:
                    a, b = sorted(rng.sample(reps, 2))
                    state.merge([(a, b)])
                    parts[a] |= parts.pop(b)
                    reps.remove(b)
                    ordered = sorted(parts)
                    by_def = quotient_by_definition(g, [parts[r] for r in ordered])
                    expect = {(ordered[i], ordered[j]): color for (i, j), color in by_def.items()}
                    assert pair_colors(state) == expect
                    checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 120
        info["detail"] = f"1024 graphs x 50 sequences, {checked} prefixes, "


def test_acceptance_02_mincol_size_law(mincol_200):
    with criterion(2, "size law |V| = (4n+1)(2n+m)") as info:
        for f, inst in mincol_200:
            assert inst.graph.n == (4 * f.n_vars + 1) * (2 * f.n_vars + f.n_clauses)
        info["detail"] = f"{len(mincol_200)} random formulas, "


def test_mincol_size_counts_every_built_graph(mincol_200, sat_corpus_verdicts):
    """The closed form that the edge cap reads, against the graphs as built;
    the exhaustive corpus repeats literals within a clause."""
    for f, inst, *_ in mincol_200 + sat_corpus_verdicts:
        assert mincol_size(f.n_vars, f.n_clauses) == (inst.graph.n,
                                                      edge_count(inst.graph.black_adj))


def test_acceptance_03_mincol_certificate(mincol_200, mincol_demo,
                                            mincol_demo_sequence):
    with criterion(3, "two-stage sequences verify at width 3") as info:
        for _, inst in mincol_200:
            ok, _ = verify_d_sequence(inst.graph, build_mincol_3sequence(inst), 3)
            assert ok
        ok, profile = verify_d_sequence(mincol_demo.graph, mincol_demo_sequence, 3)
        assert ok and profile.overall_width == 3
        info["detail"] = f"{len(mincol_200)} instances + demo attains exactly 3, "


def test_acceptance_04_mincol_equivalence(sat_corpus_verdicts, mincol_demo):
    with criterion(4, "satisfiable iff 2n-colorable") as info:
        for f, inst, model in sat_corpus_verdicts:
            colorable, _ = is_k_colorable(inst.graph, inst.color_budget,
                                          budget=COLOR_BUDGET)
            assert colorable == (model is not None), f.clauses
        assert chromatic_number(mincol_demo.graph, budget=COLOR_BUDGET)[0] == 6
        info["detail"] = f"{len(sat_corpus_verdicts)} formulas, chi(demo)=6, "


def test_acceptance_05_mincol_round_trip(sat_corpus_verdicts):
    with criterion(5, "forward/backward solution mapping") as info:
        count = 0
        for f, inst, model in sat_corpus_verdicts:
            if model is None:
                continue
            col = mincol_coloring_from_assignment(inst, model)
            assert is_proper(inst.graph, col)
            assert len(set(col.colors)) == inst.color_budget
            assert satisfies(f, mincol_assignment_from_coloring(inst, col))
            count += 1
        info["detail"] = f"{count} satisfiable formulas, "


def test_acceptance_06_threecol_size_bound(threecol_200, threecol_demo):
    with criterion(6, "size bound N <= 3m+(2m-1)n+1") as info:
        for f, inst in threecol_200:
            bound = 3 * f.n_clauses + (2 * f.n_clauses - 1) * f.n_vars + 1
            assert inst.graph.n <= bound
        assert threecol_demo.graph.n == 91
        assert threecol_demo.subdivisions == NAE_DEMO_SUBDIVISIONS
        info["detail"] = f"{len(threecol_200)} random formulas + frozen demo, "


def test_acceptance_07_threecol_certificate(threecol_200, threecol_demo,
                                            threecol_demo_sequence):
    with criterion(7, "four-stage sequences verify at width 4") as info:
        for _, inst in threecol_200:
            ok, _ = verify_d_sequence(inst.graph, build_3col_4sequence(inst), 4)
            assert ok
        ok, profile = verify_d_sequence(threecol_demo.graph,
                                        threecol_demo_sequence, 4)
        assert ok and profile.overall_width == 4
        info["detail"] = f"{len(threecol_200)} instances + demo attains exactly 4, "


def test_acceptance_08_threecol_equivalence(nae_corpus, threecol_demo,
                                            nae_demo_assignment):
    with criterion(8, "NAE-satisfiable iff 3-colorable") as info:
        for f in nae_corpus:
            inst = build_3col(f)
            colorable, _ = is_k_colorable(inst.graph, 3, budget=COLOR_BUDGET)
            assert colorable == (solve_nae(f) is not None), f.clauses
        colorable, _ = is_k_colorable(threecol_demo.graph, 3, budget=COLOR_BUDGET)
        assert colorable
        col = threecol_coloring_from_assignment(threecol_demo, nae_demo_assignment)
        assert is_proper(threecol_demo.graph, col)
        for j, clause in enumerate(threecol_demo.formula.clauses, start=1):
            for lit in clause:
                value = nae_demo_assignment[abs(lit)] == (lit > 0)
                vertex = threecol_demo.path_vertex(abs(lit), j)
                assert (col.colors[vertex] == 1) == value
        info["detail"] = f"{len(nae_corpus)} formulas + demo witness pattern, "


def test_coloring_work_on_the_equivalence_corpora(sat_corpus_verdicts, threecol_200,
                                                   monkeypatch):
    """The search's expansions over criterion 04's formulas at k = 2n and
    the threecol_200 graphs at k = 3.  They do not depend on the machine,
    and any change to the search's order or pruning moves them."""
    calls = 0
    meter = oracles._meter

    def counted(budget, search):
        spend = meter(budget, search)

        def counted_spend(lower=None):
            nonlocal calls
            calls += 1
            spend(lower)
        return counted_spend

    monkeypatch.setattr(oracles, "_meter", counted)
    work = {}
    for name, cases in (("mincol", [(inst.graph, inst.color_budget)
                                    for _, inst, _ in sat_corpus_verdicts]),
                        ("threecol", [(inst.graph, 3) for _, inst in threecol_200])):
        calls = 0
        for g, k in cases:
            is_k_colorable(g, k)
        work[name] = calls
    assert work == {"mincol": 50_152, "threecol": 10_858}


def test_acceptance_09_parity_property(threecol_200, threecol_demo):
    with criterion(9, "occurrence parity along variable paths") as info:
        instances = [inst for _, inst in threecol_200] + [threecol_demo]
        paths = 0
        for inst in instances:
            for i in range(1, inst.n + 1):
                order = inst.path(i)
                occ = inst.formula.occurrences(i)
                pos = {v: t for t, v in enumerate(order)}
                for first_color in (1, 2):
                    coloring = {v: first_color if pos[v] % 2 == 0
                                else 3 - first_color for v in order}
                    colors_pos = {coloring[inst.path_vertex(i, j)]
                                  for j, sign in occ if sign}
                    colors_neg = {coloring[inst.path_vertex(i, j)]
                                  for j, sign in occ if not sign}
                    assert len(colors_pos) <= 1 and len(colors_neg) <= 1
                    if colors_pos and colors_neg:
                        assert colors_pos != colors_neg
                paths += 1
        info["detail"] = f"{paths} paths x 2 colorings, "


def test_acceptance_10_universal_lift(nae_corpus):
    with criterion(10, "universal-vertex lift to k-coloring") as info:
        chosen = nae_corpus[:20]
        assert len(chosen) == 20
        for f in chosen:
            inst = build_3col(f)
            base, _ = is_k_colorable(inst.graph, 3, budget=COLOR_BUDGET)
            for k in (4, 5):
                graph, seq = lift_to_k(inst, k)
                ok, _ = verify_d_sequence(graph, seq, 4)
                assert ok
                colorable, _ = is_k_colorable(graph, k, budget=COLOR_BUDGET)
                assert colorable == base
        info["detail"] = "20 instances x k in {4,5}, "


def test_acceptance_11_exact_twinwidth_sanity():
    with criterion(11, "exact twin-width ground truth") as info:
        rng = random.Random(20_240_505)
        k4 = trigraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        k22 = trigraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        cographs = [k4, k22, trigraph(6), trigraph(1)]
        cographs += [random_cograph(rng.randint(2, 8), rng) for _ in range(24)]
        for g in cographs:
            width, seq = exact_twinwidth(g, budget=TWW_BUDGET)
            assert width == 0
            assert verify_d_sequence(g, seq, width)[0]
        p4 = trigraph(4, [(0, 1), (1, 2), (2, 3)])
        width, seq = exact_twinwidth(p4, budget=TWW_BUDGET)
        assert width == 1 and verify_d_sequence(p4, seq, 1)[0]

        pairs = list(itertools.combinations(range(5), 2))
        for bits in range(1 << 10):
            g = trigraph(5, [e for t, e in enumerate(pairs) if bits >> t & 1])
            wg, seq_g = exact_twinwidth(g, budget=TWW_BUDGET)
            wr, seq_r = exact_twinwidth(redify(g), budget=TWW_BUDGET)
            assert wr >= wg
            assert verify_d_sequence(g, seq_g, wg)[0]
            assert verify_d_sequence(redify(g), seq_r, wr)[0]
        info["detail"] = f"{len(cographs)} cographs, P4, 1024 redify pairs, "
