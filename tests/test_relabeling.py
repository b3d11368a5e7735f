"""Both reductions answer the same under a relabeling of their input.

A relabeling permutes the variable ids, the clause order and the literal
order inside each clause.  The rebuilt graph must keep its size, its
certified width and its colorability verdict.
"""

import random

from corpus import random_formula
from twinwidth import (CnfFormula, Dialect, build_3col, build_3col_4sequence,
                       build_mincol, build_mincol_3sequence, is_k_colorable,
                       solve_nae, solve_sat, verify_d_sequence)
from twinwidth.trigraph import edge_count

COLOR_BUDGET = 50_000_000


def _relabelings(f, seed, count=4):
    rng = random.Random(seed)
    for _ in range(count):
        ids = list(range(1, f.n_vars + 1))
        rng.shuffle(ids)
        clauses = [tuple(ids[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in c) for c in f.clauses]
        rng.shuffle(clauses)
        yield CnfFormula(f.n_vars, tuple(tuple(rng.sample(c, 3)) for c in clauses), f.dialect)


def _size(graph, subdivisions=0):
    # a subdivision vertex brings one path edge and one hub edge
    return graph.n - subdivisions, edge_count(graph.black_adj) - 2 * subdivisions


def test_mincol_relabeling_keeps_size_width_and_verdict():
    for n, m, seed in [(2, 5, 2), (3, 4, 1), (3, 5, 2)]:  # the first is unsatisfiable
        f = random_formula(n, m, Dialect.THREE_SAT, random.Random(seed))
        size = _size(build_mincol(f).graph)
        for g in _relabelings(f, 100 + seed):
            inst = build_mincol(g)
            assert _size(inst.graph) == size
            assert verify_d_sequence(inst.graph, build_mincol_3sequence(inst), 3)[0]
            colorable = is_k_colorable(inst.graph, inst.color_budget, COLOR_BUDGET)[0]
            assert colorable == (solve_sat(g) is not None)


def test_threecol_relabeling_keeps_size_width_and_verdict():
    # the clause order moves occurrence columns, so the number of
    # subdivisions may change; everything else keeps its size
    for n, m, seed in [(3, 6, 0), (4, 5, 1), (5, 6, 2)]:  # the first is unsatisfiable
        f = random_formula(n, m, Dialect.NAE_THREE_SAT, random.Random(seed))
        base = build_3col(f)
        size = _size(base.graph, len(base.subdivisions))
        for g in _relabelings(f, 200 + seed):
            inst = build_3col(g)
            assert _size(inst.graph, len(inst.subdivisions)) == size
            assert verify_d_sequence(inst.graph, build_3col_4sequence(inst), 4)[0]
            colorable = is_k_colorable(inst.graph, 3, COLOR_BUDGET)[0]
            assert colorable == (solve_nae(g) is not None)
