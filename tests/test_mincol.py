import itertools
import random

import pytest

from corpus import random_formula
from twinwidth import (CnfFormula, Coloring, Dialect, build_3col, build_mincol,
                       build_mincol_3sequence, is_k_colorable, is_proper,
                       mincol_assignment_from_coloring,
                       mincol_coloring_from_assignment, replay, satisfies,
                       sequence_from_vertex_merges, solve_sat,
                       verify_d_sequence)
from twinwidth.errors import TwinwidthError
from twinwidth.formats import read_trigraph, write_trigraph
from twinwidth.trigraph import MAX_VERTICES


def test_demo_dimensions(mincol_demo):
    assert mincol_demo.p == 8
    assert mincol_demo.graph.n == 104
    assert mincol_demo.color_budget == 6
    assert len(mincol_demo.graph.labels) == 104


def test_block_cliques_and_sides_disconnected(mincol_demo):
    inst = mincol_demo
    width = 2 * inst.n
    adj = inst.graph.black_adj
    for i in range(1, inst.p + 1):
        for block in (inst.a, inst.b):
            vertices = [block(i, j) for j in range(1, width + 1)]
            for u, v in itertools.combinations(vertices, 2):
                assert v in adj[u]
    a_side = {inst.a(i, j) for i in range(1, inst.p + 1) for j in range(1, width + 1)}
    b_side = {inst.b(i, j) for i in range(1, inst.p + 1) for j in range(1, width + 1)}
    for u in a_side:
        assert not adj[u] & b_side


def test_staircase_adjacency_between_blocks(mincol_demo):
    inst = mincol_demo
    width = 2 * inst.n
    adj = inst.graph.black_adj
    for i, i2 in itertools.combinations(range(1, inst.p + 1), 2):
        for j in range(1, width + 1):
            for j2 in range(1, width + 1):
                expected = i2 == i + 1 and j2 < j
                assert (inst.a(i2, j2) in adj[inst.a(i, j)]) == expected


def test_clause_gadget_spot_check(mincol_demo):
    # first clause sits at block 7: positive literals point at odd
    # columns, negative at even ones
    inst = mincol_demo
    adj = inst.graph.black_adj
    v7 = inst.v(7)
    a_neighbors = adj[v7] & {inst.a(7, j) for j in range(1, 7)}
    assert a_neighbors == {inst.a(7, 1), inst.a(7, 4), inst.a(7, 5)}
    b_neighbors = adj[v7] & {inst.b(7, j) for j in range(1, 7)}
    assert b_neighbors == {inst.b(7, j) for j in (1, 3, 5)}
    v8 = inst.v(8)
    assert adj[v8] & {inst.a(8, j) for j in range(1, 7)} == \
        {inst.a(8, 2), inst.a(8, 3), inst.a(8, 6)}


def test_apex_neighbors_stay_in_their_block(mincol_demo):
    inst = mincol_demo
    width = 2 * inst.n
    for i in range(1, inst.p + 1):
        block = {inst.a(i, j) for j in range(1, width + 1)}
        block |= {inst.b(i, j) for j in range(1, width + 1)}
        neighbors = inst.graph.black_adj[inst.v(i)]
        assert neighbors <= block
        if i <= width:
            assert len(neighbors) == 2 * width - 3


def test_single_clause_two_variable_instance():
    f = CnfFormula(2, ((1, 2, 2),), Dialect.THREE_SAT)
    inst = build_mincol(f)
    assert inst.p == 5
    assert inst.graph.n == 45
    v5 = inst.v(5)
    a_neighbors = inst.graph.black_adj[v5] & {inst.a(5, j) for j in range(1, 5)}
    assert a_neighbors == {inst.a(5, 1), inst.a(5, 3)}


def test_build_rejections():
    nae = CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT)
    with pytest.raises(TwinwidthError, match="the coloring-number reduction takes 3-SAT input"):
        build_mincol(nae)
    tiny = CnfFormula(1, ((1, 1, 1),), Dialect.THREE_SAT)
    with pytest.raises(TwinwidthError, match="need at least two variables"):
        build_mincol(tiny)


def test_size_law_random():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 6)
        m = rng.randint(max(1, (n + 2) // 3), 8)
        f = random_formula(n, m, Dialect.THREE_SAT, rng)
        assert build_mincol(f).graph.n == (4 * n + 1) * (2 * n + m)


def test_reductions_hold_one_int_object_per_vertex_id():
    """Every neighbor-set entry naming a vertex is the same int object, so a
    graph keeps one int per vertex and not one per edge end.  This holds
    for both reductions' graphs and for the graphs read back from their
    written text.  All pass 256 vertices, past the ints the interpreter
    caches."""
    rng = random.Random(21)
    graphs = [build_mincol(random_formula(5, 12, Dialect.THREE_SAT, rng)).graph,
              build_3col(random_formula(10, 30, Dialect.NAE_THREE_SAT, rng)).graph]
    graphs += [read_trigraph(write_trigraph(g)) for g in graphs]
    for g in graphs:
        assert g.n > 256
        entries = [u for nbrs in g.black_adj for u in nbrs]
        assert len({id(u) for u in entries}) == len(set(entries)) == g.n


def test_build_refuses_more_vertices_than_the_cap():
    """Refused from the size law before the block graph is allocated."""
    n, m = 250, 1000
    f = CnfFormula(n, tuple((1 + j % n, -(1 + (j + 1) % n), 1 + (j + 2) % n) for j in range(m)),
                   Dialect.THREE_SAT)
    size = (4 * n + 1) * (2 * n + m)
    assert size > MAX_VERTICES
    with pytest.raises(TwinwidthError, match=f"^the instance would have {size} vertices, "
                                             f"above the cap of {MAX_VERTICES}$"):
        build_mincol(f)


def test_sequence_verifies_at_3_not_2(mincol_demo, mincol_demo_sequence):
    assert len(mincol_demo_sequence.steps) == 103
    ok, profile = verify_d_sequence(mincol_demo.graph, mincol_demo_sequence, 3)
    assert ok
    assert profile.overall_width == 3
    ok, _ = verify_d_sequence(mincol_demo.graph, mincol_demo_sequence, 2)
    assert not ok


def test_stage_one_prefix_is_a_width_3_partial_sequence():
    f = CnfFormula(2, ((1, 2, 2),), Dialect.THREE_SAT)
    inst = build_mincol(f)
    full = build_mincol_3sequence(inst)
    stage1_len = (2 * inst.n - 1) * inst.p * 2
    prefix = sequence_from_vertex_merges(
        inst.graph.n, list(full.steps[:stage1_len]))
    assert replay(inst.graph, prefix).overall_width <= 3


def test_forward_coloring_matches_worked_example(mincol_demo, sat_demo_assignment):
    inst = mincol_demo
    col = mincol_coloring_from_assignment(inst, sat_demo_assignment)
    assert is_proper(inst.graph, col)
    assert set(col.colors) == set(range(1, 7))
    for i in range(1, inst.p + 1):
        assert [col.colors[inst.b(i, j)] for j in range(1, 7)] == [1, 2, 3, 4, 5, 6]
        # x1 false swaps its column pair, x2 and x3 are straight
        assert [col.colors[inst.a(i, j)] for j in range(1, 7)] == [2, 1, 3, 4, 5, 6]
    assert col.colors[inst.v(7)] == 6
    assert col.colors[inst.v(8)] == 2
    for i in range(1, 7):
        assert col.colors[inst.v(i)] == i


def test_forward_requires_satisfying_assignment(mincol_demo):
    # x1=F, x2=T, x3=F falsifies the first clause
    with pytest.raises(TwinwidthError, match="assignment does not satisfy the formula"):
        mincol_coloring_from_assignment(mincol_demo, {1: False, 2: True, 3: False})


def test_backward_round_trip_exhaustive_small():
    formulas = [
        CnfFormula(2, ((1, 2, 2), (-1, -2, -2)), Dialect.THREE_SAT),
        CnfFormula(3, ((1, -2, 3), (-1, 2, -3)), Dialect.THREE_SAT),
        CnfFormula(2, ((1, 1, 1), (2, 2, 2), (-1, -2, -2)), Dialect.THREE_SAT),
    ]
    for f in formulas:
        inst = build_mincol(f)
        for bits in itertools.product((False, True), repeat=f.n_vars):
            a = {v: bits[v - 1] for v in range(1, f.n_vars + 1)}
            if not satisfies(f, a):
                continue
            col = mincol_coloring_from_assignment(inst, a)
            assert mincol_assignment_from_coloring(inst, col) == a


def test_backward_round_trip_random_four_variable():
    rng = random.Random(94)
    for _ in range(6):
        m = rng.randint(2, 4)
        f = random_formula(4, m, Dialect.THREE_SAT, rng)
        inst = build_mincol(f)
        for bits in itertools.product((False, True), repeat=4):
            a = dict(enumerate(bits, start=1))
            if satisfies(f, a):
                col = mincol_coloring_from_assignment(inst, a)
                assert mincol_assignment_from_coloring(inst, col) == a


def test_backward_is_invariant_under_color_permutation(mincol_demo, sat_demo_assignment):
    inst = mincol_demo
    col = mincol_coloring_from_assignment(inst, sat_demo_assignment)
    cycle = {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1}
    permuted = Coloring(tuple(cycle[c] for c in col.colors), col.k)
    assert mincol_assignment_from_coloring(inst, permuted) == \
        mincol_assignment_from_coloring(inst, col)


def test_backward_rejections(mincol_demo, sat_demo_assignment):
    inst = mincol_demo
    col = mincol_coloring_from_assignment(inst, sat_demo_assignment)
    with pytest.raises(TwinwidthError, match="coloring uses color 7, budget is 6"):
        mincol_assignment_from_coloring(
            inst, Coloring((7,) * inst.graph.n, 7))
    broken = list(col.colors)
    broken[inst.a(1, 1)] = broken[inst.a(1, 2)]
    with pytest.raises(TwinwidthError, match="coloring is not proper"):
        mincol_assignment_from_coloring(inst, Coloring(tuple(broken), col.k))


def test_equivalence_spot_checks():
    sat_f = CnfFormula(2, ((1, 2, 2), (-1, -2, -2)), Dialect.THREE_SAT)
    unsat_f = CnfFormula(2, ((1, 1, 1), (-1, -1, -1), (2, 2, 2)), Dialect.THREE_SAT)
    for f in (sat_f, unsat_f):
        inst = build_mincol(f)
        colorable, witness = is_k_colorable(inst.graph, inst.color_budget,
                                            budget=20_000_000)
        assert colorable == (solve_sat(f) is not None)
        if colorable:
            extracted = mincol_assignment_from_coloring(inst, witness)
            assert satisfies(f, extracted)
