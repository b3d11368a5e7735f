import random
from collections import Counter
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import pytest

from conftest import NAE_DEMO_SUBDIVISIONS
from corpus import nae_unsat_formula, random_formula
from reference import edges, read_outcome, threecol_assignment_by_sets, trigraph
from twinwidth import (CnfFormula, Coloring, Dialect, build_3col,
                       build_3col_4sequence, is_k_colorable, is_proper,
                       lift_to_k, nae_satisfies, solve_nae,
                       subdivision_positions, threecol_assignment_from_coloring,
                       threecol_coloring_from_assignment, verify_d_sequence)
from twinwidth.errors import TwinwidthError
from twinwidth.threecol import MAX_K
from twinwidth.trigraph import MAX_EDGES, MAX_VERTICES


def test_subdivision_positions_demo(nae_demo):
    assert subdivision_positions(nae_demo) == NAE_DEMO_SUBDIVISIONS


def test_subdivision_positions_rules():
    # single occurrence: nothing to align
    f = CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT)
    assert subdivision_positions(f) == set()
    # odd gap with equal signs needs one extra vertex
    f = CnfFormula(5, ((1, 2, 3), (1, 4, 5)), Dialect.NAE_THREE_SAT)
    assert (1, 2) in subdivision_positions(f)
    # odd gap with opposite signs is already right
    f = CnfFormula(5, ((1, 2, 3), (-1, 4, 5)), Dialect.NAE_THREE_SAT)
    assert subdivision_positions(f) == set()
    with pytest.raises(TwinwidthError, match="subdivision positions are defined for NAE input"):
        subdivision_positions(CnfFormula(3, ((1, 2, 3),), Dialect.THREE_SAT))


def test_build_3col_rejections():
    with pytest.raises(TwinwidthError, match="takes NAE-3-SAT input"):
        build_3col(CnfFormula(3, ((1, 2, 3),), Dialect.THREE_SAT))
    with pytest.raises(TwinwidthError, match="need at least one variable and one clause"):
        build_3col(CnfFormula(0, (), Dialect.NAE_THREE_SAT))


def test_demo_dimensions(threecol_demo):
    inst = threecol_demo
    assert inst.graph.n == 91
    assert inst.graph.n <= 3 * inst.m + (2 * inst.m - 1) * inst.n + 1
    assert inst.subdivisions == NAE_DEMO_SUBDIVISIONS


def test_single_clause_instance():
    f = CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT)
    inst = build_3col(f)
    assert inst.graph.n == 7
    seq = build_3col_4sequence(inst)
    ok, profile = verify_d_sequence(inst.graph, seq, 4)
    assert ok
    assert profile.overall_width <= 3  # degenerate single-clause case


def test_hub_adjacency_and_degrees(threecol_demo):
    inst = threecol_demo
    adj = inst.graph.black_adj
    path_vertices = {v for i in range(1, inst.n + 1) for v in inst.path(i)}
    assert adj[inst.z] == path_vertices
    assert len(adj[inst.z]) == sum(len(inst.path(i)) for i in range(1, inst.n + 1))
    for j in range(1, inst.m + 1):
        for slot in "uvw":
            assert len(adj[inst.triangle(j, slot)]) == 3
    for v in range(inst.graph.n):
        if v != inst.z:
            assert len(adj[v]) <= 5  # at most 4 plus the hub


def test_triangle_outgoing_edges_follow_literal_order(threecol_demo):
    inst = threecol_demo
    adj = inst.graph.black_adj
    for j, clause in enumerate(inst.formula.clauses, start=1):
        corners = {inst.triangle(j, s) for s in "uvw"}
        for slot, lit in zip("uvw", clause):
            corner = inst.triangle(j, slot)
            outside = adj[corner] - corners
            assert outside == {inst.path_vertex(abs(lit), j)}


def test_parity_property(threecol_demo):
    inst = threecol_demo
    for i in range(1, inst.n + 1):
        order = inst.path(i)
        pos = {v: t for t, v in enumerate(order)}
        occ = inst.formula.occurrences(i)
        for (j1, s1), (j2, s2) in zip(occ, occ[1:]):
            dist = pos[inst.path_vertex(i, j2)] - pos[inst.path_vertex(i, j1)]
            assert (dist % 2 == 0) == (s1 == s2)


def test_layout_accessors_name_their_roles():
    """Each accessor's id carries the role it stands for, in the base graph
    and in its lifts, which keep the base ids."""
    rng = random.Random(20_240_202)
    for _ in range(100):
        n = rng.randint(3, 7)
        f = random_formula(n, rng.randint((n + 2) // 3, 8), Dialect.NAE_THREE_SAT, rng)
        inst = build_3col(f)
        for k in (3, rng.randint(4, 6)):
            graph = lift_to_k(inst, k)[0]
            labels = graph.labels
            on_path = {i: set() for i in range(1, n + 1)}  # ids of the P i and S i roles
            subdivided = set()
            for v, role in labels.items():
                kind, *coords = role.split()
                if kind in "PS":
                    on_path[int(coords[0])].add(v)
                if kind == "S":
                    subdivided.add((int(coords[0]), int(coords[1])))
            assert subdivided == inst.subdivisions
            for i in range(1, n + 1):
                path = inst.path(i)
                assert set(path) == on_path[i]
                assert all(v + 1 in graph.black_adj[v] for v in path[:-1])
                for j in range(1, inst.m + 1):
                    v = inst.path_vertex(i, j)
                    assert labels[v] == f"P {i} {j}"
                    if (i, j) in inst.subdivisions:
                        assert labels[v - 1] == f"S {i} {j}"
            for j in range(1, inst.m + 1):
                for slot in "uvw":
                    assert labels[inst.triangle(j, slot)] == f"T {j} {slot}"
            assert labels[inst.z] == "Z"


def test_backward_map_agrees_with_the_two_set_rule():
    """Same assignment or same error as the parity rule as first written, on
    oracle colorings and recolorings of them.  Without its path edges the
    graph lets a proper coloring break parity, so that error is reached too."""
    rng = random.Random(20)
    seen = Counter()
    for _ in range(60):
        n = rng.randint(3, 6)
        f = random_formula(n, rng.randint((n + 2) // 3, 7), Dialect.NAE_THREE_SAT, rng)
        inst = build_3col(f)
        colorable, witness = is_k_colorable(inst.graph, 3, budget=5_000_000)
        if not colorable:
            continue
        paths_end = inst.triangle(1, "u")  # path and subdivision ids lie below
        pathless = replace(inst, graph=trigraph(inst.graph.n, [
            (u, v) for u, v in edges(inst.graph.black_adj) if max(u, v) >= paths_end]))
        for target in (inst, pathless):
            for _ in range(20):
                colors = list(witness.colors)
                for _ in range(rng.randint(0, 3)):  # half of them on a path
                    colors[rng.randrange(rng.choice((paths_end, len(colors))))] = rng.randint(1, 3)
                col = Coloring(tuple(colors), 3)
                got = read_outcome(partial(threecol_assignment_from_coloring, target), col)
                assert got == read_outcome(partial(threecol_assignment_by_sets, target), col)
                seen[got.split(" of variable")[0] if isinstance(got, str) else "mapped"] += 1
    assert seen.keys() == {"mapped", "TwinwidthError: coloring is not proper",
                           "TwinwidthError: occurrence colors"}, seen


def test_sequence_verifies_at_4_not_3(threecol_demo, threecol_demo_sequence):
    assert len(threecol_demo_sequence.steps) == 90
    ok, profile = verify_d_sequence(threecol_demo.graph, threecol_demo_sequence, 4)
    assert ok
    assert profile.overall_width == 4
    ok, _ = verify_d_sequence(threecol_demo.graph, threecol_demo_sequence, 3)
    assert not ok


def test_forward_coloring_demo(threecol_demo, nae_demo_assignment):
    inst = threecol_demo
    col = threecol_coloring_from_assignment(inst, nae_demo_assignment)
    assert is_proper(inst.graph, col)
    assert col.colors[inst.z] == 3
    for j, clause in enumerate(inst.formula.clauses, start=1):
        for lit in clause:
            value = nae_demo_assignment[abs(lit)] == (lit > 0)
            assert (col.colors[inst.path_vertex(abs(lit), j)] == 1) == value


def test_forward_coloring_single_clause_triangle():
    f = CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT)
    inst = build_3col(f)
    col = threecol_coloring_from_assignment(
        inst, {1: True, 2: False, 3: False})
    assert [col.colors[inst.triangle(1, s)] for s in "uvw"] == [2, 1, 3]


def test_forward_requires_nae_witness(threecol_demo):
    with pytest.raises(TwinwidthError, match="assignment does not NAE-satisfy the formula"):
        threecol_coloring_from_assignment(
            threecol_demo, {i: True for i in range(1, 8)})


def test_backward_round_trip(threecol_demo, nae_demo_assignment):
    inst = threecol_demo
    col = threecol_coloring_from_assignment(inst, nae_demo_assignment)
    back = threecol_assignment_from_coloring(inst, col)
    assert nae_satisfies(inst.formula, back)


def test_backward_normalizes_swapped_colorings(threecol_demo, nae_demo_assignment):
    # The two {1,2}-swapped colorings are the complement pair of
    # witnesses; extraction normalizes to one canonical representative,
    # and the complement is a NAE witness too.
    inst = threecol_demo
    col = threecol_coloring_from_assignment(inst, nae_demo_assignment)
    swap = {1: 2, 2: 1, 3: 3}
    swapped = Coloring(tuple(swap[c] for c in col.colors), 3)
    a = threecol_assignment_from_coloring(inst, col)
    b = threecol_assignment_from_coloring(inst, swapped)
    assert a == b
    complement = {v: not x for v, x in a.items()}
    assert nae_satisfies(inst.formula, complement)


def test_backward_round_trip_random():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(3, 5)
        m = rng.randint(max(1, (n + 2) // 3), 5)
        f = random_formula(n, m, Dialect.NAE_THREE_SAT, rng)
        model = solve_nae(f)
        if model is None:
            continue
        inst = build_3col(f)
        col = threecol_coloring_from_assignment(inst, model)
        assert is_proper(inst.graph, col)
        back = threecol_assignment_from_coloring(inst, col)
        assert nae_satisfies(f, back)


def test_backward_rejections(threecol_demo, nae_demo_assignment):
    inst = threecol_demo
    col = threecol_coloring_from_assignment(inst, nae_demo_assignment)
    with pytest.raises(TwinwidthError, match="coloring uses color 4, budget is 3"):
        threecol_assignment_from_coloring(inst, Coloring((4,) * inst.graph.n, 4))
    broken = list(col.colors)
    broken[inst.path_vertex(1, 1)] = col.colors[inst.z]
    with pytest.raises(TwinwidthError, match="coloring is not proper"):
        threecol_assignment_from_coloring(inst, Coloring(tuple(broken), 3))


def test_equivalence_spot_checks():
    sat_f = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)), Dialect.NAE_THREE_SAT)
    for f in (sat_f, nae_unsat_formula()):
        inst = build_3col(f)
        colorable, witness = is_k_colorable(inst.graph, 3, budget=5_000_000)
        assert colorable == (solve_nae(f) is not None)
        if colorable:
            back = threecol_assignment_from_coloring(inst, witness)
            assert nae_satisfies(f, back)


def test_lift_identity_at_3(threecol_demo, threecol_demo_sequence):
    graph, seq = lift_to_k(threecol_demo, 3)
    assert graph.n == threecol_demo.graph.n
    assert edges(graph.black_adj) == edges(threecol_demo.graph.black_adj)
    assert seq == threecol_demo_sequence


def test_lift_small_and_demo(threecol_demo):
    f = CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT)
    inst = build_3col(f)
    graph, seq = lift_to_k(inst, 4)
    assert graph.n == 8
    assert is_k_colorable(graph, 4)[0] == is_k_colorable(inst.graph, 3)[0]
    ok, _ = verify_d_sequence(graph, seq, 4)
    assert ok
    big_graph, big_seq = lift_to_k(threecol_demo, 5)
    ok, _ = verify_d_sequence(big_graph, big_seq, 4)
    assert ok
    with pytest.raises(TwinwidthError, match="k must be at least 3, got 2"):
        lift_to_k(inst, 2)
    assert lift_to_k(inst, MAX_K)[0].n == inst.graph.n + MAX_K - 3
    with pytest.raises(TwinwidthError, match=f"^k must be at most {MAX_K}, got {MAX_K + 1}$"):
        lift_to_k(inst, MAX_K + 1)


def test_lift_universal_vertices_touch_everything():
    f = CnfFormula(3, ((1, 2, 3),), Dialect.NAE_THREE_SAT)
    inst = build_3col(f)
    graph, _ = lift_to_k(inst, 6)
    adj = graph.black_adj
    for extra in range(inst.graph.n, graph.n):
        assert len(adj[extra]) == graph.n - 1


def _threecol_size(f):
    """The 3col size law: a path vertex per variable and column, the
    subdivisions, a triangle per clause and the hub."""
    return f.n_vars * f.n_clauses + len(subdivision_positions(f)) + 3 * f.n_clauses + 1


def test_size_law_random():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(3, 7)
        f = random_formula(n, rng.randint((n + 2) // 3, 9), Dialect.NAE_THREE_SAT, rng)
        inst = build_3col(f)
        assert inst.graph.n == _threecol_size(f)
        k = rng.randint(3, 6)
        assert lift_to_k(inst, k)[0].n == _threecol_size(f) + k - 3


def nae_cycle_formula(n, m):
    """Clause j joins variables j, j+1 and j+2 (mod n), so every variable occurs."""
    return CnfFormula(n, tuple((1 + j % n, -(1 + (j + 1) % n), 1 + (j + 2) % n)
                               for j in range(m)), Dialect.NAE_THREE_SAT)


def test_build_refuses_more_vertices_than_the_cap():
    """Refused from the size law before any neighbor list is allocated, both
    for the base graph and for the universal vertices a lift adds."""
    f = nae_cycle_formula(1030, 1030)
    assert _threecol_size(f) > MAX_VERTICES
    with pytest.raises(TwinwidthError, match=f"^the instance would have {_threecol_size(f)} "
                                             f"vertices, above the cap of {MAX_VERTICES}$"):
        build_3col(f)
    # a base graph at the cap can take no universal vertex
    at_cap = SimpleNamespace(graph=SimpleNamespace(n=MAX_VERTICES, black_adj=()))
    with pytest.raises(TwinwidthError, match=f"would have {MAX_VERTICES + 1} vertices"):
        lift_to_k(at_cap, 4)


def test_lift_refuses_more_edges_than_the_cap():
    """61 universal vertices on 70 000 base vertices need 61 * 70 000 + 61 * 60 / 2
    edges, over the edge cap, though the vertices are under theirs."""
    base = SimpleNamespace(graph=SimpleNamespace(n=70_000, black_adj=[[1], [0]]))
    assert 70_000 + 61 <= MAX_VERTICES
    with pytest.raises(TwinwidthError, match=f"^the instance would have {1 + 4_271_830} edges, "
                                             f"above the cap of {MAX_EDGES}$"):
        lift_to_k(base, 64)
