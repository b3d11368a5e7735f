import random

import pytest

from reference import all_graphs, all_partitions, edges, quotient_by_definition, redify, trigraph
from twinwidth import ContractionState, Trigraph, quotient
from twinwidth.errors import OverlapError, TwinwidthError


def test_make_trigraph_plain_path():
    g = trigraph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert edges(g.black_adj) == {(0, 1), (1, 2)}
    assert edges(g.red_adj) == frozenset()


def test_make_trigraph_rejects_overlap():
    with pytest.raises(OverlapError, match=r"edges both black and red: \[\(0, 1\)\]"):
        Trigraph(2, [[1], [0]], [[1], [0]])
    with pytest.raises(OverlapError, match=r"red: \[\(0, 2\), \(1, 2\)\]$"):
        Trigraph(3, [[2], [2], [1, 0]], [[2], [2], [1, 0]])


def test_make_trigraph_rejects_overlap_reversed_pair():
    with pytest.raises(OverlapError):
        trigraph(2, [(0, 1)], [(1, 0)])


def test_make_trigraph_takes_n_lists_a_side():
    with pytest.raises(TwinwidthError, match="vertex count must be non-negative, got -1"):
        Trigraph(-1, [], [])
    # a leftover call with edge pairs fails loudly instead of building a wrong graph
    with pytest.raises(TwinwidthError, match="need 3 neighbor lists a side, got 2 and 0"):
        Trigraph(3, [(0, 1), (1, 2)], [])
    with pytest.raises(TwinwidthError, match="need 2 neighbor lists a side, got 2 and 1"):
        Trigraph(2, [[1], [0]], [[]])


def test_make_trigraph_freezes_its_lists_in_place():
    black, red = [[1, 1, 2], [0, 0], [0]], [None, [], ()]
    g = Trigraph(3, black, red, {0: "Z"})
    assert black == [frozenset({1, 2}), frozenset({0}), frozenset({0})]
    assert g.black_adj == tuple(black) and g.red_adj == (frozenset(),) * 3
    assert edges(g.black_adj) == {(0, 1), (0, 2)} and not edges(g.red_adj) and g.labels == {0: "Z"}


def test_make_trigraph_single_vertex_and_duplicates():
    g = trigraph(1)
    assert g.n == 1 and not edges(g.black_adj) and not edges(g.red_adj)
    g = trigraph(3, [(0, 1), (1, 0), (0, 1)])
    assert edges(g.black_adj) == {(0, 1)}


def test_red_degree_counts():
    triangle = trigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert all(len(triangle.red_adj[v]) == 0 for v in range(3))
    g = trigraph(3, [], [(0, 1), (0, 2)])
    assert len(g.red_adj[0]) == 2
    assert len(g.red_adj[1]) == 1


def test_red_degree_sum_is_twice_red_edges():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        cut = rng.randint(0, len(pairs))
        g = trigraph(n, pairs[:cut // 2], pairs[cut // 2:cut])
        assert sum(len(g.red_adj[v]) for v in range(n)) == 2 * len(edges(g.red_adj))


def test_max_red_degree():
    k4 = trigraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert ContractionState(k4).max_red_degree() == 0
    assert ContractionState(trigraph(2, [], [(0, 1)])).max_red_degree() == 1
    star = trigraph(4, [], [(0, 1), (0, 2), (0, 3)])
    assert ContractionState(star).max_red_degree() == 3


C4 = trigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_quotient_singletons_is_identity():
    q = quotient(C4, [[v] for v in range(4)])
    assert edges(q.black_adj) == edges(C4.black_adj) and edges(q.red_adj) == edges(C4.red_adj)


def test_quotient_one_part_has_no_edges():
    q = quotient(C4, [[0, 1, 2, 3]])
    assert q.n == 1 and not edges(q.black_adj) and not edges(q.red_adj)


def test_quotient_c4_adjacent_pair_goes_red():
    # {0,1} sees both an edge and a non-edge toward {2} and toward {3}
    q = quotient(C4, [[0, 1], [2], [3]])
    assert edges(q.red_adj) == {(0, 1), (0, 2)}
    assert edges(q.black_adj) == {(1, 2)}


def test_quotient_c4_opposite_pair_stays_black():
    q = quotient(C4, [[0, 2], [1], [3]])
    assert edges(q.black_adj) == {(0, 1), (0, 2)}
    assert edges(q.red_adj) == frozenset()
    assert len(q.red_adj[0]) == 0


def test_quotient_rejects_foreign_partition():
    """Parts for another n leave a vertex uncovered or name one out of range."""
    with pytest.raises(TwinwidthError, match=r"parts \[\[0\], \[1\], \[2\]\] do not split 0..3$"):
        quotient(C4, [[0], [1], [2]])
    with pytest.raises(TwinwidthError, match="do not split 0..3"):
        quotient(C4, [[0, 4], [1], [2], [3]])


def test_partition_validation():
    """An empty part, an uncovered vertex, one in two parts, one out of range."""
    for parts in ([[0], [1], [2], [3], []], [[0, 1], [3]], [[0, 1], [1, 2], [3]],
                  [[0, 1, 2, 3], [-1]], [[0, 1, 2], [3.5]]):
        with pytest.raises(TwinwidthError, match="do not split 0..3"):
            quotient(C4, parts)
    # a vertex named twice within one part is one member
    assert edges(quotient(C4, [[0, 2, 0], [1, 3]]).black_adj) == {(0, 1)}


def test_quotient_matches_definition_exhaustive_small():
    """Every 4-vertex graph, every partition, edge by edge."""
    parts_list = [list(map(frozenset, p)) for p in all_partitions(4)]
    for g in all_graphs(4):
        for parts in parts_list:
            q = quotient(g, parts)
            expect = quotient_by_definition(g, parts)
            got = {e: "black" for e in edges(q.black_adj)}
            got.update({e: "red" for e in edges(q.red_adj)})
            assert got == expect


def test_quotient_matches_definition_sampled_6():
    rng = random.Random(7)
    parts_list = [list(map(frozenset, p)) for p in all_partitions(6, max_parts=4)]
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    for _ in range(120):
        black, red = [], []
        for e in pairs:
            roll = rng.random()
            if roll < 0.35:
                black.append(e)
            elif roll < 0.5:
                red.append(e)
        g = trigraph(6, black, red)
        for parts in rng.sample(parts_list, 25):
            q = quotient(g, parts)
            expect = quotient_by_definition(g, parts)
            got = {e: "black" for e in edges(q.black_adj)}
            got.update({e: "red" for e in edges(q.red_adj)})
            assert got == expect


def test_disjointness_preserved_everywhere():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = trigraph(n, pairs[: len(pairs) // 3], pairs[len(pairs) // 3: len(pairs) // 2])
        for op in (redify(g), quotient(g, [[v] for v in range(n)])):
            assert not edges(op.black_adj) & edges(op.red_adj)


def test_redify():
    p3 = trigraph(3, [(0, 1), (1, 2)])
    r = redify(p3)
    assert not edges(r.black_adj) and edges(r.red_adj) == {(0, 1), (1, 2)}
    again = redify(r)
    assert edges(again.red_adj) == edges(r.red_adj) and not edges(again.black_adj)
