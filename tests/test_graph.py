import random

import pytest

from conftest import complete, cycle, path, random_graph, star
from ifvs import Graph, GraphError, bits, mask_of


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])  # parallel edge
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(-1)


def test_bits_and_mask_roundtrip():
    assert list(bits(0)) == []
    assert list(bits(0b101101)) == [0, 2, 3, 5]
    assert mask_of([0, 2, 3, 5]) == 0b101101


def test_induced_subgraph_triangle_pair():
    g = cycle(3)
    sub, old = g.induced_subgraph(mask_of([0, 1]))
    assert old == (0, 1)
    assert sub.n == 2 and sub.edges == ((0, 1),)


def test_induced_subgraph_empty():
    sub, old = cycle(3).induced_subgraph(0)
    assert sub.n == 0 and sub.m == 0 and old == ()


def test_induced_subgraph_c5_minus_vertex_is_p4():
    g = cycle(5)
    for drop in range(5):
        sub, old = g.induced_subgraph(g.vertex_mask & ~(1 << drop))
        # four vertices, three edges, acyclic and connected: a path
        assert sub.n == 4 and sub.m == 3
        assert sub.is_fvs(0)
        assert len(sub.components_within(sub.vertex_mask)) == 1


def test_induced_subgraph_full_is_identity():
    g = Graph(5, [(0, 2), (1, 4), (2, 3)])
    sub, old = g.induced_subgraph(g.vertex_mask)
    assert old == tuple(range(5))
    assert sub == g


def test_neighbors():
    s = star(3)
    assert s.neighbors(mask_of([0])) == mask_of([1, 2, 3])
    assert Graph(4).neighbors(mask_of([1, 2])) == 0
    c4 = cycle(4)
    assert c4.neighbors(mask_of([0])) == mask_of([1, 3])
    # result may intersect the query when it spans an edge
    assert c4.neighbors(mask_of([0, 1])) == mask_of([0, 1, 2, 3])


def test_is_acyclic():
    assert not cycle(3).is_fvs(0)
    assert path(6).is_fvs(0)
    assert star(4).is_fvs(0)
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not two_triangles.is_fvs(0)


def test_connected_components():
    assert Graph(3).components_within(0b111) == [1, 2, 4]
    assert path(3).components_within(0b111) == [mask_of([0, 1, 2])]
    g = Graph(4, [(0, 1), (1, 2), (2, 0)])
    assert g.components_within(g.vertex_mask) == [mask_of([0, 1, 2]), mask_of([3])]


def test_is_independent_set():
    c4 = cycle(4)
    assert c4.is_independent_set(mask_of([0, 2]))
    assert not Graph(2, [(0, 1)]).is_independent_set(mask_of([0, 1]))
    assert c4.is_independent_set(0)


def test_is_fvs_is_ifvs():
    tri = cycle(3)
    assert tri.is_fvs(mask_of([0]))
    assert tri.is_ifvs(mask_of([0]))
    k4 = complete(4)
    assert k4.is_fvs(mask_of([0, 1]))
    assert not k4.is_ifvs(mask_of([0, 1]))
    assert not cycle(4).is_fvs(0)


def test_ifvs_implies_fvs_random():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, n_max=10)
        vs = rng.getrandbits(g.n)
        if g.is_ifvs(vs):
            assert g.is_fvs(vs)


def test_components_partition_random():
    rng = random.Random(12)
    for _ in range(200):
        g = random_graph(rng)
        comps = g.components_within(g.vertex_mask)
        union = 0
        for c in comps:
            assert union & c == 0
            union |= c
        assert union == g.vertex_mask


def test_acyclicity_agrees_with_component_edge_count():
    # independent check: acyclic iff every component has m_c = n_c - 1
    rng = random.Random(13)
    for _ in range(1000):
        g = random_graph(rng, n_max=12)
        expected = True
        for comp in g.components_within(g.vertex_mask):
            n_c = comp.bit_count()
            m_c = sum(
                1 for u, v in g.edges if comp >> u & 1 and comp >> v & 1
            )
            if m_c != n_c - 1:
                expected = False
                break
        assert g.is_fvs(0) == expected
