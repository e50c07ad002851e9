"""Metamorphic properties of the optimum, on graphs drawn around hubs.

Each graph grows a tree whose first vertex has at least three children,
then adds a few extra edges to close cycles, so a hub of high degree
often lies on a cycle, and the exact search, which branches on the
vertex with the most neighbours in the 2-core, meets it first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hang_trees, relabel, two_core
from ifvs import Graph, solve_fvs, solve_ifvs, subdivide


@st.composite
def hub_graphs(draw, max_n: int = 10):
    n = draw(st.integers(4, max_n))
    edges = {(0, v) for v in (1, 2, 3)}
    for v in range(4, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=n // 2 + 2)))
    return Graph(n, sorted(edges))


def optimum(g: Graph) -> int | None:
    """Minimum IFVS size of ``g``, or None when it has no IFVS."""
    out = solve_ifvs(g, g.n)
    if out.decision == "absent":
        return None
    assert out.decision == "yes"
    return len(out.certificate)


def union(g: Graph, h: Graph) -> Graph:
    shifted = [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph(g.n + h.n, list(g.edges) + shifted)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relabelling_keeps_the_optimum(data):
    # vertices are inserted in input order, so relabelling changes the order
    g = data.draw(hub_graphs())
    perm = data.draw(st.permutations(range(g.n)))
    assert optimum(relabel(g, perm)) == optimum(g)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_isolated_vertex_and_pendant_leaf_keep_the_optimum(data):
    g = data.draw(hub_graphs())
    anchor = data.draw(st.integers(0, g.n - 1))
    want = optimum(g)
    assert optimum(Graph(g.n + 1, g.edges)) == want
    assert optimum(Graph(g.n + 1, list(g.edges) + [(anchor, g.n)])) == want


@settings(max_examples=100, deadline=None)
@given(hub_graphs(max_n=8), hub_graphs(max_n=8))
def test_disjoint_union_adds_the_optima(g, h):
    a, b = optimum(g), optimum(h)
    want = None if a is None or b is None else a + b
    assert optimum(union(g, h)) == want


@settings(max_examples=100, deadline=None)
@given(hub_graphs(max_n=8))
def test_fvs_optimum_equals_ifvs_optimum_of_the_subdivision(g):
    out = solve_fvs(g, g.n)
    assert out.decision == "yes"
    assert len(out.certificate) == optimum(subdivide(g))


@settings(max_examples=60, deadline=None)
@given(hub_graphs(max_n=8))
def test_subdividing_again_keeps_the_fvs_optimum(g):
    # a subdivision has the cycles of g, so the same minimum FVS size
    sub = subdivide(g)
    once, twice = solve_fvs(g, g.n), solve_fvs(sub, sub.n)
    assert len(once.certificate) == len(twice.certificate)


@settings(max_examples=100, deadline=None)
@given(hub_graphs(), st.integers(0, 8), st.integers(0, 3), st.randoms(use_true_random=False))
def test_pendant_trees_and_isolated_vertices_keep_the_fvs_optimum(g, leaves, isolated, rng):
    # vertices on no cycle leave before the solve, so the optimum stays
    # and the certificate holds only vertices of the 2-core
    big = hang_trees(g, rng, leaves, isolated)
    want = solve_fvs(g, g.n)
    out = solve_fvs(big, big.n)
    assert out.decision == want.decision == "yes"
    assert len(out.certificate) == len(want.certificate)
    assert set(out.certificate) <= two_core(big)
