import random
import time
from operator import itemgetter

import pytest

from conftest import (
    cycle,
    hang_trees,
    path,
    petersen,
    random_graph,
    relabel,
    solve_rejected_under_optimize,
    star,
    two_core,
)
from ifvs import (
    Graph,
    bits,
    brute_min_fvs,
    brute_min_ifvs,
    mask_of,
    solve_fvs,
    subdivide,
)


def test_subdivide_triangle_is_c6():
    sub = subdivide(cycle(3))
    assert sub.n == 6 and sub.m == 6
    assert len(sub.components_within(sub.vertex_mask)) == 1
    assert all(sub.adj[v].bit_count() == 2 for v in range(6))  # one long cycle


def test_rejected_certificate_raises_under_optimize():
    # the check is raised, not asserted, so python -O keeps it; only the
    # input graph rejects, not its subdivided kernel
    assert solve_rejected_under_optimize("solve_fvs", "is_fvs") == "AssertionError"


def test_subdivide_edge_and_edgeless():
    sub = subdivide(Graph(2, [(0, 1)]))
    assert sub.n == 3 and sub.edges == ((0, 2), (1, 2))
    sub = subdivide(Graph(3))
    assert sub == Graph(3)


def test_subdivision_structure_random():
    rng = random.Random(51)
    for _ in range(100):
        g = random_graph(rng, n_max=9)
        sub = subdivide(g)
        assert sub.n == g.n + g.m and sub.m == 2 * g.m
        # originals form an independent set; every edge touches a new vertex
        assert sub.is_independent_set((1 << g.n) - 1)
        for u, v in sub.edges:
            assert (u < g.n) != (v < g.n)
        # subdivision vertex n + i splits the i-th edge
        for i, (u, v) in enumerate(g.edges):
            assert sub.adj[g.n + i] == (1 << u) | (1 << v)


def test_solve_fvs_examples():
    out = solve_fvs(cycle(3), 1)
    assert out.decision == "yes" and len(out.certificate) == 1

    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert solve_fvs(two_triangles, 1).decision == "no"
    out = solve_fvs(two_triangles, 2)
    assert out.decision == "yes" and len(out.certificate) == 2

    out = solve_fvs(path(5), 0)
    assert out.decision == "yes" and out.certificate == ()


def test_solve_fvs_petersen():
    g = petersen()
    assert brute_min_fvs(g)[0] == 3
    out = solve_fvs(g, 3)
    assert out.decision == "yes" and len(out.certificate) == 3
    assert g.is_fvs(mask_of(out.certificate))
    assert solve_fvs(g, 2).decision == "no"


def test_reduction_identity_random():
    rng = random.Random(52)
    for _ in range(60):
        g = random_graph(rng, n_max=8)
        fvs_size, _ = brute_min_fvs(g)
        sub = subdivide(g)
        if sub.n <= 20:
            oracle = brute_min_ifvs(sub)
            assert oracle is not None and oracle[0] == fvs_size


def test_solve_fvs_matches_oracle_random():
    rng = random.Random(53)
    for _ in range(60):
        g = random_graph(rng, n_max=8)
        fvs_size, _ = brute_min_fvs(g)
        for k in (0, 1, 2, 3):
            out = solve_fvs(g, k)
            assert (out.decision == "yes") == (fvs_size <= k)
            if out.decision == "yes":
                assert g.is_fvs(mask_of(out.certificate))
                assert len(out.certificate) <= k


def test_fvs_certificates_hold_original_vertices_only():
    # subdivision vertices are undeletable, so a certificate holds only
    # vertices of g: it is a minimum FVS of g and an IFVS of the subdivision
    rng = random.Random(54)
    for _ in range(60):
        g = random_graph(rng, n_max=9)
        for h in (g, relabel(g, rng.sample(range(g.n), g.n))):
            out = solve_fvs(h, h.n)
            assert out.decision == "yes"
            assert set(out.certificate) <= set(range(h.n))
            assert len(out.certificate) == brute_min_fvs(g)[0]
            assert subdivide(h).is_ifvs(mask_of(out.certificate))


def test_subdivide_and_induced_subgraph_match_the_checked_constructor():
    # both build their results unchecked; each must equal the graph the
    # checking constructor gives, edge order included
    rng = random.Random(55)
    for _ in range(100):
        g = random_graph(rng, n_max=10)
        pairs = []
        for i, (u, v) in enumerate(g.edges):
            pairs += [(u, g.n + i), (g.n + i, v)]
        checked = Graph(g.n + g.m, pairs)
        sub = subdivide(g)
        assert sub == checked and sub.edges == checked.edges
        assert (sub.n, sub.m) == (checked.n, checked.m)
        # a relabelled graph, and one whose edges are sorted by later
        # endpoint, as solve_ifvs slices its prefixes from
        order = list(range(g.n))
        rng.shuffle(order)
        shuffled = relabel(g, order)
        later = Graph.trusted(shuffled.adj, tuple(sorted(shuffled.edges, key=itemgetter(1, 0))))
        for source in (g, shuffled, later):
            vs = rng.randrange(1 << g.n)
            part, ids = source.induced_subgraph(vs)
            assert ids == tuple(bits(vs))
            index = {v: i for i, v in enumerate(ids)}
            checked = Graph(
                len(ids),
                [(index[u], index[v]) for u, v in source.edges if u in index and v in index],
            )
            assert part == checked and part.edges == checked.edges
            assert (part.n, part.m) == (checked.n, checked.m)


def test_solve_fvs_on_forests():
    rng = random.Random(56)
    tree = hang_trees(Graph(1), rng, 7, 0)
    for g in (Graph(0), Graph(4), path(6), star(5), tree):
        out = solve_fvs(g, 0)
        assert out.decision == "yes" and out.certificate == ()
        with pytest.raises(ValueError):
            solve_fvs(g, -1)
    with pytest.raises(ValueError):
        solve_fvs(cycle(3), -1)


def test_solve_fvs_names_its_keywords():
    # solve_fvs sets the undeletable mask itself, so a caller's mask is
    # refused at the call rather than clashing inside solve_ifvs
    with pytest.raises(TypeError, match="unexpected keyword argument 'undeletable'"):
        solve_fvs(cycle(4), 1, undeletable=1)
    # the insertion order is the input order: there is no seed to shuffle it
    with pytest.raises(TypeError, match="unexpected keyword argument 'seed'"):
        solve_fvs(cycle(4), 1, seed=3)
    out = solve_fvs(cycle(4), 1, threads=1)
    assert out.decision == "yes" and len(out.certificate) == 1


def test_solve_fvs_matches_oracle_with_pendant_trees():
    # vertices on no cycle are peeled before the solve: the decision is
    # the oracle's, and every certificate holds 2-core vertices only
    rng = random.Random(57)
    for _ in range(40):
        g = random_graph(rng, n_max=8)
        leaves = rng.randint(0, 14 - g.n)
        g = hang_trees(g, rng, leaves, rng.randint(0, min(2, 14 - g.n - leaves)))
        fvs_size, _ = brute_min_fvs(g)
        for h in (g, relabel(g, rng.sample(range(g.n), g.n))):
            core = two_core(h)
            for k in (0, 1, 2, 3):
                out = solve_fvs(h, k)
                assert (out.decision == "yes") == (fvs_size <= k)
                if out.decision == "yes":
                    assert h.is_fvs(mask_of(out.certificate))
                    assert len(out.certificate) <= k
                    assert set(out.certificate) <= core
                    assert list(out.certificate) == sorted(out.certificate)


def test_solve_fvs_times_the_whole_call(monkeypatch):
    # stats.ms covers the 2-core strip, the subdivision and the final
    # checks too, not only the inner independent-set solve
    def slow(g):
        time.sleep(0.05)
        return subdivide(g)

    monkeypatch.setattr("ifvs.reduction.subdivide", slow)
    assert solve_fvs(cycle(4), 1).stats.ms >= 50
