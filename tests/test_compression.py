import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, cycle, graphs, path, planted, random_graph, search_min_ifvs
from ifvs import (
    Graph,
    brute_min_ifvs,
    generate,
    mask_of,
    solve_fvs,
    solve_ifvs,
    subdivide,
)
from ifvs.compression import _prefix_graph, _relabel


def test_forest_budget_zero():
    out = solve_ifvs(path(6), 0)
    assert out.decision == "yes" and out.certificate == ()


def test_c4_needs_one():
    out = solve_ifvs(cycle(4), 1)
    assert out.decision == "yes" and len(out.certificate) == 1
    assert cycle(4).is_ifvs(mask_of(out.certificate))
    assert solve_ifvs(cycle(4), 0).decision == "no"


def test_k4_has_no_solution_at_all():
    out = solve_ifvs(complete(4), 5)
    assert out.decision == "absent" and out.certificate is None


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        solve_ifvs(cycle(3), -1)


def test_tiny_graphs():
    assert solve_ifvs(Graph(0), 0).decision == "yes"
    assert solve_ifvs(Graph(1), 0).decision == "yes"
    assert solve_ifvs(Graph(2, [(0, 1)]), 0).decision == "yes"


def prefix_optima(g):
    """``(prefix size, optimum)`` of every compression step at budget ``n``.

    ``None`` marks a prefix with no solution.  Prefixes of at most two
    vertices are acyclic and get no step.
    """
    return [(step.prefix, step.min_ifvs) for step in solve_ifvs(g, g.n).stats.steps]


def test_prefix_chain_examples():
    assert prefix_optima(path(4)) == [(3, 0), (4, 0)]
    assert prefix_optima(cycle(4)) == [(3, 0), (4, 1)]
    assert prefix_optima(cycle(3)) == [(3, 1)]


def test_prefix_chain_absent_jump():
    # a dominating vertex over a five-cycle kills every solution at once
    wheel = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                      (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert brute_min_ifvs(wheel) is None
    assert prefix_optima(wheel) == [(3, 0), (4, 0), (5, 1), (6, None)]
    assert solve_ifvs(wheel, 6).decision == "absent"


def test_prefix_chain_matches_oracle_and_is_monotone():
    rng = random.Random(41)
    for _ in range(200):
        g = random_graph(rng, n_max=12)
        if g.n < 2:
            continue
        chain = prefix_optima(g)
        assert [size for size, _ in chain] == list(range(3, 3 + len(chain)))
        prev = 0  # two vertices hold at most one edge
        for idx, (size, val) in enumerate(chain):
            prefix, _ = g.induced_subgraph(mask_of(range(size)))
            oracle = brute_min_ifvs(prefix)
            if val is None:
                assert oracle is None
                assert idx == len(chain) - 1
                break
            assert oracle is not None and oracle[0] == val
            assert val >= prev  # optima never shrink along the chain
            assert val <= prev + 1  # finite growth is one vertex per step
            prev = val


def test_decision_agrees_with_oracle_random():
    rng = random.Random(42)
    for _ in range(300):
        g = random_graph(rng, n_max=12)
        oracle = brute_min_ifvs(g)
        osize = None if oracle is None else oracle[0]
        for k in {0, 1, 2, g.n}:
            out = solve_ifvs(g, k)
            want_yes = osize is not None and osize <= k
            assert (out.decision == "yes") == want_yes
            if out.decision == "yes":
                assert len(out.certificate) <= k
                assert g.is_ifvs(mask_of(out.certificate))
            if out.decision == "absent":
                assert osize is None
        # with an unconstrained budget, absence is always discovered
        if osize is None:
            assert solve_ifvs(g, g.n).decision == "absent"


def test_fvs_handed_to_extension_stays_small():
    rng = random.Random(43)
    for _ in range(60):
        g = random_graph(rng, n_max=12)
        k = rng.randint(0, 3)
        out = solve_ifvs(g, k)
        for step in out.stats.steps:
            assert step.fvs_size <= k + 1


def test_insertion_order_does_not_change_the_decision():
    rng = random.Random(44)
    for _ in range(40):
        g = random_graph(rng, n_max=10)
        k = rng.randint(0, 2)
        base = solve_ifvs(g, k)
        shuffled = solve_ifvs(g, k, seed=9)
        assert base.decision == shuffled.decision
        again = solve_ifvs(g, k, seed=9)
        assert shuffled.certificate == again.certificate


def test_stats_are_populated():
    out = solve_ifvs(cycle(5), 1)
    assert out.stats.candidates > 0
    assert out.stats.dp_cells > 0
    assert out.stats.ms >= 0
    assert out.stats.f_max >= 1
    assert len(out.stats.steps) == 3  # prefixes of size 3, 4, 5


def test_only_cycle_closing_steps_run_the_extension():
    # each triangle closes one cycle when its last vertex arrives; the
    # path closes none, whatever the insertion order
    for n, seed in ((48, 17), (96, 17), (96, 3)):
        g = planted(n, 3, seed)
        for order_seed in (None, 1):
            out = solve_ifvs(g, 3, seed=order_seed)
            assert out.decision == "yes"
            ran = [s for s in out.stats.steps if not s.skipped]
            assert len(ran) == 3
            assert out.stats.skipped == len(out.stats.steps) - 3 == n - 5
            for step in out.stats.steps:
                if step.skipped:
                    assert step.candidates == step.dp_cells == step.fallbacks == 0

    # a hub over three edges, then a path whose vertices all touch the hub:
    # once the hub is the optimum, the path closes no cycle without it
    edges = [(0, 1), (2, 3), (4, 5)] + [(6, v) for v in range(6)]
    edges += [(v, v + 1) for v in range(7, 11)] + [(6, v) for v in range(7, 12)]
    out = solve_ifvs(Graph(12, edges), 1)
    assert out.certificate == (6,)
    assert [s.prefix for s in out.stats.steps if not s.skipped] == [7]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    return Graph(n, chosen)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_decision_matches_oracle_at_the_optimum(g):
    oracle = brute_min_ifvs(g)
    for seed in (None, 1, 2):
        if oracle is None:
            assert solve_ifvs(g, g.n, seed=seed).decision == "absent"
            continue
        opt = oracle[0]
        out = solve_ifvs(g, opt, seed=seed)
        assert out.decision == "yes"
        assert len(out.certificate) == opt
        assert g.is_ifvs(mask_of(out.certificate))
        if opt > 0:
            assert solve_ifvs(g, opt - 1, seed=seed).decision == "no"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sliced_prefix_matches_a_full_rebuild(data):
    g = data.draw(graphs())
    order = data.draw(st.permutations(range(g.n)))
    h = _relabel(g, order)
    for size in range(g.n + 1):
        pos = {v: i for i, v in enumerate(order[:size])}
        full = Graph(size, [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos])
        sliced = _prefix_graph(h, size)
        assert (sliced.n, sliced.m, sliced.adj) == (full.n, full.m, full.adj)
        assert sorted(sliced.edges) == list(full.edges)
        assert sliced == full and hash(sliced) == hash(full)


def test_probe_counters_are_pinned():
    # generate(60, 75, 1) at k=60 is the ROADMAP baseline probe; these
    # counts are the work the solver does today, so a change to that work
    # shows up here and must update the pin on purpose.  dp_cells fell
    # from 139,348 when a disjoint-cycle bound began pruning candidates
    # before their DP; that bound left the candidates and fallbacks alone.
    # dp_cells counts the dense recurrence, so sparse rows left it alone.
    # When DP values began to carry their deletions, ties among optimal
    # extensions went to high-degree vertices instead of the traceback's
    # order; the certificates of earlier steps, and so the later seeds,
    # changed: (358, 24, 122,507) and certificate (0, 3, 16, 20, 37, 43)
    # before, with the same optimum size.  The degree bound replaced the
    # disjoint-cycle packing before the DP and began to cut the exact
    # search's dead ends: (286, 27, 104,383) before, same certificate
    out = solve_ifvs(generate(60, 75, 1), 60)
    stats = out.stats
    assert (stats.candidates, stats.fallbacks, stats.dp_cells) == (286, 19, 97_268)
    assert out.certificate == (0, 3, 16, 20, 37, 52)


def test_fvs_probe_counters_are_pinned():
    # FVS on generate(30, 60, 1) at k=30.  A gate-failing candidate
    # searches one level at a time, in one queue with every other
    # candidate, so a level that a better total found meanwhile rules out
    # is never searched: fallback_tests was 69,158 when each search ran
    # to completion against the best total known when it started.  The
    # answer and every other counter stayed the same.  Subdivision
    # vertices became undeletable: a step scans only the subsets of the
    # seed's original vertices, and no extension deletes a subdivision
    # vertex.  That cut (1342, 80, 53,165) to (671, 59, 1,401), with the
    # same certificate.  The degree bound, before the DP and at every
    # search node, then cut that to (671, 51, 224), again with the same
    # certificate.  Branching the search on one vertex, delete or keep,
    # instead of on a cycle's vertices cut fallback_tests to the count
    # below; the certificate and the other counters stayed the same
    out = solve_fvs(generate(30, 60, 1), 30)
    stats = out.stats
    assert (stats.candidates, stats.fallbacks, stats.fallback_tests) == (671, 51, 178)
    assert out.certificate == (0, 4, 15, 19, 21, 25, 26)


# optimum size of each probe of tools/hard_probes.py (None: "no" at its
# budget), keyed as in its PROBES
HARD_PROBE_OPTIMA = {
    ("ifvs", (60, 75, 1), 60): 6,
    ("ifvs", (100, 125, 3), 8): None,
    ("ifvs", (100, 125, 3), 30): 11,
    ("fvs", (30, 60, 1), 30): 7,
    ("fvs", (40, 80, 1), 40): 9,
    ("fvs", (60, 90, 1), 60): 10,
    ("ifvs", (80, 120, 2), 80): 13,
    ("fvs", (100, 120, 1), 100): 8,
}


def test_hard_probes_keep_their_optima():
    # the brute-force oracles stop at 20 vertices, so each pinned size,
    # and each "no", is checked against the exact search run alone over
    # the whole graph (search_min_ifvs), which shares no DP, queue or
    # compression step with the solver
    tool = Path(__file__).resolve().parent.parent / "tools" / "hard_probes.py"
    for node in ast.parse(tool.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "PROBES":
            probes = ast.literal_eval(node.value)
    assert probes == tuple(HARD_PROBE_OPTIMA)
    for problem, (n, m, seed), k in probes:
        g = generate(n, m, seed)
        solve, valid = (solve_ifvs, g.is_ifvs) if problem == "ifvs" else (solve_fvs, g.is_fvs)
        out = solve(g, k)
        size = HARD_PROBE_OPTIMA[problem, (n, m, seed), k]
        if problem == "ifvs":
            least = search_min_ifvs(g)
        else:
            sub = subdivide(g)
            least = search_min_ifvs(sub, sub.vertex_mask & ~g.vertex_mask)
        if size is None:
            assert least > k and out.decision == "no", (problem, n, m, seed, k)
        else:
            assert least == size, (problem, n, m, seed, k)
            assert out.decision == "yes" and len(out.certificate) == size, (problem, n, m, seed, k)
            assert valid(mask_of(out.certificate))


def test_planted_counters_are_pinned():
    # one planted-long graph at its yes budget.  Once the first candidate
    # sets the best total, every candidate whose removal leaves enough
    # disjoint triangles to fill its gap is pruned by the degree bound
    # before its DP; without a bound this graph costs 2,339 cells
    stats = solve_ifvs(planted(96, 3, 1), 3).stats
    assert (stats.candidates, stats.bound_pruned, stats.dp_cells) == (14, 8, 856)
    assert stats.bound_pruned == sum(s.bound_pruned for s in stats.steps)
