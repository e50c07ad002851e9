"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or
``-v``); tolerances are pinned in the assertions, not configurable.
Run with: ``pytest tests/test_acceptance.py -v``.
"""

import json
import random
import statistics
import time
from itertools import combinations

from conftest import (
    complete,
    cycle,
    gate_cross_tree,
    gate_forced_fallback,
    gate_single_tree,
    path,
    planted,
    random_graph,
    run_cli,
    star,
)
from ifvs import (
    Graph,
    brute_min_fvs,
    brute_min_ifvs,
    mask_of,
    min_ifvs_given_fvs,
    solve_fvs,
    solve_ifvs,
    subdivide,
)
from ifvs.extension import enumerate_candidates

ALL_PAIRS_N5 = list(combinations(range(5), 2))


def test_criterion_1_oracle_equivalence_exhaustive():
    """Every 5-vertex graph, every budget 0..5, against the oracle."""
    t0 = time.perf_counter()
    for edge_bits in range(1 << 10):
        g = Graph(5, [ALL_PAIRS_N5[i] for i in range(10) if edge_bits >> i & 1])
        oracle = brute_min_ifvs(g)
        osize = None if oracle is None else oracle[0]
        for k in range(6):
            out = solve_ifvs(g, k)
            want_yes = osize is not None and osize <= k
            assert (out.decision == "yes") == want_yes, (g.edges, k)
            if out.decision == "yes":
                assert len(out.certificate) <= k
                assert g.is_ifvs(mask_of(out.certificate))
            if out.decision == "absent":
                assert osize is None
        # with the full budget, absence must be detected exactly
        assert (solve_ifvs(g, 5).decision == "absent") == (osize is None)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"exhaustive sweep took {elapsed:.1f}s"
    print(f"PASS criterion 1: exhaustive n=5 sweep x k=0..5 ({elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence_randomized():
    """500 random instances: extension stage equals the oracle exactly."""
    rng = random.Random(101)
    for _ in range(500):
        g = random_graph(rng, n_max=12, m_cap=24)
        _, fcert = brute_min_fvs(g)
        f = mask_of(fcert)
        out = min_ifvs_given_fvs(g, f)
        oracle = brute_min_ifvs(g)
        if oracle is None:
            assert out.absent, g.edges
        else:
            assert out.size == oracle[0], g.edges
            assert g.is_ifvs(mask_of(out.certificate)), g.edges
    print("PASS criterion 2: 500 random instances match the oracle exactly")


def _shares_a_component_pair(g: Graph, f: int) -> bool:
    """Whether, for some candidate, two forest vertices touch the same two
    components of the rest of ``f``: kept regions around them can close a
    cycle through that pair, which a dynamic program over the forest keyed
    by component subsets cannot see."""
    forest = [v for v in range(g.n) if not f >> v & 1]
    for sub in enumerate_candidates(g, f):
        comps = g.components_within(f & ~sub)
        for a, b in combinations(comps, 2):
            if sum(1 for v in forest if g.adj[v] & a and g.adj[v] & b) >= 2:
                return True
    return False


def _two_region_corpus():
    """Instances where distinct kept regions can link one component pair."""
    instances = [gate_cross_tree(), gate_forced_fallback(), gate_single_tree()]
    # complete bipartite K_{2,t}: both sides of the 2-set are components,
    # every tree vertex links both
    for t in range(2, 7):
        g = Graph(2 + t, [(s, 2 + i) for s in (0, 1) for i in range(t)])
        instances.append((g, mask_of([0, 1])))
    # random graphs conditioned on two forest vertices sharing a pair
    rng = random.Random(103)
    found = 0
    while found < 40:
        g = random_graph(rng, n_max=11)
        _, fcert = brute_min_fvs(g)
        f = mask_of(fcert)
        if _shares_a_component_pair(g, f):
            instances.append((g, f))
            found += 1
    return instances


def test_criterion_3_soundness_gate_telemetry():
    """Two kept regions on one component pair: answers stay exact, and the
    search reports its work."""
    searches = 0
    for g, f in _two_region_corpus():
        out = min_ifvs_given_fvs(g, f)
        searches += out.stats.fallbacks
        assert out.stats.fallback_tests >= out.stats.fallbacks
        oracle = brute_min_ifvs(g)
        if oracle is None:
            assert out.absent
        else:
            assert out.size == oracle[0], (g.edges, f)
            assert g.is_ifvs(mask_of(out.certificate))
    assert searches >= 48, "corpus failed to exercise the search"
    print(f"PASS criterion 3: {searches} searches run, 100% oracle match")


def test_criterion_4_reduction_identity():
    """Subdividing edges preserves the optimum; mapped certificates hold."""
    rng = random.Random(104)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 9)
        limit = n * (n - 1) // 2
        m = rng.randint(0, min(limit, 20 - n))  # keep the oracle in range
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, m))
        fvs_size, _ = brute_min_fvs(g)
        sub = subdivide(g)
        oracle = brute_min_ifvs(sub)
        assert oracle is not None and oracle[0] == fvs_size, g.edges
        out = solve_fvs(g, fvs_size)
        assert out.decision == "yes"
        assert g.is_fvs(mask_of(out.certificate))
        assert len(out.certificate) <= fvs_size
        if fvs_size > 0:
            assert solve_fvs(g, fvs_size - 1).decision == "no"
        checked += 1
    print("PASS criterion 4: reduction identity on 300 random graphs")


def test_criterion_7_scaling_trend():
    """Doubling n at fixed k raises the median wall time at most 8x."""
    k = 3

    def median_ms(n: int) -> float:
        g = planted(n, k, seed=17)
        solve_ifvs(g, k)  # warm-up, discarded
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            out = solve_ifvs(g, k)
            times.append((time.perf_counter() - t0) * 1000.0)
            assert out.decision == "yes"
        return statistics.median(times)

    small = median_ms(48)
    big = median_ms(96)
    ratio = big / small
    assert ratio <= 8.0, f"median ratio {ratio:.2f} exceeds 8x"
    print(f"PASS criterion 7: n 48->96 median wall-time ratio {ratio:.2f} <= 8")


def test_criterion_8_degenerate_suite():
    """Forests, cycles, cliques and two-region graphs all behave."""
    for forest in (path(7), star(6), Graph(5), Graph(9, [(0, 1), (2, 3), (3, 4)])):
        out = solve_ifvs(forest, 0)
        assert out.decision == "yes" and out.certificate == ()
    for n in range(3, 13):
        assert solve_ifvs(cycle(n), 0).decision == "no"
        out = solve_ifvs(cycle(n), 1)
        assert out.decision == "yes" and len(out.certificate) == 1
    for g in (complete(4), complete(5)):
        out = solve_ifvs(g, g.n)
        assert out.decision == "absent" and out.certificate is None
    for g, f in (gate_cross_tree(), gate_forced_fallback(), gate_single_tree()):
        assert min_ifvs_given_fvs(g, f).stats.fallbacks >= 0  # telemetry exposed
        oracle = brute_min_ifvs(g)
        out = solve_ifvs(g, oracle[0])
        assert out.decision == "yes"
        assert g.is_ifvs(mask_of(out.certificate))
        if oracle[0] > 0:
            assert solve_ifvs(g, oracle[0] - 1).decision == "no"
    # the cross-tree and doubled-link fixtures must actually run the search
    assert min_ifvs_given_fvs(*gate_cross_tree()).stats.fallbacks >= 1
    assert min_ifvs_given_fvs(*gate_forced_fallback()).stats.fallbacks >= 1
    print("PASS criterion 8: degenerate suite validated")


def test_criterion_9_determinism_across_threads():
    """Repeated runs with identical inputs give byte-identical JSON.

    The solver has no threads and inserts vertices in input order, so
    determinism is checked across repeated runs of each mode and instance.
    """
    gen = run_cli("gen", "--n", "14", "--m", "18", "--seed", "7")
    assert gen.returncode == 0
    instances = [
        (gen.stdout, "3"),
        ("4 4\n0 1\n1 2\n2 3\n3 0\n", "1"),  # square, one solution vertex
        ("6 9\n0 5\n2 0\n2 5\n2 3\n2 4\n3 0\n3 1\n4 0\n4 1\n", "2"),  # two regions on one pair
    ]
    for text, k in instances:
        for mode in ("ifvs", "fvs"):
            args = [mode, "--k", k, "--json", "--no-timing"]
            one = run_cli(*args, stdin=text)
            again = run_cli(*args, stdin=text)
            assert one.returncode == again.returncode
            assert one.stdout == again.stdout, f"{mode} --k {k} diverged"
            json.loads(one.stdout)  # stays well-formed
    print("PASS criterion 9: byte-identical JSON across repeated runs")
