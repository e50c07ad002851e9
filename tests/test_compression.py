import ast
import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete,
    cycle,
    graphs,
    path,
    planted,
    random_graph,
    relabel,
    search_min_ifvs,
    solve_rejected_under_optimize,
)
from ifvs import (
    Graph,
    brute_min_ifvs,
    generate,
    mask_of,
    min_ifvs_given_fvs,
    solve_fvs,
    solve_ifvs,
    subdivide,
)
from ifvs.compression import _prefix_graph


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
    """``(prefix size, optimum)`` of every prefix of three or more vertices
    that a solve at budget ``n`` reaches.

    ``None`` marks a prefix with no solution, and ends the chain.  A
    prefix with no step closed no cycle and keeps the last optimum.
    """
    steps = {step.prefix: step.min_ifvs for step in solve_ifvs(g, g.n).stats.steps}
    chain, val = [], 0
    for size in range(3, g.n + 1):
        val = steps.get(size, val)
        chain.append((size, val))
        if val is None:
            break
    return chain


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
        h = relabel(g, rng.sample(range(g.n), g.n))
        shuffled = solve_ifvs(h, k)
        assert base.decision == shuffled.decision
        again = solve_ifvs(h, k)
        assert shuffled.certificate == again.certificate


def test_rejected_certificate_raises_under_optimize():
    # the check is raised, not asserted, so python -O keeps it
    assert solve_rejected_under_optimize("solve_ifvs", "is_ifvs") == "AssertionError"


def test_stats_are_populated():
    out = solve_ifvs(cycle(5), 1)
    assert out.stats.candidates_scanned > 0
    assert out.stats.fallback_tests >= out.stats.fallbacks > 0
    assert out.stats.ms >= 0
    assert out.stats.f_max >= 1
    # prefixes of size 3 and 4 are paths and close no cycle
    assert [s.prefix for s in out.stats.steps] == [5]
    assert out.stats.skipped == 2


def test_only_cycle_closing_steps_run_the_extension():
    # each triangle closes one cycle when its last vertex arrives; the
    # path closes none, whatever the insertion order, which relabelling sets
    for n, seed in ((48, 17), (96, 17), (96, 3)):
        g = planted(n, 3, seed)
        for h in (g, relabel(g, random.Random(1).sample(range(n), n))):
            out = solve_ifvs(h, 3)
            assert out.decision == "yes"
            assert len(out.stats.steps) == 3
            assert out.stats.skipped == n - 5

    # a hub over three edges, then a path whose vertices all touch the hub:
    # once the hub is the optimum, the path closes no cycle without it
    edges = [(0, 1), (2, 3), (4, 5)] + [(6, v) for v in range(6)]
    edges += [(v, v + 1) for v in range(7, 11)] + [(6, v) for v in range(7, 12)]
    out = solve_ifvs(Graph(12, edges), 1)
    assert out.certificate == (6,)
    assert [s.prefix for s in out.stats.steps] == [7]


def test_steps_are_the_extension_calls(monkeypatch):
    # a step is recorded exactly when the extension stage runs, and every
    # prefix from three vertices up to where the solve stopped is either
    # a step or a skipped count
    import ifvs.compression

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return min_ifvs_given_fvs(*args, **kwargs)

    monkeypatch.setattr(ifvs.compression, "min_ifvs_given_fvs", counted)
    rng = random.Random(47)
    wheel = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, v) for v in range(5)])
    runs = [(complete(4), 4), (wheel, 6)]  # absent
    for _ in range(80):
        g = random_graph(rng, n_max=12)
        oracle = brute_min_ifvs(g)
        runs.append((g, g.n))
        if oracle is not None and oracle[0] > 0:
            runs.append((g, oracle[0] - 1))
    decisions = set()
    for g, k in runs:
        for h in (g, relabel(g, rng.sample(range(g.n), g.n))):
            calls.clear()
            out = solve_ifvs(h, k)
            decisions.add(out.decision)
            steps = out.stats.steps
            assert len(steps) == len(calls)
            assert [s.prefix for s in steps] == calls
            assert all(s.fvs_size >= 1 for s in steps)
            last = g.n if out.decision == "yes" else steps[-1].prefix
            assert out.stats.skipped + len(steps) == max(last - 2, 0)
    assert decisions == {"yes", "no", "absent"}


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    return Graph(n, chosen)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decision_matches_oracle_at_the_optimum(data):
    g = data.draw(small_graphs())
    oracle = brute_min_ifvs(g)
    for h in (g, relabel(g, data.draw(st.permutations(range(g.n))))):
        if oracle is None:
            assert solve_ifvs(h, h.n).decision == "absent"
            continue
        opt = oracle[0]
        out = solve_ifvs(h, opt)
        assert out.decision == "yes"
        assert len(out.certificate) == opt
        assert h.is_ifvs(mask_of(out.certificate))
        if opt > 0:
            assert solve_ifvs(h, opt - 1).decision == "no"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sliced_prefix_matches_a_full_rebuild(data):
    g = data.draw(graphs())
    g = relabel(g, data.draw(st.permutations(range(g.n))))
    # each prefix masks the rows and filters the edges, which stay sorted
    for size in range(g.n + 1):
        full = Graph(size, [(u, v) for u, v in g.edges if v < size])
        sliced = _prefix_graph(g, size)
        assert (sliced.n, sliced.m, sliced.adj) == (full.n, full.m, full.adj)
        assert sliced.edges == full.edges
        assert sliced == full and hash(sliced) == hash(full)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_solve_never_rejects_a_cyclic_remainder(data):
    # each step's FVS is the old optimum, an independent set, plus the new
    # vertex: a star forest, so no subset of it leaves a cycle behind
    g = data.draw(graphs())
    undeletable = data.draw(st.integers(0, (1 << g.n) - 1))
    for solve, kwargs in (
        (solve_ifvs, {}),
        (solve_ifvs, {"undeletable": undeletable}),
        (solve_fvs, {}),
    ):
        buf = io.StringIO()
        solve(g, g.n, trace=buf, **kwargs)
        assert "cyclic-remainder" not in buf.getvalue()


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
    # search's dead ends: (286, 27, 104,383) before, same certificate.
    # Once the exact search decided every candidate, with no DP, the
    # certificates of earlier steps moved again, and fallbacks counts
    # every candidate whose search ran; fallback_tests replaces dp_cells
    out = solve_ifvs(generate(60, 75, 1), 60)
    stats = out.stats
    assert (stats.candidates_scanned, stats.fallbacks, stats.fallback_tests) == (126, 16, 79)
    assert out.certificate == (0, 8, 16, 20, 51, 52)


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
    # instead of on a cycle's vertices cut fallback_tests to 178; the
    # certificate and the other counters stayed the same.  Once the exact
    # search decided every candidate, with no DP, every winning candidate
    # ran a search and the intermediate certificates moved: (671, 51, 178)
    # became the counts below, with the same final certificate
    out = solve_fvs(generate(30, 60, 1), 30)
    stats = out.stats
    assert (stats.candidates_scanned, stats.fallbacks, stats.fallback_tests) == (799, 81, 487)
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
    # the whole graph (search_min_ifvs).  The solver now decides every
    # candidate with that same search, so the check shares the search
    # with it, though not the candidate scan, the queue or the
    # compression steps; the pinned sizes came from the solver when a
    # dynamic program, not the search, decided its candidates
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
    # one planted-long graph at its yes budget.  Every candidate enters
    # the queue at its size plus the degree bound of the triangles it
    # leaves, so once the first candidate sets the best total, every
    # other one is pruned before any search level
    stats = solve_ifvs(planted(96, 3, 1), 3).stats
    assert (stats.candidates_scanned, stats.bound_pruned) == (14, 11)
    assert stats.bound_pruned == sum(s.bound_pruned for s in stats.steps)
