import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete,
    cycle,
    gate_cross_tree,
    gate_fallback_tie,
    gate_fallback_wins,
    gate_forced_fallback,
    gate_single_tree,
    graphs,
    path,
    random_graph,
    search_min_ifvs,
)
from ifvs import (
    Graph,
    NotAnFvsError,
    bits,
    brute_min_fvs,
    brute_min_ifvs,
    generate,
    mask_of,
    min_ifvs_given_fvs,
    solve_fvs,
    solve_ifvs,
    subdivide,
)
from ifvs.extension import (
    _degree_bound,
    _fallback_search,
    _iter_subsets,
    _strip,
    enumerate_candidates,
)


def _candidates(g, f):
    return list(enumerate_candidates(g, f))


def _search_state(g, f, sub, undeletable=0):
    """The 2-core of ``g - sub`` and its deletable vertices, built from scratch."""
    core = _strip(g.adj, g.vertex_mask & ~sub, g.vertex_mask & ~sub)
    return core, core & ~(f | g.neighbors(sub) | undeletable)


def test_enumerate_single_vertex_fvs():
    tri = cycle(3)
    cands = _candidates(tri, mask_of([0]))
    assert cands == [0, 1]


def test_enumerate_adjacent_pair():
    # fvs = two adjacent vertices: the full pair is not independent
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    assert g.is_fvs(mask_of([0, 1]))
    cands = _candidates(g, mask_of([0, 1]))
    assert cands == [0, mask_of([0]), mask_of([1])]


def test_enumerate_triangle_fvs():
    # fvs is itself a triangle: the empty set leaves a cycle, pairs and
    # the full set are not independent; only the singletons survive
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
    assert g.is_fvs(mask_of([0, 1, 2]))
    cands = _candidates(g, mask_of([0, 1, 2]))
    assert cands == [mask_of([0]), mask_of([1]), mask_of([2])]


def test_enumerate_requires_fvs():
    with pytest.raises(NotAnFvsError):
        list(enumerate_candidates(cycle(4), 0))
    # a mask with a vertex outside the graph is no FVS of it, even when
    # its part inside is one
    for f in (0b100001, -1):
        with pytest.raises(NotAnFvsError):
            list(enumerate_candidates(cycle(3), f))
        with pytest.raises(NotAnFvsError):
            min_ifvs_given_fvs(cycle(3), f)


def test_k4_all_candidates_infeasible():
    g = complete(4)
    f = mask_of([0, 1])
    cands = _candidates(g, f)
    assert cands  # the empty choice is admissible here
    for sub in cands:
        # a budget of every vertex leaves the search nothing to cut
        assert _fallback_search(g.adj, *_search_state(g, f, sub), g.n)[0] is None


def test_min_ifvs_given_fvs_examples():
    forest = path(5)
    out = min_ifvs_given_fvs(forest, 0)
    assert out.size == 0 and out.certificate == ()

    out = min_ifvs_given_fvs(cycle(4), mask_of([0]))
    assert out.size == 1
    assert cycle(4).is_ifvs(mask_of(out.certificate))

    out = min_ifvs_given_fvs(complete(4), mask_of([0, 1]))
    assert out.absent and out.size is None and out.certificate is None

    with pytest.raises(NotAnFvsError):
        min_ifvs_given_fvs(cycle(4), 0)


def test_exactness_against_oracle_random():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, n_max=12, m_cap=24)
        _, fcert = brute_min_fvs(g)
        f = mask_of(fcert)
        out = min_ifvs_given_fvs(g, f)
        oracle = brute_min_ifvs(g)
        if oracle is None:
            assert out.absent
        else:
            assert out.size == oracle[0]
            assert g.is_ifvs(mask_of(out.certificate))


def test_repeated_calls_agree():
    rng = random.Random(32)
    for _ in range(40):
        g = random_graph(rng, n_max=11)
        _, fcert = brute_min_fvs(g)
        f = mask_of(fcert)
        first = min_ifvs_given_fvs(g, f)
        again = min_ifvs_given_fvs(g, f)
        assert first.size == again.size
        assert first.certificate == again.certificate
        assert first.stats.fallbacks == again.stats.fallbacks
        assert first.stats.fallback_tests == again.stats.fallback_tests


def test_gate_fixtures_match_oracle():
    for g, f in (gate_cross_tree(), gate_forced_fallback(), gate_single_tree()):
        out = min_ifvs_given_fvs(g, f)
        oracle = brute_min_ifvs(g)
        assert out.size == oracle[0]
        assert g.is_ifvs(mask_of(out.certificate))


def test_gate_fires_on_cross_tree_and_forced_fixtures():
    # the fixtures that once failed a validity gate are decided by the search
    g, f = gate_cross_tree()
    assert min_ifvs_given_fvs(g, f).stats.fallbacks >= 1
    g, f = gate_forced_fallback()
    assert min_ifvs_given_fvs(g, f).stats.fallbacks >= 1


def test_fallback_search_cost_cap():
    g, f = gate_forced_fallback()
    assert _candidates(g, f)[0] == 0
    core, allowed = _search_state(g, f, 0)
    # the empty choice admits no extension at all for this instance
    for budget in range((g.vertex_mask & ~f).bit_count() + 1):
        ext, tests = _fallback_search(g.adj, core, allowed, budget)
        assert ext is None and tests > 0
    # a zero budget tests the remaining graph once and cuts there
    assert _fallback_search(g.adj, core, allowed, 0) == (None, 1)


def test_reported_sizes_are_minimal():
    # no sampled solution may beat the reported optimum
    rng = random.Random(33)
    for _ in range(200):
        g = random_graph(rng, n_max=12)
        _, fcert = brute_min_fvs(g)
        out = min_ifvs_given_fvs(g, mask_of(fcert))
        for _ in range(30):
            vs = rng.getrandbits(g.n)
            if g.is_ifvs(vs):
                assert out.size is not None
                assert vs.bit_count() >= out.size


def _two_core(g, live):
    """Reference 2-core: drop one vertex with at most one neighbour at a time."""
    while True:
        for v in bits(live):
            if (g.adj[v] & live).bit_count() <= 1:
                live &= ~(1 << v)
                break
        else:
            return live


@st.composite
def graphs_with_subset(draw, max_n: int = 10):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    live = draw(st.integers(0, (1 << n) - 1))
    return Graph(n, edges), live


@settings(max_examples=200, deadline=None)
@given(graphs_with_subset())
def test_incremental_strip(case):
    g, live = case
    core = _two_core(g, live)
    assert _strip(g.adj, live, live) == core
    # deleting one core vertex: re-stripping from its neighbours is exact
    for v in bits(core):
        rest = core & ~(1 << v)
        assert _strip(g.adj, rest, g.adj[v] & core) == _two_core(g, rest)


def _fvs_corpus(seed, count):
    """``count`` random graphs on 2..9 vertices, each with a minimum FVS."""
    rng = random.Random(seed)
    while count:
        g = random_graph(rng, n_max=9)
        if g.n < 2:
            continue
        yield g, mask_of(brute_min_fvs(g)[1])
        count -= 1


def test_per_candidate_exactness():
    # one level of the exact search finds nothing below the true
    # per-candidate minimum e, and a valid extension of exactly e vertices
    # at level e.  Each graph is scanned plain and under a random
    # undeletable mask outside f, as FVS solves run the search only under
    # such a mask
    rng = random.Random(98)
    for g, f in _fvs_corpus(99, 80):
        u = mask_of(v for v in bits(g.vertex_mask & ~f) if rng.random() < 0.3)
        for mask in (0, u):
            for sub in enumerate_candidates(g, f, undeletable=mask):
                true_min = _min_extension(g, f | mask, sub)
                core, allowed = _search_state(g, f, sub, mask)
                if true_min is None:
                    every = (g.vertex_mask & ~(f | g.neighbors(sub) | mask)).bit_count()
                    assert _fallback_search(g.adj, core, allowed, every)[0] is None
                    continue
                if true_min:
                    assert _fallback_search(g.adj, core, allowed, true_min - 1)[0] is None
                ext, _ = _fallback_search(g.adj, core, allowed, true_min)
                assert ext is not None and ext.bit_count() == true_min
                assert g.is_ifvs(sub | ext) and not ext & mask


def test_search_alone_matches_the_oracles():
    # search_min_ifvs first agrees with brute force, then with the
    # solver's certificate sizes on graphs past the brute-force limit,
    # for IFVS and, through the subdivision, for FVS
    for g, _ in _fvs_corpus(97, 80):
        best = brute_min_ifvs(g)
        assert search_min_ifvs(g) == (None if best is None else best[0]), g.edges
    rng = random.Random(96)
    for seed in range(40):
        n = rng.randint(30, 60)
        g = generate(n, rng.randint(n, n * 7 // 5), seed)
        out = solve_ifvs(g, g.n)
        least = search_min_ifvs(g)
        assert least == (None if out.certificate is None else len(out.certificate)), (n, seed)
        sub = subdivide(g)
        least = search_min_ifvs(sub, sub.vertex_mask & ~g.vertex_mask)
        assert least == len(solve_fvs(g, g.n).certificate), (n, seed)


def test_a_deep_keep_chain_does_not_recurse():
    # the keep branch is a loop: on a long cycle whose every deletion
    # leaves a triangle with no deletable vertex, the search keeps one
    # cycle vertex after another without growing the stack
    length = sys.getrecursionlimit() + 50
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(length, length + 1), (length + 1, length + 2), (length + 2, length)]
    g = Graph(length + 3, edges)
    allowed = mask_of(range(length))
    ext, tests = _fallback_search(g.adj, g.vertex_mask, allowed, 2)
    assert ext is None and tests > length


def test_extension_reaches_the_exact_minimum():
    # the best total the exact search sets is the brute-force optimum,
    # also on the fixtures where two kept regions close a cycle through
    # one component pair
    fixtures = [gate_cross_tree(), gate_forced_fallback(), gate_single_tree(), gate_fallback_wins()]
    for g, f in [*fixtures, *_fvs_corpus(99, 80)]:
        out = min_ifvs_given_fvs(g, f)
        best = brute_min_ifvs(g)
        assert out.size == (None if best is None else best[0]), (g.edges, f)
        if out.size is not None:
            assert g.is_ifvs(mask_of(out.certificate))
    assert min_ifvs_given_fvs(*gate_fallback_wins()).stats.fallbacks > 0


def test_equal_keys_leave_in_size_then_bitmask_order():
    # {0} and {5} both need 3 forest deletions, so both reach key 4, the
    # optimum; at an equal key the lower bitmask leaves first and wins,
    # and {5} is pruned after the levels it searched below 4
    import io

    g, f = gate_fallback_tie()
    for members in ([0], [5]):
        sub = mask_of(members)
        assert sub in enumerate_candidates(g, f)
        core, allowed = _search_state(g, f, sub)
        assert _fallback_search(g.adj, core, allowed, 2)[0] is None
        ext, _ = _fallback_search(g.adj, core, allowed, 3)
        assert ext.bit_count() == 3 and g.is_ifvs(sub | ext)
    sink = io.StringIO()
    out = min_ifvs_given_fvs(g, f, trace=sink)
    assert out.size == brute_min_ifvs(g)[0] == 4
    assert out.certificate == (0, 1, 2, 4)
    assert (out.stats.fallbacks, out.stats.pruned, out.stats.bound_pruned) == (2, 1, 0)
    lines = sink.getvalue().splitlines()
    assert lines[-2:] == ["candidate {0} key=4 nodes=4 found", "candidate {5} key=4 nodes=3 pruned"]


def _grown_fvs_corpus(seed, count):
    """``_fvs_corpus`` graphs, each FVS grown by a few random vertices."""
    rng = random.Random(seed)
    for g, f in _fvs_corpus(seed, count):
        for v in range(g.n):
            if rng.random() < 0.2:
                f |= 1 << v
        yield g, f


def test_counters_match_the_candidate_scan():
    for g, f in _grown_fvs_corpus(41, 150):
        stats = min_ifvs_given_fvs(g, f).stats
        cands = list(enumerate_candidates(g, f))
        assert stats.candidates_scanned == 2 ** f.bit_count()
        assert stats.candidates_accepted == len(cands)
        assert stats.bound_pruned <= stats.pruned <= stats.candidates_accepted
        assert stats.fallbacks <= stats.bounded <= stats.candidates_accepted
        # a candidate is never bounded only when it is pruned at its first key
        assert stats.candidates_accepted - stats.bounded <= stats.bound_pruned


def _masked_corpus(seed):
    """Plain and grown ``_fvs_corpus`` pairs, each with three undeletable masks.

    The masks are empty, a random part of ``f``, and a random part of the
    whole graph.
    """
    rng = random.Random(seed)
    for g, f in [*_fvs_corpus(seed, 100), *_grown_fvs_corpus(seed + 1, 100)]:
        inside = mask_of(v for v in bits(f) if rng.random() < 0.4)
        anywhere = mask_of(v for v in range(g.n) if rng.random() < 0.3)
        for u in (0, inside, anywhere):
            yield g, f, u


def _brute_min_avoiding(g, u):
    """Least size of an IFVS of ``g`` with no vertex of ``u``, or None."""
    free = [v for v in range(g.n) if not u >> v & 1]
    for size in range(len(free) + 1):
        for combo in itertools.combinations(free, size):
            if g.is_ifvs(mask_of(combo)):
                return size
    return None


def test_undeletable_mask_is_exact():
    # the optimum over the independent FVSs that avoid the mask, whether
    # its vertices lie in f or in the forest
    for g, f, u in _masked_corpus(61):
        out = min_ifvs_given_fvs(g, f, undeletable=u)
        assert out.size == _brute_min_avoiding(g, u), (g.edges, f, u)
        if out.size is not None:
            chosen = mask_of(out.certificate)
            assert g.is_ifvs(chosen) and not chosen & u


def test_masked_counters_match_the_masked_candidate_scan():
    # the mask drops the subsets of f that meet it and admits the rest as
    # before; test_undeletable_mask_is_exact checks that the search then
    # forbids its forest vertices
    for g, f, u in _masked_corpus(63):
        stats = min_ifvs_given_fvs(g, f, undeletable=u).stats
        cands = list(enumerate_candidates(g, f, undeletable=u))
        assert stats.candidates_scanned == 2 ** (f & ~u).bit_count()
        assert stats.candidates_accepted == len(cands)
        assert cands == [sub for sub in enumerate_candidates(g, f) if not sub & u]


def test_trace_writes_one_line_per_subset():
    # after one "extension:" line, every subset of f gets exactly one
    # line, the ones settled by the exact search included, and each
    # candidate whose search ran shows its search nodes
    import io

    fallbacks = 0
    corpus = [gate_forced_fallback(), gate_fallback_wins(), *_grown_fvs_corpus(42, 120)]
    for g, f in corpus:
        sink = io.StringIO()
        out = min_ifvs_given_fvs(g, f, trace=sink)
        fallbacks += out.stats.fallbacks
        lines = sink.getvalue().splitlines()
        members = ",".join(map(str, bits(f)))
        assert lines[0] == f"extension: {g.n} vertices, fvs {{{members}}}"
        subsets = []
        for line in lines[1:]:
            assert line.startswith("candidate {"), line
            members = line[len("candidate {") : line.index("}")]
            subsets.append(mask_of(int(v) for v in members.split(",") if v))
        assert sorted(subsets) == list(_iter_subsets(f)), (g.edges, f)
        searched = [line for line in lines if " nodes=" in line and " nodes=0 " not in line]
        assert len(searched) == out.stats.fallbacks
        assert sum(" nodes=0 pruned" in line for line in lines) == out.stats.bound_pruned
    assert fallbacks > 0


def test_high_degree_trees_match_oracle():
    # preferential-attachment trees give vertices many children; wiring a
    # few extra fvs vertices into them exercises later-child merges with
    # components
    rng = random.Random(37)
    checked = 0
    while checked < 120:
        t = rng.randint(3, 8)
        edges = [(rng.randint(0, i - 1) if i > 1 else 0, i) for i in range(1, t)]
        extras = rng.randint(1, 3)
        n = t + extras
        for x in range(t, n):
            picks = rng.sample(range(t), rng.randint(1, min(4, t)))
            edges.extend((p, x) for p in picks)
            # occasional edges between the extra vertices
            if x > t and rng.random() < 0.4:
                edges.append((x - 1, x))
        g = Graph(n, sorted(set((min(a, b), max(a, b)) for a, b in edges)))
        f = mask_of(range(t, n))
        if not g.is_fvs(f):
            continue
        out = min_ifvs_given_fvs(g, f)
        oracle = brute_min_ifvs(g)
        if oracle is None:
            assert out.absent
        else:
            assert out.size == oracle[0], (g.edges, f)
            assert g.is_ifvs(mask_of(out.certificate))
        checked += 1


def test_trace_output():
    import io

    sink = io.StringIO()
    min_ifvs_given_fvs(cycle(4), mask_of([0]), trace=sink)
    # {} enters at its degree bound 1 and its search finds one deletion;
    # {0} enters at its size 1, which the best total 1 then prunes
    assert sink.getvalue().splitlines() == [
        "extension: 4 vertices, fvs {0}",
        "candidate {} key=1 nodes=2 found",
        "candidate {0} key=1 nodes=0 pruned",
    ]
    # rejected subsets are written during the scan, the others as they
    # leave the queue for good: {} is bounded first and goes back at key
    # 2, so {0} and {1} are bounded, and found infeasible, before its
    # search; an exhausted search shows every node of its levels
    sink = io.StringIO()
    assert min_ifvs_given_fvs(complete(4), mask_of([0, 1]), trace=sink).absent
    assert sink.getvalue().splitlines()[1:] == [
        "candidate {0,1} rejected (not-independent)",
        "candidate {0} infeasible",
        "candidate {1} infeasible",
        "candidate {} key=2 nodes=3 exhausted",
    ]


def test_lower_bound_keeps_the_optimum():
    rng = random.Random(35)
    for _ in range(150):
        g = random_graph(rng, n_max=11)
        _, fcert = brute_min_fvs(g)
        f = mask_of(fcert)
        for v in range(g.n):
            if rng.random() < 0.15:
                f |= 1 << v
        base = min_ifvs_given_fvs(g, f)
        if base.absent:
            assert min_ifvs_given_fvs(g, f, lower=g.n).absent
            continue
        for lower in range(base.size + 1):
            out = min_ifvs_given_fvs(g, f, lower=lower)
            assert out.size == base.size, (g.edges, f, lower)
            assert g.is_ifvs(mask_of(out.certificate))
            assert out.stats.candidates_scanned == base.stats.candidates_scanned


def test_trace_marks_pruned_candidates():
    import io

    sink = io.StringIO()
    out = min_ifvs_given_fvs(cycle(4), mask_of([0]), trace=sink)
    # {} already costs 1, so the one-vertex candidate {0} cannot beat it
    assert out.stats.pruned == 1
    assert "candidate {0} key=1 nodes=0 pruned" in sink.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rejection_reasons_match_the_graph_predicates(data):
    # each scanned subset's trace line says "rejected (reason)" exactly
    # when the union-find predicates reject it, independence first
    import io

    g = data.draw(graphs())
    f = data.draw(st.integers(0, g.vertex_mask)) | mask_of(brute_min_fvs(g)[1])
    for undeletable in (0, data.draw(st.integers(0, g.vertex_mask))):
        sink = io.StringIO()
        min_ifvs_given_fvs(g, f, undeletable=undeletable, trace=sink)
        fates = {}
        for line in sink.getvalue().splitlines()[1:]:
            members, fate = line.removeprefix("candidate {").split("} ", 1)
            fates[mask_of(int(v) for v in members.split(",") if v)] = fate
        assert sorted(fates) == sorted(_iter_subsets(f & ~undeletable))
        for sub, fate in fates.items():
            if not g.is_independent_set(sub):
                assert fate == "rejected (not-independent)"
            elif not g.is_forest_within(f & ~sub):
                assert fate == "rejected (cyclic-remainder)"
            else:
                assert not fate.startswith("rejected")


def _min_extension(g, f, sub):
    """Fewest forest vertices whose deletion with ``sub`` gives an IFVS, or None."""
    from itertools import combinations

    tree = list(bits(g.vertex_mask & ~f))
    for size in range(len(tree) + 1):
        for combo in combinations(tree, size):
            if g.is_ifvs(sub | mask_of(combo)):
                return size
    return None


@st.composite
def rings_plus_edges(draw, max_n: int = 10):
    """Disjoint 3- and 4-cycles on shuffled labels, plus up to four more edges."""
    n = draw(st.integers(3, max_n))
    labels = draw(st.permutations(range(n)))
    edges = set()
    start = 0
    while n - start >= 3:
        length = draw(st.integers(3, min(4, n - start)))
        ring = labels[start : start + length]
        edges.update(tuple(sorted((ring[i], ring[i - 1]))) for i in range(length))
        start += length
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=4)))
    return Graph(n, edges)


@settings(max_examples=120, deadline=None)
@given(rings_plus_edges(), st.data())
def test_degree_bound_is_sound(g, data):
    # the bound of every admissible candidate, as the extension stage
    # forms it, against the exact least extension: never above it, 0
    # exactly when G - sub is acyclic, past n only when no extension
    # exists, and equal to it when the 2-core left is disjoint cycles, one
    # deletion each.  Besides the empty mask, a random undeletable mask
    # that avoids f forbids part of the forest as well.  The vertex
    # returned is the deletable core vertex with the most core
    # neighbours, smallest id on ties, or -1; deletable vertices outside
    # the core change neither value
    f = mask_of(brute_min_fvs(g)[1])
    undeletable = data.draw(st.integers(0, g.vertex_mask)) & ~f
    core = _strip(g.adj, g.vertex_mask, g.vertex_mask)
    for u in (0, undeletable):
        for sub in _iter_subsets(f):
            if not (g.is_independent_set(sub) and g.is_forest_within(f & ~sub)):
                continue
            near = g.neighbors(sub)
            rest = _strip(g.adj, core & ~sub, near & core)
            free = g.vertex_mask & ~(f | near | u)
            bound, top = _degree_bound(g.adj, rest, rest & free)
            assert _degree_bound(g.adj, rest, free) == (bound, top)
            degree = {v: (g.adj[v] & rest).bit_count() for v in bits(rest & free)}
            assert top == min(degree, key=lambda v: (-degree[v], v), default=-1)
            best = _min_extension(g, f | u, sub)
            assert (bound == 0) == g.is_forest_within(g.vertex_mask & ~sub)
            if best is not None:
                assert bound <= best
                if all((g.adj[v] & rest).bit_count() == 2 for v in bits(rest)):
                    assert bound == best
            if bound > g.n:
                assert best is None


def test_trace_marks_bound_pruned_candidates():
    import io

    # two disjoint triangles with f = {0, 3}: the empty candidate is
    # bounded at 2 and its search finds 2 deletions; each one-vertex
    # candidate is bounded at key 1, and leaves the other triangle, whose
    # bound of 1 fills its gap, so it is pruned before any search level.
    # {0,3} enters at its size 2, which the best total prunes before it
    # is ever bounded
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    sink = io.StringIO()
    out = min_ifvs_given_fvs(g, mask_of([0, 3]), trace=sink)
    assert out.size == 2
    assert (out.stats.pruned, out.stats.bound_pruned, out.stats.fallbacks) == (3, 3, 1)
    assert (out.stats.candidates_accepted, out.stats.bounded) == (4, 3)
    text = sink.getvalue()
    assert "candidate {} key=2 nodes=3 found\n" in text
    assert "candidate {0} key=2 nodes=0 pruned\n" in text
    assert "candidate {3} key=2 nodes=0 pruned\n" in text
    assert "candidate {0,3} key=2 nodes=0 pruned\n" in text


def test_infeasible_candidates_run_no_search():
    # K4 with f = {0, 1}: {0} forbids 2 and 3, so no deletable vertex is
    # left in the triangle 1-2-3, and its degree bound is past every
    # budget; it and {1} are marked infeasible and never searched, while
    # {} exhausts its deletable vertices
    import io

    sink = io.StringIO()
    out = min_ifvs_given_fvs(complete(4), mask_of([0, 1]), trace=sink)
    assert out.absent
    assert (out.stats.candidates_accepted, out.stats.fallbacks, out.stats.pruned) == (3, 1, 0)
    lines = sink.getvalue().splitlines()
    assert "candidate {0} infeasible" in lines and "candidate {1} infeasible" in lines
    searched = [line for line in lines if " nodes=" in line]
    assert searched == ["candidate {} key=2 nodes=3 exhausted"]
    assert solve_ifvs(complete(4), 5).decision == "absent"


def _eager_keys(g, f, undeletable, lower):
    """Each accepted candidate's key as if bounded on entry; None if infeasible."""
    core = _strip(g.adj, g.vertex_mask, g.vertex_mask)
    keys = {}
    for sub in enumerate_candidates(g, f, undeletable=undeletable):
        near = g.neighbors(sub)
        rest = _strip(g.adj, core & ~sub, near & core)
        t = _degree_bound(g.adj, rest, rest & ~(f | near | undeletable))[0]
        keys[sub] = None if t > g.n else max(sub.bit_count() + t, lower)
    return keys


def _check_lazy_queue(g, f, undeletable, lower, optimum):
    """Run the extension stage traced and hold each line to the eager keys."""
    import io

    sink = io.StringIO()
    out = min_ifvs_given_fvs(g, f, undeletable=undeletable, lower=lower, trace=sink)
    assert out.size == optimum, (g.edges, f, undeletable, lower)
    if optimum is not None:
        chosen = mask_of(out.certificate)
        assert g.is_ifvs(chosen) and not chosen & undeletable
    keys = _eager_keys(g, f, undeletable, lower)
    best = math.inf if optimum is None else optimum
    left, found, infeasible, unsearched, unbounded = [], 0, 0, 0, 0
    for line in sink.getvalue().splitlines()[1:]:
        members, fate = line.removeprefix("candidate {").split("} ", 1)
        sub = mask_of(int(v) for v in members.split(",") if v)
        size = sub.bit_count()
        if fate.startswith("rejected"):
            assert sub not in keys
            continue
        eager = keys.pop(sub)
        if fate == "infeasible":
            assert eager is None
            infeasible += 1
            continue
        key, nodes, end = (part.split("=")[-1] for part in fate.split())
        key, nodes = int(key), int(nodes)
        if nodes == 0:
            # pruned at its eager key, or at its first key before it was
            # bounded; an infeasible one only then.  A key below the
            # optimum would have been searched
            assert end == "pruned" and key >= best
            if eager is None:
                assert key == max(size, lower)
            else:
                assert max(size, lower) <= key <= eager
            unsearched += 1
            unbounded += eager is None or key < eager
            continue
        # a searched candidate starts at its eager key and rises from it;
        # one whose eager key passes the optimum is never searched
        assert eager is not None and eager <= key and eager <= best
        if end != "pruned":
            left.append((key, size, sub))
        if end == "found":
            assert key == optimum
            found += 1
    assert not keys  # every accepted candidate has one line
    assert found == (optimum is not None)
    # the searches that settled a candidate ran in (key, size, bitmask) order
    assert left == sorted(left)
    stats = out.stats
    # every candidate but those pruned unsearched is bounded, and those
    # pruned below their eager key never were
    assert infeasible + stats.fallbacks <= stats.bounded
    assert stats.candidates_accepted - unsearched <= stats.bounded
    assert stats.bounded <= stats.candidates_accepted - unbounded


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lazy_bounding_keeps_the_eager_order_and_optimum(data):
    # every candidate's eager key comes from _strip and _degree_bound as
    # admission once computed it; the trace must match it: no search
    # starts below it or runs once it passes the optimum, the searches
    # settle candidates in (key, size, bitmask) order, and the optimum is
    # the brute-force one.  IFVS runs with and without an undeletable
    # mask, and FVS on the subdivided graph, each under a lower bound
    # drawn up to the optimum
    g = data.draw(graphs(max_n=8, max_m=14))
    f = data.draw(st.integers(0, g.vertex_mask)) | mask_of(brute_min_fvs(g)[1])
    u = data.draw(st.integers(0, g.vertex_mask))
    best = brute_min_ifvs(g)
    h = subdivide(g)
    cases = [
        (g, 0, None if best is None else best[0]),
        (g, u, _brute_min_avoiding(g, u)),
        (h, h.vertex_mask & ~g.vertex_mask, brute_min_fvs(g)[0]),
    ]
    for graph, undeletable, optimum in cases:
        lower = data.draw(st.integers(0, graph.n if optimum is None else optimum))
        _check_lazy_queue(graph, f, undeletable, lower, optimum)


def test_search_from_the_bounding_vertex_matches_a_fresh_root():
    # started from the vertex that bounding the candidate returned, the
    # search gives the same extension and node count at every budget the
    # queue can pass it, plain and under an undeletable mask outside f
    rng = random.Random(94)
    checked = 0
    for g, f in _fvs_corpus(95, 80):
        u = mask_of(v for v in bits(g.vertex_mask & ~f) if rng.random() < 0.3)
        for mask in (0, u):
            for sub in enumerate_candidates(g, f, undeletable=mask):
                core, allowed = _search_state(g, f, sub, mask)
                t, top = _degree_bound(g.adj, core, allowed)
                for budget in range(t, allowed.bit_count() + 1):
                    fresh = _fallback_search(g.adj, core, allowed, budget)
                    assert _fallback_search(g.adj, core, allowed, budget, top) == fresh
                    checked += 1
    assert checked > 100
