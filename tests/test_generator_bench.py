import random
import time

import pytest

from ifvs import Graph, generate
from ifvs.bench import CSV_HEADER, format_csv, parse_spec, run_bench
from ifvs.io import MAX_EDGES, MAX_VERTICES


def test_forced_complete_graph():
    g = generate(4, 6, seed=99)
    assert g.m == 6 and all(g.adj[v].bit_count() == 3 for v in range(4))


def test_edgeless():
    g = generate(5, 0, seed=1)
    assert g.m == 0 and g.n == 5


def test_determinism_per_seed():
    assert generate(6, 7, seed=1) == generate(6, 7, seed=1)
    assert generate(30, 40, seed=2) == generate(30, 40, seed=2)


def test_seeds_differ():
    assert generate(10, 12, seed=1) != generate(10, 12, seed=2)


def test_bad_parameters():
    with pytest.raises(ValueError):
        generate(4, 7, seed=0)
    with pytest.raises(ValueError):
        generate(3, -1, seed=0)
    with pytest.raises(ValueError):
        generate(0, 0, seed=0)
    with pytest.raises(ValueError):
        generate(MAX_VERTICES + 1, 1, seed=0)
    with pytest.raises(ValueError):
        generate(MAX_VERTICES, MAX_EDGES + 1, seed=0)


def _generate_from_pair_list(n, m, seed):
    """The generator as it was: sample ``m`` pairs from the full pair list."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, random.Random(seed).sample(pairs, m))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 14, 20, 31, 60, 100])
def test_generate_matches_the_pair_list_reference(n):
    limit = n * (n - 1) // 2
    for m in sorted({0, 1, limit // 3, limit // 2, limit - 1, limit} & set(range(limit + 1))):
        for seed in (0, 1, 3, 7):
            assert generate(n, m, seed) == _generate_from_pair_list(n, m, seed), (n, m, seed)


def test_generate_needs_no_pair_list():
    start = time.perf_counter()
    g = generate(MAX_VERTICES, 3, 0)
    assert time.perf_counter() - start < 5
    assert (g.n, g.m) == (MAX_VERTICES, 3)


def test_parse_spec():
    text = "n,m,k,reps\n8,9,2,3\n# comment\n10,11,1,1\n"
    assert parse_spec(text) == [(8, 9, 2, 3), (10, 11, 1, 1)]
    with pytest.raises(ValueError):
        parse_spec("1,2,3\n")
    with pytest.raises(ValueError):
        parse_spec("4,3,1,0\n")
    # a header may follow comments and blank lines, but not a data row
    assert parse_spec("# family\n\nn,m,k,reps\n8,9,2,3\n") == [(8, 9, 2, 3)]
    with pytest.raises(ValueError, match="spec line 2: non-integer field"):
        parse_spec("8,9,2,3\nn,m,k,reps\n")



@pytest.mark.parametrize(
    "text, message",
    [
        ("4,10,1,1", "spec line 1: m must be in \\[0, 6\\] for n=4"),
        ("5,-1,1,1", "spec line 1: m must be in"),
        ("n,m,k,reps\n5,4,-1,1", "spec line 2: k must be >= 0"),
        ("0,0,1,1", "spec line 1: n must be in"),
        (f"{MAX_VERTICES + 1},1,1,1", "spec line 1: n must be in"),
        (f"{MAX_VERTICES},{MAX_EDGES + 1},1,1", "spec line 1: m must be in"),
    ],
)
def test_parse_spec_rejects_rows_the_solver_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        parse_spec(text)


@pytest.mark.parametrize(
    "text, line",
    [
        # a first field with a digit of any script is data, not a header
        ("+5,4,1,1\n6,5,1,1\n", 1),
        ("1_0,4,1,1\n6,5,1,1\n", 1),
        ("\u0665,4,1,1\n", 1),  # ARABIC-INDIC DIGIT FIVE
        ("5,4,1,1\n5,4,+1,1\n", 2),
    ],
)
def test_parse_spec_takes_only_ascii_integers(text, line):
    # int() alone would take a sign, underscores and any script's digits
    with pytest.raises(ValueError, match=f"spec line {line}: non-integer field"):
        parse_spec(text)


def test_run_bench_shapes():
    records = run_bench([(8, 8, 2, 2), (6, 5, 1, 1)], seed=3)
    assert len(records) == 3
    csv = format_csv(records)
    lines = csv.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for rec in records:
        assert rec["fallback_tests"] >= rec["fallbacks"] >= 0
        assert rec["decision"] in ("yes", "no-within-k", "no-ifvs-exists")
    # the counter columns are the solve's own SolveStats;
    # generate(10, 14, 1) at k=10 runs the exact search
    from ifvs import solve_ifvs
    from ifvs.compression import COUNTERS

    names = CSV_HEADER.split(",")
    more = format_csv(run_bench([(10, 14, 10, 1)], seed=1)).strip().splitlines()[1:]
    solves = [(generate(8, 8, 3), 2)] * 2 + [(generate(6, 5, 4), 1), (generate(10, 14, 1), 10)]
    fallbacks = 0
    for line, (g, k) in zip(lines[1:] + more, solves, strict=True):
        row = dict(zip(names, line.split(","), strict=True))
        stats = solve_ifvs(g, k).stats
        for name in COUNTERS:
            assert int(row[name]) == getattr(stats, name), name
        fallbacks += stats.fallbacks
    assert fallbacks > 0


def test_forest_family_per_step_counts_stay_linear():
    # a forest closes no cycle, so every step from three vertices on is
    # skipped: it records no step and does no counted work at all
    from conftest import path
    from ifvs import solve_ifvs

    out = solve_ifvs(path(80), 0)
    assert out.decision == "yes"
    assert out.stats.steps == [] and out.stats.skipped == 78
    assert out.stats.candidates_scanned == out.stats.fallback_tests == 0
