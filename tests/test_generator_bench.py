import pytest

from ifvs import generate
from ifvs.bench import CSV_HEADER, format_csv, parse_spec, run_bench


def test_forced_complete_graph():
    g = generate(4, 6, seed=99)
    assert g.m == 6 and all(g.degree(v) == 3 for v in range(4))


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


def test_run_bench_shapes():
    records = run_bench([(8, 8, 2, 2), (6, 5, 1, 1)], seed=3)
    assert len(records) == 3
    csv = format_csv(records)
    lines = csv.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for rec in records:
        assert rec.dp_cells >= 0 and rec.ratio >= 0
        assert rec.decision in ("yes", "no-within-k", "no-ifvs-exists")
    # the appended counter columns are the solve's own SolveStats;
    # generate(10, 14, 1) at k=10 runs the exact fallback search
    from ifvs import solve_ifvs

    names = CSV_HEADER.split(",")
    more = format_csv(run_bench([(10, 14, 10, 1)], seed=1)).strip().splitlines()[1:]
    solves = [(generate(8, 8, 3), 2)] * 2 + [(generate(6, 5, 4), 1), (generate(10, 14, 1), 10)]
    fallbacks = 0
    for line, (g, k) in zip(lines[1:] + more, solves, strict=True):
        row = dict(zip(names, line.split(","), strict=True))
        stats = solve_ifvs(g, k).stats
        for name in (
            "candidates",
            "dp_cells",
            "fallbacks",
            "fallback_tests",
            "pruned",
            "skipped",
            "bound_pruned",
        ):
            assert int(row[name]) == getattr(stats, name), name
        fallbacks += stats.fallbacks
    assert fallbacks > 0


def test_forest_family_per_step_counts_stay_linear():
    # forests keep every candidate nearly component-free, so each
    # extension call costs O(prefix size) evaluations
    from conftest import path
    from ifvs import solve_ifvs

    out = solve_ifvs(path(80), 0)
    assert out.decision == "yes"
    for step in out.stats.steps:
        assert step.dp_cells <= 8 * step.prefix
