"""Instance generation and the benchmark's own answer checks."""

import json
from pathlib import Path

import pytest

import certcheck
import run
import layers
import workloads
from ifvs import brute_min_ifvs, generate
from ifvs.graph import Graph

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("n,m,seed", [(48, 60, 1_000_000), (26, 36, 7), (60, 75, 1)])
def test_random_edges_match_generate(n, m, seed):
    assert tuple(workloads.random_edges(n, m, seed)) == generate(n, m, seed).edges


def test_planted_optimum_is_the_triangle_count():
    for seed in range(5):
        g = Graph(15, workloads.planted_edges(15, 3, seed))
        assert brute_min_ifvs(g)[0] == 3


def test_seed_builds_a_different_instance_set_of_the_same_shape():
    for w in workloads.WORKLOADS.values():
        a = workloads.build_tasks(w, workloads.DEFAULT_SEED)
        b = workloads.build_tasks(w, 7)
        assert a == workloads.build_tasks(w, workloads.DEFAULT_SEED)
        assert [(t.n, len(t.edges), t.k, t.large) for t in a] == [
            (t.n, len(t.edges), t.k, t.large) for t in b
        ]
        assert sum(x.text != y.text for x, y in zip(a, b)) > len(a) // 2


def test_recorded_optima_cover_the_default_seed_only():
    for w in workloads.WORKLOADS.values():
        known = workloads.known_optima(w, workloads.DEFAULT_SEED)
        assert len(known) == w.graphs
        if w.family == "random":
            assert workloads.known_optima(w, 7) is None


def _task(edges, n, k, large=False, graph=0):
    return workloads.Task(graph, n, tuple(edges), "", k, large)


def test_certificate_error_rejects_each_defect():
    # a 4-cycle with a chord 0-2: triangles 0-1-2 and 0-2-3
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    t = _task(edges, 4, 2)
    assert certcheck.certificate_error("ifvs", t, (0,)) is None
    assert certcheck.certificate_error("ifvs", t, (1, 3)) is None
    assert "cycle" in certcheck.certificate_error("ifvs", t, (1,))
    assert "independent" in certcheck.certificate_error("ifvs", t, (0, 2))
    assert certcheck.certificate_error("fvs", t, (0, 2)) is None
    assert "exceeds" in certcheck.certificate_error("ifvs", _task(edges, 4, 1), (1, 3))
    assert "range" in certcheck.certificate_error("ifvs", t, (4,))
    assert "repeats" in certcheck.certificate_error("ifvs", t, (0, 0))
    assert certcheck.certificate_error("ifvs", t, None)


def test_judge_with_known_optima():
    edges = [(0, 1), (1, 2), (0, 2)]
    judge = certcheck.Judge("ifvs", [1])
    assert judge(_task(edges, 3, 3, large=True), "yes", (0,)) is None
    assert judge(_task(edges, 3, 0), "no", None) is None
    assert judge(_task(edges, 3, 0), "absent", None)
    assert judge(_task(edges, 3, 1), "no", None)
    assert certcheck.Judge("ifvs", [2])(_task(edges, 3, 3, large=True), "yes", (0,))
    assert certcheck.Judge("fvs", [1])(_task(edges, 3, 1), "absent", None)
    assert certcheck.Judge("ifvs", [None])(_task(edges, 3, 1), "no", None) is None


def test_judge_checks_small_budget_against_the_large_budget_solve():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]  # two triangles at 2
    judge = certcheck.Judge("ifvs", None)
    assert judge(_task(edges, 5, 0), "no", None) is None  # no reference yet
    assert judge(_task(edges, 5, 5, large=True), "no", None)
    assert judge(_task(edges, 5, 5, large=True), "yes", (2,)) is None
    assert judge(_task(edges, 5, 0), "no", None) is None
    assert judge(_task(edges, 5, 1), "no", None)
    assert judge(_task(edges, 5, 1), "yes", (2,)) is None
    assert judge(_task(edges, 5, 5, large=True), "yes", (0, 3))  # differs from before


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS
    ]
