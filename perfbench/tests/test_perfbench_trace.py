"""Tracing from outside, tolerance of missing targets, and whole runs."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import layers
import spans
import workloads
from ifvs import solve_ifvs
from ifvs.io import load_graph

ROOT = Path(__file__).resolve().parents[2]


def test_tracer_reports_a_missing_target_and_wraps_the_rest(monkeypatch):
    stub = types.ModuleType("stub_layer")
    stub.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "stub_layer", stub)
    log = spans.SpanLog()
    tracer = spans.Tracer(
        log,
        [
            ("stub_layer", "present", "stub.present", True),
            ("stub_layer", "gone", "stub.gone", False),
            ("stub_missing_module", "f", "stub.f", False),
        ],
    )
    tracer.install()
    try:
        assert stub.present(1) == 2
    finally:
        tracer.uninstall()
    assert tracer.missing == ["stub_layer.gone", "stub_missing_module.f"]
    assert stub.present(1) == 2 and len(log) == 1  # original restored
    assert log.results == [("stub.present", 2)]


def test_counts_report_missing_stats_fields():
    outcome = types.SimpleNamespace(stats=types.SimpleNamespace(f_max=3))
    ext = types.SimpleNamespace(stats=types.SimpleNamespace(candidates_scanned=4))
    counts = layers.Counts()
    counts.add_solve(outcome, [("extension.min_ifvs_given_fvs", ext)])
    assert counts.total["extension.candidates_scanned"] == 4
    assert {"SolveStats.steps", "ExtensionStats.records", "ExtensionStats.dp_cells"} <= (
        counts.missing
    )
    missing = layers.missing_metrics(counts.missing)
    assert "extension.max_l" in missing and "compression.steps" in missing
    assert "extension.candidates_scanned" not in missing


def test_spans_nest_and_round_trip(tmp_path):
    log = spans.SpanLog()
    tracer = spans.Tracer(log)
    tracer.install()
    counts = layers.Counts()
    try:
        text = workloads.edgelist_text(9, workloads.random_edges(9, 14, 3))
        log.solve_id = 0
        out = solve_ifvs(load_graph(text), 9)
        counts.add_solve(out, log.results)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    total, own, calls, gate_s, gate_n = layers.span_times(log)
    assert calls["extension.min_ifvs_given_fvs"] == len(out.stats.steps)
    assert 0 < gate_n <= counts.total["extension.candidates_accepted"]
    for name, t in total.items():
        assert 0 <= own[name] <= t
    path = tmp_path / "spans.bin"
    log.write(path)
    back = spans.SpanLog.read(path)
    assert back.names == log.names
    assert list(back.parent) == list(log.parent) and list(back.end) == list(log.end)


def _run(root: Path, *args, cwd=None):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd or root,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy_checkout(tmp_path: Path) -> Path:
    dest = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


TRACE_ARGS = ("--workload", "fvs-subdivided", "--seconds", "1", "--trace", "1")


def test_two_traced_runs_give_identical_counts():
    first = _result(_run(ROOT, *TRACE_ARGS, "--seed", "3"))["metrics"]
    second = _result(_run(ROOT, *TRACE_ARGS, "--seed", "3"))["metrics"]
    for name in layers.EXACT_COUNTS + ("extension.gate_checks", "probe.dp_cells"):
        assert first[name] == second[name], name
    assert first["extension.fallbacks"]["value"] > 0
    assert first["trace.missing_targets"]["value"] == 0


def test_probe_counts_equal_the_solver_stats():
    metrics = _result(_run(ROOT, *TRACE_ARGS))["metrics"]
    n, m, seed = 60, 75, 1
    out = solve_ifvs(load_graph(workloads.edgelist_text(n, workloads.random_edges(n, m, seed))), n)
    assert metrics["probe.candidates_scanned"]["value"] == out.stats.candidates
    assert metrics["probe.dp_cells"]["value"] == out.stats.dp_cells
    assert metrics["probe.fallbacks"]["value"] == out.stats.fallbacks


def test_renamed_target_is_reported_missing_and_runs_go_on(tmp_path):
    checkout = _copy_checkout(tmp_path)
    ext = checkout / "src" / "ifvs" / "extension.py"
    ext.write_text(ext.read_text().replace("_fallback_search", "_exact_search"))
    proc = _run(checkout, *TRACE_ARGS)
    result = _result(proc)
    assert result["correct"]
    assert result["metrics"]["trace.missing_targets"]["value"] == 1
    assert result["metrics"]["extension.fallback_s"]["value"] == 0
    assert result["metrics"]["extension.fallbacks"]["value"] > 0
    assert "missing target: ifvs.extension._fallback_search" in proc.stdout
    assert "extension.fallback_s = 0" in proc.stdout and "MISSING" in proc.stdout

    untraced = _result(_run(checkout, "--workload", "fvs-subdivided", "--seconds", "1"))
    assert untraced["correct"] and untraced["attempted"] >= 100


def test_non_default_seed_passes_every_check():
    result = _result(_run(ROOT, "--workload", "fvs-subdivided", "--seconds", "1", "--seed", "5"))
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_fails_without_the_solver_sources(tmp_path):
    checkout = _copy_checkout(tmp_path)
    shutil.rmtree(checkout / "src")
    proc = _run(checkout, "--workload", "planted-long", "--seconds", "1", cwd=checkout)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
