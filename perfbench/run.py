"""Solver benchmark: one workload, one process, a closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fvs-subdivided --seed 1 --seconds 60 --trace 0

One client with ``threads=1`` sends the next instance only after the
last one is decided.  Each instance is edge-list text that goes through
``ifvs.io.load_graph`` and then ``ifvs.solve_ifvs`` or ``ifvs.solve_fvs``;
latency covers both.  Every answer is checked by ``certcheck``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs whole passes over a fixed subset of the instances,
alternately with span wrappers installed (see ``spans``) and with
tracing off, to get the tracing overhead, and reports the per-layer
metrics of ``layers``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every figure by name and unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import certcheck
import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
LOOP_CAP_S = 140.0  # stop even short of MIN_SAMPLES, to exit within 180 s
SETUP_REPS = 5  # set-ups before the timed loop
# The loop sets up anew once per interval, so that set-up samples spread
# over the whole run instead of one burst whose machine speed may be off.
SETUP_EVERY_S = 2.5
# a fixed small graph (two 4-cycles sharing a vertex, joined by an edge to
# a triangle), solved once per set-up so lazy work is done before timing
WARMUP_TEXT = "10 12\n0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n5 6\n6 0\n7 8\n8 9\n9 7\n6 7\n"
PROBE = (60, 75, 1)  # generate(n, m, seed) of the ROADMAP baseline

E2E_UNITS = {
    "solves_per_s": "1/s",
    "yes_ms_p50": "ms",
    "no_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    latency: float  # seconds, load_graph plus the solve
    decision: str  # "" when the solve raised
    error: str | None


def fresh_import():
    """Import ``ifvs`` anew from ``src``; the program side of set-up."""
    for name in [m for m in sys.modules if m == "ifvs" or m.startswith("ifvs.")]:
        del sys.modules[name]
    ifvs = importlib.import_module("ifvs")
    importlib.import_module("ifvs.io")
    return ifvs


def solver(ifvs, problem: str):
    return ifvs.solve_ifvs if problem == "ifvs" else ifvs.solve_fvs


def setup_once(problem: str):
    """One set-up: fresh import plus one warm-up solve; returns its time.

    Modules of earlier imports are collected first, untimed, so that their
    garbage neither counts as set-up time nor raises ``peak_rss_mb``.
    """
    gc.collect()
    t0 = perf_counter()
    ifvs = fresh_import()
    g = ifvs.io.load_graph(WARMUP_TEXT)
    solver(ifvs, problem)(g, g.n, threads=1)
    return perf_counter() - t0, ifvs


def measure_setup(problem: str):
    """Set up SETUP_REPS times; returns the times and the last import."""
    times = []
    for _ in range(SETUP_REPS):
        t, ifvs = setup_once(problem)
        times.append(t)
    origin = Path(ifvs.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported ifvs from {origin}, not from {SRC}")
    return times, ifvs


def solve_task(ifvs, solve, task: workloads.Task, judge, log=None, counts=None) -> Sample:
    """Decide one instance and check the answer.

    With ``log`` the benchmark opens the task and solve spans itself, and
    ``counts`` takes the counters of the returned stats afterwards.
    """
    if log is not None:
        root = log.begin(log.name_id(spans.TASK))
    t0 = perf_counter()
    try:
        g = ifvs.io.load_graph(task.text)
        if log is not None:
            inner = log.begin(log.name_id(spans.SOLVE))
            try:
                out = solve(g, task.k, threads=1)
            finally:
                log.finish(inner)
        else:
            out = solve(g, task.k, threads=1)
    except Exception as exc:  # a raising solve is a failed solve; keep going
        latency = perf_counter() - t0
        if log is not None:
            log.finish(root)
            log.results.clear()
        return Sample(latency, "", f"{type(exc).__name__}: {exc}")
    latency = perf_counter() - t0
    if log is not None:
        log.finish(root)
        counts.add_solve(out, log.results)
        log.results.clear()
    return Sample(latency, out.decision, judge(task, out.decision, out.certificate))


def closed_loop(ifvs, w: workloads.Workload, tasks, judge, seconds: float, setup_times):
    """Send tasks in order, cycling, until ``seconds`` and MIN_SAMPLES are met.

    Every SETUP_EVERY_S seconds, between two tasks, the loop sets up anew
    and appends the time to ``setup_times``; later tasks use that import.
    """
    solve = solver(ifvs, w.problem)
    samples: list[Sample] = []
    t_start = perf_counter()
    next_setup = SETUP_EVERY_S
    i = 0
    while True:
        elapsed = perf_counter() - t_start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and len(samples) >= MIN_SAMPLES):
            return samples
        if elapsed >= next_setup:
            t, ifvs = setup_once(w.problem)
            setup_times.append(t)
            solve = solver(ifvs, w.problem)
            next_setup += SETUP_EVERY_S
        samples.append(solve_task(ifvs, solve, tasks[i % len(tasks)], judge))
        i += 1


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def end_to_end(samples: list[Sample], setup_s: float) -> dict[str, float]:
    yes = [s.latency for s in samples if s.decision == "yes"]
    no = [s.latency for s in samples if s.decision in ("no", "absent")]
    every = [s.latency for s in samples]
    return {
        "solves_per_s": len(samples) / sum(every),
        "yes_ms_p50": 1000.0 * statistics.median(yes) if yes else 0.0,
        "no_ms_p50": 1000.0 * statistics.median(no) if no else 0.0,
        "latency_ms_p90": 1000.0 * p90(every),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(ifvs, w: workloads.Workload, tasks, judge, seconds: float, out_path: Path):
    """Passes over the first ``w.trace_graphs`` graphs, traced and untraced.

    Each traced pass is followed by the same solves with tracing off, so
    that machine-speed drift affects both sides of the tracing overhead
    alike.  Pairs of passes repeat for ``seconds`` (at least one pair).
    Returns the samples of all solves made, the per-layer metrics and
    notes for the report.
    """
    subset = tasks[: 2 * w.trace_graphs]
    solve = solver(ifvs, w.problem)
    log = spans.SpanLog()
    tracer = spans.Tracer(log)
    counts = layers.Counts()
    traced: list[Sample] = []
    untraced: list[Sample] = []
    per_pass: list[dict[str, int]] = []
    t_start = perf_counter()
    while not per_pass or perf_counter() - t_start < seconds:
        before = counts.exact()
        tracer.install()
        try:
            for task in subset:
                log.solve_id += 1
                traced.append(solve_task(ifvs, solve, task, judge, log, counts))
        finally:
            tracer.uninstall()
        after = counts.exact()
        per_pass.append({k: after[k] - before[k] for k in after})
        untraced.extend(solve_task(ifvs, solve, task, judge) for task in subset)

    probe = layers.Counts()
    log.solve_id = -2  # kept out of the per-layer totals
    tracer.install()
    try:
        probe_sample = solve_task(
            ifvs, ifvs.solve_ifvs, probe_task(), certcheck.Judge("ifvs", None), log, probe
        )
    finally:
        tracer.uninstall()

    passes = len(per_pass)
    values = layers.layer_values(log, counts, passes)
    traced_sps = len(traced) / sum(s.latency for s in traced)
    untraced_sps = len(untraced) / sum(s.latency for s in untraced)
    missing = set(tracer.missing) | counts.missing | probe.missing
    values.update(
        {
            "trace.solves_per_s": traced_sps,
            "trace.untraced_solves_per_s": untraced_sps,
            "trace.overhead_solves_per_s": untraced_sps - traced_sps,
            "trace.passes": passes,
            "trace.missing_targets": len(missing),
        }
    )
    for field in ("candidates_scanned", "candidates_accepted", "fallbacks", "dp_cells"):
        values["probe." + field] = probe.total["extension." + field]
    log.write(out_path)
    return traced + untraced + [probe_sample], values, {
        "missing": sorted(missing),
        "repeat": all(p == per_pass[0] for p in per_pass),
        "spans": len(log),
    }


def probe_task() -> workloads.Task:
    """The ROADMAP baseline instance at k = n, solved once traced."""
    n, m, seed = PROBE
    edges = workloads.random_edges(n, m, seed)
    return workloads.Task(-1, n, tuple(edges), workloads.edgelist_text(n, edges), n, True)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ifvs" / "__init__.py").is_file():
        print(f"perfbench: no solver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = workloads.WORKLOADS[args.workload]
    tasks = workloads.build_tasks(w, args.seed)
    judge = certcheck.Judge(w.problem, workloads.known_optima(w, args.seed))
    setup_times, ifvs = measure_setup(w.problem)

    print(
        f"workload {w.name} seed {args.seed}: {w.problem} on n={w.n} m={w.m}, "
        f"{w.graphs} graphs at k={w.large_k} and k={w.small_k}; closed loop, "
        f"1 client, threads=1"
    )
    if args.trace:
        out_path = OUT / f"spans-{w.name}-seed{args.seed}.bin"
        samples, values, info = traced_run(ifvs, w, tasks, judge, args.seconds, out_path)
        missing_names = set(layers.missing_metrics(set(info["missing"])))
        for m in layers.LAYER_METRICS:
            note = " MISSING" if m.name in missing_names else ""
            print(f"{m.name} = {values[m.name]!r} {m.unit}{note}  [moves {m.moves}]")
        for target in info["missing"]:
            print(f"missing target: {target}")
        print(
            f"{info['spans']} spans written to {out_path.relative_to(ROOT)}; "
            f"exact counts repeat across passes: {info['repeat']}"
        )
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in layers.LAYER_METRICS}
    else:
        samples = closed_loop(ifvs, w, tasks, judge, args.seconds, setup_times)
        values = end_to_end(samples, statistics.median(setup_times))
        for name, unit in E2E_UNITS.items():
            print(f"{name} = {values[name]!r} {unit}")
        beyond = len(samples) - math.ceil(0.9 * len(samples))
        print(f"latency samples: {len(samples)} ({beyond} beyond p90); set-ups: {len(setup_times)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    failed = [s for s in samples if s.error is not None]
    print(f"fail_ratio = {len(failed) / len(samples)!r} ratio ({len(failed)}/{len(samples)})")
    for s in failed[:5]:
        print(f"failed: {s.error}")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
