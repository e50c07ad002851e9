"""Per-layer metrics of the traced run, and what each should move.

Times come from the spans (inclusive duration, or self time where the
name says so); counts come from the ``SolveStats`` and ``ExtensionStats``
the solver returns and from the values the traced calls return.  Every
figure is per pass over the traced instance subset, so two traced runs
of one seed report identical counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import spans


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]  # traced targets or returned fields it reads
    moves: str  # the end-to-end metric and workload it should move


_EXT = "ifvs.compression.min_ifvs_given_fvs"
_FB = "ifvs.extension._fallback_search"
_ES = "ExtensionStats."


def _m(name, unit, better, needs, moves):
    return LayerMetric(name, unit, better, tuple(needs), moves)


LAYER_METRICS = (
    _m("io.parse_s", "s", "lower", ["ifvs.io.load_graph"],
       "latency_ms_p90, all workloads (small today)"),
    _m("compression.steps", "count", "lower", ["SolveStats.steps"],
       "no_ms_p50 on fvs-subdivided (step skip, ROADMAP 2a)"),
    _m("compression.prefix_s", "s", "lower", ["ifvs.compression._prefix_graph"],
       "yes_ms_p50 on planted-long (incremental prefix, ROADMAP 2d)"),
    _m("compression.self_s", "s", "lower", [],
       "yes_ms_p50 on planted-long (ROADMAP 2c-e)"),
    _m("compression.f_max", "count", "lower", ["SolveStats.f_max"],
       "no_ms_p50 on fvs-subdivided (ROADMAP 2a)"),
    _m("binarize.root_s", "s", "lower", ["ifvs.extension.root_forest"],
       "yes_ms_p50 on planted-long (ROADMAP 2c, 4 fold)"),
    _m("binarize.binarize_s", "s", "lower", ["ifvs.extension.binarize"],
       "yes_ms_p50 on planted-long (ROADMAP 2c, 4 fold)"),
    _m("binarize.white_nodes", "count", "lower",
       ["ifvs.extension.binarize", "BinaryForest.white_count"],
       "yes_ms_p50 on planted-long (ROADMAP 4 fold)"),
    _m("extension.calls", "count", "lower", [_EXT],
       "solves_per_s on fvs-subdivided (ROADMAP 2a, 2b)"),
    _m("extension.self_s", "s", "lower", [_EXT],
       "solves_per_s on fvs-subdivided (lower-bound pruning, ROADMAP 2b)"),
    _m("extension.candidates_scanned", "count", "lower", [_EXT, _ES + "candidates_scanned"],
       "solves_per_s on fvs-subdivided (ROADMAP 2b)"),
    _m("extension.candidates_accepted", "count", "lower", [_EXT, _ES + "candidates_accepted"],
       "solves_per_s on fvs-subdivided (ROADMAP 2b)"),
    _m("extension.accept_ratio", "ratio", "higher",
       [_EXT, _ES + "candidates_scanned", _ES + "candidates_accepted"],
       "solves_per_s on fvs-subdivided (ROADMAP 2b)"),
    _m("extension.max_l", "count", "lower", [_EXT, _ES + "records"],
       "solves_per_s on fvs-subdivided (ROADMAP 2b)"),
    _m("extension.dp_s", "s", "lower", ["ifvs.extension._compute_tables"],
       "yes_ms_p50 on planted-long and fvs-subdivided"),
    _m("extension.dp_cells", "count", "lower", [_EXT, _ES + "dp_cells"],
       "yes_ms_p50 on planted-long and fvs-subdivided"),
    _m("extension.trace_s", "s", "lower", ["ifvs.extension.DpTables._trace"],
       "yes_ms_p50 on planted-long and fvs-subdivided"),
    _m("extension.gate_s", "s", "lower", ["ifvs.graph.Graph.is_ifvs", _EXT],
       "yes_ms_p50, latency_ms_p90 on fvs-subdivided (ROADMAP 3); "
       "none on planted-long"),
    _m("extension.gate_checks", "count", "lower", ["ifvs.graph.Graph.is_ifvs", _EXT],
       "yes_ms_p50 on fvs-subdivided (ROADMAP 3); none on planted-long"),
    _m("extension.fallback_s", "s", "lower", [_FB],
       "yes_ms_p50, latency_ms_p90 on fvs-subdivided (ROADMAP 3); "
       "none on planted-long"),
    _m("extension.fallbacks", "count", "lower", [_EXT, _ES + "fallbacks"],
       "yes_ms_p50 on fvs-subdivided (ROADMAP 3); none on planted-long"),
    _m("extension.fallback_ratio", "ratio", "lower",
       [_EXT, _ES + "fallbacks", _ES + "candidates_accepted"],
       "yes_ms_p50 on fvs-subdivided (ROADMAP 3); none on planted-long"),
    _m("extension.fallback_tests", "count", "lower", [_EXT, _ES + "fallback_tests"],
       "yes_ms_p50 on fvs-subdivided (ROADMAP 3); none on planted-long"),
    _m("extension.find_cycle_s", "s", "lower", ["ifvs.extension._find_cycle"],
       "latency_ms_p90 on fvs-subdivided (ROADMAP 3); none on planted-long"),
    _m("reduction.subdivide_s", "s", "lower", ["ifvs.reduction.subdivide"],
       "yes_ms_p50 on fvs-subdivided (native FVS path)"),
    _m("reduction.vertices_out", "count", "lower",
       ["ifvs.reduction.subdivide", "subdivide().n"],
       "yes_ms_p50 on fvs-subdivided (native FVS path)"),
    _m("trace.solves_per_s", "1/s", "higher", [], "solves_per_s with tracing on"),
    _m("trace.untraced_solves_per_s", "1/s", "higher", [],
       "solves_per_s of the same solves with tracing off"),
    _m("trace.overhead_solves_per_s", "1/s", "lower", [],
       "untraced minus traced solves_per_s: the cost of tracing"),
    _m("trace.passes", "count", "higher", [], "passes over the traced subset"),
    _m("trace.spans", "count", "lower", [], "spans recorded per pass"),
    _m("trace.missing_targets", "count", "lower", [],
       "traced targets or returned fields the program no longer has"),
    _m("probe.candidates_scanned", "count", "lower", [_EXT, _ES + "candidates_scanned"],
       "ROADMAP baseline generate(60, 75, 1) at k=60: 798 at the seed code"),
    _m("probe.candidates_accepted", "count", "lower", [_EXT, _ES + "candidates_accepted"],
       "ROADMAP baseline probe: 734 at the seed code"),
    _m("probe.fallbacks", "count", "lower", [_EXT, _ES + "fallbacks"],
       "ROADMAP baseline probe: 311 at the seed code"),
    _m("probe.dp_cells", "count", "lower", [_EXT, _ES + "dp_cells"],
       "ROADMAP baseline probe: 396892 at the seed code"),
)

# counts that every pass of a traced run must repeat exactly
EXACT_COUNTS = (
    "compression.steps",
    "extension.candidates_scanned",
    "extension.candidates_accepted",
    "extension.dp_cells",
    "extension.fallbacks",
    "extension.fallback_tests",
)

_STATS_FIELDS = ("candidates_scanned", "candidates_accepted", "dp_cells", "fallbacks",
                 "fallback_tests")


class Counts:
    """Counts read from the values the solver returns, with absent fields."""

    def __init__(self) -> None:
        self.total: Counter = Counter()
        self.maxima: Counter = Counter()
        self.missing: set[str] = set()

    def add_solve(self, outcome, results) -> None:
        """One solve: its ``SolveOutcome`` and the traced return values."""
        stats = getattr(outcome, "stats", None)
        steps = getattr(stats, "steps", None)
        if steps is None:
            self.missing.add("SolveStats.steps")
        else:
            self.total["compression.steps"] += len(steps)
        f_max = getattr(stats, "f_max", None)
        if f_max is None:
            self.missing.add("SolveStats.f_max")
        else:
            self.maxima["compression.f_max"] = max(self.maxima["compression.f_max"], f_max)
        for span, value in results:
            if span == "extension.min_ifvs_given_fvs":
                self._add_extension(getattr(value, "stats", None))
            elif span == "binarize.binarize":
                self._add("binarize.white_nodes", value, "white_count", "BinaryForest.")
            elif span == "reduction.subdivide":
                graph = value[0] if isinstance(value, tuple) else value
                self._add("reduction.vertices_out", graph, "n", "subdivide().")

    def _add(self, metric: str, obj, field: str, owner: str) -> None:
        value = getattr(obj, field, None)
        if value is None:
            self.missing.add(owner + field)
        else:
            self.total[metric] += value

    def _add_extension(self, stats) -> None:
        for field in _STATS_FIELDS:
            self._add("extension." + field, stats, field, _ES)
        records = getattr(stats, "records", None)
        if records is None:
            self.missing.add(_ES + "records")
            return
        top = max((getattr(r, "l", 0) for r in records), default=0)
        self.maxima["extension.max_l"] = max(self.maxima["extension.max_l"], top)

    def exact(self) -> dict[str, int]:
        return {name: self.total[name] for name in EXACT_COUNTS}


def span_times(log: spans.SpanLog) -> tuple[Counter, Counter, Counter, float, int]:
    """Totals over the spans of the traced passes (solve id >= 0).

    Returns inclusive seconds, self seconds and call counts by span name,
    plus the seconds and count of gate checks (``Graph.is_ifvs`` called
    directly by the extension stage).
    """
    names = log.names
    start, end, parent, solve, name = log.start, log.end, log.parent, log.solve, log.name
    count = len(log)
    dur = [end[i] - start[i] for i in range(count)]
    covered = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i]
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    gate_id = names.index("graph.is_ifvs") if "graph.is_ifvs" in names else -1
    ext_id = (
        names.index("extension.min_ifvs_given_fvs")
        if "extension.min_ifvs_given_fvs" in names
        else -1
    )
    gate_s, gate_n = 0.0, 0
    for i in range(count):
        if solve[i] < 0:
            continue
        nm = names[name[i]]
        total[nm] += dur[i]
        own[nm] += dur[i] - covered[i]
        calls[nm] += 1
        if name[i] == gate_id and parent[i] >= 0 and name[parent[i]] == ext_id:
            gate_s += dur[i]
            gate_n += 1
    return total, own, calls, gate_s, gate_n


def layer_values(log: spans.SpanLog, counts: Counts, passes: int) -> dict[str, float]:
    """The per-layer metrics of the traced passes."""
    total, own, calls, gate_s, gate_n = span_times(log)
    c = counts.total

    def per(x):
        return x / passes

    accepted = c["extension.candidates_accepted"]
    scanned = c["extension.candidates_scanned"]
    return {
        "io.parse_s": per(total["io.load_graph"]),
        "compression.steps": per(c["compression.steps"]),
        "compression.prefix_s": per(total["compression.prefix_graph"]),
        "compression.self_s": per(own[spans.SOLVE]),
        "compression.f_max": counts.maxima["compression.f_max"],
        "binarize.root_s": per(total["binarize.root_forest"]),
        "binarize.binarize_s": per(total["binarize.binarize"]),
        "binarize.white_nodes": per(c["binarize.white_nodes"]),
        "extension.calls": per(calls["extension.min_ifvs_given_fvs"]),
        "extension.self_s": per(own["extension.min_ifvs_given_fvs"]),
        "extension.candidates_scanned": per(scanned),
        "extension.candidates_accepted": per(accepted),
        "extension.accept_ratio": accepted / scanned if scanned else 0.0,
        "extension.max_l": counts.maxima["extension.max_l"],
        "extension.dp_s": per(total["extension.compute_tables"]),
        "extension.dp_cells": per(c["extension.dp_cells"]),
        "extension.trace_s": per(total["extension.trace"]),
        "extension.gate_s": per(gate_s),
        "extension.gate_checks": per(gate_n),
        "extension.fallback_s": per(total["extension.fallback_search"]),
        "extension.fallbacks": per(c["extension.fallbacks"]),
        "extension.fallback_ratio": c["extension.fallbacks"] / accepted if accepted else 0.0,
        "extension.fallback_tests": per(c["extension.fallback_tests"]),
        "extension.find_cycle_s": per(total["extension.find_cycle"]),
        "reduction.subdivide_s": per(total["reduction.subdivide"]),
        "reduction.vertices_out": per(c["reduction.vertices_out"]),
        "trace.spans": per(sum(calls.values())),
    }


def missing_metrics(missing: set[str]) -> list[str]:
    """Layer metrics that read something the program no longer has."""
    return [m.name for m in LAYER_METRICS if any(need in missing for need in m.needs)]
