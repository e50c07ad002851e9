"""Benchmark harness: run solve families and emit one CSV row per run.

The derived ``ratio`` column divides the DP evaluation count by
``4 ** f_max * n``, the budget the per-call work bound allows, so growth
against that bound is visible directly in the table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .compression import solve_ifvs
from .generator import check_shape, generate
from .graph import Graph

# later columns are appended, so readers that index by position keep working
CSV_HEADER = (
    "n,m,k,decision,cert_size,ms,candidates,dp_cells,ratio,"
    "fallbacks,fallback_tests,pruned,skipped,bound_pruned"
)

DECISION_LABELS = {"yes": "yes", "no": "no-within-k", "absent": "no-ifvs-exists"}


@dataclass(frozen=True)
class BenchRecord:
    n: int
    m: int
    k: int
    decision: str
    cert_size: int  # -1 when there is no certificate
    ms: float
    candidates: int
    dp_cells: int
    ratio: float
    fallbacks: int
    fallback_tests: int
    pruned: int
    skipped: int
    bound_pruned: int

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.m},{self.k},{self.decision},{self.cert_size},"
            f"{self.ms:.3f},{self.candidates},{self.dp_cells},{self.ratio:.6f},"
            f"{self.fallbacks},{self.fallback_tests},{self.pruned},{self.skipped},"
            f"{self.bound_pruned}"
        )


def parse_spec(text: str) -> list[tuple[int, int, int, int]]:
    """Parse a family spec: CSV lines ``n,m,k,reps`` (header optional).

    Blank lines and ``#`` comments are skipped; a header may only be the
    first line left.  Every row must be one that :func:`generate` and
    :func:`solve_ifvs` accept.
    """
    rows = []
    first = True
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if first:
            first = False
            if not parts[0].lstrip("-").isdigit():
                continue  # header row
        if len(parts) != 4:
            raise ValueError(f"spec line {idx}: expected 'n,m,k,reps', got {line!r}")
        try:
            n, m, k, reps = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"spec line {idx}: non-integer field in {line!r}") from None
        if k < 0:
            raise ValueError(f"spec line {idx}: k must be >= 0")
        if reps < 1:
            raise ValueError(f"spec line {idx}: reps must be >= 1")
        try:
            check_shape(n, m)
        except ValueError as exc:
            raise ValueError(f"spec line {idx}: {exc}") from None
        rows.append((n, m, k, reps))
    return rows


def _measure(g: Graph, k: int) -> BenchRecord:
    t0 = time.perf_counter()
    outcome = solve_ifvs(g, k)
    ms = (time.perf_counter() - t0) * 1000.0
    stats = outcome.stats
    budget = (4 ** stats.f_max) * max(g.n, 1)
    return BenchRecord(
        n=g.n,
        m=g.m,
        k=k,
        decision=DECISION_LABELS[outcome.decision],
        cert_size=-1 if outcome.certificate is None else len(outcome.certificate),
        ms=ms,
        candidates=stats.candidates,
        dp_cells=stats.dp_cells,
        ratio=stats.dp_cells / budget,
        fallbacks=stats.fallbacks,
        fallback_tests=stats.fallback_tests,
        pruned=stats.pruned,
        skipped=stats.skipped,
        bound_pruned=stats.bound_pruned,
    )


def run_bench(
    rows: list[tuple[int, int, int, int]],
    *,
    seed: int = 0,
) -> list[BenchRecord]:
    """Run each family row ``reps`` times, discarding one warm-up run.

    The graph for row ``i`` is ``generate(n, m, seed + i)``.
    """
    records = []
    for i, (n, m, k, reps) in enumerate(rows):
        g = generate(n, m, seed + i)
        _measure(g, k)  # warm-up, discarded
        for _ in range(reps):
            records.append(_measure(g, k))
    return records


def format_csv(records: list[BenchRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"
