"""Benchmark harness: run solve families and emit one CSV row per run.

A row holds the instance shape, the decision, the certificate size, the
solve's own ``ms`` and then every counter in
:data:`ifvs.compression.COUNTERS`, in its order, read from the solve's
``SolveStats``; a counter added to ``ExtensionStats`` becomes a column
with no edit here.
"""

from __future__ import annotations

from .compression import COUNTERS, solve_ifvs
from .generator import check_shape, generate
from .graph import Graph
from .io import _number

COLUMNS = ("n", "m", "k", "decision", "cert_size", "ms") + COUNTERS
CSV_HEADER = ",".join(COLUMNS)
_FORMATS = {"ms": ".3f"}

DECISION_LABELS = {"yes": "yes", "no": "no-within-k", "absent": "no-ifvs-exists"}


def parse_spec(text: str) -> list[tuple[int, int, int, int]]:
    """Parse a family spec: CSV lines ``n,m,k,reps`` (header optional).

    Blank lines and ``#`` comments are skipped; a header may only be the
    first line left, and only if its first field holds no digit of any
    script.  Every field is an optional ``-`` and then ASCII digits, and
    every row must be one that :func:`generate` and :func:`solve_ifvs`
    accept.
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
            if not any(c.isdigit() for c in parts[0]):
                continue  # header row
        if len(parts) != 4:
            raise ValueError(f"spec line {idx}: expected 'n,m,k,reps', got {line!r}")
        try:
            n, m, k, reps = (-_number(p[1:]) if p[:1] == "-" else _number(p) for p in parts)
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


def _measure(g: Graph, k: int) -> dict[str, object]:
    """One CSV row, keyed by column name, for ``solve_ifvs(g, k)``."""
    outcome = solve_ifvs(g, k)
    stats = outcome.stats
    row: dict[str, object] = {name: getattr(stats, name) for name in COUNTERS}
    row.update(
        n=g.n,
        m=g.m,
        k=k,
        decision=DECISION_LABELS[outcome.decision],
        cert_size=-1 if outcome.certificate is None else len(outcome.certificate),
        ms=stats.ms,
    )
    return row


def run_bench(
    rows: list[tuple[int, int, int, int]],
    *,
    seed: int = 0,
) -> list[dict[str, object]]:
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


def format_csv(records: list[dict[str, object]]) -> str:
    lines = [CSV_HEADER]
    for row in records:
        lines.append(",".join(format(row[c], _FORMATS.get(c, "")) for c in COLUMNS))
    return "\n".join(lines) + "\n"
