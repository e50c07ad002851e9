"""Measure how the solver's counted work grows with the optimum.

Usage (from the repository root)::

    python3 tools/growth.py

Solves IFVS and FVS with the ``ifvs`` package of this checkout on
``generate(n, 2n, s)`` for n = 20, 25, 30, 35, 40, 45 and 50 and seeds
1, 2 and 3, with the budget ``k = n``, so every "yes" certificate is an
optimum.  It prints one line per solve: the problem, the graph, the
decision, the optimum, the ``candidates_scanned`` and ``fallback_tests``
totals and the ``time.process_time`` seconds.  A ``no IFVS:`` line then
lists the graphs that have no independent feedback vertex set at all.
Last, per family (IFVS and FVS), it fits ``ln(count)`` against the
optimum by least squares over the solves with an optimum, and prints
``exp(slope)``: the base ``b`` of a growth ``count ~ C * b^k``.  The
paper bounds the compression by ``O(4^k n^2)``.  In these families n
grows with k, so each base also absorbs the polynomial factor.  The
whole run takes about 20 s of CPU with CPython 3.11 on a shared 2-core
machine; the slowest solve, IFVS on the absent ``generate(45,90,3)``,
takes 6-9 s of it.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

import ifvs  # noqa: E402

SIZES = (20, 25, 30, 35, 40, 45, 50)
SEEDS = (1, 2, 3)
FAMILIES = (("ifvs", ifvs.solve_ifvs), ("fvs", ifvs.solve_fvs))
COUNTS = ("candidates_scanned", "fallback_tests")


def base(points: list[tuple[int, int]]) -> float:
    """``exp`` of the least-squares slope of ``ln(count)`` against ``k``."""
    ks = [k for k, _ in points]
    logs = [math.log(count) for _, count in points]
    return math.exp(statistics.linear_regression(ks, logs).slope)


def main() -> None:
    total = 0.0
    absent: list[str] = []
    fits: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for problem, solve in FAMILIES:
        fits[problem] = {name: [] for name in COUNTS}
        for n in SIZES:
            for seed in SEEDS:
                graph = f"generate({n},{2 * n},{seed})"
                t0 = time.process_time()
                out = solve(ifvs.generate(n, 2 * n, seed), n)
                cpu = time.process_time() - t0
                total += cpu
                counts = {name: getattr(out.stats, name) for name in COUNTS}
                if out.certificate is None:  # with k = n, only "absent" has none
                    size = "-"
                    absent.append(graph)
                else:
                    size = str(len(out.certificate))
                    for name, count in counts.items():
                        fits[problem][name].append((len(out.certificate), count))
                shown = " ".join(f"{name}={count}" for name, count in counts.items())
                print(
                    f"{problem} {graph}: decision={out.decision} optimum={size} "
                    f"{shown} cpu_s={cpu:.2f}",
                    flush=True,
                )
    print("no IFVS: " + (" ".join(absent) if absent else "-"))
    for problem, by_count in fits.items():
        ks = [k for k, _ in by_count[COUNTS[0]]]
        bases = " ".join(f"{name}={base(points):.2f}" for name, points in by_count.items())
        print(f"{problem}: {len(ks)} optima, k {min(ks)}-{max(ks)}, base {bases}")
    print(f"total cpu_s={total:.2f}")


if __name__ == "__main__":
    main()
