"""Time the hard probes, outside the benchmark's timed gate.

Usage (from the repository root)::

    python3 tools/hard_probes.py

Solves each probe below once with the ``ifvs`` package of this checkout
and prints one line per probe: the problem, graph and budget, then the
decision, the certificate's size and the certificate, every
``SolveStats`` counter and the ``time.process_time`` seconds of the
solve.  A last ``total cpu_s=`` line sums those seconds.  The probes are
random graphs with a seed FVS well past the benchmark's, where the
candidate scan, the degree bound of each candidate that leaves the
queue, and the exact search carry the time; the last one has 38 of its
100 vertices on no cycle, which ``solve_fvs`` peels before it solves.  They take a few
seconds in all (about 1.1 s of CPU on 2 cores with CPython 3.11);
compare the counters first, since CPU time is noisy on a shared
machine.  ``tests/test_compression.py`` pins each probe's decision and
optimum size.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

import ifvs  # noqa: E402
from ifvs.compression import COUNTERS  # noqa: E402

TOTALS = COUNTERS + ("f_max",)

# (problem, generate(n, m, seed), k)
PROBES = (
    ("ifvs", (60, 75, 1), 60),
    ("ifvs", (100, 125, 3), 8),
    ("ifvs", (100, 125, 3), 30),
    ("fvs", (30, 60, 1), 30),
    ("fvs", (40, 80, 1), 40),
    ("fvs", (60, 90, 1), 60),
    ("ifvs", (80, 120, 2), 80),
    ("fvs", (100, 120, 1), 100),
)


def main() -> None:
    total = 0.0
    for problem, (n, m, seed), k in PROBES:
        solve = ifvs.solve_ifvs if problem == "ifvs" else ifvs.solve_fvs
        g = ifvs.generate(n, m, seed)
        t0 = time.process_time()
        out = solve(g, k)
        cpu = time.process_time() - t0
        total += cpu
        if out.certificate is None:
            size, cert = "-", "-"
        else:
            size, cert = len(out.certificate), ",".join(map(str, out.certificate))
        counters = " ".join(f"{name}={getattr(out.stats, name)}" for name in TOTALS)
        print(
            f"{problem} generate({n},{m},{seed}) k={k}: decision={out.decision} "
            f"size={size} certificate={cert} {counters} cpu_s={cpu:.2f}",
            flush=True,
        )
    print(f"total cpu_s={total:.2f}")


if __name__ == "__main__":
    main()
