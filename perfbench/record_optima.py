"""Record the optima of the default-seed instance sets in ``optima.json``.

Usage (from the repository root)::

    python3 perfbench/record_optima.py

Solves every graph of the random workloads at k = n with the solver in
``src`` and checks each certificate with ``certcheck`` before writing.
Rerun only when a workload's shape changes; the recorded optima are the
reference the benchmark checks later solvers against.
"""

from __future__ import annotations

import json
import sys

import certcheck
import workloads

sys.path.insert(0, str(workloads.OPTIMA_FILE.parent.parent / "src"))
import ifvs  # noqa: E402


def record(w: workloads.Workload) -> dict:
    solve = ifvs.solve_ifvs if w.problem == "ifvs" else ifvs.solve_fvs
    optima = []
    for task in workloads.build_tasks(w, workloads.DEFAULT_SEED)[::2]:
        assert task.large
        out = solve(ifvs.io.load_graph(task.text), task.k)
        if out.decision == "yes":
            err = certcheck.certificate_error(w.problem, task, out.certificate)
            if err:
                raise SystemExit(f"{w.name} graph {task.graph}: {err}")
            optima.append(len(out.certificate))
        elif out.decision == "absent":
            optima.append(None)
        else:
            raise SystemExit(f"{w.name} graph {task.graph}: {out.decision} at k=n")
    return {
        "seed": workloads.DEFAULT_SEED,
        "problem": w.problem,
        "n": w.n,
        "m": w.m,
        "optima": optima,
    }


def main() -> None:
    data = {
        w.name: record(w) for w in workloads.WORKLOADS.values() if w.family == "random"
    }
    workloads.OPTIMA_FILE.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
