"""Digest of every answer and counter on the benchmark's seed-1 tasks.

Usage (from the repository root)::

    python3 tools/answer_digest.py

Solves every seed-1 task of each workload in ``perfbench/workloads.py``
with the ``ifvs`` package of this checkout and prints, per workload, the
task count, then three SHA-256 digests and the counter totals:

* ``sha256=`` over the decisions, certificates and every ``SolveStats``
  and ``StepRecord`` field except ``ms``: the answers and the counted
  work;
* ``answers=`` over each task's decision, its certificate and every
  step's ``(prefix, fvs_size, min_ifvs)``: the answers alone.  A step is
  one extension call; steps that closed no cycle are only counted, in
  ``skipped``;
* ``optima=`` over each task's decision and certificate size only.

Two checkouts that print the same ``sha256=`` gave the same answers and
did the same counted work; a change meant to keep behaviour runs it on
both sides and compares.  A change that moves only work counters must
still print the same ``answers=`` digest, and one that may move
tie-breaks, and so certificates, the same ``optima=`` digest.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

import ifvs  # noqa: E402
from ifvs.compression import COUNTERS  # noqa: E402

TOTALS = COUNTERS + ("f_max",)


def digest(w: workloads.Workload) -> tuple[int, str, str, str, dict[str, int]]:
    """``(tasks, sha256, answers, optima, totals)`` over the seed-1 tasks of ``w``."""
    solve = ifvs.solve_ifvs if w.problem == "ifvs" else ifvs.solve_fvs
    tasks = workloads.build_tasks(w, workloads.DEFAULT_SEED)
    sha = hashlib.sha256()
    answers = hashlib.sha256()
    optima = hashlib.sha256()
    totals = dict.fromkeys(TOTALS, 0)
    for task in tasks:
        out = solve(ifvs.load_graph(task.text), task.k)
        st = out.stats
        steps = [tuple(step) for step in st.steps]
        counters = tuple(getattr(st, name) for name in TOTALS)
        sha.update(repr((out.decision, out.certificate, counters, steps)).encode())
        chain = [(s.prefix, s.fvs_size, s.min_ifvs) for s in st.steps]
        answers.update(repr((out.decision, out.certificate, chain)).encode())
        size = None if out.certificate is None else len(out.certificate)
        optima.update(repr((out.decision, size)).encode())
        for name, value in zip(TOTALS, counters):
            totals[name] = max(totals[name], value) if name == "f_max" else totals[name] + value
    return len(tasks), sha.hexdigest(), answers.hexdigest(), optima.hexdigest(), totals


def main() -> None:
    for name, w in workloads.WORKLOADS.items():
        count, sha, answers, optima, totals = digest(w)
        print(f"{name}: tasks={count} sha256={sha} answers={answers} optima={optima}")
        print("  " + " ".join(f"{key}={value}" for key, value in totals.items()))


if __name__ == "__main__":
    main()
