"""Iterative-compression decision solver for independent feedback vertex sets.

The graph is rebuilt one vertex at a time.  After each insertion the new
vertex plus the previous prefix optimum forms a feedback vertex set of
the grown prefix (deleting it restores the old forest), which
:func:`ifvs.extension.min_ifvs_given_fvs` turns into the new prefix
optimum.  That FVS, an independent set plus one vertex, induces a star
forest, so the extension's ``cyclic-remainder`` rejection never fires
inside a solve; it is there for callers that pass an arbitrary FVS.
Any induced subgraph of a yes-instance is a yes-instance, so the loop
can answer "no" the moment a prefix optimum exceeds the budget, and
"absent" the moment a prefix has no solution at all.

A union-find over the forest left by the current optimum tells whether
the new vertex closes a cycle.  When it does not, the step is *skipped*:
no edge joins two old vertices, so the old optimum is still independent
and still an FVS, and prefix optima never shrink, so it is still
minimum.  A skipped step only adds one to ``SolveStats.skipped``.  Only
a step that closes a cycle calls the extension stage, which also
receives the old optimum as a lower bound, and records a
:class:`StepRecord`.

Vertices are inserted in input order; the method is correct for any
order, so the order is not an input.  The edges are sorted by their
later endpoint once per solve, so a step's prefix graph is a slice of
the graph, and the extension stage checks once that its input is an FVS.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import namedtuple
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, TextIO

from .extension import ExtensionStats, min_ifvs_given_fvs
from .graph import Graph, bits, mask_of


# the per-step counters, in report order: ExtensionStats names them once
_STEP_FIELDS = ExtensionStats.__slots__
# the per-solve counter totals of every report
COUNTERS = _STEP_FIELDS + ("skipped",)
_step_counts = attrgetter(*_STEP_FIELDS)


class StepRecord(namedtuple("StepRecord", ("prefix", "fvs_size", "min_ifvs") + _STEP_FIELDS)):
    """One extension call: its prefix, its optimum and its counters.

    A named tuple: ``_fields`` lists the fields in report order, and
    ``_asdict()`` gives the step of the ``--json`` report.  ``prefix`` is
    the number of vertices in the grown graph, ``fvs_size`` the size of
    the FVS handed to the extension stage and ``min_ifvs`` the prefix
    optimum (None: no solution exists).  The fields after ``min_ifvs``
    are the counters of :class:`ifvs.extension.ExtensionStats`, under
    its names and in its order.
    """

    __slots__ = ()


class SolveStats:
    """Counter totals of one solve, with its steps and its wall time.

    A slotted class, mutable while the solve runs: :meth:`add` records
    each step and sums its counters, and a skipped step, one that closed
    no cycle and ran no extension, adds one to ``skipped``.
    :data:`COUNTERS` names the totals; ``f_max`` is the largest FVS
    handed to the extension stage.
    """

    __slots__ = COUNTERS + ("ms", "f_max", "steps")

    def __init__(self) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)
        self.f_max = 0
        self.ms = 0.0
        self.steps: list[StepRecord] = []

    def add(self, step: StepRecord) -> None:
        """Record ``step`` and add its counters to the totals."""
        self.steps.append(step)
        self.f_max = max(self.f_max, step.fvs_size)
        for name, value in zip(_STEP_FIELDS, step[3:]):
            setattr(self, name, getattr(self, name) + value)


class SolveOutcome(NamedTuple):
    """A solve's decision, a named tuple.

    ``certificate`` is ``None`` unless ``decision`` is "yes";
    :func:`solve_ifvs` and :func:`ifvs.reduction.solve_fvs` check the
    certificate where they build a "yes", and raise ``AssertionError``
    if it fails.
    """

    decision: str  # "yes" | "no" | "absent"
    certificate: tuple[int, ...] | None
    stats: SolveStats


def _prefix_graph(h: Graph, size: int) -> Graph:
    """Subgraph of ``h`` on its first ``size`` vertices.

    ``h`` keeps its edges sorted by later endpoint, so the edges are a
    slice, and each row only loses its later neighbours.
    """
    keep = (1 << size) - 1
    m = bisect_left(h.edges, size, key=itemgetter(1))
    return Graph.trusted(tuple([a & keep for a in h.adj[:size]]), h.edges[:m])


def _find(parent: list[int], u: int) -> int:
    while parent[u] != u:
        parent[u] = u = parent[parent[u]]
    return u


def _forest_parents(prefix: Graph, removed: int) -> list[int]:
    """Union-find over ``prefix`` minus ``removed``, which must be an FVS."""
    parent = list(range(prefix.n))
    for u, v in prefix.edges:
        if not (removed >> u & 1 or removed >> v & 1):
            parent[_find(parent, u)] = _find(parent, v)
    return parent


def solve_ifvs(
    g: Graph,
    k: int,
    *,
    threads: int = 1,
    undeletable: int = 0,
    trace: TextIO | None = None,
    progress: Callable[[str], None] | None = None,
) -> SolveOutcome:
    """Decide whether ``g`` has an independent feedback vertex set of size <= k.

    Returns decision "yes" with a certificate, "no" when the optimum
    exceeds ``k``, or "absent" when no such set of any size exists.  A
    solution may hold no vertex of the mask ``undeletable``; each prefix
    optimum then avoids it too, and still bounds the next from below.
    Vertices are inserted in input order, so every prefix, step and
    ``trace`` line names vertices by their input ids.  ``threads`` has
    no effect; it is kept only because the committed benchmark runner,
    ``perfbench/run.py``, passes ``threads=1``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    t0 = time.perf_counter()
    stats = SolveStats()
    # edges sorted by later endpoint: each prefix graph is a slice of h
    h = Graph.trusted(g.adj, tuple(sorted(g.edges, key=itemgetter(1, 0))))

    decision = "yes"
    current: tuple[int, ...] = ()  # prefix optimum, ascending
    current_mask = 0
    parent = list(range(g.n))  # union-find over the prefix minus current
    for size in range(1, g.n + 1):
        new = size - 1
        closes = False
        for w in bits(h.adj[new] & ((1 << new) - 1) & ~current_mask):
            a, b = _find(parent, new), _find(parent, w)
            if a == b:
                closes = True
                break
            parent[a] = b
        if not closes:
            if size >= 3:  # prefixes of at most two vertices are acyclic
                stats.skipped += 1
            continue

        prefix = _prefix_graph(h, size)
        fvs_input = current_mask | 1 << new
        outcome = min_ifvs_given_fvs(
            prefix,
            fvs_input,
            undeletable=undeletable & ((1 << size) - 1),
            lower=len(current),
            trace=trace,
        )
        counts = _step_counts(outcome.stats)
        step = StepRecord(size, fvs_input.bit_count(), outcome.size, *counts)
        stats.add(step)
        if progress is not None:
            shown = "-" if outcome.size is None else str(outcome.size)
            counters = ", ".join(f"{name} = {n}" for name, n in zip(_STEP_FIELDS, counts))
            progress(
                f"step {size}: {size} vertices, fvs = {step.fvs_size}, min = {shown}, {counters}"
            )
        if outcome.absent:
            decision = "absent"
            break
        current = outcome.certificate  # type: ignore[assignment]
        if len(current) > k:
            decision = "no"
            break
        current_mask = mask_of(current)
        parent = _forest_parents(prefix, current_mask) + parent[size:]

    certificate = None
    if decision == "yes":
        certificate = current
        chosen = mask_of(certificate)
        # raised, not asserted, so that python -O keeps the check
        if not g.is_ifvs(chosen) or chosen & undeletable or len(certificate) > k:
            raise AssertionError("the solver built an invalid certificate")
    stats.ms = (time.perf_counter() - t0) * 1000.0
    return SolveOutcome(decision=decision, certificate=certificate, stats=stats)
