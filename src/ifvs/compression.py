"""Iterative-compression decision solver for independent feedback vertex sets.

The graph is rebuilt one vertex at a time.  After each insertion the new
vertex plus the previous prefix optimum forms a feedback vertex set of
the grown prefix (deleting it restores the old forest), which
:func:`ifvs.extension.min_ifvs_given_fvs` turns into the new prefix
optimum.  Any induced subgraph of a yes-instance is a yes-instance, so
the loop can answer "no" the moment a prefix optimum exceeds the budget,
and "absent" the moment a prefix has no solution at all.

A union-find over the forest left by the current optimum tells whether
the new vertex closes a cycle.  When it does not, the step is *skipped*:
no edge joins two old vertices, so the old optimum is still independent
and still an FVS, and prefix optima never shrink, so it is still
minimum.  Only a step that closes a cycle pays for the extension stage,
which also receives the old optimum as a lower bound.  Its prefix graph
is sliced from the graph relabelled by insertion position, built once
per solve, and the extension stage checks once that its input is an FVS.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, NamedTuple, TextIO

from .extension import min_ifvs_given_fvs
from .graph import Graph, bits, mask_of


class StepRecord(NamedTuple):
    """One compression step: its prefix, its optimum and its counters.

    A named tuple: ``_fields`` lists the fields in report order, and
    ``_asdict()`` gives the step of the ``--json`` report.
    """

    prefix: int  # number of vertices in the grown graph
    fvs_size: int  # size of the FVS handed to the extension stage (0: skipped)
    min_ifvs: int | None  # prefix optimum (None: no solution exists)
    candidates: int = 0
    dp_cells: int = 0
    fallbacks: int = 0
    fallback_tests: int = 0  # search nodes of those fallback searches
    pruned: int = 0  # candidates the extension stage pruned
    bound_pruned: int = 0  # of those, pruned by the degree bound before any DP
    skipped: bool = False  # no cycle closed, the old optimum carried over


class SolveStats:
    """Counter totals of one solve, with its steps and its wall time.

    A slotted class, mutable while the solve runs: :meth:`add` records
    each step and sums the counters that :data:`COUNTERS` names.
    """

    __slots__ = (
        "candidates",
        "dp_cells",
        "fallbacks",
        "fallback_tests",
        "pruned",
        "bound_pruned",  # pruned candidates whose DP never ran, by the degree bound
        "skipped",  # steps that closed no cycle and ran no extension
        "ms",
        "f_max",  # largest FVS handed to the extension stage
        "steps",
    )

    def __init__(self) -> None:
        self.candidates = self.dp_cells = self.fallbacks = self.fallback_tests = 0
        self.pruned = self.bound_pruned = self.skipped = self.f_max = 0
        self.ms = 0.0
        self.steps: list[StepRecord] = []

    def add(self, step: StepRecord) -> None:
        """Record ``step`` and add its counters to the totals."""
        self.steps.append(step)
        if step.skipped:
            self.skipped += 1  # a skipped step counts nothing else
            return
        self.f_max = max(self.f_max, step.fvs_size)
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(step, name))


# the SolveStats totals of a StepRecord field, in report order
COUNTERS = tuple(name for name in SolveStats.__slots__ if name in StepRecord._fields)


class SolveOutcome(NamedTuple):
    """A solve's decision, a named tuple.

    ``certificate`` is ``None`` unless ``decision`` is "yes";
    :func:`solve_ifvs` and :func:`ifvs.reduction.solve_fvs` assert the
    certificate where they build a "yes".
    """

    decision: str  # "yes" | "no" | "absent"
    certificate: tuple[int, ...] | None
    stats: SolveStats


def _relabel(g: Graph, order: list[int]) -> Graph:
    """``g`` with vertex ``order[i]`` renamed ``i``.

    Edges are sorted by their later endpoint, so the edges among the
    first ``size`` vertices are a prefix of ``edges``.
    """
    local = [0] * g.n
    for i, v in enumerate(order):
        local[v] = i
    adj = [0] * g.n
    later: list[tuple[int, int]] = []
    for u, v in g.edges:
        a, b = local[u], local[v]
        if a > b:
            a, b = b, a
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        later.append((b, a))
    later.sort()
    return Graph.trusted(tuple(adj), tuple([(a, b) for b, a in later]))


def _prefix_graph(h: Graph, size: int) -> Graph:
    """Subgraph of ``h`` on its first ``size`` vertices.

    ``h`` comes from :func:`_relabel`: the edges are a slice, and each
    row only loses its later neighbours.  Earlier prefixes keep their ids.
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
    seed: int | None = None,
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
    Vertices are inserted in input order, or in an order that ``seed``
    shuffles reproducibly.  ``trace`` names vertices by insertion
    position, so a shuffled order is written to it first, as one
    ``order:`` line of the input id at each position.  ``threads`` has
    no effect; it is kept only because the committed benchmark runner,
    ``perfbench/run.py``, passes ``threads=1``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    t0 = time.perf_counter()
    stats = SolveStats()
    order = list(range(g.n))
    if seed is not None:
        random.Random(seed).shuffle(order)
        if trace is not None and order != sorted(order):
            trace.write("order: " + " ".join(map(str, order)) + "\n")
    h = _relabel(g, order)
    # the undeletable vertices by insertion position; a prefix gets its slice
    blocked = mask_of(i for i, v in enumerate(order) if undeletable >> v & 1) if undeletable else 0

    decision = "yes"
    current: tuple[int, ...] = ()  # prefix optimum, local ids
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
            # prefixes with at most two vertices are acyclic and get no step
            if size >= 3:
                stats.add(StepRecord(prefix=size, fvs_size=0, min_ifvs=len(current), skipped=True))
                if progress is not None:
                    progress(f"step {size}: {size} vertices, skipped, min = {len(current)}")
            continue

        prefix = _prefix_graph(h, size)
        fvs_input = current_mask | 1 << new
        outcome = min_ifvs_given_fvs(
            prefix,
            fvs_input,
            undeletable=blocked & ((1 << size) - 1),
            lower=len(current),
            trace=trace,
        )
        ext = outcome.stats
        step = StepRecord(
            prefix=size,
            fvs_size=fvs_input.bit_count(),
            min_ifvs=outcome.size,
            candidates=ext.candidates_scanned,
            dp_cells=ext.dp_cells,
            fallbacks=ext.fallbacks,
            fallback_tests=ext.fallback_tests,
            pruned=ext.pruned,
            bound_pruned=ext.bound_pruned,
        )
        stats.add(step)
        if progress is not None:
            shown = "-" if outcome.size is None else str(outcome.size)
            counters = ", ".join(f"{name} = {getattr(step, name)}" for name in COUNTERS)
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
        certificate = tuple(sorted(order[p] for p in current))
        chosen = mask_of(certificate)
        assert g.is_ifvs(chosen) and not chosen & undeletable
        assert len(certificate) <= k
    stats.ms = (time.perf_counter() - t0) * 1000.0
    return SolveOutcome(decision=decision, certificate=certificate, stats=stats)
