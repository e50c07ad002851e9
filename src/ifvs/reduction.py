"""Reduction from the plain FVS problem to the independent variant.

:func:`solve_fvs` first strips ``G`` to its 2-core, repeatedly deleting
every vertex with at most one neighbour left.  Such a vertex lies on no
cycle, so no minimum FVS needs it, and an FVS of the 2-core is one of
``G``: the peeled vertices hang off the 2-core as trees, and deleting
the FVS leaves the 2-core's forest with trees attached by at most one
edge each.  So ``G`` and its 2-core, the *kernel*, have the same
optimum, and only the kernel is solved.

Subdividing every edge once turns an instance of the feedback vertex set
problem into an equivalent independent-FVS instance with the same
budget: original vertices are pairwise non-adjacent afterwards, and any
selected subdivision vertex can be swapped for either endpoint of its
edge without uncovering a cycle.

So :func:`solve_fvs` never deletes a subdivision vertex: it hands them
to the solver as undeletable, and the search neither chooses them from
a step's FVS nor deletes them from its forest.  This is exact for every
prefix the solver grows, not only for the whole graph.  In an optimal
prefix solution, a subdivision vertex with both endpoints in the prefix
lies only on cycles through both endpoints, so it can be swapped for
either; with fewer endpoints there it lies on no cycle, so it can be
dropped.  The result is no larger and holds only original vertices,
which are pairwise non-adjacent, so it is still independent.  Each
certificate is then a set of kernel vertices, which the kernel's id
table maps back to ``G``.
"""

from __future__ import annotations

import time
from typing import Callable, TextIO

from .compression import SolveOutcome, solve_ifvs
from .extension import _strip
from .graph import Graph, mask_of


def subdivide(g: Graph) -> Graph:
    """Replace every edge ``{u, v}`` by a path ``u - x - v``.

    Subdivision vertex ``g.n + i`` splits ``g.edges[i]``, so the result
    has ``n + m`` vertices and ``2 m`` edges.  It is simple by
    construction, so it is built unchecked.
    """
    n = g.n
    pairs = [(w, n + i) for i, e in enumerate(g.edges) for w in e]
    return Graph.trusted(n + g.m, pairs)


def solve_fvs(
    g: Graph,
    k: int,
    *,
    threads: int = 1,
    trace: TextIO | None = None,
    progress: Callable[[str], None] | None = None,
) -> SolveOutcome:
    """Decide whether ``g`` has a feedback vertex set of size <= k.

    Runs the independent-set solver on the subdivided 2-core of ``g``
    with every subdivision vertex undeletable, so the certificate holds
    kernel vertices only, and maps it back to ``g``.  The solver inserts
    the kernel vertices first, in the order of their ids in ``g``, then
    the subdivision vertices.  The keyword arguments pass through to
    :func:`ifvs.compression.solve_ifvs`; ``trace`` and ``progress`` first
    get one ``kernel:`` line that lists the ids in ``g`` of kernel
    vertices ``0..n'-1``, since the steps and the trace count kernel
    vertices.  The outcome's ``stats.ms`` covers the whole of this call.
    """
    t0 = time.perf_counter()
    core = _strip(g.adj, g.vertex_mask, g.vertex_mask)  # vertices on no cycle go
    h, ids = g.induced_subgraph(core)  # ids ascending
    if trace is not None or progress is not None:
        line = f"kernel: {h.n} of {g.n} vertices, {h.m} of {g.m} edges:"
        line += "".join(f" {v}" for v in ids)
        if trace is not None:
            trace.write(line + "\n")
        if progress is not None:
            progress(line)
    sub = subdivide(h)
    outcome = solve_ifvs(
        sub,
        k,
        threads=threads,
        undeletable=sub.vertex_mask & ~h.vertex_mask,
        trace=trace,
        progress=progress,
    )
    if outcome.decision == "absent":
        # cannot happen: any minimum FVS of h is an IFVS of the subdivision
        raise AssertionError("subdivided graph reported no solution")
    certificate = None
    if outcome.decision == "yes":
        # raised, not asserted, so that python -O keeps the checks
        if not all(v < h.n for v in outcome.certificate):
            raise AssertionError("the certificate holds a subdivision vertex")
        certificate = tuple(ids[v] for v in outcome.certificate)  # still ascending
        if not g.is_fvs(mask_of(certificate)) or len(certificate) > k:
            raise AssertionError("the solver built an invalid certificate")
    outcome.stats.ms = (time.perf_counter() - t0) * 1000.0
    return SolveOutcome(outcome.decision, certificate, outcome.stats)
