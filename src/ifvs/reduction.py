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

from .compression import SolveOutcome, solve_ifvs
from .extension import _strip
from .graph import Graph, mask_of


def subdivide(g: Graph) -> Graph:
    """Replace every edge ``{u, v}`` by a path ``u - x - v``.

    Subdivision vertex ``g.n + i`` splits ``g.edges[i]``, so the result
    has ``n + m`` vertices and ``2 m`` edges.  It is simple by
    construction, so it is built unchecked, with its edges sorted.
    """
    n = g.n
    adj = list(g.adj) + [0] * g.m
    incident: list[list[int]] = [[] for _ in range(n)]  # ascending, as i ascends
    for i, (u, v) in enumerate(g.edges):
        x = n + i
        adj[u] ^= 1 << v | 1 << x
        adj[v] ^= 1 << u | 1 << x
        adj[x] = 1 << u | 1 << v
        incident[u].append(x)
        incident[v].append(x)
    edges = tuple([(u, x) for u in range(n) for x in incident[u]])
    return Graph.trusted(tuple(adj), edges)


def solve_fvs(g: Graph, k: int, **kwargs) -> SolveOutcome:
    """Decide whether ``g`` has a feedback vertex set of size <= k.

    Runs the independent-set solver on the subdivided 2-core of ``g``
    with every subdivision vertex undeletable, so the certificate holds
    kernel vertices only, and maps it back to ``g``.  Keyword arguments
    pass through to :func:`ifvs.compression.solve_ifvs`; its ``trace``
    and ``progress`` first get one ``kernel:`` line that lists the ids in
    ``g`` of kernel vertices ``0..n'-1``, since the steps and the trace
    count kernel vertices.
    """
    core = _strip(g.adj, g.vertex_mask, g.vertex_mask)  # vertices on no cycle go
    h, ids = g.induced_subgraph(core)  # ids ascending
    trace, progress = kwargs.get("trace"), kwargs.get("progress")
    if trace is not None or progress is not None:
        line = f"kernel: {h.n} of {g.n} vertices, {h.m} of {g.m} edges:"
        line += "".join(f" {v}" for v in ids)
        if trace is not None:
            trace.write(line + "\n")
        if progress is not None:
            progress(line)
    sub = subdivide(h)
    outcome = solve_ifvs(sub, k, undeletable=sub.vertex_mask & ~h.vertex_mask, **kwargs)
    if outcome.decision == "absent":
        # cannot happen: any minimum FVS of h is an IFVS of the subdivision
        raise AssertionError("subdivided graph reported no solution")
    if outcome.decision != "yes":
        return SolveOutcome("no", None, outcome.stats)
    assert all(v < h.n for v in outcome.certificate)
    certificate = tuple(ids[v] for v in outcome.certificate)  # still ascending
    assert g.is_fvs(mask_of(certificate))
    assert len(certificate) <= k
    return SolveOutcome("yes", certificate, outcome.stats)
