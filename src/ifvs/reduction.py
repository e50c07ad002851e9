"""Reduction from the plain FVS problem to the independent variant.

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
certificate is then a set of original vertices as it stands.
"""

from __future__ import annotations

from .compression import SolveOutcome, solve_ifvs
from .graph import Graph, mask_of


def subdivide(g: Graph) -> Graph:
    """Replace every edge ``{u, v}`` by a path ``u - x - v``.

    Subdivision vertex ``g.n + i`` splits ``g.edges[i]``, so the result
    has ``n + m`` vertices and ``2 m`` edges.
    """
    edges = []
    for i, (u, v) in enumerate(g.edges):
        x = g.n + i
        edges.append((u, x))
        edges.append((x, v))
    return Graph(g.n + g.m, edges)


def solve_fvs(g: Graph, k: int, **kwargs) -> SolveOutcome:
    """Decide whether ``g`` has a feedback vertex set of size <= k.

    Runs the independent-set solver on the subdivided graph with every
    subdivision vertex undeletable, so the certificate holds original
    vertices only.  Keyword arguments pass through to
    :func:`ifvs.compression.solve_ifvs`.
    """
    sub = subdivide(g)
    outcome = solve_ifvs(sub, k, undeletable=sub.vertex_mask & ~g.vertex_mask, **kwargs)
    if outcome.decision == "absent":
        # cannot happen: any minimum FVS of g is an IFVS of the subdivision
        raise AssertionError("subdivided graph reported no solution")
    if outcome.decision != "yes":
        return SolveOutcome("no", None, outcome.stats)
    certificate = outcome.certificate
    assert all(v < g.n for v in certificate)
    assert g.is_fvs(mask_of(certificate))
    assert len(certificate) <= k
    return SolveOutcome("yes", certificate, outcome.stats)
