"""Minimum independent-FVS extension given a feedback vertex set.

Given a graph ``g`` and an FVS ``f``, every subset of ``f`` that is
independent and leaves an acyclic remainder is a *candidate* for the part
of the solution inside ``f``.  A candidate's cheapest extension, the
fewest vertices outside ``f`` whose deletion together with it leaves an
independent FVS, is found by one exact search (:func:`_fallback_search`)
that branches on one vertex, delete or keep (Chen, Fomin, Liu, Lu and
Villanger, JCSS 2008).  A caller may also name vertices that no solution
may hold; they are never chosen from ``f`` and are forbidden in every
extension.

The scan tests each subset ``sub`` of ``f`` with its neighbours, which
tell whether it is independent.  A graph is a forest iff its 2-core is
empty (see :func:`_strip`), and every cycle of ``G[f - sub]`` lies in
the 2-core of ``G[f]``, which is stripped once per call.  So the rest
of ``f`` is acyclic iff that core minus ``sub`` strips to nothing, and
when ``G[f]`` is a forest, as at every step of a solve, no subset is
tested at all.

Candidates wait in one queue keyed by a proven lower bound on their
exact total, least first.  The scan needs only each candidate's
neighbours, so a candidate enters at its size, or at a caller-supplied
lower bound on the optimum if higher, carrying just those neighbours.
When it first leaves the queue it is *bounded*: its search state is
built from the neighbours, the 2-core of ``G`` minus the candidate and
the vertices of that core it may delete, with the degree bound of that
state (see :func:`_degree_bound`).  One whose bound shows that no
deletable vertices can clear the core is infeasible and dropped;
otherwise it goes back in at its size plus the bound, or at the lower
bound if higher, and stays in front when that key still leads.  Keys
only rise to their true value, so the searches run in the order they
would if every candidate were bounded on entry, and a candidate pruned
before it is bounded never builds its state.
Each time a bounded candidate leaves the queue, one search level,
started from its state, looks for an extension that fills the gap
between its key and its size.  If there is none, the candidate goes
back one key higher, until the gap covers every vertex it may delete.
An entry whose key reaches the best total found so far is *pruned*.
So no search tries a size that a known total rules out, and the optimum
is never below the smaller of the best total and the least key in the
queue.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, NamedTuple, TextIO

from .graph import Graph, bits


class NotAnFvsError(ValueError):
    """The provided set is not a feedback vertex set of the graph."""


class ExtensionStats:
    """Counters of one :func:`min_ifvs_given_fvs` call, filled by its scan and queue.

    A slotted class; every counter starts at 0.  ``__slots__`` is the one
    list of per-step counters: :class:`ifvs.compression.StepRecord`,
    :class:`ifvs.compression.SolveStats` and every report take their
    counter names and order from it, so a counter added here reaches
    them all.
    """

    __slots__ = (
        "candidates_scanned",  # subsets of the fvs minus its undeletable vertices
        "candidates_accepted",  # of those, independent with an acyclic rest
        "fallbacks",  # searches run: candidates with at least one search level
        "fallback_tests",  # search nodes of those searches
        "pruned",  # accepted candidates that could not beat the best total
        "bound_pruned",  # of those, pruned by their key before any search level
        "bounded",  # accepted candidates whose search state and degree bound were built
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


class ExtensionOutcome(NamedTuple):
    """Result of :func:`min_ifvs_given_fvs`, a named tuple.

    ``size``, ``certificate`` and ``forest`` are ``None`` when the graph
    has no independent feedback vertex set at all.  ``forest`` is the
    parent list that checked the certificate, as
    :meth:`ifvs.graph.Graph.forest_parents` gives it for the graph minus
    the certificate.
    """

    size: int | None
    certificate: tuple[int, ...] | None
    stats: ExtensionStats
    forest: list[int] | None

    @property
    def absent(self) -> bool:
        return self.size is None


def _iter_subsets(full: int) -> Iterator[int]:
    """Subsets of the bitmask ``full`` in ascending numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == full:
            return
        sub = (sub - full) & full


def enumerate_candidates(g: Graph, f: int, *, undeletable: int = 0) -> Iterator[int]:
    """Yield the bitmask of every subset of ``f`` that could sit inside a solution.

    A subset qualifies iff it avoids ``undeletable``, is independent, and
    the rest of ``f`` induces an acyclic subgraph.  Subsets stream in
    ascending bitmask order; the empty set is always considered.  The
    solver admits subsets inside :func:`min_ifvs_given_fvs`; this is the
    reference the tests hold that scan to, decided by the graph's own
    union-find predicates.  Raises :class:`NotAnFvsError` as
    :func:`min_ifvs_given_fvs` does.
    """
    if f & ~g.vertex_mask or not g.is_fvs(f):
        raise NotAnFvsError("candidate enumeration requires a feedback vertex set")
    for sub in _iter_subsets(f & ~undeletable):
        if g.is_independent_set(sub) and g.is_forest_within(f & ~sub):
            yield sub


def _strip(adj: tuple[int, ...], core: int, todo: int) -> int:
    """Strip from ``core`` the vertices left with at most one neighbour in it.

    Only the vertices of ``todo`` are tested, plus the neighbours of each
    vertex removed.  With ``todo`` equal to ``core`` this gives the 2-core
    of ``core``.  When ``core`` is a 2-core minus one vertex ``v``, ``v``'s
    former neighbours are the only vertices whose degree dropped, so
    ``todo = adj[v] & core`` gives the 2-core of ``core`` too.
    """
    while todo:
        low = todo & -todo
        todo ^= low
        if core & low:
            nb = adj[low.bit_length() - 1] & core
            if not nb & (nb - 1):
                core ^= low
                todo |= nb
    return core


def _degree_bound(adj: tuple[int, ...], core: int, deletable: int) -> tuple[int, int]:
    """Fewest vertices of ``deletable`` an independent set needs to clear ``core``.

    ``core`` is a 2-core (see :func:`_strip`) with ``n`` vertices, ``m``
    edges and ``c`` components.  An independent set removes exactly the
    edges at its vertices and keeps a vertex of every component, so to
    leave a forest its degrees, less one each, must sum to ``m - n + c``
    or more.  The bound is the least ``t`` for which the ``t`` largest of
    those values over ``deletable`` reach it: 0 for an empty core, and
    ``len(adj) + 1`` when none do.  One flood fill per component counts
    the components, the edge ends and the values, and finds the vertex to
    branch on: the one of ``deletable & core`` with the most neighbours in
    ``core``, ties to the smallest id, or -1 if there is none.
    Returns ``(bound, vertex)``.
    """
    comps = ends = 0
    gains: list[int] = []
    top, top_degree = -1, -1
    rest = core
    while rest:
        comps += 1
        comp = todo = rest & -rest
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            nb = adj[v] & core
            degree = nb.bit_count()
            ends += degree
            if deletable & low:
                gains.append(degree - 1)
                if degree > top_degree or degree == top_degree and v < top:
                    top, top_degree = v, degree
            todo |= nb & ~comp
            comp |= nb
        rest &= ~comp
    need = ends // 2 - core.bit_count() + comps
    gains.sort(reverse=True)
    t = 0
    while need > 0 and t < len(gains):
        need -= gains[t]
        t += 1
    return (t if need <= 0 else len(adj) + 1), top


def _fallback_search(
    adj: tuple[int, ...], core: int, allowed: int, budget: int, start: int = -1
) -> tuple[int | None, int]:
    """One level of the exact search that decides each candidate.

    Looks for an independent set of at most ``budget`` vertices of
    ``allowed`` whose deletion leaves the 2-core ``core`` acyclic; the
    caller checks the solution it assembles.  Each node branches on the
    vertex :func:`_degree_bound` returns with its bound: first delete it,
    which forbids its neighbours, then keep it, which only takes it out
    of ``allowed``.  A deletion re-strips the core only from the deleted
    vertex's neighbours, and a node whose bound exceeds its budget ends
    there.  The keep branch is the next pass of a loop, not a call, so
    the recursion is at most ``budget + 1`` deep.  A caller that already
    bounded ``core`` and ``allowed`` passes the vertex
    :func:`_degree_bound` returned as ``start``, with a bound of at most
    ``budget``; the root's first pass then branches on it without
    bounding again.  ``tests`` counts search nodes.  Returns
    ``(extension_mask, tests)``; the mask holds at most ``budget``
    vertices, and is None when no such set is that small.
    """
    tests = 0

    def dfs(core: int, deleted: int, allowed: int, budget: int, v: int = -1) -> int | None:
        nonlocal tests
        while True:
            tests += 1
            if not core:
                return deleted
            if not budget:
                return None
            if v < 0:
                # a non-empty 2-core has m - n + c >= 1, so with no deletable
                # vertex in it the bound is len(adj) + 1, past every budget
                # the solver passes (at most n): v >= 0 below
                t, v = _degree_bound(adj, core, allowed)
                if t > budget:
                    return None
            bit = 1 << v
            found = dfs(
                _strip(adj, core ^ bit, adj[v] & core),
                deleted | bit,
                allowed & ~bit & ~adj[v],
                budget - 1,
            )
            if found is not None:
                return found
            allowed ^= bit  # keep v
            v = -1

    ext = dfs(core, 0, allowed, budget, start)
    return ext, tests


def min_ifvs_given_fvs(
    g: Graph,
    f: int,
    *,
    undeletable: int = 0,
    lower: int = 0,
    trace: TextIO | None = None,
) -> ExtensionOutcome:
    """Minimum independent feedback vertex set of ``g``, given an FVS ``f``.

    The solution may hold no vertex of the mask ``undeletable``: only the
    subsets of ``f`` that avoid it are scanned, and every extension
    treats its vertices outside ``f`` as forbidden.  Runs every
    admissible subset through the queue of the module docstring and
    keeps the cheapest assembled solution.  Entries of equal key leave in
    ``(size, bitmask)`` order, and ties go to the first.  ``lower`` must
    not exceed the optimum, such as the optimum of an induced subgraph;
    no key is below it, so once the best total equals it every entry is
    pruned.  Reports absence when every candidate is infeasible.  Raises
    :class:`NotAnFvsError` when ``f`` is not an FVS or holds a vertex
    outside ``g``, and ``AssertionError`` on an invalid assembled set.
    ``trace`` receives one ``extension:`` line, then one line per scanned
    subset: a rejected one during the scan, and every other one when it
    leaves the queue for good, infeasible once bounded, or pruned, found
    or exhausted.
    """
    if f & ~g.vertex_mask or not g.is_fvs(f):
        raise NotAnFvsError("the provided set is not a feedback vertex set")
    adj = g.adj
    stats = ExtensionStats()
    scan = f & ~undeletable
    stats.candidates_scanned = 1 << scan.bit_count()

    def note(sub: int, text: str) -> None:
        members = ",".join(str(v) for v in bits(sub))
        trace.write(f"candidate {{{members}}} {text}\n")  # type: ignore[union-attr]

    if trace is not None:
        trace.write(f"extension: {g.n} vertices, fvs {{{','.join(map(str, bits(f)))}}}\n")

    # one queue, least key first: (key, size, bitmask, neighbours, search
    # state, search nodes so far); the state is None until the candidate
    # is bounded, then (2-core of G - sub, its deletable vertices, the
    # vertex to branch on first)
    core = _strip(adj, g.vertex_mask, g.vertex_mask)
    cyclic = _strip(adj, core & f, core & f)  # the 2-core of G[f]: empty inside a solve
    queue: list[tuple] = []
    for sub in _iter_subsets(scan):
        near = g.neighbors(sub)
        rem = cyclic & ~sub  # every cycle of G[f - sub] lies in the 2-core of G[f]
        reason = (
            "not-independent"
            if near & sub
            else "cyclic-remainder" if cyclic and _strip(adj, rem, rem) else ""
        )
        if reason:
            if trace is not None:
                note(sub, f"rejected ({reason})")
            continue
        stats.candidates_accepted += 1
        size = sub.bit_count()
        queue.append((max(size, lower), size, sub, near, None, 0))
    heapq.heapify(queue)  # (key, size, bitmask) never ties

    best_total: float = math.inf
    best_cert: int | None = None
    forest: list[int] | None = None  # the union-find that checked best_cert
    entry = heapq.heappop(queue) if queue else None
    while entry is not None:
        key, size, sub, near, state, nodes = entry
        if key >= best_total:
            stats.pruned += 1
            stats.bound_pruned += not nodes
            fate = "pruned"
        elif state is None:
            stats.bounded += 1
            # the 2-core of G - sub: only sub's neighbours lost degree
            rest = _strip(adj, core & ~sub, near & core)
            deletable = rest & ~(f | near | undeletable)
            t, top = _degree_bound(adj, rest, deletable)
            if t <= g.n:
                # back in at the real key; pushpop keeps it out of the
                # heap while it still leads
                entry = heapq.heappushpop(
                    queue, (max(size + t, key), size, sub, near, (rest, deletable, top), 0)
                )
                continue
            fate = "infeasible"  # no deletable vertices clear the core
        else:
            rest, deletable, top = state
            stats.fallbacks += not nodes
            # every level searches from the same root, so the bounding's
            # vertex serves each of them
            ext, more = _fallback_search(adj, rest, deletable, key - size, top)
            stats.fallback_tests += more
            nodes += more
            if ext is not None:
                best_cert = sub | ext
                forest = g.forest_parents(g.vertex_mask & ~best_cert)
                if forest is None or not g.is_independent_set(best_cert):
                    raise AssertionError("the exact search produced an invalid set")
                best_total = size + ext.bit_count()
                fate = "found"
            elif key - size < deletable.bit_count():
                entry = heapq.heappushpop(queue, (key + 1, size, sub, near, state, nodes))
                continue
            else:
                fate = "exhausted"
        if trace is not None:
            note(sub, fate if fate == "infeasible" else f"key={key} nodes={nodes} {fate}")
        entry = heapq.heappop(queue) if queue else None

    if best_cert is None:
        return ExtensionOutcome(size=None, certificate=None, stats=stats, forest=None)
    return ExtensionOutcome(
        size=int(best_total),
        certificate=tuple(bits(best_cert)),
        stats=stats,
        forest=forest,
    )
