"""Minimum independent-FVS extension given a feedback vertex set.

Given a graph ``g`` and an FVS ``f``, every subset of ``f`` that is
independent and leaves an acyclic remainder is a *candidate* for the part
of the solution inside ``f``.  For each candidate the minimum number of
forest vertices to add is found by a dynamic program over the rooted
forest on ``V - f``, with table rows keyed by subsets of the connected
components of the undeleted part of ``f``:

* ``keep[v][sv]`` - cheapest way to solve ``v``'s subtree with ``v``
  kept and its kept region linked to exactly the component subset ``sv``;
* ``delete[v]`` - cheapest way with ``v`` deleted.

A keep row maps each subset of finite cost to that cost; most subsets
are unreachable, since a kept region links only the components it
touches.  Children are folded into the row one at a time, left to right:
a leaf's row holds only its direct links, the first child seeds the row,
and each later child pairs its entries with the row's on disjoint
subsets.  Each value also carries a mark per deleted vertex (see
:class:`DpTables`), so the least total over the roots decodes into its
own deletions, and no traceback is needed.

Exact component-subset tracking prevents any cycle through a single kept
region.  Two *different* kept regions (below a deleted vertex, or in
different trees) can still close a cycle through a shared pair of
components, which the tables cannot see; every assembled certificate is
therefore re-validated, and an exact bounded search replaces the DP
answer for a candidate whose certificate fails that check.
:func:`min_ifvs_given_fvs` is the one path that turns a candidate into an
exact cost: the DP, then the validity gate, then the search.  A caller
may also name vertices that no solution may hold; they are never chosen
from ``f`` and are forbidden in every extension.

Candidates wait in one queue keyed by a proven lower bound on their
exact total, least first, and an entry whose bound reaches the best
total found so far is *pruned*.  A candidate enters at its size, or at a
caller-supplied lower bound on the optimum if higher.  It is pruned
before its DP when the degree bound of ``G`` minus the candidate (see
:func:`_degree_bound`) reaches the gap between its size and the best
total, and after it when its size plus DP value reaches the best total,
since the tables only ever under-count.  A certificate that fails the
validity gate sends the candidate back at its DP total, and each time
it leaves again the exact search tries one more deletion; the same
bound ends every search node that cannot finish within its budget.  So
no search tries a size that a known total rules out, and the optimum is
never below the smaller of the best total and the least bound in the
queue.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, NamedTuple, TextIO

from .graph import Graph, bits

INFEASIBLE = math.inf


class NotAnFvsError(ValueError):
    """The provided set is not a feedback vertex set of the graph."""


class NotAForestError(ValueError):
    """The supposed feedback vertex set leaves a cyclic remainder."""


class RootedForest(NamedTuple):
    """The forest on ``V - f`` as a named tuple, each tree rooted at its smallest id.

    ``order`` lists every forest vertex in breadth-first order, tree by
    tree, so each parent comes before its children.  ``mark[v]`` is the
    DP's deletion mark of vertex ``v``: bit ``i`` for the forest vertex of
    tie-break rank ``i``, 0 for an fvs vertex.  The rank orders the forest
    vertices by descending degree in the graph, then by ascending id, so
    among optimal extensions the DP deletes high-degree vertices.
    """

    roots: tuple[int, ...]
    parent: dict[int, int | None]
    children: dict[int, tuple[int, ...]]
    order: tuple[int, ...]
    mark: tuple[int, ...]


def root_forest(g: Graph, f: int) -> RootedForest:
    """Root each tree of the forest induced on ``V - f``.

    Roots are the smallest vertex id per tree; children are ordered by
    ascending vertex id.  Raises :class:`NotAForestError` if ``f`` is not
    a feedback vertex set of ``g``: the breadth-first search meets a
    vertex it has already seen through an edge that is not the parent's.
    """
    remaining = g.vertex_mask & ~f
    adj = g.adj
    parent: dict[int, int | None] = {}
    children: dict[int, tuple[int, ...]] = {}
    roots: list[int] = []
    order: list[int] = []  # doubles as the queue
    seen = 0
    rest = remaining
    while rest:
        r = (rest & -rest).bit_length() - 1
        roots.append(r)
        parent[r] = None
        seen |= 1 << r
        head = len(order)
        order.append(r)
        while head < len(order):
            v = order[head]
            head += 1
            nb = adj[v] & remaining
            p = parent[v]
            if p is not None:
                nb ^= 1 << p
            if nb & seen:
                raise NotAForestError("deleting the given set leaves a cycle")
            seen |= nb
            kids = tuple(bits(nb))
            for u in kids:
                parent[u] = v
            children[v] = kids
            order.extend(kids)
        rest = remaining & ~seen
    mark = [0] * g.n
    # a stable sort by descending degree keeps equal degrees in id order
    for i, v in enumerate(sorted(sorted(order), key=lambda v: adj[v].bit_count(), reverse=True)):
        mark[v] = 1 << i
    return RootedForest(tuple(roots), parent, children, tuple(order), tuple(mark))


class Candidate(NamedTuple):
    """A named tuple: an admissible choice for the solution's part in the FVS."""

    fvs_part: int  # chosen vertices, a subset of the fvs mask
    size: int
    l: int  # number of components of the undeleted fvs part
    comp_masks: tuple[int, ...]
    forbidden: int  # forest vertices adjacent to fvs_part, or undeletable
    fvs: int


class ExtensionStats:
    """Counters of one :func:`min_ifvs_given_fvs` call, filled during the scan.

    A slotted class; every counter starts at 0.
    """

    __slots__ = (
        "candidates_scanned",  # subsets of the fvs minus its undeletable vertices
        "candidates_accepted",  # of those, independent with an acyclic rest
        "max_l",  # most components left by an accepted candidate
        "dp_cells",  # row evaluations over every DP run
        "fallbacks",  # exact searches run after a failed validity gate
        "fallback_tests",  # search nodes of those searches
        "pruned",  # accepted candidates that could not beat the best total
        "bound_pruned",  # of those, pruned by the degree bound before any DP
    )

    def __init__(self) -> None:
        self.candidates_scanned = self.candidates_accepted = self.max_l = self.dp_cells = 0
        self.fallbacks = self.fallback_tests = self.pruned = self.bound_pruned = 0


class ExtensionOutcome(NamedTuple):
    """Result of :func:`min_ifvs_given_fvs`, a named tuple.

    ``size`` and ``certificate`` are ``None`` when the graph has no
    independent feedback vertex set at all.
    """

    size: int | None
    certificate: tuple[int, ...] | None
    stats: ExtensionStats

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


def _admit(adj: tuple[int, ...], f: int, sub: int) -> tuple[str, tuple[int, ...]]:
    """Whether the subset ``sub`` of ``f`` could sit inside a solution.

    Returns ``(reason, components)``: ``reason`` is "" when ``sub`` is
    independent and ``f - sub`` induces a forest, and ``components`` are
    then the components of ``f - sub``, ordered by smallest vertex id.
    One breadth-first search per component on the adjacency masks finds
    them, and a component ``C`` is a tree iff it spans ``|C| - 1`` edges.
    """
    rest = sub
    while rest:
        low = rest & -rest
        if adj[low.bit_length() - 1] & sub:
            return "not-independent", ()
        rest ^= low
    rem = f & ~sub
    comps: list[int] = []
    rest = rem
    while rest:
        comp = 0
        frontier = rest & -rest
        ends = 0  # edge ends inside the component
        while frontier:
            comp |= frontier
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nb = adj[low.bit_length() - 1] & rem
                nxt |= nb
                ends += nb.bit_count()
                frontier ^= low
            frontier = nxt & ~comp
        if ends != 2 * (comp.bit_count() - 1):
            return "cyclic-remainder", ()
        comps.append(comp)
        rest &= ~comp
    return "", tuple(comps)


def _build_candidate(
    g: Graph, f: int, sub: int, comps: tuple[int, ...], undeletable: int
) -> Candidate:
    return Candidate(
        fvs_part=sub,
        size=sub.bit_count(),
        l=len(comps),
        comp_masks=comps,
        forbidden=(g.neighbors(sub) | undeletable) & ~f,
        fvs=f,
    )


def enumerate_candidates(g: Graph, f: int, *, undeletable: int = 0) -> Iterator[Candidate]:
    """Yield every subset of ``f`` that could sit inside a solution.

    A subset qualifies iff it avoids ``undeletable``, is independent, and
    the rest of ``f`` induces an acyclic subgraph.  Subsets stream in
    ascending bitmask order; the empty set is always considered.  The
    solver admits subsets inside :func:`min_ifvs_given_fvs`; this is the
    reference the tests hold that scan to.
    """
    if not g.is_fvs(f):
        raise NotAnFvsError("candidate enumeration requires a feedback vertex set")
    for sub in _iter_subsets(f & ~undeletable):
        reason, comps = _admit(g.adj, f, sub)
        if not reason:
            yield _build_candidate(g, f, sub, comps, undeletable)


def direct_component_links(g: Graph, cand: Candidate, v: int) -> tuple[int, bool]:
    """Components of the undeleted fvs part that ``v`` touches by an edge.

    Returns ``(component bitmask, doubled)`` where ``doubled`` is set when
    ``v`` has two or more edges into one component; keeping such a vertex
    closes a cycle through that component no matter what.  This is the
    per-vertex reference for :func:`_link_rows`, which the DP uses.
    """
    linked = 0
    doubled = False
    adj = g.adj[v]
    for i, cm in enumerate(cand.comp_masks):
        hits = (adj & cm).bit_count()
        if hits:
            linked |= 1 << i
            if hits >= 2:
                doubled = True
    return linked, doubled


class DpTables:
    """Filled tables for one candidate, indexed by vertex id.

    Every value is ``cost << p | marks``, ``p`` being the number of forest
    vertices: ``marks`` is the union of the :attr:`RootedForest.mark` bits
    of the vertices the value deletes.  The values of disjoint subtrees
    never share a mark, so their sum adds the costs and unions the
    deletions at once, and the least value is the least cost with ties
    broken by the tie-break rank.  ``keep[v]`` maps each reachable subset
    to its value, and lacks every infeasible one; ``delete[v]`` is at
    least ``(p + 1) << p`` when deleting ``v`` is infeasible.  ``best``
    is the sum of every root's least value.  ``row_evals`` holds one count
    per leaf and per child folded in, in fill order.
    """

    __slots__ = ("forest", "keep", "delete", "best", "row_evals")

    def __init__(self, forest, keep, delete, best, row_evals):
        self.forest = forest
        self.keep = keep
        self.delete = delete
        self.best = best
        self.row_evals = row_evals


def _cost(forest: RootedForest, value: int) -> float:
    """The cost of a table value, or INFEASIBLE."""
    p = len(forest.order)
    cost = value >> p
    return cost if cost <= p else INFEASIBLE


def _deleted(forest: RootedForest, value: int) -> int:
    """The mask of the forest vertices whose marks a table value carries."""
    mark = forest.mark
    deleted = 0
    for v in forest.order:
        if value & mark[v]:
            deleted |= 1 << v
    return deleted


def _link_rows(g: Graph, cand: Candidate) -> tuple[list[int], int]:
    """Every forest vertex's :func:`direct_component_links`, at once.

    Returns ``(link, doubled)``: ``link[v]`` is the component bitmask of
    forest vertex ``v`` (0 for fvs vertices), and ``doubled`` is the mask
    of forest vertices with two or more edges into one component.  Only
    the components' neighbourhoods are visited.
    """
    adj = g.adj
    link = [0] * g.n
    doubled = 0
    for i, cm in enumerate(cand.comp_masks):
        once = twice = 0
        while cm:
            low = cm & -cm
            nb = adj[low.bit_length() - 1]
            twice |= once & nb
            once |= nb
            cm ^= low
        doubled |= twice
        once &= ~cand.fvs
        bit = 1 << i
        while once:
            low = once & -once
            link[low.bit_length() - 1] |= bit
            once ^= low
    return link, doubled & ~cand.fvs


def _compute_tables(g: Graph, forest: RootedForest, cand: Candidate) -> DpTables:
    """Fill the keep/delete tables bottom-up for one candidate.

    Each vertex's children are folded into its keep row left to right.
    ``row_evals`` counts the dense recurrence, not the dict operations:
    1 for a leaf, ``2**r`` for the row seeded by the first child and
    ``3**r`` for each later child's merge, ``r`` being the components not
    linked to the vertex directly, so no row counts more than ``3**l``.
    """
    kids = forest.children
    mark = forest.mark
    p = len(forest.order)
    unit = 1 << p  # one deletion's cost, above every mark
    INF = (p + 1) << p  # above every feasible value
    forb = cand.forbidden

    # indexed by vertex id; entries of fvs vertices stay unused
    link, dbl = _link_rows(g, cand)
    keep: list[dict[int, int]] = [{}] * g.n
    delete = [INF] * g.n
    min_keep = [INF] * g.n
    evals: list[int] = []

    for v in reversed(forest.order):
        wv = link[v]
        ch = kids[v]
        if dbl >> v & 1:
            # with two edges into one component, keeping v closes a cycle
            row = {}
            evals.append(0)
        elif not ch:
            row = {wv: 0}
            evals.append(1)
            min_keep[v] = 0
        else:
            r = cand.l - wv.bit_count()
            # first child: kept with its own subset, or deleted
            c = ch[0]
            kc = keep[c]
            dc = delete[c]
            if wv:
                row = {wv | s: x for s, x in kc.items() if not s & wv}
                if dc < row.get(wv, INF):
                    row[wv] = dc
            elif dc < kc.get(0, INF):
                row = kc.copy()  # no direct links: every subset is the child's
                row[0] = dc
            else:
                row = kc
            evals.append(1 << r)
            for c in ch[1:]:
                kc = keep[c]
                dc = delete[c]
                prev = row
                row = {} if dc >= INF else {s: x + dc for s, x in prev.items()}
                pairs = kc.items()
                # every key of prev holds wv, so a disjoint child key avoids it
                for s, x in prev.items():
                    for b, y in pairs:
                        if not b & s:
                            t = s | b
                            z = x + y
                            if z < row.get(t, INF):
                                row[t] = z
                evals.append(3**r)
            # a shared row is the only child's, so its minimum is known
            min_keep[v] = min_keep[c] if row is kc else min(row.values(), default=INF)
        keep[v] = row
        # deleting a neighbor of the chosen fvs part, or an undeletable
        # vertex, is infeasible; a deleted vertex forces its children to
        # stay, and an infeasible child leaves the sum at least INF
        if not forb >> v & 1:
            value = unit | mark[v]
            for c in ch:
                value += min_keep[c]
            delete[v] = value

    best = 0
    for r in forest.roots:
        best += min(min_keep[r], delete[r])
    return DpTables(forest, keep, delete, best, tuple(evals))


def _run_dp(
    g: Graph,
    forest: RootedForest,
    cand: Candidate,
    cap: float = INFEASIBLE,
) -> tuple[float, int | None, DpTables]:
    """Tables plus the deletions of their least value.

    Returns ``(cost, extension_mask, tables)``; ``extension_mask`` is None
    when some tree admits no assignment at all (cost INFEASIBLE) or when
    the cost is not below ``cap``.
    """
    tables = _compute_tables(g, forest, cand)
    cost = _cost(forest, tables.best)
    if not cost < cap:
        return cost, None, tables
    extension = _deleted(forest, tables.best)
    if extension.bit_count() != cost:
        raise AssertionError("the deletion marks disagree with the DP cost")
    return cost, extension, tables


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


def _degree_bound(adj: tuple[int, ...], core: int, deletable: int) -> int:
    """Fewest vertices of ``deletable`` an independent set needs to clear ``core``.

    ``core`` is a 2-core (see :func:`_strip`) with ``n`` vertices, ``m``
    edges and ``c`` components.  An independent set removes exactly the
    edges at its vertices and keeps a vertex of every component, so to
    leave a forest its degrees, less one each, must sum to ``m - n + c``
    or more.  The bound is the least ``t`` for which the ``t`` largest of
    those values over ``deletable`` reach it: 0 for an empty core, and
    ``len(adj) + 1`` when none do.  One flood fill per component counts
    the components, the edge ends and the values.
    """
    comps = ends = 0
    gains: list[int] = []
    rest = core
    while rest:
        comps += 1
        comp = todo = rest & -rest
        while todo:
            low = todo & -todo
            todo ^= low
            nb = adj[low.bit_length() - 1] & core
            degree = nb.bit_count()
            ends += degree
            if deletable & low:
                gains.append(degree - 1)
            todo |= nb & ~comp
            comp |= nb
        rest &= ~comp
    need = ends // 2 - core.bit_count() + comps
    gains.sort(reverse=True)
    t = 0
    while need > 0 and t < len(gains):
        need -= gains[t]
        t += 1
    return t if need <= 0 else len(adj) + 1


def _fallback_search(g: Graph, cand: Candidate, budget: int) -> tuple[int | None, int]:
    """One level of an exact search for a valid extension of ``cand``.

    Branches on one vertex of the remaining graph, the deletable one with
    the most neighbours in it (ties to the smallest id): first delete it,
    which forbids its neighbours, then keep it, which only takes it out of
    the deletable set.  The remaining graph is kept as its 2-core: the
    universe is stripped once per call, and a deletion re-strips only from
    the deleted vertex's neighbours, and a node whose :func:`_degree_bound`
    exceeds its budget ends there.  The keep branch is the next pass of a
    loop, not a call, so the recursion is at most ``budget + 1`` deep.
    ``tests`` counts search nodes, each one test of whether the remaining
    graph is acyclic.  Returns ``(extension_mask, tests)``; the mask holds
    at most ``budget`` vertices, and is None when no valid extension is
    that small.
    """
    base = cand.fvs_part
    universe = g.vertex_mask & ~base
    allowed_all = g.vertex_mask & ~(cand.fvs | cand.forbidden)
    adj = g.adj
    tests = 0

    def dfs(core: int, deleted: int, allowed: int, budget: int) -> int | None:
        nonlocal tests
        while True:
            tests += 1
            if not core:
                return deleted
            # a non-empty 2-core needs m - n + c >= 1, so with no deletable
            # vertex in it the bound is len(adj) + 1, above every budget
            # the solver passes (at most n): max() never sees an empty set
            if _degree_bound(adj, core, allowed) > budget:
                return None
            v = max(bits(core & allowed), key=lambda u: (adj[u] & core).bit_count())
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

    ext = dfs(_strip(adj, universe, universe), 0, allowed_all, budget)
    if ext is not None and not g.is_ifvs(base | ext):
        raise AssertionError("residual search produced an invalid set")
    return ext, tests


def _format_tables(tables: DpTables, l: int) -> str:
    """Each vertex's keep row over all ``2**l`` subsets, then its delete cost."""
    forest = tables.forest
    out = []
    for v in sorted(forest.order):
        row = tables.keep[v]
        cells = " ".join(str(_cost(forest, row[s])) if s in row else "-" for s in range(1 << l))
        dcost = _cost(forest, tables.delete[v])
        dval = "-" if math.isinf(dcost) else str(dcost)
        out.append(f"    vertex {v} keep=[{cells}] del={dval}")
    return "\n".join(out)


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
    keeps the cheapest assembled solution.  At an equal bound DPs leave
    first, in ``(size, bitmask)`` order, then search levels in
    ``(DP total, size, bitmask)`` order, and ties go to the first.
    ``lower`` must not exceed the optimum, such as the optimum of an
    induced subgraph; no bound is below it, so once the best total equals
    it every entry is pruned.  Reports absence when every candidate is
    infeasible.  Raises :class:`NotAnFvsError` when ``f`` is not an FVS.
    ``trace`` receives the rooted forest, then one line per scanned
    subset once it is rejected or leaves the queue for good.
    """
    try:
        forest = root_forest(g, f)
    except NotAForestError as exc:
        raise NotAnFvsError("the provided set is not a feedback vertex set") from exc
    stats = ExtensionStats()
    scan = f & ~undeletable
    stats.candidates_scanned = 1 << scan.bit_count()

    if trace is not None:
        trace.write(f"forest nodes ({len(forest.order)} vertices, v parent [children]):\n")
        for v in sorted(forest.order):
            par = forest.parent[v]
            ch = " ".join(str(c) for c in forest.children[v])
            trace.write(f"{v} {'-' if par is None else par} [{ch}]\n")

    def note(sub: int, text: str, tables: str = "") -> None:
        members = ",".join(str(v) for v in bits(sub))
        trace.write(f"candidate {{{members}}} {text}\n{tables}")  # type: ignore[union-attr]

    # one queue, least key first: (bound, stage, dp_total, size, bitmask).
    # Stage 0 runs the DP behind the validity gate (dp_total is 0 until
    # then), stage 1 one level of the exact search.  Every improvement is
    # strict, so ties keep the first candidate in key order.
    queue: list[tuple] = []
    for sub in _iter_subsets(scan):
        reason, comps = _admit(g.adj, f, sub)
        if not reason:
            size = sub.bit_count()
            queue.append((max(size, lower), 0, 0, size, sub, comps))
        elif trace is not None:
            note(sub, f"rejected ({reason})")
    heapq.heapify(queue)  # keys never tie, so payloads are never compared
    stats.candidates_accepted = len(queue)
    stats.max_l = max((len(entry[-1]) for entry in queue), default=0)

    best_total: float = INFEASIBLE
    best_cert: int | None = None
    core = _strip(g.adj, g.vertex_mask, g.vertex_mask)
    while queue:
        bound, stage, dp_total, size, sub, data = heapq.heappop(queue)
        if stage == 1:
            # data: the candidate, its trace text and its search nodes so
            # far, which are 0 only until its first level runs
            cand, ran, shown, tests = data
            if bound < best_total:
                stats.fallbacks += not tests
                ext, more = _fallback_search(g, cand, bound - size)
                stats.fallback_tests += more
                tests += more
                if ext is not None:
                    best_total = bound
                    best_cert = sub | ext
                elif bound - size < (g.vertex_mask & ~(f | cand.forbidden)).bit_count():
                    data = (cand, ran, shown, tests)
                    heapq.heappush(queue, (bound + 1, 1, dp_total, size, sub, data))
                    continue
            else:
                stats.pruned += not tests
            if trace is not None:
                note(sub, f"{ran} fallback(tests={tests})" if tests else ran + " pruned", shown)
            continue
        comps = data
        if bound >= best_total:
            stats.pruned += 1
            if trace is not None:
                note(sub, f"accepted l={len(comps)} pruned")
            continue
        if best_total < INFEASIBLE:
            # the 2-core of G - sub: only sub's neighbours lost degree
            near = g.neighbors(sub)
            rest = _strip(g.adj, core & ~sub, near & core)
            need = _degree_bound(g.adj, rest, rest & ~(f | near | undeletable))
            if need >= int(best_total) - size:
                stats.pruned += 1
                stats.bound_pruned += 1
                if trace is not None:
                    note(sub, f"accepted l={len(comps)} pruned (bound={need})")
                continue
        cand = _build_candidate(g, f, sub, comps, undeletable)
        cost, extension, tables = _run_dp(g, forest, cand, best_total - size)
        evals = sum(tables.row_evals)
        stats.dp_cells += evals
        ran = shown = ""
        if trace is not None:
            ran = f"accepted l={cand.l} dp_cost={cost} evals={evals}"
            if g.n <= 10:
                shown = _format_tables(tables, cand.l) + "\n"
        if extension is None:
            # infeasible, or the DP's lower bound cannot beat the best
            pruned = not math.isinf(cost)
            stats.pruned += pruned
            if trace is not None:
                note(sub, ran + (" pruned" if pruned else ""), shown)
            continue
        if not g.is_ifvs(sub | extension):
            # the DP value under-counts at worst: search upward from it
            total = size + cost
            heapq.heappush(queue, (max(total, lower), 1, total, size, sub, (cand, ran, shown, 0)))
            continue
        if trace is not None:
            note(sub, ran, shown)
        best_total = size + cost
        best_cert = sub | extension

    if best_cert is None:
        return ExtensionOutcome(size=None, certificate=None, stats=stats)
    return ExtensionOutcome(
        size=int(best_total),
        certificate=tuple(bits(best_cert)),
        stats=stats,
    )
