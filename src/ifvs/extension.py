"""Minimum independent-FVS extension given a feedback vertex set.

Given a graph ``g`` and an FVS ``f``, every subset of ``f`` that is
independent and leaves an acyclic remainder is a *candidate* for the part
of the solution inside ``f``.  For each candidate the minimum number of
forest vertices to add is found by a dynamic program over the binarized
forest on ``V - f``, with one table row per node indexed by subsets of
the connected components of the undeleted part of ``f``:

* ``keep[u][su]`` - cheapest way to solve ``u``'s subtree with the
  vertex of ``u`` kept and its kept region linked to exactly the
  component subset ``su``;
* ``delete[u]`` - cheapest way with the vertex of ``u`` deleted.

Exact component-subset tracking prevents any cycle through a single kept
region.  Two *different* kept regions (below a deleted vertex, or in
different trees) can still close a cycle through a shared pair of
components, which the tables cannot see; every assembled certificate is
therefore re-validated, and an exact bounded search replaces the DP
answer for a candidate whose certificate fails that check.

Candidates are solved in ascending ``(size, bitmask)`` order against the
best total found so far.  A candidate whose size already reaches that
total is *pruned* without running the DP, and so is one whose size plus
DP value reaches it: the tables only ever under-count, so the DP value
is a lower bound on the candidate's exact cost and the validity gate and
fallback can be skipped.  Fallback searches wait until every candidate
has had its DP, so the best total known by then caps them.  A
caller-supplied lower bound on the optimum ends the scan as soon as the
best total meets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, TextIO

from .binarize import BinaryForest, binarize, dump_forest, root_forest
from .graph import Graph, bits, mask_of

INFEASIBLE = math.inf


class NotAnFvsError(ValueError):
    """The provided set is not a feedback vertex set of the graph."""


class InvalidForestError(ValueError):
    """The binary forest does not match the graph/FVS pair."""


@dataclass(frozen=True)
class Candidate:
    """An admissible choice for the solution's intersection with the FVS."""

    fvs_part: int  # chosen vertices, a subset of the fvs mask
    size: int
    l: int  # number of components of the undeleted fvs part
    comp_masks: tuple[int, ...]
    comp_of: tuple[int, ...]  # vertex -> component index, -1 elsewhere
    forbidden: int  # forest vertices adjacent to fvs_part
    fvs: int


@dataclass
class CandidateRecord:
    """Per-candidate instrumentation, kept for every scanned subset."""

    fvs_part: int
    size: int
    accepted: bool
    reject_reason: str = ""
    l: int = 0
    dp_cost: float = INFEASIBLE  # raw DP value, before the validity gate
    cost: float = INFEASIBLE  # exact extension cost (post gate/fallback)
    total_evals: int = 0
    max_node_evals: int = 0
    fallback: bool = False
    fallback_tests: int = 0
    capped: bool = False
    pruned: bool = False  # could not beat the best total; exact cost never computed


@dataclass
class ExtensionStats:
    records: list[CandidateRecord] = field(default_factory=list)

    @property
    def candidates_scanned(self) -> int:
        return len(self.records)

    @property
    def candidates_accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def dp_cells(self) -> int:
        return sum(r.total_evals for r in self.records)

    @property
    def fallbacks(self) -> int:
        return sum(1 for r in self.records if r.fallback)

    @property
    def fallback_tests(self) -> int:
        return sum(r.fallback_tests for r in self.records)

    @property
    def pruned(self) -> int:
        return sum(1 for r in self.records if r.pruned)


@dataclass
class ExtensionOutcome:
    """Result of :func:`min_ifvs_given_fvs`.

    ``size`` and ``certificate`` are ``None`` when the graph has no
    independent feedback vertex set at all.
    """

    size: int | None
    certificate: tuple[int, ...] | None
    stats: ExtensionStats

    @property
    def absent(self) -> bool:
        return self.size is None


@dataclass
class DpSolveResult:
    """Result of :func:`dp_solve` for one candidate."""

    cost: float  # exact minimum extension size; INFEASIBLE if none
    extension: int | None  # witness mask over the forest vertices
    dp_cost: float  # raw DP value before the validity gate
    fallback: bool
    fallback_tests: int
    capped: bool  # search stopped by the cost cap, no exact value
    node_evals: tuple[int, ...]
    total_evals: int


def _iter_subsets(full: int) -> Iterator[int]:
    """Subsets of the bitmask ``full`` in ascending numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == full:
            return
        sub = (sub - full) & full


def _build_candidate(g: Graph, f: int, sub: int) -> Candidate:
    rem = f & ~sub
    comp_masks = tuple(g.components_within(rem))
    comp_of = [-1] * g.n
    for i, cm in enumerate(comp_masks):
        for v in bits(cm):
            comp_of[v] = i
    forbidden = g.neighbors(sub) & g.vertex_mask & ~f
    return Candidate(
        fvs_part=sub,
        size=sub.bit_count(),
        l=len(comp_masks),
        comp_masks=comp_masks,
        comp_of=tuple(comp_of),
        forbidden=forbidden,
        fvs=f,
    )


def enumerate_candidates(g: Graph, f: int) -> Iterator[Candidate]:
    """Yield every subset of ``f`` that could sit inside a solution.

    A subset qualifies iff it is independent and the rest of ``f``
    induces an acyclic subgraph.  Subsets stream in ascending bitmask
    order; the empty set is always considered.
    """
    if not g.is_fvs(f):
        raise NotAnFvsError("candidate enumeration requires a feedback vertex set")
    for sub in _iter_subsets(f):
        if not g.is_independent_set(sub):
            continue
        if not g.is_forest_within(f & ~sub):
            continue
        yield _build_candidate(g, f, sub)


def direct_component_links(g: Graph, cand: Candidate, v: int) -> tuple[int, bool]:
    """Components of the undeleted fvs part that ``v`` touches by an edge.

    Returns ``(component bitmask, doubled)`` where ``doubled`` is set when
    ``v`` has two or more edges into one component; keeping such a vertex
    closes a cycle through that component no matter what.
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


class _ForestArrays:
    """Flat views of a BinaryForest for the DP inner loops."""

    __slots__ = ("white", "equal_to", "kids", "roots", "postorder", "tree_mask")

    def __init__(self, h: BinaryForest):
        self.white = tuple(nd.white for nd in h.nodes)
        self.equal_to = tuple(nd.equal_to for nd in h.nodes)
        self.kids = tuple(nd.children for nd in h.nodes)
        self.roots = h.roots
        self.tree_mask = mask_of(nd.equal_to for nd in h.nodes if not nd.white)
        post: list[int] = []
        for r in self.roots:
            stack = [(r, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    post.append(node)
                else:
                    stack.append((node, True))
                    for c in reversed(self.kids[node]):
                        stack.append((c, False))
        self.postorder = tuple(post)


class DpTables:
    """Filled cost tables for one candidate, with cell-level traceback.

    Traceback is deterministic: keep-options in ascending subset order
    come before the delete option, and split options are inspected in
    the order the forward pass evaluated them.
    """

    __slots__ = ("arrays", "cand", "link", "keep", "delete", "min_keep", "node_evals")

    def __init__(self, arrays, cand, link, keep, delete, min_keep, node_evals):
        self.arrays = arrays
        self.cand = cand
        self.link = link
        self.keep = keep
        self.delete = delete
        self.min_keep = min_keep
        self.node_evals = node_evals

    def best_for_root(self, r: int) -> float:
        return min(self.min_keep[r], self.delete[r])

    def trace_keep(self, u: int, su: int) -> dict[int, bool]:
        """Kept/deleted assignment below ``u`` for the cell ``keep[u][su]``."""
        assign: dict[int, bool] = {}
        self._trace([("keep", u, su)], assign)
        return assign

    def trace_delete(self, u: int) -> dict[int, bool]:
        assign: dict[int, bool] = {}
        self._trace([("del", u, 0)], assign)
        return assign

    def _trace(self, stack: list[tuple[str, int, int]], assign: dict[int, bool]) -> None:
        white = self.arrays.white
        eq = self.arrays.equal_to
        kids = self.arrays.kids
        keep = self.keep
        delete = self.delete
        link = self.link

        def mark(v: int, kept: bool) -> None:
            prev = assign.get(v)
            if prev is None:
                assign[v] = kept
            elif prev != kept:
                raise AssertionError("inconsistent keep/delete trace")

        def argmin(row: list[float]) -> int:
            return row.index(min(row))

        while stack:
            op, u, su = stack.pop()
            b = eq[u]
            ch = kids[u]
            if op == "keep":
                mark(b, True)
                val = keep[u][su]
                if math.isinf(val):
                    raise AssertionError("tracing an infeasible cell")
                wu = link[b]
                s = su & ~wu
                if not ch:
                    continue
                if len(ch) == 1:
                    c = ch[0]
                    if white[c]:
                        stack.append(("keep", c, su))
                    elif s == 0:
                        if keep[c][0] == val:
                            stack.append(("keep", c, 0))
                        else:
                            stack.append(("del", c, 0))
                    else:
                        stack.append(("keep", c, s))
                    continue
                c1, c2 = ch
                k1 = keep[c1]
                k2 = keep[c2]
                if white[u] and white[c1]:
                    found = False
                    a = 0
                    while True:
                        if k1[wu | a] + k2[s ^ a] == val:
                            stack.append(("keep", c1, wu | a))
                            stack.append(("keep", c2, s ^ a))
                            found = True
                            break
                        if a == s:
                            break
                        a = (a - s) & s
                    if not found:
                        if k1[su] + delete[c2] != val:
                            raise AssertionError("no option reproduces the table value")
                        stack.append(("keep", c1, su))
                        stack.append(("del", c2, 0))
                else:
                    found = False
                    a = 0
                    while True:
                        if k1[a] + k2[s ^ a] == val:
                            stack.append(("keep", c1, a))
                            stack.append(("keep", c2, s ^ a))
                            found = True
                            break
                        if a == s:
                            break
                        a = (a - s) & s
                    if not found:
                        if k1[s] + delete[c2] == val:
                            stack.append(("keep", c1, s))
                            stack.append(("del", c2, 0))
                        elif delete[c1] + k2[s] == val:
                            stack.append(("del", c1, 0))
                            stack.append(("keep", c2, s))
                        elif s == 0 and delete[c1] + delete[c2] == val:
                            stack.append(("del", c1, 0))
                            stack.append(("del", c2, 0))
                        else:
                            raise AssertionError("no option reproduces the table value")
            else:
                mark(b, False)
                if math.isinf(delete[u]):
                    raise AssertionError("tracing an infeasible cell")
                if not ch:
                    continue
                if len(ch) == 1:
                    c = ch[0]
                    if white[c]:
                        stack.append(("del", c, 0))
                    else:
                        stack.append(("keep", c, argmin(keep[c])))
                    continue
                c1, c2 = ch
                if white[u] and white[c1]:
                    stack.append(("del", c1, 0))
                    stack.append(("keep", c2, argmin(keep[c2])))
                else:
                    stack.append(("keep", c1, argmin(keep[c1])))
                    stack.append(("keep", c2, argmin(keep[c2])))


def _compute_tables(g: Graph, arrays: _ForestArrays, cand: Candidate) -> DpTables:
    """Fill the keep/delete tables bottom-up for one candidate.

    ``node_evals[u]`` counts the (subset, split) evaluations spent on
    node ``u``; nodes with one child or none count one evaluation per
    reachable subset.
    """
    white = arrays.white
    eq = arrays.equal_to
    kids = arrays.kids
    nn = len(white)
    nstates = 1 << cand.l
    INF = INFEASIBLE

    link: dict[int, int] = {}
    dbl: dict[int, bool] = {}
    for v in bits(arrays.tree_mask):
        link[v], dbl[v] = direct_component_links(g, cand, v)
    forb = cand.forbidden

    keep: list[list[float]] = [None] * nn  # type: ignore[list-item]
    delete: list[float] = [INF] * nn
    min_keep: list[float] = [INF] * nn
    evals = [0] * nn

    for u in arrays.postorder:
        b = eq[u]
        wu = link[b]
        ch = kids[u]
        row: list[float] = [INF] * nstates
        row_min: float = INF
        counted = 0
        if not dbl[b]:
            rest = (nstates - 1) & ~wu
            if not ch:
                # whites always get two children, so leaves are black
                row[wu] = 0
                row_min = 0
                counted = 1
            elif len(ch) == 1:
                c = ch[0]
                kc = keep[c]
                if white[c]:
                    # chain for the same vertex: adopt its table as-is
                    row = list(kc)
                    row_min = min_keep[c]
                    counted = 1 << rest.bit_count()
                else:
                    dc = delete[c]
                    s = 0
                    while True:
                        if s == 0:
                            best = kc[0] if kc[0] < dc else dc
                        else:
                            best = kc[s]
                        row[wu | s] = best
                        if best < row_min:
                            row_min = best
                        counted += 1
                        if s == rest:
                            break
                        s = (s - rest) & rest
            else:
                c1, c2 = ch
                k1 = keep[c1]
                k2 = keep[c2]
                d1 = delete[c1]
                d2 = delete[c2]
                if white[u] and white[c1]:
                    # c1 continues the same vertex and must stay kept
                    s = 0
                    while True:
                        best = INF
                        a = 0
                        while True:
                            v = k1[wu | a] + k2[s ^ a]
                            counted += 1
                            if v < best:
                                best = v
                            if a == s:
                                break
                            a = (a - s) & s
                        v = k1[wu | s] + d2
                        if v < best:
                            best = v
                        row[wu | s] = best
                        if best < row_min:
                            row_min = best
                        if s == rest:
                            break
                        s = (s - rest) & rest
                else:
                    s = 0
                    while True:
                        best = INF
                        a = 0
                        while True:
                            v = k1[a] + k2[s ^ a]
                            counted += 1
                            if v < best:
                                best = v
                            if a == s:
                                break
                            a = (a - s) & s
                        v = k1[s] + d2
                        if v < best:
                            best = v
                        v = d1 + k2[s]
                        if v < best:
                            best = v
                        if s == 0:
                            v = d1 + d2
                            if v < best:
                                best = v
                        row[wu | s] = best
                        if best < row_min:
                            row_min = best
                        if s == rest:
                            break
                        s = (s - rest) & rest
        keep[u] = row
        min_keep[u] = row_min
        evals[u] = counted

        if forb >> b & 1:
            delete[u] = INF  # deleting a neighbor of the chosen fvs part
        elif not ch:
            delete[u] = 1
        elif len(ch) == 1:
            c = ch[0]
            delete[u] = delete[c] if white[c] else min_keep[c] + 1
        else:
            c1, c2 = ch
            if white[u] and white[c1]:
                delete[u] = delete[c1] + min_keep[c2]
            else:
                # a deleted vertex forces both original children to stay
                delete[u] = min_keep[c1] + min_keep[c2] + 1

    return DpTables(arrays, cand, link, keep, delete, min_keep, tuple(evals))


def _run_dp(
    g: Graph,
    arrays: _ForestArrays,
    cand: Candidate,
    want_tables: bool,
    cap: float = INFEASIBLE,
):
    """Tables plus one optimal root-level assignment per tree.

    Returns ``(cost, extension_mask, node_evals, tables)``;
    ``extension_mask`` is None when some tree admits no assignment at
    all (cost INFEASIBLE) or when the cost is not below ``cap``, in which
    case the traceback is skipped.
    """
    tables = _compute_tables(g, arrays, cand)
    total: float = 0
    for r in arrays.roots:
        total += tables.best_for_root(r)
    if not total < cap:
        return total, None, tables.node_evals, tables if want_tables else None

    assign: dict[int, bool] = {}
    ops = []
    for r in arrays.roots:
        best = tables.best_for_root(r)
        if tables.min_keep[r] == best:
            ops.append(("keep", r, tables.keep[r].index(best)))
        else:
            ops.append(("del", r, 0))
    tables._trace(ops, assign)

    extension = mask_of(v for v, kept in assign.items() if not kept)
    if extension.bit_count() != total:
        raise AssertionError("trace cost disagrees with the table optimum")
    return int(total), extension, tables.node_evals, tables if want_tables else None


def compute_tables(g: Graph, f: int, candidate: Candidate, h: BinaryForest) -> DpTables:
    """Run the DP for one candidate and expose the raw tables."""
    _check_forest(g, f, h)
    return _compute_tables(g, _ForestArrays(h), candidate)


def _check_forest(g: Graph, f: int, h: BinaryForest) -> None:
    tree_mask = g.vertex_mask & ~f
    for nd in h.nodes:
        if not tree_mask >> nd.equal_to & 1:
            raise InvalidForestError(
                f"forest node {nd.node_id} stands for vertex {nd.equal_to}, "
                "which is not outside the FVS"
            )


def _find_cycle(g: Graph, live: int) -> tuple[int, ...] | None:
    """Some cycle of the subgraph induced on ``live``, or None.

    Deterministic: strips to the part where every vertex lies on a
    cycle, then BFS from the smallest remaining vertex until an edge
    closes, which keeps the returned cycle short.
    """
    adj = g.adj
    core = live
    queue = [v for v in bits(core) if (adj[v] & core).bit_count() <= 1]
    while queue:
        nxt = []
        for v in queue:
            if core >> v & 1 and (adj[v] & core).bit_count() <= 1:
                core &= ~(1 << v)
                nxt.extend(bits(adj[v] & core))
        queue = nxt
    if not core:
        return None
    root = (core & -core).bit_length() - 1
    parent = {root: -1}
    depth = {root: 0}
    frontier = [root]
    while frontier:
        upcoming = []
        for u in frontier:
            for w in bits(adj[u] & core):
                if w not in parent:
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    upcoming.append(w)
                elif w != parent[u] and depth[w] <= depth[u]:
                    # non-tree edge: join the two root paths into a cycle
                    left, right = [u], [w]
                    a, b = u, w
                    while a != b:
                        if depth[a] >= depth[b]:
                            a = parent[a]
                            left.append(a)
                        else:
                            b = parent[b]
                            right.append(b)
                    return tuple(left[:-1] + right[::-1])
        frontier = upcoming
    raise AssertionError("stripped subgraph must contain a cycle")


def _fallback_search(
    g: Graph,
    cand: Candidate,
    tree_mask: int,
    lower: int,
    cap: float,
) -> tuple[int | None, int | None, int, bool]:
    """Exact bounded search for the cheapest valid extension.

    Iterative-deepening branching on cycles of the remaining graph:
    every cycle must lose one deletable vertex, so branches follow the
    cycle's vertices (ascending; deleting one forbids its neighbors and
    the alternatives already tried).  ``lower`` is a proven lower bound
    (the raw DP value); sizes at or above ``cap`` cannot improve the
    running optimum and are skipped.  ``tests`` counts cycle
    extractions.  Returns ``(size, extension_mask, tests, capped)``.
    """
    base = cand.fvs_part
    universe = g.vertex_mask & ~base
    allowed_all = tree_mask & ~cand.forbidden
    adj = g.adj
    tests = 0

    def dfs(live: int, deleted: int, allowed: int, budget: int) -> int | None:
        nonlocal tests
        tests += 1
        cycle = _find_cycle(g, live)
        if cycle is None:
            return deleted
        if budget == 0:
            return None
        remaining = allowed
        for v in sorted(cycle):
            if not remaining >> v & 1:
                continue
            found = dfs(
                live & ~(1 << v),
                deleted | 1 << v,
                remaining & ~(1 << v) & ~adj[v],
                budget - 1,
            )
            if found is not None:
                return found
            remaining &= ~(1 << v)  # later branches keep v
        return None

    for size in range(lower, allowed_all.bit_count() + 1):
        if size >= cap:
            return None, None, tests, True
        ext = dfs(universe, 0, allowed_all, size)
        if ext is not None:
            if not g.is_ifvs(base | ext):
                raise AssertionError("residual search produced an invalid set")
            return ext.bit_count(), ext, tests, False
    return None, None, tests, False


def dp_solve(
    g: Graph,
    f: int,
    candidate: Candidate,
    h: BinaryForest,
    *,
    cost_cap: float = INFEASIBLE,
) -> DpSolveResult:
    """Minimum extension of one candidate to a full solution.

    Returns the least number of forest vertices whose deletion, together
    with ``candidate.fvs_part``, yields an independent feedback vertex
    set of ``g`` - with a witness - or INFEASIBLE when no extension
    exists.  With a finite ``cost_cap`` the search may stop early once a
    result could no longer beat the cap (flagged via ``capped``).
    """
    _check_forest(g, f, h)
    arrays = _ForestArrays(h)
    cost, extension, node_evals, _ = _run_dp(g, arrays, candidate, False)
    total_evals = sum(node_evals)
    if extension is None:
        # the tables only ever under-count, so an infeasible DP is final
        return DpSolveResult(
            cost=INFEASIBLE,
            extension=None,
            dp_cost=INFEASIBLE,
            fallback=False,
            fallback_tests=0,
            capped=False,
            node_evals=node_evals,
            total_evals=total_evals,
        )
    if g.is_ifvs(candidate.fvs_part | extension):
        return DpSolveResult(
            cost=cost,
            extension=extension,
            dp_cost=cost,
            fallback=False,
            fallback_tests=0,
            capped=False,
            node_evals=node_evals,
            total_evals=total_evals,
        )
    # distinct kept regions linked the same component pair; fall back to
    # an exact bounded search for this candidate
    size, ext, tests, capped = _fallback_search(
        g, candidate, arrays.tree_mask, int(cost), cost_cap
    )
    return DpSolveResult(
        cost=INFEASIBLE if size is None else size,
        extension=ext,
        dp_cost=cost,
        fallback=True,
        fallback_tests=tests,
        capped=capped,
        node_evals=node_evals,
        total_evals=total_evals,
    )


def _format_tables(arrays: _ForestArrays, tables: DpTables) -> str:
    out = []
    for u in range(len(arrays.white)):
        color = "white" if arrays.white[u] else "black"
        cells = " ".join(
            "-" if math.isinf(c) else str(int(c)) for c in tables.keep[u]
        )
        dval = "-" if math.isinf(tables.delete[u]) else str(int(tables.delete[u]))
        out.append(
            f"    node {u} {color} v={arrays.equal_to[u]} keep=[{cells}] del={dval}"
        )
    return "\n".join(out)


def min_ifvs_given_fvs(
    g: Graph,
    f: int,
    *,
    lower: int = 0,
    threads: int = 1,
    trace: TextIO | None = None,
) -> ExtensionOutcome:
    """Minimum independent feedback vertex set of ``g``, given an FVS ``f``.

    Scans every admissible subset of ``f`` in ascending ``(size,
    bitmask)`` order, extends each with the forest DP unless it is
    pruned, and keeps the cheapest assembled solution (ties go to the
    earlier candidate).  ``lower`` must not exceed the optimum, such as
    the optimum of an induced subgraph; the scan stops once the best
    total equals it.  ``threads`` is accepted for compatibility and has
    no effect: the pruned scan is sequential.  Reports absence when every
    candidate is infeasible.  Raises :class:`NotAnFvsError` when ``f`` is
    not an FVS.
    """
    if not g.is_fvs(f):
        raise NotAnFvsError("the provided set is not a feedback vertex set")
    forest = root_forest(g, f)
    h = binarize(forest)
    arrays = _ForestArrays(h)
    want_tables = trace is not None and g.n <= 10

    stats = ExtensionStats()
    accepted: list[tuple[Candidate, CandidateRecord]] = []
    for sub in _iter_subsets(f):
        size = sub.bit_count()
        if not g.is_independent_set(sub):
            stats.records.append(
                CandidateRecord(sub, size, False, reject_reason="not-independent")
            )
            continue
        if not g.is_forest_within(f & ~sub):
            stats.records.append(
                CandidateRecord(sub, size, False, reject_reason="cyclic-remainder")
            )
            continue
        cand = _build_candidate(g, f, sub)
        rec = CandidateRecord(sub, size, True, l=cand.l)
        stats.records.append(rec)
        accepted.append((cand, rec))
    accepted.sort(key=lambda item: (item[0].size, item[0].fvs_part))

    # phase 1: the DP in ascending (size, bitmask) order, behind the
    # validity gate.  Every improvement is strict, so ties keep the
    # earlier candidate.
    best_total: float = INFEASIBLE
    best_cert: int | None = None
    trace_tables: dict[int, str] = {}
    pending: list[tuple[int, Candidate, CandidateRecord]] = []
    for cand, rec in accepted:
        if best_total <= lower or cand.size >= best_total:
            rec.pruned = True
            continue
        cost, extension, node_evals, tables = _run_dp(
            g, arrays, cand, want_tables, best_total - cand.size
        )
        rec.dp_cost = cost
        rec.total_evals = sum(node_evals)
        rec.max_node_evals = max(node_evals, default=0)
        if tables is not None:
            trace_tables[cand.fvs_part] = _format_tables(arrays, tables)
        if extension is None:
            # infeasible, or the DP's lower bound cannot beat the best
            rec.pruned = not math.isinf(cost)
            continue
        if not g.is_ifvs(cand.fvs_part | extension):
            pending.append((cand.size + cost, cand, rec))
            continue
        rec.cost = cost
        best_total = cand.size + cost
        best_cert = cand.fvs_part | extension

    # phase 2: candidates that failed the gate, cheapest DP bound first,
    # so the established optimum caps each exact fallback search
    pending.sort(key=lambda item: (item[0], item[1].size, item[1].fvs_part))
    for bound, cand, rec in pending:
        if best_total <= lower or bound >= best_total:
            rec.pruned = True
            continue
        rec.fallback = True
        size, ext, tests, capped = _fallback_search(
            g, cand, arrays.tree_mask, bound - cand.size, best_total - cand.size
        )
        rec.fallback_tests = tests
        rec.capped = capped
        if size is None:
            continue
        rec.cost = size
        best_total = cand.size + size
        best_cert = cand.fvs_part | ext  # type: ignore[operator]

    if trace is not None:
        trace.write(f"forest nodes ({h.black_count} black, {h.white_count} white):\n")
        trace.write(dump_forest(h))
        for rec in stats.records:
            members = "{" + ",".join(str(v) for v in bits(rec.fvs_part)) + "}"
            if rec.accepted:
                extra = f" l={rec.l}"
                if not (rec.pruned and math.isinf(rec.dp_cost)):  # the DP ran
                    extra += f" dp_cost={rec.dp_cost} evals={rec.total_evals}"
                if rec.fallback:
                    extra += f" fallback(tests={rec.fallback_tests})"
                if rec.pruned:
                    extra += " pruned"
                trace.write(f"candidate {members} accepted{extra}\n")
                if rec.fvs_part in trace_tables:
                    trace.write(trace_tables[rec.fvs_part] + "\n")
            else:
                trace.write(f"candidate {members} rejected ({rec.reject_reason})\n")

    if best_cert is None:
        return ExtensionOutcome(size=None, certificate=None, stats=stats)
    return ExtensionOutcome(
        size=int(best_total),
        certificate=tuple(bits(best_cert)),
        stats=stats,
    )
