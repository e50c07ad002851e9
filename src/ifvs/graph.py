"""Immutable simple undirected graphs over dense integer vertex ids.

Vertex sets everywhere in this package are plain ``int`` bitmasks: bit
``v`` set means vertex ``v`` belongs to the set.  Bitmasks keep set
algebra cheap and make every derived ordering deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class GraphError(ValueError):
    """Rejected graph construction: bad ids, self-loops or parallel edges."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask holding every id from ``vertices``."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    Instances are immutable after construction.  ``adj[v]`` is the
    neighbor bitmask of vertex ``v``; ``edges`` holds every edge once as a
    ``(min, max)`` pair, sorted.  Checked or not, every graph sorts its
    pairs once and builds its rows from them, and :meth:`prefix` keeps
    that order, so rows and edges always agree.
    """

    __slots__ = ("n", "m", "adj", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        canon: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in canon:
                raise GraphError(f"parallel edge ({e[0]}, {e[1]})")
            canon.add(e)
        self._fill(n, canon)

    @classmethod
    def trusted(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on ``n`` vertices with edges ``pairs``, unchecked.

        The caller guarantees that ``pairs`` holds distinct ``(min, max)``
        pairs of ids below ``n``, in any order; an iterator will do.
        """
        g = cls.__new__(cls)
        g._fill(n, pairs)
        return g

    def _fill(self, n: int, pairs: Iterable[tuple[int, int]]) -> None:
        """Sort ``pairs`` into ``edges`` once, then build the rows from them."""
        edges = tuple(sorted(pairs))
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.m = len(edges)
        self.adj = tuple(adj)
        self.edges = edges

    def prefix(self, size: int) -> "Graph":
        """Subgraph on the first ``size`` vertices, ``0 <= size <= n``.

        Each row only loses its later neighbours, and the edges ``(u, v)``
        with ``v < size`` keep their sorted order.
        """
        keep = (1 << size) - 1
        g = Graph.__new__(Graph)
        g.n = size
        g.adj = tuple([a & keep for a in self.adj[:size]])
        g.edges = tuple([e for e in self.edges if e[1] < size])
        g.m = len(g.edges)
        return g

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def neighbors(self, vs: int) -> int:
        """Every vertex joined by an edge to some vertex of ``vs``.

        The result may intersect ``vs`` when ``vs`` spans an edge.
        """
        out = 0
        for v in bits(vs):
            out |= self.adj[v]
        return out

    def induced_subgraph(self, vs: int) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced on ``vs``, densely re-indexed.

        Returns ``(subgraph, old_ids)`` where new vertex ``i`` corresponds
        to ``old_ids[i]`` (ascending).  The ids keep their order, so the
        kept edges stay ``(min, max)`` pairs and are built unchecked.
        """
        old_ids = tuple(bits(vs))
        index = {v: i for i, v in enumerate(old_ids)}
        pairs = [(index[u], index[v]) for u, v in self.edges if vs >> u & 1 and vs >> v & 1]
        return Graph.trusted(len(old_ids), pairs), old_ids

    def components_within(self, vs: int) -> list[int]:
        """Connected components of the subgraph induced on ``vs``.

        Returned as bitmasks, ordered by smallest contained vertex id.
        """
        comps: list[int] = []
        rest = vs
        while rest:
            low = rest & -rest
            comp = 0
            frontier = low
            while frontier:
                comp |= frontier
                nxt = 0
                for u in bits(frontier):
                    nxt |= self.adj[u] & vs
                frontier = nxt & ~comp
            comps.append(comp)
            rest &= ~comp
        return comps

    def forest_parents(self, vs: int) -> list[int] | None:
        """Union-find parents of the forest induced on ``vs``, or None if it has a cycle.

        The list has one entry per vertex of the graph: two vertices of
        ``vs`` share a root iff a path inside ``vs`` joins them, and every
        vertex outside ``vs`` is its own root.
        """
        # inline union-find with path halving; this is the hottest
        # primitive in the oracles and the certificate checks
        parent = list(range(self.n))
        for u, v in self.edges:
            if vs >> u & 1 and vs >> v & 1:
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                if u == v:
                    return None
                parent[u] = v
        return parent

    def is_forest_within(self, vs: int) -> bool:
        """True iff the subgraph induced on ``vs`` is acyclic."""
        return self.forest_parents(vs) is not None

    def is_independent_set(self, vs: int) -> bool:
        for v in bits(vs):
            if self.adj[v] & vs:
                return False
        return True

    def is_fvs(self, vs: int) -> bool:
        """True iff deleting ``vs`` leaves an acyclic graph."""
        return self.is_forest_within(self.vertex_mask & ~vs)

    def is_ifvs(self, vs: int) -> bool:
        """True iff ``vs`` is a feedback vertex set and an independent set."""
        return self.is_independent_set(vs) and self.is_fvs(vs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"
