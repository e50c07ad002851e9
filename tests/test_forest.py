"""Rooting of the forest left after deleting an FVS."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle, graphs, path
from ifvs import NotAForestError, mask_of, root_forest


def test_root_forest_path():
    rf = root_forest(path(3), 0)
    assert rf.roots == (0,)
    assert rf.children[0] == (1,) and rf.children[1] == (2,) and rf.children[2] == ()
    assert rf.order == (0, 1, 2)


def test_root_forest_c4_minus_vertex():
    rf = root_forest(cycle(4), mask_of([0]))
    assert rf.roots == (1,)
    assert rf.children[1] == (2,) and rf.children[2] == (3,)


def test_root_forest_rejects_cyclic_remainder():
    with pytest.raises(NotAForestError):
        root_forest(cycle(4), 0)


def reference_bfs(g, f):
    """Roots, parents, children and BFS order of the forest on ``V - f``."""
    rest = [v for v in range(g.n) if not f >> v & 1]
    parent, children, roots, order = {}, {}, [], []
    for r in rest:
        if r in parent:
            continue
        roots.append(r)
        parent[r] = None
        queue = deque([r])
        while queue:
            v = queue.popleft()
            order.append(v)
            kids = [u for u in rest if g.adj[v] >> u & 1 and u not in parent]
            for u in kids:
                parent[u] = v
            children[v] = tuple(kids)
            queue.extend(kids)
    return tuple(roots), parent, children, tuple(order)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_root_forest_raises_exactly_on_a_cycle_and_matches_bfs(data):
    g = data.draw(graphs())
    f = data.draw(st.integers(0, g.vertex_mask))
    if not g.is_fvs(f):
        with pytest.raises(NotAForestError):
            root_forest(g, f)
        return
    rf = root_forest(g, f)
    assert (rf.roots, rf.parent, rf.children, rf.order) == reference_bfs(g, f)
    # the DP's tie-break rank: descending degree, then ascending id
    ranked = sorted(rf.order, key=lambda v: (-g.degree(v), v))
    assert rf.mark == tuple(1 << ranked.index(v) if v in ranked else 0 for v in range(g.n))
