"""Shared graph builders for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

from ifvs import Graph
from ifvs.extension import _fallback_search, _strip

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> dict[str, str]:
    """Environment for ``python -m ifvs`` subprocesses: this checkout's
    sources first on the path, so the CLI tests need no install."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_cli(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run ``python -m ifvs *args`` on ``stdin`` from this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "ifvs", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
        env=cli_env(),
    )


# a triangle with a pendant vertex added last: the last step closes no
# cycle, so no extension call checks a set on the whole graph
PENDANT_TRIANGLE_EDGES = [(0, 1), (1, 2), (0, 2), (2, 3)]


def solve_rejected_under_optimize(solver: str, check: str) -> str:
    """Run ``solver`` on the pendant triangle under ``python -O``, with
    ``Graph.<check>`` rejecting every set of that graph and no other.

    Returns the last line the subprocess printed: the name of the
    exception raised, or the decision returned.
    """
    code = f"""
import ifvs
g = ifvs.Graph(4, {PENDANT_TRIANGLE_EDGES!r})
check = ifvs.Graph.{check}
ifvs.Graph.{check} = lambda self, mask: self is not g and check(self, mask)
try:
    print(ifvs.{solver}(g, 1).decision)
except AssertionError:
    print("AssertionError")
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1]


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def planted(n: int, k: int, seed: int) -> Graph:
    """k disjoint triangles plus a path, labels shuffled: optimum is k."""
    rng = random.Random(seed)
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    for t in range(k):
        a, b, c = labels[3 * t : 3 * t + 3]
        edges += [(a, b), (b, c), (c, a)]
    rest = labels[3 * k :]
    edges += [(rest[i], rest[i + 1]) for i in range(len(rest) - 1)]
    return Graph(n, edges)


def random_graph(rng: random.Random, n_max: int = 12, m_cap: int | None = None) -> Graph:
    n = rng.randint(1, n_max)
    limit = n * (n - 1) // 2
    m = rng.randint(0, min(limit, m_cap if m_cap is not None else 2 * n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, m))


def relabel(g: Graph, perm: list[int]) -> Graph:
    """``g`` with vertex ``v`` renamed ``perm[v]``: the solver inserts in
    input order, so this is how a test changes the insertion order."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def hang_trees(g: Graph, rng: random.Random, leaves: int, isolated: int) -> Graph:
    """``g`` with ``leaves`` tree vertices and ``isolated`` lone ones added.

    Each tree vertex hangs off a random earlier vertex, so the new
    vertices lie on no cycle.  All labels are shuffled.
    """
    n = g.n + leaves + isolated
    edges = list(g.edges) + [(rng.randrange(v), v) for v in range(max(g.n, 1), g.n + leaves)]
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def two_core(g: Graph) -> set[int]:
    """The vertices left after deleting degree-<=1 vertices until none is left."""
    core = set(range(g.n))
    while True:
        low = {v for v in core if sum(g.adj[v] >> u & 1 for u in core) <= 1}
        if not low:
            return core
        core -= low


def search_min_ifvs(g: Graph, undeletable: int = 0) -> int | None:
    """Least size of an IFVS of ``g`` that avoids ``undeletable``, or None.

    Runs the extension's exact search alone on the 2-core of ``g``, with
    every core vertex outside ``undeletable`` deletable, at budgets 0, 1,
    2, ... until one finds an extension.  No candidate scan, queue or
    compression step takes part, so this is an oracle for graphs past the
    brute-force limit.
    """
    core = _strip(g.adj, g.vertex_mask, g.vertex_mask)
    allowed = core & ~undeletable
    for budget in range(allowed.bit_count() + 1):
        ext, _ = _fallback_search(g.adj, core, allowed, budget)
        if ext is not None:
            assert ext.bit_count() == budget and not ext & undeletable
            assert g.is_ifvs(ext)
            return budget
    return None


@st.composite
def graphs(draw, max_n: int = 12, max_m: int = 24) -> Graph:
    """Hypothesis strategy: a simple graph on at most ``max_n`` vertices."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_m)) if pairs else []
    return Graph(n, chosen)


# smallest instances on which two kept regions close a cycle through one
# pair of components of the fvs's undeleted part, which a dynamic program
# over the forest keyed by component subsets cannot see; they stay as
# oracle fixtures for the exact search
def gate_cross_tree() -> tuple[Graph, int]:
    # C_4 with the FVS on opposite corners: both one-vertex trees link
    # both components
    from ifvs import mask_of

    return cycle(4), mask_of([1, 3])


def gate_forced_fallback() -> tuple[Graph, int]:
    # hub 2 has a doubled link into component {0,5}, so it cannot be
    # kept; deleting it merges two kept regions that both touch {0,5}
    # and {1}
    from ifvs import mask_of

    g = Graph(6, [(0, 5), (2, 0), (2, 5), (2, 3), (2, 4), (3, 0), (3, 1), (4, 0), (4, 1)])
    return g, mask_of([0, 1, 5])


def gate_fallback_wins() -> tuple[Graph, int]:
    # choosing 2 keeps its forest neighbours 0, 3 and 6; the one-vertex
    # trees 5 and 6 both link components {1} and {4}, so keeping both
    # closes 1-5-4-6, and only deleting 5 reaches the optimum 2, which no
    # other candidate attains
    from ifvs import mask_of

    g = Graph(
        7,
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6), (4, 5), (4, 6)],
    )
    return g, mask_of([1, 2, 4])


def gate_fallback_tie() -> tuple[Graph, int]:
    # only the choices {0} and {5} admit an extension, and both need 3
    # forest deletions, so the two searches reach the optimum 4 at the
    # same key
    from ifvs import mask_of

    g = Graph(
        9,
        [(0, 5), (0, 6), (0, 7), (0, 8), (1, 3), (1, 6), (2, 3), (2, 5),
         (2, 7), (3, 4), (3, 7), (3, 8), (4, 6), (4, 7), (5, 6), (6, 7)],
    )
    return g, mask_of([0, 3, 5, 6])


def gate_single_tree() -> tuple[Graph, int]:
    # hub 2 with children 3, 4, each linked to both components {0}, {1}
    from ifvs import mask_of

    g = Graph(5, [(2, 3), (2, 4), (3, 0), (3, 1), (4, 0), (4, 1)])
    return g, mask_of([0, 1])
