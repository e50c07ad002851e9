"""Workload instance sets, built from the workload seed.

A workload is a list of tasks that the closed loop sends in order.  Every
graph appears twice in a row: first at the large budget, which runs the
whole compression chain, then at the small budget, which exits early.
Graphs are handed to the solver as edge-list text only, so the program
sees them through ``ifvs.io.load_graph`` like any other input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
OPTIMA_FILE = Path(__file__).with_name("optima.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str  # "random" (ifvs.generate) or "planted" (criterion 7)
    problem: str  # "ifvs" or "fvs"
    n: int
    m: int
    graphs: int  # distinct graphs per seed; the loop cycles through them
    large_k: int
    small_k: int
    trace_graphs: int  # graphs in one pass of the traced run


# Solve times of random graphs are heavy-tailed, so the seed-to-seed
# spread of a run's medians falls with the number of distinct graphs it
# decides.  These sizes let a 60 s run decide a few hundred graphs on a
# 2-core box; graph counts leave room for a faster machine.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-long",
            why="3 triangles plus an 87-vertex path, k=3 yes and k=2 no: per-step "
            "rebuild, rooting and DP dominate, no fallback; ROADMAP 2c-e and 4 act "
            "here, 3 must not",
            family="planted",
            problem="ifvs",
            n=96,
            m=95,
            graphs=192,
            large_k=3,
            small_k=2,
            trace_graphs=8,
        ),
        Workload(
            name="fvs-subdivided",
            why="solve_fvs on G(20,27) at k=n and k=2: subdivision gives bipartite "
            "graphs on n+m vertices, the DP and the exact fallback carry the time; "
            "ROADMAP 2a-b (step skip, pruning) and 3 act here",
            family="random",
            problem="fvs",
            n=20,
            m=27,
            graphs=1500,
            large_k=20,
            small_k=2,
            trace_graphs=16,
        ),
    )
}

PLANTED_TRIANGLES = 3


@dataclass(frozen=True)
class Task:
    graph: int  # index of the graph in the instance set
    n: int
    edges: tuple[tuple[int, int], ...]
    text: str  # edge-list input for ifvs.io.load_graph
    k: int
    large: bool  # the large-budget solve of this graph


def graph_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def random_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """The edges ``ifvs.generate(n, m, seed)`` draws, in the same way."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(random.Random(seed).sample(pairs, m))


def planted_edges(n: int, triangles: int, seed: int) -> list[tuple[int, int]]:
    """Disjoint triangles plus one path over the rest, labels shuffled.

    The optimum is ``triangles``: one vertex per triangle, and the
    triangles share no vertex or edge.
    """
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    edges = []
    for t in range(triangles):
        a, b, c = labels[3 * t : 3 * t + 3]
        edges += [(a, b), (b, c), (c, a)]
    rest = labels[3 * triangles :]
    edges += [(rest[i], rest[i + 1]) for i in range(len(rest) - 1)]
    return sorted((min(e), max(e)) for e in edges)


def edgelist_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def build_tasks(w: Workload, seed: int) -> list[Task]:
    tasks = []
    for i in range(w.graphs):
        if w.family == "random":
            edges = random_edges(w.n, w.m, graph_seed(seed, i))
        else:
            edges = planted_edges(w.n, PLANTED_TRIANGLES, graph_seed(seed, i))
        assert len(edges) == w.m
        text = edgelist_text(w.n, edges)
        for k, large in ((w.large_k, True), (w.small_k, False)):
            tasks.append(Task(i, w.n, tuple(edges), text, k, large))
    return tasks


def known_optima(w: Workload, seed: int) -> list[int | None] | None:
    """Optimum per graph where it is known without solving, else None.

    Planted graphs have their optimum by construction.  For the default
    seed the random families use optima recorded by ``record_optima.py``
    (``None`` marks a graph with no independent feedback vertex set).
    """
    if w.family == "planted":
        return [PLANTED_TRIANGLES] * w.graphs
    if seed != DEFAULT_SEED:
        return None
    entry = json.loads(OPTIMA_FILE.read_text())[w.name]
    shape = {"seed": seed, "problem": w.problem, "n": w.n, "m": w.m}
    if {key: entry[key] for key in shape} != shape or len(entry["optima"]) < w.graphs:
        raise ValueError(f"{OPTIMA_FILE.name} does not match workload {w.name}")
    return entry["optima"][: w.graphs]
