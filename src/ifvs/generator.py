"""Reproducible random graph generation for tests and benchmarks."""

from __future__ import annotations

import math
import random

from .graph import Graph
from .io import MAX_EDGES, MAX_VERTICES


def check_shape(n: int, m: int) -> None:
    """Raise ``ValueError`` unless :func:`generate` can draw ``m`` edges on ``n`` vertices.

    ``n`` and ``m`` must also stay within the input caps of :mod:`ifvs.io`,
    so that every generated graph can be read back.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be in [1, {MAX_VERTICES}]")
    limit = min(n * (n - 1) // 2, MAX_EDGES)
    if not 0 <= m <= limit:
        raise ValueError(f"m must be in [0, {limit}] for n={n}")


def _pair(n: int, i: int) -> tuple[int, int]:
    """The ``i``-th pair ``(u, v)``, ``u < v < n``, in lexicographic order.

    Counted from the last pair, row ``u = n - 2 - r`` holds the ``r + 1``
    pairs after the first ``r * (r + 1) / 2``.
    """
    j = n * (n - 1) // 2 - 1 - i
    r = (math.isqrt(8 * j + 1) - 1) // 2
    return n - 2 - r, n - 1 - (j - r * (r + 1) // 2)


def generate(n: int, m: int, seed: int = 0) -> Graph:
    """Uniform random simple graph with exactly ``m`` edges.

    The edge set is drawn by ``random.Random(seed).sample`` from the
    lexicographically ordered vertex pairs (Mersenne Twister), so a given
    ``(n, m, seed)`` triple always produces the same graph.  The sample
    is taken from the pairs' indices and only the ``m`` drawn ones are
    decoded, so memory grows with ``m``, not with ``n * n``.
    """
    check_shape(n, m)
    chosen = random.Random(seed).sample(range(n * (n - 1) // 2), m)
    return Graph(n, [_pair(n, i) for i in chosen])
