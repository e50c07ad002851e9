"""Brute-force reference solvers for differential testing.

These enumerate vertex subsets in ascending size and keep the first
(lexicographically smallest) witness, so results are deterministic.
They are intentionally simple; a hard guard caps the instance size.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph, mask_of

ORACLE_MAX_N = 20


class TooLargeError(ValueError):
    """Instance exceeds the brute-force guard."""


def _check_size(g: Graph) -> None:
    if g.n > ORACLE_MAX_N:
        raise TooLargeError(f"oracle limited to n <= {ORACLE_MAX_N}, got n={g.n}")


def brute_min_ifvs(g: Graph) -> tuple[int, tuple[int, ...]] | None:
    """Exact minimum independent feedback vertex set, or None if none exists."""
    _check_size(g)
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if g.is_ifvs(mask_of(combo)):
                return size, combo
    return None


def brute_min_fvs(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact minimum feedback vertex set (always exists)."""
    _check_size(g)
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if g.is_fvs(mask_of(combo)):
                return size, combo
    raise AssertionError("unreachable: the full vertex set is always an FVS")
