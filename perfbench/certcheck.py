"""The benchmark's own answer checks, independent of the solver's code.

Certificates are checked against the edge list the benchmark generated,
with a union-find acyclicity test and, for the independent variant, an
adjacency test.  Decisions are checked against a reference optimum: a
known one (by construction or recorded), or else the optimum the same
run found for the same graph at the large budget.
"""

from __future__ import annotations

from workloads import Task

_UNSEEN = object()


def acyclic_without(n: int, edges, removed: set[int]) -> bool:
    """True iff deleting ``removed`` leaves the graph without a cycle."""
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if u in removed or v in removed:
            continue
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def certificate_error(problem: str, task: Task, certificate) -> str | None:
    """Why ``certificate`` is no solution of size <= k, or None if it is one."""
    if certificate is None:
        return "yes without a certificate"
    cert = list(certificate)
    chosen = set(cert)
    if len(chosen) != len(cert):
        return "certificate repeats a vertex"
    if any(not isinstance(v, int) or not 0 <= v < task.n for v in cert):
        return "certificate vertex out of range"
    if len(cert) > task.k:
        return f"certificate of size {len(cert)} exceeds k={task.k}"
    if problem == "ifvs" and any(u in chosen and v in chosen for u, v in task.edges):
        return "certificate is not independent"
    if not acyclic_without(task.n, task.edges, chosen):
        return "certificate leaves a cycle"
    return None


class Judge:
    """Checks each answer of one run; remembers large-budget optima."""

    def __init__(self, problem: str, known: list[int | None] | None):
        self.problem = problem
        self.known = known
        self.found: dict[int, int | None] = {}

    def __call__(self, task: Task, decision: str, certificate) -> str | None:
        """Why the answer is wrong, or None if it is right."""
        allowed = ("yes", "no", "absent") if self.problem == "ifvs" else ("yes", "no")
        if decision not in allowed:
            return f"unexpected decision {decision!r}"
        size = None
        if decision == "yes":
            err = certificate_error(self.problem, task, certificate)
            if err:
                return err
            size = len(certificate)
        if self.known is not None:
            ref = self.known[task.graph]
        else:
            ref = self.found.get(task.graph, _UNSEEN)
        if task.large:
            if self.known is None:
                # k >= n fits every solution, so "no" is always wrong
                if decision == "no":
                    return f"no at k={task.k}, which fits any solution"
                if ref is not _UNSEEN and ref != size:
                    return f"optimum {size} differs from {ref} found before"
                self.found[task.graph] = size
                return None
        if ref is _UNSEEN:
            return None  # no reference yet; the certificate check is all
        return _against_optimum(ref, task.k, decision, size, exact=task.large)


def _against_optimum(
    ref: int | None, k: int, decision: str, size: int | None, exact: bool
) -> str | None:
    """Check one answer against the optimum ``ref``.

    With ``exact`` the certificate must be optimal, as the large-budget
    solve returns the optimum of the whole graph.
    """
    if ref is None:
        if decision == "yes":
            return "yes where no solution exists"
        return None  # "no" and "absent" both hold when nothing exists
    if size is not None and size < ref:
        return f"certificate of size {size} beats the optimum {ref}"
    if exact and size is not None and size != ref:
        return f"certificate of size {size} at k={k}, optimum {ref}"
    if ref <= k and decision != "yes":
        return f"{decision} at k={k} with optimum {ref}"
    if ref > k and decision != "no":
        return f"{decision} at k={k} with optimum {ref}"
    return None
