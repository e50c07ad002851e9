"""Span recording from outside the solver.

The traced run rebinds module attributes of the ``ifvs`` package to
wrappers that open a span around each call.  Nothing in the solver's
sources changes, and a target that has been renamed or deleted is
reported as missing instead of stopping the run.

Spans live in memory as columns (name, start, end, parent, solve id) and
are written to one file when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute path, span name, keep the return value)
TARGETS = (
    ("ifvs.io", "load_graph", "io.load_graph", False),
    ("ifvs.compression", "_prefix_graph", "compression.prefix_graph", False),
    ("ifvs.compression", "min_ifvs_given_fvs", "extension.min_ifvs_given_fvs", True),
    ("ifvs.extension", "root_forest", "binarize.root_forest", False),
    ("ifvs.extension", "binarize", "binarize.binarize", True),
    ("ifvs.extension", "_compute_tables", "extension.compute_tables", False),
    ("ifvs.extension", "DpTables._trace", "extension.trace", False),
    ("ifvs.graph", "Graph.is_ifvs", "graph.is_ifvs", False),
    ("ifvs.extension", "_fallback_search", "extension.fallback_search", False),
    ("ifvs.extension", "_find_cycle", "extension.find_cycle", False),
    ("ifvs.reduction", "subdivide", "reduction.subdivide", True),
)

# spans the benchmark opens around its own calls into the program
TASK = "task"
SOLVE = "compression.solve"


class SpanLog:
    """In-memory spans; ``begin`` and ``end`` must nest (one thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.solve = array("q")
        self.solve_id = -1
        self.results: list[tuple[str, object]] = []  # kept return values
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """One JSON header line, then the five columns as raw arrays."""
        columns = {c: getattr(self, c) for c in ("name", "start", "end", "parent", "solve")}
        header = {
            "names": self.names,
            "count": len(self),
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in columns.values():
                a.tofile(fh)

    @classmethod
    def read(cls, path: Path) -> "SpanLog":
        log = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            log.names = header["names"]
            for c, typecode, _ in header["columns"]:
                getattr(log, c).fromfile(fh, header["count"])
        return log


def _wrap(log: SpanLog, fn, span: str, keep: bool):
    nid = log.name_id(span)
    begin, finish, results = log.begin, log.finish, log.results

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(i)
        if keep:
            results.append((span, out))
        return out

    return traced


class Tracer:
    """Installs span wrappers on the targets and restores the originals."""

    def __init__(self, log: SpanLog, targets=TARGETS):
        self.log = log
        self.targets = targets
        self.missing: list[str] = []  # "module.attribute" of absent targets
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for module, path, span, keep in self.targets:
            owner, attr = _resolve(module, path)
            if owner is None:
                self.missing.append(f"{module}.{path}")
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.log, original, span, keep))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for a callable target, ``(None, None)`` if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    if isinstance(owner, type):
        found = attr in owner.__dict__
    else:
        found = hasattr(owner, attr)
    if not found or not callable(getattr(owner, attr)):
        return None, None
    return owner, attr
