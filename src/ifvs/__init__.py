"""Exact solvers for the independent feedback vertex set problem.

The package decides, for a graph ``G`` and budget ``k``, whether some
vertex set of size at most ``k`` is simultaneously independent and a
feedback vertex set, and produces a certificate when one exists.  Plain
feedback vertex set instances are handled through the edge-subdivision
reduction.  Brute-force oracles back the differential test suite.

Result and helper types (``SolveOutcome``, ``StepRecord``,
``ExtensionOutcome``, ...) are importable from their modules.  The records among them are named tuples
(``_fields``, ``_asdict()``), and the counters ``SolveStats`` and
``ExtensionStats`` are slotted classes.
"""

from .compression import solve_ifvs
from .extension import NotAnFvsError, min_ifvs_given_fvs
from .generator import generate
from .graph import Graph, GraphError, bits, mask_of
from .io import ParseError, format_edgelist, load_graph, parse_dimacs, parse_edgelist
from .oracle import TooLargeError, brute_min_fvs, brute_min_ifvs
from .reduction import solve_fvs, subdivide

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "NotAnFvsError",
    "ParseError",
    "TooLargeError",
    "bits",
    "brute_min_fvs",
    "brute_min_ifvs",
    "format_edgelist",
    "generate",
    "load_graph",
    "mask_of",
    "min_ifvs_given_fvs",
    "parse_dimacs",
    "parse_edgelist",
    "solve_fvs",
    "solve_ifvs",
    "subdivide",
]
