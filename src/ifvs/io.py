"""Read and write graphs as edge-list or DIMACS text.

Edge-list format: first line ``n m``, then ``m`` lines ``u v`` with
0-based ids.  DIMACS format: ``c`` comment lines, one ``p edge n m``
line, then ``m`` lines ``e u v`` with 1-based ids.  Every count and id
is a run of ASCII digits.  :func:`load_graph` detects the format from
the text; a caller who knows it calls :func:`parse_edgelist` or
:func:`parse_dimacs`.

Each edge line is checked once, as it is read: its ids are digits and
in range, and it is no self-loop and no repeat of an earlier pair.  A
fault raises :class:`ParseError` naming that line.  Once every line
has passed, the graph is built unchecked from the checked pairs.
"""

from __future__ import annotations

from .graph import Graph

# Header counts are checked before anything is allocated from them.
# Adjacency rows are bitmasks, so n vertices may hold up to n * n / 8
# bytes of them: 128 MiB at this cap.  The solver is exponential in the
# solution size, so graphs near either cap are already far out of reach.
MAX_VERTICES = 1 << 15
MAX_EDGES = 1 << 20


class ParseError(ValueError):
    """Input text rejected; carries the offending line number and content."""

    def __init__(self, message: str, line_no: int | None = None, line: str = ""):
        self.line_no = line_no
        self.line = line
        if line_no is not None:
            message = f"line {line_no}: {message}: {line.strip()!r}"
        super().__init__(message)


def _number(field: str) -> int:
    """``field`` as a count or vertex id, which must be ASCII digits.

    ``int`` alone also takes a sign, underscores and non-ASCII digits,
    such as the Arabic-Indic ones; those raise ``ValueError`` here, as
    ``int`` does for any other text.  ``int`` also refuses more digits
    than ``sys.get_int_max_str_digits()``, so a field with more than 18
    significant digits, past every limit, reads as ``10**18``.
    """
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"not ASCII digits: {field!r}")
    digits = field.lstrip("0") or "0"
    return int(digits) if len(digits) <= 18 else 10**18


def _counts(fields: list[str], what: str, line_no: int, line: str) -> tuple[int, int]:
    """The vertex and edge counts of a ``what`` line, each within its limit."""
    try:
        n, m = _number(fields[0]), _number(fields[1])
    except ValueError:
        raise ParseError(f"{what} count is not ASCII digits", line_no, line) from None
    if n > MAX_VERTICES:
        raise ParseError(f"{fields[0]} vertices exceed the limit of {MAX_VERTICES}", line_no, line)
    if m > MAX_EDGES:
        raise ParseError(f"{fields[1]} edges exceed the limit of {MAX_EDGES}", line_no, line)
    return n, m


def _edge(
    fields: list[str], base: int, n: int, seen: set[tuple[int, int]], line_no: int, line: str
) -> None:
    """Check the endpoint fields of one edge line, with ids counted from ``base``.

    Records the edge in ``seen`` as a 0-based ``(min, max)`` pair; a
    repeated pair in either orientation is rejected at its own line.
    """
    try:
        u, v = _number(fields[0]) - base, _number(fields[1]) - base
    except ValueError:
        raise ParseError("edge endpoint is not ASCII digits", line_no, line) from None
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"endpoint out of range [{base}, {n + base})", line_no, line)
    if u == v:
        raise ParseError("self-loop", line_no, line)
    key = (u, v) if u < v else (v, u)
    if key in seen:
        raise ParseError("duplicate edge", line_no, line)
    seen.add(key)


def _graph(n: int, seen: set[tuple[int, int]], declared_m: int, lines: list[str]) -> Graph:
    """The graph on ``n`` vertices whose edges are the pairs ``seen``.

    Raises :class:`ParseError` at the last line unless there are
    ``declared_m`` pairs.  Every pair already passed :func:`_edge`, so
    the graph is built unchecked, its edges sorted as the checking
    constructor sorts them.
    """
    if len(seen) != declared_m:
        raise ParseError(
            f"declared {declared_m} edges but found {len(seen)}",
            len(lines),
            lines[-1] if lines else "",
        )
    adj = [0] * n
    for u, v in seen:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph.trusted(tuple(adj), tuple(sorted(seen)))


def detect_format(text: str) -> str:
    """Guess the format from the first line not blank or a ``#`` comment."""
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        token = line.split()[0]
        if token in ("c", "p", "e"):
            return "dimacs"
        if token.lstrip("-").isdigit():
            return "edgelist"
        raise ParseError(f"unrecognized leading token {token!r}", idx, raw)
    raise ParseError("empty input")


def parse_edgelist(text: str) -> Graph:
    lines = text.splitlines()
    header = None
    seen: set[tuple[int, int]] = set()
    declared_m = 0
    for idx, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if header is None:
            if len(parts) != 2:
                raise ParseError("expected header 'n m'", idx, raw)
            header = _counts(parts, "header", idx, raw)
            declared_m = header[1]
            continue
        if len(seen) == declared_m:
            raise ParseError(f"more than the declared {declared_m} edges", idx, raw)
        if len(parts) != 2:
            raise ParseError("expected edge 'u v'", idx, raw)
        _edge(parts, 0, header[0], seen, idx, raw)
    if header is None:
        raise ParseError("empty input")
    return _graph(header[0], seen, declared_m, lines)


def parse_dimacs(text: str) -> Graph:
    lines = text.splitlines()
    n = None
    declared_m = 0
    seen: set[tuple[int, int]] = set()
    for idx, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", idx, raw)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError("expected 'p edge n m'", idx, raw)
            n, declared_m = _counts(parts[2:], "problem line", idx, raw)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", idx, raw)
            if len(seen) == declared_m:
                raise ParseError(f"more than the declared {declared_m} edges", idx, raw)
            if len(parts) != 3:
                raise ParseError("expected 'e u v'", idx, raw)
            _edge(parts[1:], 1, n, seen, idx, raw)
        else:
            raise ParseError(f"unrecognized line type {parts[0]!r}", idx, raw)
    if n is None:
        raise ParseError("missing problem line")
    return _graph(n, seen, declared_m, lines)


def load_graph(text: str) -> Graph:
    """Parse ``text`` in the format :func:`detect_format` finds."""
    return parse_edgelist(text) if detect_format(text) == "edgelist" else parse_dimacs(text)


def format_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
