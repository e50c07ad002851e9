"""Command-line front end.

Subcommands: ``ifvs`` / ``fvs`` (decision solves), ``oracle``
(brute-force reference answers for fixtures), ``gen`` (reproducible
random instances) and ``bench`` (CSV timing/counter tables).

Exit codes: 0 for yes (or plain success), 1 for a no/absent decision,
2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .bench import DECISION_LABELS
from .compression import COUNTERS, SolveOutcome, solve_ifvs
from .generator import generate
from .graph import Graph
from .io import ParseError, format_edgelist, load_graph
from .oracle import TooLargeError, brute_min_fvs, brute_min_ifvs
from .reduction import solve_fvs


def _read_text(path: str) -> str:
    # stdin decodes as its locale says: a POSIX locale escapes bad bytes,
    # which the parser then rejects, and a UTF-8 locale raises
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise UsageError(f"{name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_input(args: argparse.Namespace) -> Graph:
    return load_graph(_read_text(args.input))


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="solution size budget")
    p.add_argument("--input", default="-", help="instance path ('-' for stdin)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--trace", action="store_true", help="per-candidate trace on stderr")
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="omit wall-time from reports (stable output for diffing)",
    )
    p.add_argument("-v", "--verbose", action="store_true", help="per-step progress")


def _report(outcome: SolveOutcome, args: argparse.Namespace) -> int:
    decision = DECISION_LABELS[outcome.decision]
    stats = outcome.stats
    counters = {name: getattr(stats, name) for name in COUNTERS}
    if args.json:
        if not args.no_timing:
            counters["ms"] = round(stats.ms, 3)
        payload = {
            "decision": decision,
            "certificate": list(outcome.certificate)
            if outcome.certificate is not None
            else None,
            "stats": counters,
            "steps": [s._asdict() for s in stats.steps],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"decision: {decision}"]
        if outcome.certificate is not None:
            ids = " ".join(str(v) for v in outcome.certificate)
            lines.append(f"certificate ({len(outcome.certificate)}): {ids}")
        line = "  ".join(f"{name}: {value}" for name, value in counters.items())
        if not args.no_timing:
            line += f"  ms: {stats.ms:.3f}"
        lines.append(line)
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if outcome.decision == "yes" else 1


def _cmd_solve(args: argparse.Namespace, problem: str) -> int:
    if args.k < 0:
        raise UsageError("--k must be non-negative")
    g = _load_input(args)
    kwargs = dict(
        trace=sys.stderr if args.trace else None,
        progress=(lambda line: print(line, file=sys.stderr)) if args.verbose else None,
    )
    if problem == "ifvs":
        outcome = solve_ifvs(g, args.k, **kwargs)
    else:
        outcome = solve_fvs(g, args.k, **kwargs)
    return _report(outcome, args)


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_input(args)
    try:
        result = brute_min_ifvs(g) if args.problem == "ifvs" else brute_min_fvs(g)
    except TooLargeError as exc:
        raise UsageError(str(exc)) from exc
    if result is None:
        sys.stdout.write(json.dumps({"absent": True}) + "\n")
        return 1
    size, certificate = result
    sys.stdout.write(
        json.dumps({"size": size, "certificate": list(certificate)}) + "\n"
    )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        g = generate(args.n, args.m, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_text(args.output, format_edgelist(g))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        rows = bench_mod.parse_spec(_read_text(args.spec))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    records = bench_mod.run_bench(rows, seed=args.seed)
    _write_text(args.output, bench_mod.format_csv(records))
    return 0


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifvs",
        description="Exact independent feedback vertex set solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ifvs = sub.add_parser("ifvs", help="decide an independent-FVS instance")
    _add_solve_args(p_ifvs)

    p_fvs = sub.add_parser("fvs", help="decide a plain FVS instance (via subdivision)")
    _add_solve_args(p_fvs)

    p_oracle = sub.add_parser("oracle", help="brute-force reference answer (small n)")
    p_oracle.add_argument("--problem", choices=("ifvs", "fvs"), default="ifvs")
    p_oracle.add_argument("--input", default="-")

    p_gen = sub.add_parser("gen", help="generate a reproducible random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None)

    p_bench = sub.add_parser("bench", help="run a benchmark family, emit CSV")
    p_bench.add_argument("--spec", required=True, help="CSV of n,m,k,reps rows")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command in ("ifvs", "fvs"):
            return _cmd_solve(args, args.command)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ParseError, OSError) as exc:
        print(f"ifvs: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
