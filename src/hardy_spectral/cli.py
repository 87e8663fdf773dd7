"""Command-line front end.

Subcommands: `analyze` prints the spectral and content quantities of a
graph file, `verify` runs the inequality suites and emits a report,
`gen` writes seeded random instances, and `resistance` prints one
effective resistance. Exit codes: 0 success, 1 failed verification check,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import errors
from ._version import __version__
from .graph import VertexSet, WeightedGraph, check_weight_ranges, path_graph, random_graph
from .report import emit_report
from .resistance import effective_resistance
from .rng import Xorshift64Star
from .suite import (ALL_SUITES, BOUNDARY_SUITES, DEFAULT_SAMPLES, DEFAULT_TOLERANCE,
                    Quantities, blank_report, run_suite)
from .wgr import parse_wgr, serialize_wgr


def _load(path: str, names: Optional[str] = None) -> tuple[WeightedGraph, Optional[VertexSet]]:
    """A .wgr file's graph, and the boundary `names` lists, else the file's.
    The path is opened exactly as given: the OS decides what it names."""
    try:
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.BadRequest(f"cannot read {path}: {exc}") from None
    graph, boundary = parse_wgr(text)
    return graph, (_ids_for(graph, names) if names is not None else boundary)


def _ids_for(graph: WeightedGraph, names_csv: str) -> VertexSet:
    by_name = {graph.label(v): v for v in range(graph.vertex_count)}
    ids = []
    for name in names_csv.split(","):
        name = name.strip()
        if name not in by_name:
            raise errors.BadRequest(f"unknown vertex name {name!r}")
        ids.append(by_name[name])
    return VertexSet.of(ids)


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise errors.BadRequest(f"expected lo,hi range, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise errors.BadRequest(f"bad range {text!r}") from None


def _cmd_analyze(args) -> int:
    graph, boundary = _load(args.file, args.boundary)

    report = blank_report(graph, None, DEFAULT_TOLERANCE)
    quantities = Quantities(graph, boundary, report, (("dirichlet",), 0, 0))
    names = ["lambda2", "psi2", "phi"]
    if boundary is not None:
        names += ["lambda_dirichlet", "psi_dirichlet"]
    notes = []
    for name in names:
        try:
            quantities.record(name)
        except errors.HardySpectralError as exc:
            notes.append(f"{name} unavailable: {exc}")

    if args.format is None:
        for name, value in report.quantities.items():
            print(f"{name} = {value!r}")
        for name, ids in report.witnesses.items():
            print(f"{name} = {ids}")
    else:
        sys.stdout.write(emit_report(report, args.format, include_timing=args.timing))
    for note in notes:
        print(note, file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    graph, boundary = _load(args.file, args.boundary)
    suites = list(ALL_SUITES) if args.suite in (None, "all") \
        else [s.strip() for s in args.suite.split(",")]
    if boundary is None and any(s in suites for s in BOUNDARY_SUITES):
        boundary = VertexSet.of([0])

    report = run_suite(graph, boundary=boundary, suites=suites,
                       tolerance=args.tolerance, seed=args.seed,
                       samples=args.samples)
    sys.stdout.write(emit_report(report, args.format or "json", include_timing=args.timing))
    return 0 if report.all_hold else 1


def _cmd_gen(args) -> int:
    mass_range = _parse_range(args.mass_range)
    kappa_range = _parse_range(args.kappa_range)
    if args.kind == "path":
        if args.p is not None:
            raise errors.BadRequest("--p is for random graphs only; a path has no extra edges")
        if args.n < 2:
            raise errors.BadRequest("a path needs at least 2 vertices")
        check_weight_ranges(mass_range, kappa_range)
        rng = Xorshift64Star(args.seed)
        masses = [rng.uniform_in(*mass_range) for _ in range(args.n)]
        kappas = [rng.uniform_in(*kappa_range) for _ in range(args.n - 1)]
        graph, boundary = path_graph(masses, kappas), VertexSet.of([0])
    else:
        p = 0.5 if args.p is None else args.p
        graph, boundary = random_graph(args.n, p, mass_range, kappa_range, args.seed), None
    text = serialize_wgr(graph, boundary)
    try:
        with open(args.output, "w", encoding="utf-8") as file:
            file.write(text)
    except OSError as exc:
        raise errors.BadRequest(f"cannot write {args.output}: {exc}") from None
    return 0


def _cmd_resistance(args) -> int:
    graph, _ = _load(args.file)
    a = _ids_for(graph, args.a)
    b = _ids_for(graph, args.b)
    print(repr(effective_resistance(graph, a, b)))
    return 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each subcommand's own parser by name, built
    once per process: parsing leaves them as they were, and every call
    gets its own namespace."""
    parser = argparse.ArgumentParser(
        prog="hardy-spectral",
        description="Eigenvalue bounds and verification suites for weighted graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format_flags(p, *formats):
        group = p.add_mutually_exclusive_group()
        for fmt in formats:
            group.add_argument(f"--{fmt}", action="store_const", const=fmt, dest="format",
                               help=f"emit {fmt.upper()}")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timings (breaks byte-for-byte "
                            "reproducibility)")

    p = sub.add_parser("analyze", help="print spectral and content quantities")
    p.add_argument("file")
    p.add_argument("--boundary", help="comma-separated vertex names")
    add_format_flags(p, "json")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("file")
    p.add_argument("--suite", help="comma-separated suite names or 'all'")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="random draws per randomized suite")
    p.add_argument("--boundary", help="comma-separated vertex names")
    add_format_flags(p, "json", "csv")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="write a seeded random instance")
    p.add_argument("kind", choices=["path", "random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float,
                   help="extra-edge probability (random graphs only; default 0.5)")
    p.add_argument("--mass-range", default="0.1,10")
    p.add_argument("--kappa-range", default="0.1,10")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("resistance", help="effective resistance between vertex sets")
    p.add_argument("file")
    p.add_argument("--a", required=True, help="comma-separated vertex names")
    p.add_argument("--b", required=True, help="comma-separated vertex names")
    p.set_defaults(fn=_cmd_resistance)
    return parser, sub.choices


def main(argv: Optional[list[str]] = None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # The top-level pass would only re-scan every argument to hand the
        # tail to this same parser. Leftovers go to the top-level error, as
        # that pass reports them: with its usage line, not the subcommand's.
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.fn(args)
    except errors.HardySpectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
