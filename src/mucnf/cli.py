"""Command-line front end: generate, solve, check-mu, experiment, trend.

Exit codes: 0 success, 2 usage error, 3 DIMACS parse error, 4 timeout,
5 solver-integrity error, 1 other failure. Every run prints its resolved
configuration (including defaulted seeds and the backend it uses) to
stderr before any output, so any output is reproducible from its own log.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from typing import Optional, Sequence

from . import __version__
from .cnf import DimacsParseError, read_dimacs, write_dimacs
from .experiment import format_table, trend_study, write_csv
from .generator import GeneratorParams, generate, regenerate
from .mu import NotUnsatError, analyze_cells, analyze_mu
from .solver import (
    ExternalSolverError,
    SolveTimeoutError,
    SolverIntegrityError,
    make_backend,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_TIMEOUT = 4
EXIT_INTEGRITY = 5


def _add_backend_flags(p: argparse.ArgumentParser, default="dpll", help=None) -> None:
    p.add_argument("--backend", choices=("dpll", "brute", "external"),
                   default=default, help=help)
    p.add_argument("--solver", metavar="CMD", default=None,
                   help="external solver command (implies --backend external)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-solve deadline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mucnf",
        description="Generate and analyze minimally unsatisfiable k-CNFs.",
    )
    parser.add_argument("--version", action="version", version=f"mucnf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a generated instance as DIMACS")
    p.add_argument("-k", type=int, required=True, help="clause width (>= 2)")
    p.add_argument("-g", type=int, required=True, help="group count (>= 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit permutation seed (default: drawn and printed)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("solve", help="decide satisfiability of a DIMACS file")
    p.add_argument("file", help="DIMACS CNF file, or - for stdin")
    _add_backend_flags(p)

    p = sub.add_parser("check-mu", help="minimal-unsatisfiability report for a DIMACS file")
    p.add_argument("file", help="DIMACS CNF file, or - for stdin")
    p.add_argument("--early-exit", action="store_true",
                   help="stop at the first unsat deletion (MU flag only)")
    _add_backend_flags(p, default=None,
                       help="default: cells if the file's params: comment "
                            "regenerates it exactly, else dpll")

    # experiment is a trend with one g: same flags, same run
    for command, g_type, g_help, summary in (
        ("experiment", int, "group count", "batch MU statistics for one (k, g)"),
        ("trend", str, "comma-separated ascending g values",
         "experiment over ascending g values"),
    ):
        p = sub.add_parser(command, help=summary)
        p.add_argument("-k", type=int, required=True)
        p.add_argument("-g", type=g_type, required=True, help=g_help)
        p.add_argument("-n", "--count", type=int, default=500)
        p.add_argument("--base-seed", type=int, default=None,
                       help="seed for formula 0; formula i uses base-seed + i")
        p.add_argument("--csv", default=None, help="write per-formula and summary CSV here")
        p.add_argument("--timing", action="store_true",
                       help="include solve_millis in the CSV (breaks byte-determinism)")
        p.add_argument("--parallelism", type=int, default=1)
        # batches are generated instances, always analysed by cells; the
        # config line logs it
        p.set_defaults(backend="cells")

    return parser


def _resolve_seed(value: Optional[int], flag: str) -> int:
    if value is not None:
        return value
    seed = secrets.randbits(64)
    print(f"note: {flag} not given; drew {seed}", file=sys.stderr)
    return seed


def _log_config(args: argparse.Namespace) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "command")
    print(f"config: command={args.command} {pairs}", file=sys.stderr)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _resolve_backend(args: argparse.Namespace, default: str = "dpll") -> None:
    """Set args.backend to the backend the run uses, so the log names it."""
    if args.solver:
        args.backend = "external"
    elif args.backend is None:
        args.backend = default


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "generate":
            args.seed = _resolve_seed(args.seed, "--seed")
            _log_config(args)
            formula = generate(GeneratorParams(args.k, args.g, args.seed))
            text = write_dimacs(formula)
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK

        if args.command == "solve":
            _resolve_backend(args)
            _log_config(args)
            formula = read_dimacs(_read_input(args.file))
            solve = make_backend(args.backend, solver_command=args.solver,
                                 timeout=args.timeout)
            result = solve(formula)
            if result.is_sat:
                print("SAT")
                lits = [v if result.model[v] else -v
                        for v in range(1, formula.num_variables + 1)]
                print("v " + " ".join(map(str, lits)) + " 0")
            else:
                print("UNSAT")
            return EXIT_OK

        if args.command == "check-mu":
            formula = read_dimacs(_read_input(args.file))
            instance = None
            if args.backend is None and not args.solver:
                instance = regenerate(formula)
            _resolve_backend(args, "dpll" if instance is None else "cells")
            _log_config(args)
            if instance is not None:
                report = analyze_cells(instance, early_exit=args.early_exit,
                                       keep_witnesses=False)
            else:
                solve = make_backend(args.backend, solver_command=args.solver,
                                     timeout=args.timeout)
                try:
                    report = analyze_mu(formula, solve, early_exit=args.early_exit,
                                        keep_witnesses=False)
                except NotUnsatError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
            m = report.clause_count
            lo, hi = report.sat_number_range
            sat_no = str(lo) if lo == hi else f"[{lo}, {hi}]"
            verdict = {True: "yes", False: "no", None: "unknown"}[report.is_mu]
            print(f"MU: {verdict}, satisfiability number {sat_no}/{m}")
            print(f"deletions: {report.deletion_bitmap()}")
            return EXIT_OK

        if args.command in ("experiment", "trend"):
            args.base_seed = _resolve_seed(args.base_seed, "--base-seed")
            _log_config(args)
            if args.command == "experiment":
                g_values = [args.g]
            else:
                g_values = [int(tok) for tok in args.g.split(",") if tok]
            rows = trend_study(args.k, g_values, args.count, args.base_seed,
                               parallelism=args.parallelism)
            print(format_table(rows))
            if args.csv:
                with open(args.csv, "w", newline="") as fh:
                    write_csv(rows, fh, timing=args.timing)
            return EXIT_OK

        parser.error(f"unknown command {args.command!r}")
    except DimacsParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SolveTimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except SolverIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExternalSolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
