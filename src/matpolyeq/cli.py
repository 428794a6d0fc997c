"""Command line front end.

Exit codes are the only success/failure channel:
  0 success, 1 unreadable, unwritable or malformed document, 2 domain error,
  3 construction validation failure, 4 root finding non-convergence,
  5 verification failure, 6 internal inconsistency (a solver self-check
  failed on this input).
Each failure prints one line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import documents
from .construct import (DomainError, UnreachableCase, ValidationFailure,
                        construct)
from .mat2 import MAX_DEGREE
from .poly import NonConvergence
from .solver import InternalInconsistency, solution_bound, solve_equation
from .verify import count_cross_check, verify_solution_set

_BACKENDS = {"a": "aberth", "b": "companion",
             "aberth": "aberth", "companion": "companion"}

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_DOMAIN = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_VERIFICATION = 5
EXIT_INTERNAL = 6

# exception type -> exit code and the prefix of its one stderr line
_FAILURES = (
    (documents.DocumentError, EXIT_MALFORMED, "bad input"),
    (OSError, EXIT_MALFORMED, "i/o error"),
    (DomainError, EXIT_DOMAIN, "domain error"),
    (ValidationFailure, EXIT_VALIDATION, "validation failure ({name})"),
    (UnreachableCase, EXIT_VALIDATION, "validation failure ({name})"),
    (NonConvergence, EXIT_NONCONVERGENCE, "non-convergence"),
    (InternalInconsistency, EXIT_INTERNAL, "internal inconsistency"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matpolyeq",
        description="Solve and construct polynomial equations over 2x2 "
                    "complex matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct",
                       help="build an equation with exactly m solutions")
    p.add_argument("--n", type=int, required=True, help="equation degree")
    p.add_argument("--m", type=int, required=True,
                   help="solution count, 1 <= m <= C(2n,2)")
    p.add_argument("--out", required=True, help="equation document path")
    p.add_argument("--plan", help="also write the construction plan here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("solve", help="classify the solution set of an equation")
    p.add_argument("--in", dest="in_path", required=True,
                   help="equation document path")
    p.add_argument("--out", required=True, help="solution document path")
    p.add_argument("--backend", choices=sorted(_BACKENDS), default="a",
                   help="root backend: a/aberth (simultaneous iteration) or "
                        "b/companion (companion-matrix eigenvalues)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution document")
    p.add_argument("--equation", required=True)
    p.add_argument("--solutions", required=True)
    p.add_argument("--report", help="write the verification report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep",
                       help="construct, solve, and verify every (n, m) cell")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--report", required=True, help="table output path")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in _FAILURES
                            if isinstance(exc, kind))
        print(f"{prefix.format(name=type(exc).__name__)}: {exc}",
              file=sys.stderr)
        return code


def cmd_construct(args) -> int:
    result = construct(args.n, args.m)
    documents.save_doc(documents.equation_to_doc(result.equation), args.out)
    if args.plan:
        try:
            documents.save_doc(documents.plan_to_doc(result), args.plan)
        except OSError:  # a failed command leaves no document behind
            Path(args.out).unlink(missing_ok=True)
            raise
    print(args.out)
    if args.plan:
        print(args.plan)
    return EXIT_OK


def cmd_solve(args) -> int:
    eq = documents.equation_from_doc(documents.load_doc(args.in_path))
    sset = solve_equation(eq, backend=_BACKENDS[args.backend])
    documents.save_doc(documents.solution_set_to_doc(sset), args.out)
    print(args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    eq = documents.equation_from_doc(documents.load_doc(args.equation))
    sset = documents.solution_set_from_doc(documents.load_doc(args.solutions))
    cross = count_cross_check(eq)
    report = verify_solution_set(eq, sset, backend_agreement=cross.agree)
    if args.report:
        documents.save_doc(documents.report_to_doc(report), args.report)
        print(args.report)
    print(report.to_text(), file=sys.stderr)
    return EXIT_OK if report.verdict == "pass" else EXIT_VERIFICATION


def cmd_sweep(args) -> int:
    if args.n_max < 1:
        raise DomainError("--n-max must be >= 1")
    if args.n_max > MAX_DEGREE:  # every cell would fail in construct
        raise DomainError(f"--n-max is capped at {MAX_DEGREE}")
    if args.jobs < 1:
        raise DomainError("--jobs must be >= 1")
    cells = [(n, m) for n in range(1, args.n_max + 1)
             for m in range(1, solution_bound(n) + 1)]
    # the pool forks all its workers at the first submit
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    rows.sort(key=lambda r: (r["n"], r["m"]))

    lines = [f"{'n':>3} {'m':>4} {'p':>3} {'pbar':>4} {'count':>6} "
             f"{'max_residual':>13} {'ms':>7} {'status':>7} error"]
    for r in rows:
        lines.append(
            f"{r['n']:>3} {r['m']:>4} {r['p']:>3} {r['pbar']:>4} {r['count']:>6} "
            f"{r['max_residual']:>13.3e} {r['ms']:>7.1f} "
            f"{'FAIL' if r['error'] else 'pass':>7} {r['error'] or '-'}")
    failures = [(r["n"], r["m"]) for r in rows if r["error"]]
    lines.append(f"cells: {len(rows)}, failures: {len(failures)}")
    if failures:
        lines.append("failing cells: " + ", ".join(map(str, failures)))
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(args.report)
    if failures:
        print(f"{len(failures)} failing cells", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _sweep_cell(cell) -> dict:
    n, m = cell
    start = time.perf_counter()
    # "-" where a cell has no value; a failed cell names every failed
    # condition, or its crash, in one whitespace-free error token
    row = {"n": n, "m": m, "p": "-", "pbar": "-", "count": "-",
           "max_residual": 0.0, "ms": 0.0, "error": None}
    try:
        result = construct(n, m, validate=False)
        if result.plan is not None:
            row["p"], row["pbar"] = result.plan.p, result.plan.pbar
        cross = count_cross_check(result.equation)
        report = verify_solution_set(result.equation, cross.set_a,
                                     backend_agreement=cross.agree)
        row["count"] = cross.count_a if cross.count_a is not None else "inf"
        row["max_residual"] = report.max_residual
        failed = [f"count:{row['count']}!={m}"] if row["count"] != m else []
        if not cross.agree:
            failed.append("backends")
        checks = [k[:-3] for k, v in vars(report).items()
                  if k.endswith("_ok") and v is False]
        if checks:
            failed.append("verify:" + "+".join(checks))
        row["error"] = ",".join(failed) or None
    except Exception as exc:  # a failing cell must not kill the sweep
        row["error"] = type(exc).__name__
    row["ms"] = (time.perf_counter() - start) * 1e3
    return row


if __name__ == "__main__":
    sys.exit(main())
