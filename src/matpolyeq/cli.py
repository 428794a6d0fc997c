"""Command line front end.

Exit codes are the only success/failure channel:
  0 success, 1 malformed input document, 2 domain error,
  3 construction validation failure (including a singular coefficient
  system), 4 root finding non-convergence, 5 verification failure,
  6 internal inconsistency (a solver self-check failed on this input).
Each failure prints one line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import documents
from .construct import (DomainError, UnreachableCase, ValidationFailure,
                        construct)
from .poly import NonConvergence, SingularSystem
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
    p.add_argument("--seed-values", type=int, default=None,
                   help="jitter the per-block target values from this seed "
                        "instead of using consecutive integers")
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
    return args.func(args)


def cmd_construct(args) -> int:
    try:
        y_values = _seeded_y_values(args.seed_values, args.n)
        result = construct(args.n, args.m, y_values=y_values)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValidationFailure, SingularSystem, UnreachableCase) as exc:
        print(f"validation failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    documents.save_doc(documents.equation_to_doc(result.equation), args.out)
    print(args.out)
    if args.plan:
        documents.save_doc(documents.plan_to_doc(result), args.plan)
        print(args.plan)
    return EXIT_OK


def _seeded_y_values(seed, n):
    if seed is None:
        return None
    # distinct, nonzero, and still separated by >= 0.2 between blocks
    rng = np.random.default_rng(seed)
    return [k + rng.uniform(0.1, 0.9) for k in range(1, 2 * n)]


def cmd_solve(args) -> int:
    try:
        eq = documents.equation_from_doc(documents.load_doc(args.in_path))
    except documents.DocumentError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        sset = solve_equation(eq, backend=_BACKENDS[args.backend])
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    documents.save_doc(documents.solution_set_to_doc(sset), args.out)
    print(args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        eq = documents.equation_from_doc(documents.load_doc(args.equation))
        sset = documents.solution_set_from_doc(documents.load_doc(args.solutions))
    except documents.DocumentError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        cross = count_cross_check(eq)
        report = verify_solution_set(eq, sset, backend_agreement=cross.agree)
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.report:
        documents.save_doc(documents.report_to_doc(report), args.report)
        print(args.report)
    print(report.to_text(), file=sys.stderr)
    return EXIT_OK if report.verdict == "pass" else EXIT_VERIFICATION


def cmd_sweep(args) -> int:
    if args.n_max < 1:
        print("domain error: --n-max must be >= 1", file=sys.stderr)
        return EXIT_DOMAIN
    cells = [(n, m) for n in range(1, args.n_max + 1)
             for m in range(1, solution_bound(n) + 1)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    rows.sort(key=lambda r: (r["n"], r["m"]))

    lines = [f"{'n':>3} {'m':>4} {'p':>3} {'pbar':>4} {'count':>6} "
             f"{'max_residual':>13} {'ms':>7} {'status':>7} error"]
    for r in rows:
        if r["error"] is not None:
            count = "-"   # the cell crashed before counting
        else:
            count = r["count"] if r["count"] is not None else "inf"
        lines.append(
            f"{r['n']:>3} {r['m']:>4} {r['p'] if r['p'] is not None else '-':>3} "
            f"{r['pbar'] if r['pbar'] is not None else '-':>4} "
            f"{count:>6} "
            f"{r['max_residual']:>13.3e} {r['ms']:>7.1f} "
            f"{'pass' if r['ok'] else 'FAIL':>7} {r['error'] or '-'}")
    failures = [(r["n"], r["m"]) for r in rows if not r["ok"]]
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
    row = {"n": n, "m": m, "p": None, "pbar": None, "count": None,
           "max_residual": 0.0, "ms": 0.0, "ok": False, "error": None}
    try:
        result = construct(n, m, validate=False)
        if result.plan is not None:
            row["p"], row["pbar"] = result.plan.p, result.plan.pbar
        cross = count_cross_check(result.equation)
        report = verify_solution_set(result.equation, cross.set_a,
                                     backend_agreement=cross.agree)
        row["count"] = cross.count_a
        row["max_residual"] = report.max_residual
        row["ok"] = (report.verdict == "pass" and cross.agree
                     and cross.count_a == m)
    except Exception as exc:  # a failing cell must not kill the sweep
        row["error"] = type(exc).__name__
    row["ms"] = (time.perf_counter() - start) * 1e3
    return row


if __name__ == "__main__":
    sys.exit(main())
