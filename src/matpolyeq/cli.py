"""Command line front end.

Exit codes are the only success/failure channel:
  0 success, 1 unreadable, unwritable or malformed document (or an output
  path that names an input or the other output), 2 domain error or usage
  error (a missing or malformed argument), 3 construction validation
  failure, 4 root finding non-convergence, 5 verification failure,
  6 internal inconsistency (a solver self-check failed on this input).
Each failure prints one line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import documents
from .construct import DomainError, ValidationFailure, check, construct
from .mat2 import MAX_DEGREE
from .poly import BACKENDS, NonConvergence
from .solver import (InternalInconsistency, critical_data, solution_bound,
                     solve_equation)
from .verify import count_cross_check, verify_solution_set

# --backend takes a table name or its alias: a for the first, b the second
_BACKENDS = {**dict(zip("ab", BACKENDS)), **{name: name for name in BACKENDS}}

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
    (NonConvergence, EXIT_NONCONVERGENCE, "non-convergence"),
    (InternalInconsistency, EXIT_INTERNAL, "internal inconsistency"),
)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line and exits 2."""

    def error(self, message):
        self.exit(EXIT_DOMAIN, f"usage error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _refuse_overwrite(inputs, outputs) -> None:
    """Raise DocumentError, before any work, where an output path names an
    input or another output; inputs and outputs are (flag, path) pairs,
    with None for a path not given."""
    seen = [(flag, path) for flag, path in inputs if path]
    for flag, path in outputs:
        if not path:
            continue
        for other_flag, other in seen:
            if _same_file(path, other):
                raise documents.DocumentError(
                    f"{flag} {path} is the {other_flag} document; "
                    "refusing to overwrite it")
        seen.append((flag, path))


def _same_file(a, b) -> bool:
    """Whether two paths name one file: equal once resolved, or one file
    on disk (a hard link, a case-insensitive name)."""
    try:
        return Path(a).resolve() == Path(b).resolve() or \
            os.path.samefile(a, b)
    except (OSError, RuntimeError):  # a missing file, or a symlink loop
        return False


def cmd_construct(args) -> int:
    _refuse_overwrite([], [("--out", args.out), ("--plan", args.plan)])
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
    _refuse_overwrite([("--in", args.in_path)], [("--out", args.out)])
    eq = documents.equation_from_doc(documents.load_doc(args.in_path))
    sset = solve_equation(eq, backend=_BACKENDS[args.backend])
    documents.save_doc(documents.solution_set_to_doc(sset), args.out)
    print(args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _refuse_overwrite([("--equation", args.equation),
                       ("--solutions", args.solutions)],
                      [("--report", args.report)])
    eq = documents.equation_from_doc(documents.load_doc(args.equation))
    sset = documents.solution_set_from_doc(documents.load_doc(args.solutions))
    cross = count_cross_check(eq)
    report = verify_solution_set(eq, sset, backend_agreement=cross.agree,
                                 solved=cross.set_a)
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
    # refuse an unwritable report before any cell, leaving the path as it was
    existed = os.path.lexists(args.report)
    open(args.report, "a", encoding="utf-8").close()
    if not existed:
        os.unlink(args.report)
    cells = [(n, m) for n in range(1, args.n_max + 1)
             for m in range(1, solution_bound(n) + 1)]
    # the pool forks all its workers at the first submit; map keeps order
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

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
    Path(args.report).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(args.report)
    if failures:
        print(f"{len(failures)} failing cells", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _sweep_cell(cell) -> dict:
    n, m = cell
    start = time.perf_counter()
    # "-" where a cell has no value; one whitespace-free error token names
    # a crash after the stage that raised it, else every failed condition
    row = {"n": n, "m": m, "p": "-", "pbar": "-", "count": "-",
           "max_residual": 0.0, "ms": 0.0, "error": None}
    stage = "construct"
    try:
        result = construct(n, m, validate=False)
        row["p"], row["pbar"] = result.plan.p, result.plan.pbar
        # each backend's roots under its own stage; all are cached on the
        # equation, so the cross-check finds no root twice
        for stage in BACKENDS:
            critical_data(result.equation, stage)
        stage = "check"
        row["count"], row["max_residual"], row["error"], _ = \
            check(result.equation, m)
    except Exception as exc:  # a failing cell must not kill the sweep
        row["error"] = f"{stage}:{type(exc).__name__}"
    row["ms"] = (time.perf_counter() - start) * 1e3
    return row


if __name__ == "__main__":
    sys.exit(main())
