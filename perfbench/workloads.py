"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed, names one warm-up operation,
yields its operations in passes, and runs and checks one operation at a
time.  ``FAILURES_EXPECTED`` says whether a failure the program reports
itself (an exception, a verifier rejection) is a known defect, counted by
reason; where it is False, any failure makes the run incorrect.
``TAIL_PCT`` is the percentile op_tail_ms reports; ``OPS_PER_S``, the
nominal rate that sets how many operations a run of ``--seconds`` makes
(worker.run_ops); ``pass_ops``, the operations in one pass.  The package is reached only through its public
names, looked up at call time, so the tracer's wrappers see every call.

- sweep_n5: construct, cross-check and verify every (n, m) cell with n <= 5,
  as ``matpolyeq sweep`` does per cell.  Many small equations with a
  high-multiplicity zero root; root finding dominates.
- random_n16: solve one random n = 16 equation (496 solutions), write and
  reread its solution document, verify the reread set.  The largest output;
  the pairwise dedupe and duplicate scan (``Mat2.dist``) dominate.
- scan_n3: compare the candidate scan with the solver on the 22 constructed
  cells with n <= 3 and the 7 hand-made fixtures.  The only workload with
  infinite families and non-diagonalizable solutions; Nelder-Mead dominates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import matpolyeq as mp
from matpolyeq import documents
from matpolyeq.mat2 import Mat2, MatrixEquation

# operations in one traced pass of random_n16
TRACE_EQUATIONS = 2
# solution-to-scan-point distance accepted by the oracle comparison
SCAN_MATCH_TOL = 1e-5
# sha256 of the solution documents of the first random_n16 equations of a
# few seeds, written by make_digests.py; the warm-up solves equation 0 of
# REFERENCE_SEED, so every run compares at least one document with them
REFERENCE_DIGESTS = Path(__file__).with_name("reference_digests.json")
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Outcome:
    """Result of the checks on one operation."""

    reason: Optional[str] = None   # None: every check passed
    # the output is wrong although the program reported no problem with it
    silent: bool = False
    doc_bytes: int = 0


def verify_reason(report) -> str:
    """The names of the checks a verification report failed."""
    checks = (("residuals", report.residuals_ok),
              ("duplicates", report.duplicates_ok),
              ("bound", report.bound_ok),
              ("eigenvalues", report.eigenvalues_ok),
              ("char_divisor", report.char_divisor_ok),
              ("certificate", report.certificate_ok),
              ("backend_agreement", report.backend_agreement))
    return "+".join(name for name, ok in checks if ok is False) or "verify"


def _dist(a: Mat2, b: Mat2) -> float:
    # the benchmark's own distance, so its checks add no Mat2.dist calls
    return max(abs(a.m11 - b.m11), abs(a.m12 - b.m12),
               abs(a.m21 - b.m21), abs(a.m22 - b.m22))


class _Shuffled:
    """Fixed operations, visited in a fresh seeded order on every pass."""

    def __init__(self, ops, seed):
        self.ops = ops
        self.pass_ops = len(ops)
        self._rng = np.random.default_rng(seed)
        self._trace_pass = self._shuffle()

    def _shuffle(self):
        return [self.ops[i] for i in self._rng.permutation(len(self.ops))]

    def warmup_op(self):
        return self.ops[0]

    def trace_pass(self):
        return self._trace_pass

    def passes(self):
        yield self._trace_pass
        while True:
            yield self._shuffle()


class SweepN5(_Shuffled):
    FAILURES_EXPECTED = False
    TAIL_PCT = 98
    OPS_PER_S = 40

    def __init__(self, seed: int, force_fail: bool = False):
        cells = [(n, m) for n in range(1, 6)
                 for m in range(1, mp.solution_bound(n) + 1)]
        super().__init__(cells, seed)
        self._want_offset = 1 if force_fail else 0

    def label(self, cell) -> str:
        return "n={},m={}".format(*cell)

    def run(self, cell) -> Outcome:
        n, m = cell
        result = mp.construct(n, m, validate=False)
        cross = mp.count_cross_check(result.equation)
        report = mp.verify_solution_set(result.equation, cross.set_a,
                                        backend_agreement=cross.agree)
        if cross.count_a != m + self._want_offset:
            return Outcome("count", silent=report.verdict == "pass")
        if report.verdict != "pass":
            return Outcome(verify_reason(report))
        return Outcome()


def random_equation(rng, n: int) -> MatrixEquation:
    """Entries complex(U(-1,1), U(-1,1)), drawn as acceptance criterion 3
    draws them."""
    return MatrixEquation(tuple(
        Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
        for _ in range(n)))


def reference_digests() -> dict[tuple[int, int], str]:
    """The committed digests, by (seed, equation index)."""
    doc = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    return {(int(seed), int(i)): digest
            for seed, by_index in doc.items()
            for i, digest in by_index.items()}


def document_text(sset) -> str:
    """A solution document, serialized as documents.save_doc writes it."""
    return json.dumps(documents.solution_set_to_doc(sset), indent=2) + "\n"


class RandomN16:
    N = 16
    # the known defect: verify's characteristic-divisor check rejects a few
    # of these equations although both backends agree on 496 solutions
    FAILURES_EXPECTED = True
    TAIL_PCT = 67
    OPS_PER_S = 1.0
    pass_ops = 1

    def __init__(self, seed: int, force_fail: bool = False):
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._equations = [random_equation(self._rng, self.N)]
        self._reference_eq = random_equation(
            np.random.default_rng(REFERENCE_SEED), self.N)
        # sha256 of each solution document, by (seed, equation index); a
        # document must match the committed digest where there is one, and
        # solving the same equation again must reproduce it byte for byte
        self.reference = reference_digests()
        self.digests: dict[tuple[int, int], str] = {}
        if force_fail:
            self.reference[REFERENCE_SEED, 0] = "forced mismatch"

    def _op(self, i: int):
        while len(self._equations) <= i:
            self._equations.append(random_equation(self._rng, self.N))
        return self._seed, i, self._equations[i]

    def warmup_op(self):
        return REFERENCE_SEED, 0, self._reference_eq

    def label(self, op) -> str:
        return f"seed {op[0]} equation {op[1]}"

    def trace_pass(self):
        return [self._op(i) for i in range(TRACE_EQUATIONS)]

    def passes(self):
        i = 0
        while True:
            yield [self._op(i)]
            i += 1

    def run(self, op) -> Outcome:
        seed, i, eq = op
        sset = mp.solve_equation(eq)
        text = document_text(sset)
        reloaded = documents.solution_set_from_doc(json.loads(text))
        report = mp.verify_solution_set(eq, reloaded)
        raw = text.encode("utf-8")
        digest = hashlib.sha256(raw).hexdigest()
        first = self.digests.setdefault((seed, i), digest)
        if self.reference.get((seed, i), first) != digest:
            return Outcome("doc_digest", silent=True, doc_bytes=len(raw))
        if report.verdict != "pass":
            return Outcome(verify_reason(report), doc_bytes=len(raw))
        if not sset.is_finite:
            return Outcome("infinite", silent=True, doc_bytes=len(raw))
        if sset.count > mp.solution_bound(self.N):
            return Outcome("bound", silent=True, doc_bytes=len(raw))
        return Outcome(doc_bytes=len(raw))


# the hand-made fixtures of the test suite
FIXTURES = (
    ("x2=diag(1,4)", MatrixEquation((Mat2.diag(-1, -4), Mat2.zero()))),
    ("x2=0", MatrixEquation((Mat2.zero(), Mat2.zero()))),
    ("x2=I", MatrixEquation((Mat2.diag(-1, -1), Mat2.zero()))),
    ("x2=nilpotent", MatrixEquation((Mat2(0, -1, 0, 0), Mat2.zero()))),
    ("x2=jordan", MatrixEquation((Mat2(-1, -1, 0, -1), Mat2.zero()))),
    ("(x-I)2=0", MatrixEquation((Mat2.identity(),
                                 Mat2.identity().scale(-2)))),
    ("x=[[0,1],[0,1]]", MatrixEquation((Mat2(0, -1, 0, -1),))),
)


class ScanN3(_Shuffled):
    FAILURES_EXPECTED = False
    TAIL_PCT = 82
    OPS_PER_S = 2.9

    def __init__(self, seed: int, force_fail: bool = False):
        cells = [(f"n={n},m={m}", mp.construct(n, m, validate=False).equation)
                 for n in range(1, 4)
                 for m in range(1, mp.solution_bound(n) + 1)]
        super().__init__(cells + list(FIXTURES), seed)
        self._tol = -1.0 if force_fail else SCAN_MATCH_TOL

    def label(self, op) -> str:
        return op[0]

    def run(self, op) -> Outcome:
        _, eq = op
        scan = mp.brute_force_scan(eq)
        sset = mp.solve_equation(eq)
        if (len(scan) > mp.solution_bound(eq.n)) == sset.is_finite:
            return Outcome("scan_classification", silent=True)
        if sset.is_finite:
            if len(scan) != sset.count:
                return Outcome("scan_count", silent=True)
            for sol in sset.solutions:
                if min((_dist(x, sol.matrix) for x in scan),
                       default=float("inf")) > self._tol:
                    return Outcome("scan_match", silent=True)
        return Outcome()


WORKLOADS = {"sweep_n5": SweepN5, "random_n16": RandomN16, "scan_n3": ScanN3}
