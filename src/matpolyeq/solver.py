"""Solve monic polynomial equations over 2x2 complex matrices.

Every eigenvalue of a solution must be a critical value: a root lam of
det M(t), where M is the equation's polynomial matrix.  The nullspace of
M(lam) (the critical space) carries the admissible eigenvectors.  Solutions
are then: matrices assembled from two critical pairs with independent
vectors, scalar matrices lam*I where M(lam) vanishes, and non-diagonalizable
matrices lam*I + N (N nonzero nilpotent) which can exist only at repeated
critical values.  A two-dimensional critical space next to a second value,
or alone with a singular M'(lam), certifies an infinite solution family;
finite solution sets never exceed C(2n, 2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .mat2 import (E1, E2, RANK_TOL, Mat2, MatrixEquation, Vec2, det2,
                   eval_batch, greedy_unique, join, matmul_parts, max_norms,
                   mul_parts, outer, pack, rank_and_nullspace, split,
                   unpack)
from .poly import NonConvergence, Poly, find_roots

RESIDUAL_COEF = 1e-7
# unit critical vectors are parallel below this pairing determinant
INDEPENDENCE_TOL = 1e-6
DEDUPE_TOL = 1e-6
_NILPOTENT_TOL = 1e-8
_SAMPLE_PARAMS = (0.25 + 0j, 0.5 + 0j, 0.75 + 0j)
# solution kinds and family reasons, spelled as documents carry them
DIAGONALIZABLE, SCALAR, NON_DIAGONALIZABLE = KINDS = (
    "diagonalizable_distinct", "scalar", "non_diagonalizable")
SECOND_VALUE_FAMILY, NILPOTENT_FAMILY = REASONS = (
    "two_dim_space_with_second_value", "nilpotent_affine_family")


class InternalInconsistency(RuntimeError):
    """A candidate passed its structural checks but failed the residual
    check; tolerances are misconfigured for this input."""


@dataclass(frozen=True)
class CriticalDatum:
    """One critical value with its multiplicity and critical-space basis."""

    value: complex
    multiplicity: int
    space_dim: int
    basis: tuple[Vec2, ...]


@dataclass(frozen=True)
class Solution:
    matrix: Mat2
    kind: str  # one of KINDS
    eigen_data: Optional[tuple[tuple[complex, Vec2], ...]]
    residual: float


@dataclass(frozen=True, eq=False)
class Candidates:
    """Candidate solutions held as arrays: the matrices packed (k, 4) as
    ``mat2.pack`` lays them out and their residuals, with a kind and eigen
    data per row (None for a row read from a document)."""

    matrices: np.ndarray
    residuals: np.ndarray
    kinds: tuple[str, ...]
    eigen_data: tuple

    def __len__(self) -> int:
        return len(self.kinds)

    def __add__(self, other: "Candidates") -> "Candidates":
        return Candidates(np.concatenate((self.matrices, other.matrices)),
                          np.concatenate((self.residuals, other.residuals)),
                          self.kinds + other.kinds,
                          self.eigen_data + other.eigen_data)

    def take(self, rows: Sequence[int]) -> "Candidates":
        return Candidates(self.matrices[rows], self.residuals[rows],
                          tuple(self.kinds[r] for r in rows),
                          tuple(self.eigen_data[r] for r in rows))


@dataclass(frozen=True)
class InfiniteCertificate:
    """A verified one-parameter family X(mu) = base + mu * direction."""

    reason: str
    base: Mat2
    direction: Mat2
    samples: tuple[complex, ...]
    sample_residuals: tuple[float, ...]

    def member(self, mu: complex) -> Mat2:
        return self.base + self.direction.scale(mu)


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """A classified solution set.  ``batch`` holds the finite solutions in
    output order as one array batch (empty for an infinite set); the
    Solution objects are built from it, bit for bit, on first access to
    ``solutions`` only."""

    batch: Candidates
    certificate: Optional[InfiniteCertificate]
    critical_data: tuple[CriticalDatum, ...]

    @classmethod
    def of(cls, solutions: Sequence[Solution],
           certificate: Optional[InfiniteCertificate],
           critical_data: Sequence[CriticalDatum]) -> "SolutionSet":
        """A set of hand-built solutions, packed in their order."""
        return cls(Candidates(pack([s.matrix for s in solutions]),
                              np.array([s.residual for s in solutions],
                                       float),
                              tuple(s.kind for s in solutions),
                              tuple(s.eigen_data for s in solutions)),
                   certificate, tuple(critical_data))

    @cached_property
    def solutions(self) -> tuple[Solution, ...]:
        b = self.batch
        return tuple(map(Solution, unpack(b.matrices), b.kinds, b.eigen_data,
                         b.residuals.tolist()))

    @property
    def is_finite(self) -> bool:
        return self.certificate is None

    @property
    def count(self) -> Optional[int]:
        return len(self.batch) if self.is_finite else None


def solution_bound(n: int) -> int:
    """Largest possible finite solution count, C(2n, 2)."""
    return math.comb(2 * n, 2)


def residual_tols(eq: MatrixEquation, x: np.ndarray) -> np.ndarray:
    """Acceptance threshold for ||f(X)|| of each packed candidate, tracking
    Horner error growth; inf where it overflows.  The power is CPython's,
    one row at a time: numpy's differs in the last bit."""
    coef = RESIDUAL_COEF * (1.0 + eq.coeff_scale())
    tols = []
    for norm in max_norms(x).tolist():
        try:
            tols.append(coef * (1.0 + norm) ** eq.n)
        except OverflowError:  # no finite threshold, so nothing is accepted
            tols.append(math.inf)
    return np.array(tols, float)


def residuals(eq: MatrixEquation, x: np.ndarray) -> np.ndarray:
    """Largest entry modulus of f(X) for each packed candidate, from one
    call of ``mat2.eval_batch`` (none for an empty batch); inf where an
    entry is not finite or its modulus overflows."""
    return max_norms(eval_batch(eq, x)) if len(x) else np.zeros(0)


def accepted(eq: MatrixEquation, x: np.ndarray,
             res: np.ndarray) -> np.ndarray:
    """The acceptance test for each packed candidate with its residual; an
    overflowed threshold accepts nothing."""
    tol = residual_tols(eq, x)
    return (res <= tol) & (tol < math.inf)


def rejection_reason(eq: MatrixEquation, x: np.ndarray, res: np.ndarray,
                     ok: np.ndarray) -> str:
    """Why the first packed candidate that ``accepted`` refused failed."""
    r = int(np.argmin(ok))
    tol = residual_tols(eq, x[r:r + 1])[0]
    if tol == math.inf:
        return f"residual {res[r]:.3e} of a matrix with no finite threshold"
    return f"residual {res[r]:.3e} exceeds {tol:.3e}"


def critical_data(eq: MatrixEquation,
                  backend: str = "aberth") -> tuple[CriticalDatum, ...]:
    """Critical values of the equation paired with their critical spaces,
    found once per equation object and backend."""
    return eq.derived(("critical_data", backend),
                      lambda: _critical_data(eq, backend))


def _critical_data(eq, backend):
    data = []
    for root in find_roots(eq.det_poly, backend=backend):
        evaluated = eq.matrix.eval(root.value)
        if not _finite(evaluated):
            raise NonConvergence(
                f"M(t) overflows at critical value {root.value:.6g}")
        rank, basis = rank_and_nullspace(evaluated,
                                         _eval_scale(eq.norm_poly, root.value))
        if rank == 2:  # the backend returned a value that is no root
            raise NonConvergence(
                f"no critical space at critical value {root.value:.6g}")
        data.append(CriticalDatum(root.value, root.multiplicity,
                                  2 - rank, tuple(basis)))
    return tuple(data)


def _finite(m: Mat2) -> bool:
    return all(map(cmath.isfinite, (m.m11, m.m12, m.m21, m.m22)))


def _eval_scale(norm_poly: Poly, lam: complex) -> float:
    # magnitude reference for M(lam), or for M'(lam) given the derivative
    return max(1.0, norm_poly(abs(lam)).real)


def dedupe_tol(data: Sequence[CriticalDatum]) -> float:
    """Distance within which two solutions count as one."""
    return DEDUPE_TOL * (1.0 + max((abs(d.value) for d in data), default=0.0))


def scalar_solutions(eq: MatrixEquation,
                     data: Sequence[CriticalDatum]) -> Candidates:
    """lam * I for every critical value whose critical space is the whole
    plane (rank M(lam) = 0), residual-checked as one batch."""
    planes = [d for d in data if d.space_dim == 2]
    x = pack([Mat2.identity().scale(d.value) for d in planes])
    return Candidates(x, residuals(eq, x),
                      (SCALAR,) * len(planes),
                      tuple(((d.value, E1), (d.value, E2)) for d in planes))


def enumerate_diagonalizable(eq: MatrixEquation,
                             data: Sequence[CriticalDatum]) -> Candidates:
    """One candidate per pair of distinct critical values with linearly
    independent critical vectors, in (i, j) order; the pairs are assembled
    and residual-checked as one batch."""
    lines = [d for d in data if d.space_dim == 1]
    z = np.array([(d.value, d.basis[0].x, d.basis[0].y) for d in lines],
                 complex).reshape(-1, 3)
    i, j = np.triu_indices(len(lines), 1)
    # det2(va, vb) = va.x vb.y - va.y vb.x
    pr, pi = (mul_parts(_parts(z[i, 1]), _parts(z[j, 2]))
              - mul_parts(_parts(z[i, 2]), _parts(z[j, 1])))
    keep = np.hypot(pr, pi) > INDEPENDENCE_TOL
    i, j = i[keep], j[keep]
    inv = [1.0 / complex(r, m)
           for r, m in zip(pr[keep].tolist(), pi[keep].tolist())]
    x = _assemble(z[i], z[j], np.array(inv, complex))
    return Candidates(
        x, residuals(eq, x), (DIAGONALIZABLE,) * len(i),
        tuple(((lines[p].value, lines[p].basis[0]),
               (lines[q].value, lines[q].basis[0]))
              for p, q in zip(i.tolist(), j.tolist())))


def _parts(z: np.ndarray) -> np.ndarray:
    return np.stack((z.real, z.imag))


def _assemble(a: np.ndarray, b: np.ndarray, inv: np.ndarray) -> np.ndarray:
    # X = [va vb] diag(la, lb) [va vb]^{-1}, packed, as the Mat2 expression
    # (p @ Mat2.diag(la, lb) @ p.adjugate()).scale(1.0 / pairing) computes
    # it, zero products included; the rows of a and b hold (value, vector x,
    # vector y), and inv is 1 / pairing by Python's complex division
    (la, ax, ay), (lb, bx, by) = a.T, b.T
    zero = np.zeros_like(la)

    def mats(*entries):
        return split(np.stack(entries, axis=1))

    x = matmul_parts(matmul_parts(mats(ax, bx, ay, by),
                                  mats(la, zero, zero, lb)),
                     mats(by, -bx, -ay, ax))
    return join(mul_parts(_parts(inv), x))


def find_nondiagonalizable(eq: MatrixEquation,
                           data: Sequence[CriticalDatum]) -> Candidates:
    """lam*I + N with N nonzero nilpotent at each repeated critical value lam
    with a one-dimensional critical space, in data order; the offsets are
    residual-checked as one batch and the failing ones dropped.

    For nilpotent N, X^k = lam^k I + k lam^(k-1) N collapses the residual
    to M(lam) + M'(lam) N, and a nonzero nilpotent is N = k v^T with
    v^T k = 0.  A one-dimensional critical space (M(lam) = a b^T) forces v
    along b, hence k onto the critical vector: at most one offset exists,
    and only when M'(lam) k is parallel to a.  Two-dimensional spaces are
    ``detect_infinite``'s.
    """
    mats, eigen_data = [], []
    for d in data:
        if d.multiplicity < 2 or d.space_dim != 1:
            continue
        lam, k = d.value, d.basis[0]
        mval = eq.matrix.eval(lam)
        w = eq.matrix_derivative.eval(lam).apply(k)
        col = max(Vec2(mval.m11, mval.m21), Vec2(mval.m12, mval.m22),
                  key=Vec2.norm)
        wnorm = w.norm()
        if (wnorm <= RANK_TOL * _eval_scale(eq.norm_poly.derivative(), lam)
                or abs(det2(w, col)) > _NILPOTENT_TOL * wnorm * col.norm()):
            continue
        # M(lam) = -w v^T, so v^T = -w^H M(lam) / |w|^2
        v = Vec2(-(w.x.conjugate() * mval.m11 + w.y.conjugate() * mval.m21),
                 -(w.x.conjugate() * mval.m12 + w.y.conjugate() * mval.m22))
        mats.append(Mat2.identity().scale(lam)
                    + outer(k, v).scale(1.0 / wnorm ** 2))
        eigen_data.append(((lam, k),))
    x = pack(mats)
    res = residuals(eq, x)
    ok = np.flatnonzero(accepted(eq, x, res)).tolist()
    return Candidates(x, res, (NON_DIAGONALIZABLE,) * len(mats),
                      tuple(eigen_data)).take(ok)


def _certify_family(eq, reason, base, direction
                    ) -> Optional[InfiniteCertificate]:
    x = pack([base + direction.scale(mu) for mu in _SAMPLE_PARAMS])
    res = residuals(eq, x)
    if not accepted(eq, x, res).all():
        return None
    return InfiniteCertificate(reason, base, direction,
                               _SAMPLE_PARAMS, tuple(res.tolist()))


def detect_infinite(eq: MatrixEquation,
                    data: Sequence[CriticalDatum]) -> Optional[InfiniteCertificate]:
    """Certificate of an infinite solution family, or None.

    Rule (a): a two-dimensional critical space combined with any second
    distinct critical value yields a family by rotating the direction paired
    with the other value's vector.  Rule (b): a lone critical value with a
    two-dimensional space admits the nilpotent offsets mu k k_perp^T for a
    kernel vector k of a singular M'(lam).  A one-dimensional space admits
    at most one offset, so no other family exists.
    """
    d = next((d for d in data if d.space_dim == 2), None)
    if d is None:
        return None
    if len(data) == 1:
        lam = d.value
        rank, kernel = rank_and_nullspace(
            eq.matrix_derivative.eval(lam),
            _eval_scale(eq.norm_poly.derivative(), lam))
        if rank == 2:
            return None
        k = kernel[0]
        return _certify_family(eq, NILPOTENT_FAMILY,
                               Mat2.identity().scale(lam),
                               outer(k, Vec2(-k.y, k.x).normalized()))
    other = next(o for o in data if o is not d)
    cert = _two_dim_family(eq, d.value, other.value, other.basis[0])
    if cert is None:
        raise InternalInconsistency(
            "two-dimensional critical space family failed verification")
    return cert


def _two_dim_family(eq, lam, lam2, vprime) -> Optional[InfiniteCertificate]:
    # X(mu) keeps the eigenpair (lam2, v') while its lam-eigenvector rotates
    # through the whole critical plane:
    # X(mu) = lam I + (lam2 - lam) v' (z0 + mu z1)^T / (z0^T v')
    z0 = Vec2(vprime.x.conjugate(), vprime.y.conjugate())
    z1 = Vec2(-vprime.y, vprime.x)
    c = z0.x * vprime.x + z0.y * vprime.y
    factor = (lam2 - lam) / c
    base = Mat2.identity().scale(lam) + outer(vprime, z0).scale(factor)
    direction = outer(vprime, z1).scale(factor)
    return _certify_family(eq, SECOND_VALUE_FAMILY, base, direction)


def solve_equation(eq: MatrixEquation, backend: str = "aberth") -> SolutionSet:
    """Classify the full solution set of a matrix polynomial equation.

    Infinite detection runs before finite enumeration so two-dimensional
    critical spaces never reach the pair assembly.  The finite candidates
    (scalar matrices, then the pairs of critical values, then nilpotent
    offsets) are held as one array batch (``Candidates``): their residuals
    come from one call of the batch kernel ``mat2.eval_batch`` for the pairs,
    the dedupe keeps a candidate unless it lies within the tolerance of an
    earlier kept one (``mat2.greedy_unique``: its sorted-window pair kernel
    computes distances only for the pairs whose entry parts all lie within
    the tolerance), and the kept ones are residual-verified and checked
    against the C(2n, 2) bound.  The set holds the kept rows as that batch,
    sorted by eigenvalues and then entries with one ``np.lexsort``
    (``output_order``); Solution objects are built only if
    ``SolutionSet.solutions`` is read.
    """
    data = critical_data(eq, backend=backend)
    cert = detect_infinite(eq, data)
    if cert is not None:
        return SolutionSet.of((), cert, data)

    found = (scalar_solutions(eq, data)
             + enumerate_diagonalizable(eq, data)
             + find_nondiagonalizable(eq, data))

    kept = found.take(greedy_unique(found.matrices, dedupe_tol(data)))
    ok = accepted(eq, kept.matrices, kept.residuals)
    if not ok.all():
        raise InternalInconsistency("candidate " + rejection_reason(
            eq, kept.matrices, kept.residuals, ok))
    if len(kept) > solution_bound(eq.n):
        raise InternalInconsistency(
            f"{len(kept)} solutions exceed the C(2n,2) bound")

    return SolutionSet(kept.take(output_order(kept).tolist()), None, data)


def output_order(rows: Candidates) -> np.ndarray:
    """The stable order of the rows by their key: the eigenvalues of the
    eigen data ordered by (real, imag), as numpy sorts complex numbers, then
    the matrix entries, each as its (real, imag) parts.  Tuple comparison
    orders a one-eigenvalue key before a longer one it is a prefix of; its
    -inf padding does the same in one ``np.lexsort`` over rows of equal
    length."""
    lams = np.sort(np.array([(ed[0][0], ed[-1][0]) for ed in rows.eigen_data],
                            complex).reshape(-1, 2))
    parts = rows.matrices.view(float)
    key = np.hstack((lams.view(float), parts))
    single = np.array([len(ed) == 1 for ed in rows.eigen_data], bool)
    key[single, 2:10] = parts[single]
    key[single, 10:] = -np.inf
    return np.lexsort(key.T[::-1])
