"""Solve monic polynomial equations over 2x2 complex matrices.

Every eigenvalue of a solution must be a critical value: a root lam of
det M(t), where M is the equation's polynomial matrix.  The nullspace of
M(lam) (the critical space) carries the admissible eigenvectors.  Solutions
are then: matrices assembled from two critical pairs with independent
vectors, scalar matrices lam*I where M(lam) vanishes, and non-diagonalizable
matrices lam*I + N (N nonzero nilpotent) which can exist only at repeated
critical values.  More than one nilpotent offset at a single value, or a
two-dimensional critical space next to a second value, certifies an infinite
solution family; finite solution sets never exceed C(2n, 2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

from .mat2 import (E1, E2, Mat2, MatrixEquation, Vec2, det2, eval_equation,
                   greedy_unique, outer, poly_matrix, rank_and_nullspace)
from .poly import NonConvergence, find_roots

RESIDUAL_COEF = 1e-7
# unit critical vectors are parallel below this pairing determinant
INDEPENDENCE_TOL = 1e-6
DEDUPE_TOL = 1e-6
_NILPOTENT_TOL = 1e-8
_SAMPLE_PARAMS = (0.25 + 0j, 0.5 + 0j, 0.75 + 0j)


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
    kind: str  # diagonalizable_distinct | scalar | non_diagonalizable
    eigen_data: Optional[tuple[tuple[complex, Vec2], ...]]
    residual: float


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


@dataclass(frozen=True)
class SolutionSet:
    solutions: tuple[Solution, ...]
    certificate: Optional[InfiniteCertificate]
    critical_data: tuple[CriticalDatum, ...]

    @property
    def is_finite(self) -> bool:
        return self.certificate is None

    @property
    def count(self) -> Optional[int]:
        return len(self.solutions) if self.is_finite else None


def solution_bound(n: int) -> int:
    """Largest possible finite solution count, C(2n, 2)."""
    return math.comb(2 * n, 2)


def residual_tol(eq: MatrixEquation, x: Mat2) -> float:
    """Acceptance threshold for ||f(X)||, tracking Horner error growth."""
    try:
        growth = (1.0 + x.max_norm()) ** eq.n
    except OverflowError:  # no finite threshold, so residual_ok refuses X
        return math.inf
    return RESIDUAL_COEF * (1.0 + eq.coeff_scale()) * growth


def residual(eq: MatrixEquation, x: Mat2) -> float:
    """Largest entry modulus of f(X), or inf when an entry is not finite
    (max() would skip a NaN that is not the first entry)."""
    r = eval_equation(eq, x)
    return r.max_norm() if _finite(r) else math.inf


def _finite(m: Mat2) -> bool:
    return all(map(cmath.isfinite, (m.m11, m.m12, m.m21, m.m22)))


def residual_ok(eq: MatrixEquation, x: Mat2, res: float) -> bool:
    """The acceptance test for a candidate X with residual ``res``; an
    overflowed threshold accepts nothing."""
    return res <= residual_tol(eq, x) < math.inf


def critical_data(eq: MatrixEquation,
                  backend: str = "aberth") -> list[CriticalDatum]:
    """Critical values of the equation paired with their critical spaces."""
    m = poly_matrix(eq)
    data = []
    for root in find_roots(m.det(), backend=backend):
        evaluated = m.eval(root.value)
        if not _finite(evaluated):
            raise NonConvergence(
                f"M(t) overflows at critical value {root.value:.6g}")
        rank, basis = rank_and_nullspace(evaluated, _eval_scale(eq, root.value))
        if rank == 2:
            raise InternalInconsistency(
                f"no critical space at critical value {root.value:.6g}")
        data.append(CriticalDatum(root.value, root.multiplicity,
                                  2 - rank, tuple(basis)))
    data.sort(key=lambda d: (d.value.real, d.value.imag))
    return data


def _eval_scale(eq: MatrixEquation, lam: complex) -> float:
    # magnitude reference for M(lam): coefficient scale times |lam|^n,
    # the size of the Horner intermediates that produced the entries
    return eq.coeff_scale() * max(1.0, abs(lam)) ** eq.n


def scalar_solutions(eq: MatrixEquation,
                     data: list[CriticalDatum]) -> list[Solution]:
    """lam * I for every critical value whose critical space is the whole
    plane (rank M(lam) = 0)."""
    out = []
    for d in data:
        if d.space_dim == 2:
            x = Mat2.identity().scale(d.value)
            out.append(Solution(x, "scalar",
                                ((d.value, E1), (d.value, E2)),
                                residual(eq, x)))
    return out


def enumerate_diagonalizable(eq: MatrixEquation,
                             data: list[CriticalDatum]) -> list[Solution]:
    """One solution per pair of distinct critical values with linearly
    independent critical vectors."""
    out = []
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            di, dj = data[i], data[j]
            if di.space_dim != 1 or dj.space_dim != 1:
                continue
            vi, vj = di.basis[0], dj.basis[0]
            pairing = det2(vi, vj)
            if abs(pairing) <= INDEPENDENCE_TOL:
                continue
            x = _assemble(di.value, vi, dj.value, vj, pairing)
            out.append(Solution(x, "diagonalizable_distinct",
                                ((di.value, vi), (dj.value, vj)),
                                residual(eq, x)))
    return out


def _assemble(la: complex, va: Vec2, lb: complex, vb: Vec2,
              pairing: complex) -> Mat2:
    # X = [va vb] diag(la, lb) [va vb]^{-1}
    p = Mat2(va.x, vb.x, va.y, vb.y)
    return (p @ Mat2.diag(la, lb) @ p.adjugate()).scale(1.0 / pairing)


def find_nondiagonalizable(
        eq: MatrixEquation, datum: CriticalDatum
) -> Union[None, Solution, InfiniteCertificate]:
    """Search lam*I + N with N nonzero nilpotent at a repeated critical
    value lam.

    For nilpotent N, X^k = lam^k I + k lam^(k-1) N collapses the residual
    to M(lam) + M'(lam) N, so admissible N solve a pair of 2x2 linear
    systems, one per column.  An invertible M'(lam) pins N down uniquely; a
    singular one leaves an affine family that gets cut by the nilpotency
    constraints tr N = 0 and det N = 0 in closed form.  Zero, one, or many
    admissible N map to None, a Solution, or an InfiniteCertificate.
    """
    if datum.multiplicity < 2:
        return None
    lam = datum.value
    m = poly_matrix(eq)
    mval = m.eval(lam)
    mder = m.derivative().eval(lam)
    der_scale = max(1.0, eq.n * eq.coeff_scale()
                    * max(1.0, abs(lam)) ** (eq.n - 1))

    rank, kernel = rank_and_nullspace(mder, der_scale)
    if rank == 2:
        n_mat = (mder.inverse() @ mval).scale(-1.0)
        return _classify_unique_offset(eq, lam, n_mat)

    if rank == 0:
        # M'(lam) vanished entirely: solvable only when M(lam) does too,
        # and then every nilpotent offset works.
        if mval.max_norm() <= _NILPOTENT_TOL * _eval_scale(eq, lam):
            return _certify_family(eq, "nilpotent_affine_family",
                                   Mat2.identity().scale(lam),
                                   Mat2(0, 1, 0, 0))
        return None

    return _singular_derivative_family(eq, lam, mval, mder, kernel[0])


def _classify_unique_offset(eq, lam, n_mat):
    norm = n_mat.max_norm()
    if norm <= _NILPOTENT_TOL * (1.0 + abs(lam)):
        return None
    nil_ref = _NILPOTENT_TOL * (1.0 + norm)
    if abs(n_mat.trace()) > nil_ref or abs(n_mat.det()) > nil_ref * (1.0 + norm):
        return None
    x = Mat2.identity().scale(lam) + n_mat
    res = residual(eq, x)
    if not residual_ok(eq, x, res):
        return None
    return Solution(x, "non_diagonalizable",
                    ((lam, _column_direction(n_mat)),), res)


def _column_direction(n_mat: Mat2) -> Vec2:
    c1 = Vec2(n_mat.m11, n_mat.m21)
    c2 = Vec2(n_mat.m12, n_mat.m22)
    return (c1 if c1.norm() >= c2.norm() else c2).normalized()


def _singular_derivative_family(eq, lam, mval, mder, kernel):
    """Rank-one M'(lam): solutions of M'(lam) N = -M(lam) form
    N = N0 + k s^T over free s in C^2 (k spans the kernel), and both
    tr N = 0 and det N = 0 are affine in s for that shape."""
    c1 = Vec2(mder.m11, mder.m21)
    c2 = Vec2(mder.m12, mder.m22)
    u = c1 if c1.norm() >= c2.norm() else c2
    unorm2 = u.norm() ** 2
    if unorm2 == 0:
        return None
    # factor M'(lam) = u r^T, then a preimage of u is conj(r) / ||r||^2
    r = Vec2((u.x.conjugate() * c1.x + u.y.conjugate() * c1.y) / unorm2,
             (u.x.conjugate() * c2.x + u.y.conjugate() * c2.y) / unorm2)
    rnorm2 = r.norm() ** 2
    if rnorm2 == 0:
        return None
    w = Vec2(r.x.conjugate() / rnorm2, r.y.conjugate() / rnorm2)

    cols = []
    for b in (Vec2(-mval.m11, -mval.m21), Vec2(-mval.m12, -mval.m22)):
        if abs(det2(u, b)) > _NILPOTENT_TOL * u.norm() * (1.0 + b.norm()):
            return None  # that column of -M(lam) is outside the range
        beta = (u.x.conjugate() * b.x + u.y.conjugate() * b.y) / unorm2
        cols.append(Vec2(beta * w.x, beta * w.y))
    n0 = Mat2(cols[0].x, cols[1].x, cols[0].y, cols[1].y)
    k = kernel

    n0k = n0.apply(k)
    tr_row = (k.x, k.y)
    tr_rhs = -n0.trace()
    det_row = (n0.trace() * k.x - n0k.x, n0.trace() * k.y - n0k.y)
    det_rhs = -n0.det()
    return _cut_affine_family(eq, lam, n0, k, tr_row, tr_rhs,
                              det_row, det_rhs)


def _cut_affine_family(eq, lam, n0, k, tr_row, tr_rhs, det_row, det_rhs):
    a, b = tr_row
    c, d = det_row
    det_sys = a * d - b * c
    row_scale = max(abs(a), abs(b), abs(c), abs(d))
    if abs(det_sys) > 1e-10 * row_scale ** 2:
        s = Vec2((tr_rhs * d - b * det_rhs) / det_sys,
                 (a * det_rhs - tr_rhs * c) / det_sys)
        return _classify_unique_offset(eq, lam, n0 + outer(k, s))

    # degenerate constraints: the trace row never vanishes (k is a unit
    # vector), so align the det row against it and test consistency
    if max(abs(c), abs(d)) <= 1e-12 * max(abs(a), abs(b)):
        factor = 0j
    elif abs(a) >= abs(b):
        factor = c / a
    else:
        factor = d / b
    mis = max(abs(c - factor * a), abs(d - factor * b))
    if mis > 1e-8 * max(abs(a), abs(b)) * (1.0 + abs(factor)):
        return None
    if abs(det_rhs - factor * tr_rhs) > 1e-8 * (1.0 + abs(tr_rhs)) * (1.0 + abs(factor)):
        return None
    # a full line of nilpotent offsets: base point plus kernel direction
    if abs(a) >= abs(b):
        s0 = Vec2(tr_rhs / a, 0)
        z = Vec2(-b / a, 1).normalized()
    else:
        s0 = Vec2(0, tr_rhs / b)
        z = Vec2(1, -a / b).normalized()
    base = Mat2.identity().scale(lam) + n0 + outer(k, s0)
    return _certify_family(eq, "nilpotent_affine_family", base, outer(k, z))


def _certify_family(eq, reason, base, direction
                    ) -> Optional[InfiniteCertificate]:
    residuals = []
    for mu in _SAMPLE_PARAMS:
        x = base + direction.scale(mu)
        res = residual(eq, x)
        if not residual_ok(eq, x, res):
            return None
        residuals.append(res)
    return InfiniteCertificate(reason, base, direction,
                               _SAMPLE_PARAMS, tuple(residuals))


def detect_infinite(eq: MatrixEquation,
                    data: list[CriticalDatum]) -> Optional[InfiniteCertificate]:
    """Certificate of an infinite solution family, or None.

    Rule (a): a two-dimensional critical space combined with any second
    distinct critical value yields a family by rotating the direction paired
    with the other value's vector.  Rule (b): some repeated value admits a
    whole family of nilpotent offsets.  Two distinct non-diagonalizable
    solutions sharing an eigenvalue is exactly rule (b)'s many-offsets case.
    """
    for d in data:
        if d.space_dim != 2:
            continue
        others = [o for o in data if o is not d]
        if not others:
            continue
        cert = _two_dim_family(eq, d.value, others[0].value, others[0].basis[0])
        if cert is None:
            raise InternalInconsistency(
                "two-dimensional critical space family failed verification")
        return cert
    for d in data:
        if d.multiplicity >= 2:
            found = find_nondiagonalizable(eq, d)
            if isinstance(found, InfiniteCertificate):
                return found
    return None


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
    return _certify_family(eq, "two_dim_space_with_second_value",
                           base, direction)


def solve_equation(eq: MatrixEquation, backend: str = "aberth") -> SolutionSet:
    """Classify the full solution set of a matrix polynomial equation.

    Infinite detection runs before finite enumeration so two-dimensional
    critical spaces never reach the pair assembly.  Finite output is
    deduplicated, residual-verified, sorted by eigenvalues, and checked
    against the C(2n, 2) bound.  The dedupe keeps a candidate unless it lies
    within the tolerance of an earlier kept one; its pairwise distances come
    from the shared array kernel in ``mat2`` (``greedy_unique``).
    """
    data = critical_data(eq, backend=backend)
    cert = detect_infinite(eq, data)
    if cert is not None:
        return SolutionSet((), cert, tuple(data))

    found = scalar_solutions(eq, data)
    found += enumerate_diagonalizable(eq, data)
    for d in data:
        # detect_infinite has run this search on every repeated value, so no
        # family comes back here, and 2D spaces carry no single offset
        if d.multiplicity >= 2 and d.space_dim == 1:
            extra = find_nondiagonalizable(eq, d)
            if extra is not None:
                found.append(extra)

    max_lam = max((abs(d.value) for d in data), default=0.0)
    dedupe = DEDUPE_TOL * (1.0 + max_lam)
    unique = [found[i] for i in
              greedy_unique([sol.matrix for sol in found], dedupe)]

    for sol in unique:
        if not residual_ok(eq, sol.matrix, sol.residual):
            raise InternalInconsistency(
                f"candidate residual {sol.residual:.3e} exceeds "
                f"{residual_tol(eq, sol.matrix):.3e}")
    if len(unique) > solution_bound(eq.n):
        raise InternalInconsistency(
            f"{len(unique)} solutions exceed the C(2n,2) bound")

    unique.sort(key=_sort_key)
    return SolutionSet(tuple(unique), None, tuple(data))


def _sort_key(sol: Solution):
    if sol.eigen_data:
        lams = sorted((p[0] for p in sol.eigen_data),
                      key=lambda z: (z.real, z.imag))
    else:
        lams = []
    flat = [c for lam in lams for c in (lam.real, lam.imag)]
    m = sol.matrix
    flat += [m.m11.real, m.m11.imag, m.m12.real, m.m12.imag,
             m.m21.real, m.m21.imag, m.m22.real, m.m22.imag]
    return tuple(flat)
