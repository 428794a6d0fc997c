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
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .mat2 import (RANK_TOL, Mat2, MatrixEquation, Vec2, det2, eval_batch,
                   join, matmul_parts, max_norms, mul_parts, outer, pack,
                   rank_and_nullspace, split, unpack)
from .poly import NonConvergence, find_roots

RESIDUAL_COEF = 1e-7
# unit critical vectors are parallel below this pairing determinant
INDEPENDENCE_TOL = 1e-6
_NILPOTENT_TOL = 1e-8
# solution kinds and family reasons, spelled as documents carry them
DIAGONALIZABLE, SCALAR, NON_DIAGONALIZABLE = KINDS = (
    "diagonalizable_distinct", "scalar", "non_diagonalizable")
SECOND_VALUE_FAMILY, NILPOTENT_FAMILY = REASONS = (
    "two_dim_space_with_second_value", "nilpotent_affine_family")


class InternalInconsistency(RuntimeError):
    """A candidate or a family passed its structural checks but failed the
    residual check; tolerances are misconfigured for this input."""


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
    ``mat2.pack`` lays them out and their residuals, with a kind per row
    and ``pairs``, the (k, 2) indices into the set's critical data of each
    row's two eigenvalues (one index twice for a scalar or offset row; None
    for a batch read from a document or packed by ``SolutionSet.of``)."""

    matrices: np.ndarray
    residuals: np.ndarray
    kinds: tuple[str, ...]
    pairs: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.kinds)

    def take(self, rows: Sequence[int]) -> "Candidates":
        return Candidates(self.matrices[rows], self.residuals[rows],
                          tuple(self.kinds[r] for r in rows),
                          None if self.pairs is None else self.pairs[rows])


@dataclass(frozen=True)
class InfiniteCertificate:
    """A verified one-parameter family X(mu) = base + mu * direction."""

    reason: str
    base: Mat2
    direction: Mat2
    samples: tuple[complex, ...]
    sample_residuals: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """A classified solution set.  ``batch`` holds the finite solutions in
    output order as one array batch (empty for an infinite set); the
    Solution objects, with the eigen data that ``pairs`` names, are built
    from it, bit for bit, on first access to ``solutions`` only."""

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
                              tuple(s.kind for s in solutions)),
                   certificate, tuple(critical_data))

    @cached_property
    def solutions(self) -> tuple[Solution, ...]:
        b, data = self.batch, self.critical_data
        eigen = (None,) * len(b) if b.pairs is None else (
            tuple((data[a].value, v) for a in dict.fromkeys(pair)
                  for v in data[a].basis) for pair in b.pairs.tolist())
        return tuple(map(Solution, unpack(b.matrices), b.kinds, eigen,
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
    n = eq.n
    tols = []
    for norm in max_norms(x).tolist():
        try:
            tols.append(coef * (1.0 + norm) ** n)
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
    found once per equation object and backend.  The critical space at a
    value (M(lam), its finiteness check and ``rank_and_nullspace``) is
    computed once per equation and value, so the two backends share it
    wherever their roots are the same double."""
    return eq.derived(("critical_data", backend),
                      lambda: _critical_data(eq, backend))


def _critical_data(eq, backend):
    return tuple(CriticalDatum(root.value, root.multiplicity,
                               *_critical_space(eq, root.value))
                 for root in find_roots(eq.det_poly, backend=backend))


def _bits(*zs: complex) -> bytes:
    """The exact doubles of complex numbers, as a key of ``eq.derived``:
    == would take -0.0 for 0.0, whose results can differ in a sign."""
    return struct.pack(f"{2 * len(zs)}d",
                       *(part for z in zs for part in (z.real, z.imag)))


def _critical_space(eq, lam) -> tuple[int, tuple[Vec2, ...]]:
    """Dimension and basis of the nullspace of M(lam), once per equation and
    value; NonConvergence where M(lam) overflows or has full rank."""
    def compute():
        m, scale = _matrix_at(eq, 0, lam)
        if not all(map(cmath.isfinite, (m.m11, m.m12, m.m21, m.m22))):
            raise NonConvergence(
                f"M(t) overflows at critical value {lam:.6g}")
        rank, basis = _rank_and_kernel(m, scale, lam)
        if rank == 2:  # the backend returned a value that is no root
            raise NonConvergence(
                f"no critical space at critical value {lam:.6g}")
        return 2 - rank, tuple(basis)
    return eq.derived(("critical_space", _bits(lam)), compute)


def _matrix_at(eq, order: int, lam: complex) -> tuple[Mat2, float]:
    """M(lam) (order 0) or M'(lam) (order 1) and the Horner-term scale of
    its entries, ``norm_poly`` or its derivative at |lam|, once per equation,
    order and value: the critical space, the offset, rule (b) and the scan
    all read it."""
    def compute():
        matrix, norms = (eq.matrix, eq.norm_poly) if order == 0 else \
            eq.derived("derivatives", lambda: (eq.matrix.derivative(),
                                               eq.norm_poly.derivative()))
        return matrix.eval(lam), norms(abs(lam)).real
    return eq.derived(("matrix_at", order, _bits(lam)), compute)


def _rank_and_kernel(m: Mat2, scale: float, lam: complex):
    """``rank_and_nullspace`` of M(lam) or M'(lam); NonConvergence where the
    kernel vector underflows (its row's squared moduli round to 0) or
    overflows (they, or their sum, exceed the largest double)."""
    try:
        return rank_and_nullspace(m, scale)
    except ValueError:
        raise NonConvergence(f"the kernel vector underflows at critical "
                             f"value {lam:.6g}") from None
    except ArithmeticError:
        raise NonConvergence(f"the kernel vector overflows at critical "
                             f"value {lam:.6g}") from None


def finite_candidates(eq: MatrixEquation,
                      sets: Sequence[Sequence[CriticalDatum]]
                      ) -> tuple[Candidates, np.ndarray]:
    """The finite candidates of every critical-data set in ``sets`` as one
    batch in output order, with the index of each row's set.

    The rows are the scalar matrices lam*I of every two-dimensional critical
    space, one row per pair of distinct critical values of one set with
    linearly independent critical vectors, and the nilpotent offsets (see
    ``_offset``).  Their ``pairs`` are (a, a) for a scalar or offset at
    datum a and (i, j), i < j, for a pair, so one ``np.lexsort`` on the
    distinct (set, a, b) gives the output order, which is the eigenvalues'
    order since ``find_roots`` returns the values in (real, imag) order.
    All pairs come from one pairing-determinant pass and one ``_assemble``,
    and all residuals from one ``residuals`` call: every step acts row by
    row, so a set's rows are bit for bit those of a batch of its own.
    """
    planes, lines, offsets = [], [], []
    for s, data in enumerate(sets):
        for a, d in enumerate(data):
            lam = d.value
            if d.space_dim == 2:
                planes.append(((s, a, a), Mat2.identity().scale(lam)))
            elif d.space_dim == 1:
                k = d.basis[0]
                lines.append((s, a, lam, k))
                if d.multiplicity >= 2 and \
                        (offset := _offset(eq, lam, k)) is not None:
                    offsets.append(((s, a, a), offset))

    owner, index = np.array([(s, a) for s, a, _, _ in lines],
                            int).reshape(-1, 2).T
    z = np.array([(lam, k.x, k.y) for _, _, lam, k in lines],
                 complex).reshape(-1, 3)
    r = np.arange(len(lines))
    i, j = ((r[:, None] < r) & (owner[:, None] == owner)).nonzero()
    det, keep = pairing(z[i, 1:], z[j, 1:])
    i, j = i[keep], j[keep]
    inv = [1.0 / complex(*p) for p in zip(*det[:, keep].tolist())]

    x = np.concatenate((
        pack([m for _, m in planes]),
        _assemble(z[i], z[j], np.array(inv, complex)),
        pack([m for _, m in offsets])))
    rows = np.concatenate((
        np.array([row for row, _ in planes], int).reshape(-1, 3),
        np.array((owner[i], index[i], index[j])).T,
        np.array([row for row, _ in offsets], int).reshape(-1, 3)))
    kinds = ((SCALAR,) * len(planes) + (DIAGONALIZABLE,) * len(i)
             + (NON_DIAGONALIZABLE,) * len(offsets))
    order = np.lexsort(rows.T[::-1])
    x, rows = x[order], rows[order]
    found = Candidates(x, residuals(eq, x),
                       tuple(kinds[r] for r in order.tolist()), rows[:, 1:])
    return found, rows[:, 0]


def enumerate_diagonalizable(*args, **kwargs):
    """Placeholder: only the benchmark tracer binds this name.  ROADMAP
    item 5 deletes it together with that binding."""
    raise NotImplementedError("solver.enumerate_diagonalizable")


def pairing(va: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det2(va, vb) for each row of the (k, 2) complex vectors, as its (2, k)
    parts by CPython's products, and whether the pair is independent by the
    one rule for unit critical vectors: |det| > INDEPENDENCE_TOL."""
    (ax, ay), (bx, by) = (_parts(v.T).swapaxes(0, 1) for v in (va, vb))
    det = mul_parts(ax, by) - mul_parts(ay, bx)
    return det, np.hypot(*det) > INDEPENDENCE_TOL


def _parts(z: np.ndarray) -> np.ndarray:
    return np.array((z.real, z.imag))


def _assemble(a: np.ndarray, b: np.ndarray, inv: np.ndarray) -> np.ndarray:
    # X = [va vb] diag(la, lb) [va vb]^{-1}, packed, as the Mat2 expression
    # (p @ Mat2.diag(la, lb) @ p.adjugate()).scale(1.0 / pairing) computes
    # it, zero products included; the rows of a and b hold (value, vector x,
    # vector y), and inv is 1 / pairing by Python's complex division
    (la, ax, ay), (lb, bx, by) = a.T, b.T
    zero = np.zeros(la.shape, la.dtype)

    def mats(*entries):
        return split(np.array(entries).T)

    x = matmul_parts(matmul_parts(mats(ax, bx, ay, by),
                                  mats(la, zero, zero, lb)),
                     mats(by, -bx, -ay, ax))
    return join(mul_parts(_parts(inv), x))


def find_nondiagonalizable(*args, **kwargs):
    """Placeholder: only the benchmark tracer binds this name.  ROADMAP
    item 5 deletes it together with that binding."""
    raise NotImplementedError("solver.find_nondiagonalizable")


def _offset(eq, lam, k) -> Optional[Mat2]:
    """The offset lam*I + N (N nonzero nilpotent) at the critical vector k
    of lam, or None, once per equation, value and vector.

    For nilpotent N, X^k = lam^k I + k lam^(k-1) N collapses the residual
    to M(lam) + M'(lam) N, and a nonzero nilpotent is N = k v^T with
    v^T k = 0.  A one-dimensional critical space (M(lam) = a b^T) forces v
    along b, hence k onto the critical vector: at most one offset exists,
    and only when M'(lam) k is parallel to a.  Two-dimensional spaces are
    ``detect_infinite``'s.
    """
    def compute():
        mval, _ = _matrix_at(eq, 0, lam)
        mder, scale = _matrix_at(eq, 1, lam)
        w = mder.apply(k)
        col = max(Vec2(mval.m11, mval.m21), Vec2(mval.m12, mval.m22),
                  key=Vec2.norm)
        wnorm = w.norm()
        if (wnorm <= RANK_TOL * scale
                or abs(det2(w, col)) > _NILPOTENT_TOL * wnorm * col.norm()):
            return None
        # M(lam) = -w v^T, so v^T = -w^H M(lam) / |w|^2
        v = Vec2(-(w.x.conjugate() * mval.m11 + w.y.conjugate() * mval.m21),
                 -(w.x.conjugate() * mval.m12 + w.y.conjugate() * mval.m22))
        return (Mat2.identity().scale(lam)
                + outer(k, v).scale(1.0 / wnorm ** 2))
    return eq.derived(("offset", _bits(lam, k.x, k.y)), compute)


def family_samples(eq: MatrixEquation, base: Mat2, direction: Mat2):
    """The one check of a family X(mu) = base + mu * direction, shared by
    the solver and the verifier: the parameters k / count, k = 1..count,
    count = max(3, n + 1), the residuals of those members from one batch
    with their ``accepted`` mask, whether the direction's largest entry
    exceeds RANK_TOL * max(1, |base|), and that floor.  f(X(mu)) is a
    polynomial of degree at most n in mu, so one that vanishes at n + 1
    parameters vanishes at all."""
    count = max(3, eq.n + 1)
    params = tuple(complex(k / count) for k in range(1, count + 1))
    x = pack([base + direction.scale(mu) for mu in params])
    res = residuals(eq, x)
    base_norm, step = max_norms(pack([base, direction])).tolist()
    flat = RANK_TOL * max(1.0, base_norm)
    return params, res, accepted(eq, x, res), step > flat, flat


def _certify_family(eq, reason, base, direction) -> InfiniteCertificate:
    params, res, ok, moves, _ = family_samples(eq, base, direction)
    if not (moves and ok.all()):
        raise InternalInconsistency(f"family {reason} failed verification")
    return InfiniteCertificate(reason, base, direction, params,
                               tuple(res.tolist()))


def detect_infinite(eq: MatrixEquation,
                    data: Sequence[CriticalDatum]) -> Optional[InfiniteCertificate]:
    """Certificate of an infinite solution family, or None; a family that
    one of the rules guarantees but that fails ``family_samples`` raises
    InternalInconsistency.

    Rule (a): a two-dimensional critical space combined with any second
    distinct critical value yields a family by rotating the direction paired
    with the other value's vector.  Rule (b): a lone critical value with a
    two-dimensional space admits the nilpotent offsets mu k k_perp^T for a
    kernel vector k of a singular M'(lam), since M'(lam) k = 0 makes
    f(lam I + mu k k_perp^T) = M(lam) = 0; the direction is scaled by
    max(1, |lam|), the size of the base.  A one-dimensional space admits
    at most one offset, so no other family exists.
    """
    d = next((d for d in data if d.space_dim == 2), None)
    if d is None:
        return None
    if len(data) == 1:
        lam = d.value
        rank, kernel = _rank_and_kernel(*_matrix_at(eq, 1, lam), lam)
        if rank == 2:
            return None
        k = kernel[0]
        return _certify_family(
            eq, NILPOTENT_FAMILY, Mat2.identity().scale(lam),
            outer(k, Vec2(-k.y, k.x).normalized()).scale(max(1.0, abs(lam))))
    other = next(o for o in data if o is not d)
    return _two_dim_family(eq, d.value, other.value, other.basis[0])


def _two_dim_family(eq, lam, lam2, vprime) -> InfiniteCertificate:
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
    """Classify the full solution set of a matrix polynomial equation: the
    one-backend case of ``solve_sets``."""
    return solve_sets(eq, (backend,))[0]


def solve_sets(eq: MatrixEquation,
               backends: Sequence[str]) -> tuple[SolutionSet, ...]:
    """The solution set of the equation on each root backend, from one pass.

    Every backend's critical data comes first, in order, so the first
    backend that fails to root the equation raises before any later work.
    Infinite detection then runs set by set, before finite enumeration, so
    two-dimensional critical spaces never reach the pair assembly.  The
    finite candidates of all the finite sets are one array batch in output
    order (``finite_candidates``), with one residual call and one
    ``accepted`` call.  Each set is then judged alone, in backend order:
    every one of its candidates must be accepted and their count stay
    within the C(2n, 2) bound, or the solve raises InternalInconsistency
    naming the set's first refused row in output order; nothing is
    dropped or merged.  A set holds its rows as one batch in that order,
    bit for bit the batch a solve on that backend alone gives; Solution
    objects are built only if ``SolutionSet.solutions`` is read.
    """
    sets = [critical_data(eq, backend=backend) for backend in backends]
    certs = [detect_infinite(eq, data) for data in sets]
    out = [None if cert is None else SolutionSet.of((), cert, data)
           for cert, data in zip(certs, sets)]
    finite = [s for s, cert in enumerate(certs) if cert is None]
    if not finite:
        return tuple(out)
    found, owner = finite_candidates(eq, [sets[s] for s in finite])
    ok = accepted(eq, found.matrices, found.residuals)
    for k, s in enumerate(finite):
        rows = (owner == k).nonzero()[0]
        if not ok[rows].all():
            raise InternalInconsistency("candidate " + rejection_reason(
                eq, found.matrices[rows], found.residuals[rows], ok[rows]))
        if len(rows) > solution_bound(eq.n):
            raise InternalInconsistency(
                f"{len(rows)} solutions exceed the C(2n,2) bound")
        out[s] = SolutionSet(found.take(rows.tolist()), None, sets[s])
    return tuple(out)

