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

from .mat2 import (E1, E2, RANK_TOL, Mat2, MatrixEquation, Vec2, det2,
                   eval_batch, join, matmul_parts, max_norms, mul_parts,
                   outer, pack, rank_and_nullspace, split, unpack)
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
    ``mat2.pack`` lays them out and their residuals, with a kind and eigen
    data per row (None for a row read from a document)."""

    matrices: np.ndarray
    residuals: np.ndarray
    kinds: tuple[str, ...]
    eigen_data: tuple

    def __len__(self) -> int:
        return len(self.kinds)

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
    kernel vector underflows (its row's squared moduli round to 0)."""
    try:
        return rank_and_nullspace(m, scale)
    except ValueError:
        raise NonConvergence(f"the kernel vector underflows at critical "
                             f"value {lam:.6g}") from None


def finite_candidates(eq: MatrixEquation,
                      sets: Sequence[Sequence[CriticalDatum]]
                      ) -> tuple[Candidates, np.ndarray]:
    """The finite candidates of every critical-data set in ``sets`` as one
    batch, with the index of each row's set.

    The rows are the scalar matrices lam*I of every two-dimensional critical
    space, then one row per pair of distinct critical values of one set
    with linearly independent critical vectors, in (i, j) order, then the
    nilpotent offsets (see ``_offset``); each group holds its rows set by
    set, each set's in data order.  All pairs come from one
    pairing-determinant pass and one ``_assemble``, and all residuals from
    one ``residuals`` call: every step acts row by row, so a set's rows are
    bit for bit those of a batch of its own.
    """
    planes, lines, offsets = [], [], []
    for s, data in enumerate(sets):
        for d in data:
            lam = d.value
            if d.space_dim == 2:
                planes.append((s, lam))
            elif d.space_dim == 1:
                k = d.basis[0]
                lines.append((s, lam, k))
                if d.multiplicity >= 2 and \
                        (offset := _offset(eq, lam, k)) is not None:
                    offsets.append((s, lam, k, offset))

    owner = np.array([s for s, _, _ in lines], int)
    z = np.array([(lam, k.x, k.y) for _, lam, k in lines],
                 complex).reshape(-1, 3)
    r = np.arange(len(lines))
    i, j = ((r[:, None] < r) & (owner[:, None] == owner)).nonzero()
    det, keep = pairing(z[i, 1:], z[j, 1:])
    i, j = i[keep], j[keep]
    inv = [1.0 / complex(*p) for p in zip(*det[:, keep].tolist())]
    pairs = [(lam, k) for _, lam, k in lines]

    x = np.concatenate((
        pack([Mat2.identity().scale(lam) for _, lam in planes]),
        _assemble(z[i], z[j], np.array(inv, complex)),
        pack([offset for _, _, _, offset in offsets])))
    found = Candidates(
        x, residuals(eq, x),
        (SCALAR,) * len(planes) + (DIAGONALIZABLE,) * len(i)
        + (NON_DIAGONALIZABLE,) * len(offsets),
        tuple(((lam, E1), (lam, E2)) for _, lam in planes)
        + tuple(zip([pairs[p] for p in i.tolist()],
                    [pairs[q] for q in j.tolist()]))
        + tuple(((lam, k),) for _, lam, k, _ in offsets))
    return found, np.concatenate((
        np.array([s for s, _ in planes], int), owner[i],
        np.array([s for s, _, _, _ in offsets], int)))


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
    finite candidates of all the finite sets are one array batch
    (``finite_candidates``): one residual call, one ``accepted`` call and
    one ``np.lexsort`` (``output_order``, with the set index as the leading
    key).  Each set is then judged alone, in backend order: every one of
    its candidates must be accepted and their count stay within the
    C(2n, 2) bound, or the solve raises InternalInconsistency naming the
    set's first refused row in scalar, pair, offset order; nothing is
    dropped or merged.  A set holds its rows as one batch in output order,
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
    order = output_order(found, owner)
    for k, s in enumerate(finite):
        rows = (owner == k).nonzero()[0]
        if not ok[rows].all():
            raise InternalInconsistency("candidate " + rejection_reason(
                eq, found.matrices[rows], found.residuals[rows], ok[rows]))
        if len(rows) > solution_bound(eq.n):
            raise InternalInconsistency(
                f"{len(rows)} solutions exceed the C(2n,2) bound")
        out[s] = SolutionSet(found.take(order[owner[order] == k].tolist()),
                             None, sets[s])
    return tuple(out)


def output_order(rows: Candidates, owner: np.ndarray) -> np.ndarray:
    """The stable order of the rows by their key: the index of the row's
    set (``owner``), then the two eigenvalues of the eigen data (a
    non-diagonalizable row's one eigenvalue twice), ordered by (real, imag)
    as numpy sorts complex numbers, then the matrix entries, each as its
    (real, imag) parts, in one ``np.lexsort``.  So each set's rows come out
    together, in the order they have alone."""
    lams = np.sort(np.array([(ed[0][0], ed[-1][0]) for ed in rows.eigen_data],
                            complex).reshape(-1, 2))
    key = np.concatenate((owner[:, None], lams.view(float),
                          rows.matrices.view(float)), axis=1)
    return np.lexsort(key.T[::-1])
