"""2x2 complex matrices, polynomial matrices, matrix equations, and the
pairwise distance kernel over sets of matrices."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .poly import Poly

# Rank decisions scale with a caller-provided magnitude reference, never with
# raw machine epsilon: equation coefficients can reach ~1e3.
RANK_TOL = 1e-8
# Determinants of evaluated polynomial matrices carry roundoff of order
# (degree+1) * eps * scale^2, so the singularity test needs this floor.
_DET_FLOOR = 4e-13

MAX_DEGREE = 16


@dataclass(frozen=True)
class Vec2:
    x: complex
    y: complex

    def __post_init__(self):
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "y", complex(self.y))

    def norm(self) -> float:
        return (abs(self.x) ** 2 + abs(self.y) ** 2) ** 0.5

    def normalized(self) -> "Vec2":
        """Unit norm with the first nonzero component rotated positive real."""
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        x, y = self.x / n, self.y / n
        lead = x if abs(x) > 1e-12 else y
        phase = abs(lead) / lead
        return Vec2(x * phase, y * phase)


def det2(u: Vec2, v: Vec2) -> complex:
    return u.x * v.y - u.y * v.x


@dataclass(frozen=True)
class Mat2:
    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def __post_init__(self):
        # finiteness is checked by MatrixEquation and solver.residual
        for name in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @staticmethod
    def zero() -> "Mat2":
        return Mat2(0, 0, 0, 0)

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    @staticmethod
    def diag(a: complex, b: complex) -> "Mat2":
        return Mat2(a, 0, 0, b)

    def rows(self):
        return ((self.m11, self.m12), (self.m21, self.m22))

    def __add__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.m11 + o.m11, self.m12 + o.m12,
                    self.m21 + o.m21, self.m22 + o.m22)

    def __sub__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.m11 - o.m11, self.m12 - o.m12,
                    self.m21 - o.m21, self.m22 - o.m22)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * o.m11 + self.m12 * o.m21,
            self.m11 * o.m12 + self.m12 * o.m22,
            self.m21 * o.m11 + self.m22 * o.m21,
            self.m21 * o.m12 + self.m22 * o.m22,
        )

    def scale(self, s: complex) -> "Mat2":
        return Mat2(s * self.m11, s * self.m12, s * self.m21, s * self.m22)

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.m11 * v.x + self.m12 * v.y,
                    self.m21 * v.x + self.m22 * v.y)

    def trace(self) -> complex:
        return self.m11 + self.m22

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def max_norm(self) -> float:
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))

    def adjugate(self) -> "Mat2":
        return Mat2(self.m22, -self.m12, -self.m21, self.m11)

    def inverse(self) -> "Mat2":
        d = self.det()
        if d == 0:
            raise ZeroDivisionError("singular 2x2 matrix")
        return self.adjugate().scale(1.0 / d)

    def dist(self, o: "Mat2") -> float:
        return (self - o).max_norm()


def outer(u: Vec2, v: Vec2) -> Mat2:
    """Rank-one matrix u v^T (plain transpose, no conjugation)."""
    return Mat2(u.x * v.x, u.x * v.y, u.y * v.x, u.y * v.y)


E1 = Vec2(1, 0)
E2 = Vec2(0, 1)


# Rows per block of the pairwise kernel.  A block holds two float arrays of
# _BLOCK_ROWS x k (about 130 kB at k = 496), so memory stays O(k) instead of
# the full k x k x 4 difference; more rows save no measurable time.
_BLOCK_ROWS = 16
# Mat2.dist <= _UPPER * _lower_bounds: hypot(x, y) <= sqrt(2) max(|x|, |y|),
# 2 leaves room for hypot's rounding, and doubling a float is exact
_UPPER = 2.0


def pack(mats: Sequence[Mat2]) -> np.ndarray:
    """The matrices as a (k, 4) complex array, entries in m11, m12, m21,
    m22 order."""
    return np.array([(m.m11, m.m12, m.m21, m.m22) for m in mats],
                    dtype=complex).reshape(-1, 4)


def _lower_bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # low[r, c]: the largest |real or imaginary part| over the entries of
    # a[r] - b[c], a lower bound on Mat2.dist that needs no hypot
    low = np.zeros((len(a), len(b)))
    part = np.empty_like(low)
    for e in range(4):
        for get in (np.real, np.imag):
            np.subtract(get(a[:, None, e]), get(b[None, :, e]), out=part)
            np.maximum(low, np.abs(part, out=part), out=low)
    return low


def _exact_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Mat2.dist between matching rows, bit for bit: complex subtraction is
    # part-wise, and Python's complex abs is hypot (numpy's complex abs uses
    # another algorithm that can differ in the last bit)
    diff = a - b
    return np.hypot(diff.real, diff.imag).max(axis=-1)


def close_pairs(mats: Sequence[Mat2], tol: float
                ) -> tuple[list[tuple[int, int]], Optional[float]]:
    """Index pairs i < j with Mat2.dist <= tol, in (i, j) order, and the
    exact least pairwise distance (None for fewer than two matrices).

    Exact distances are computed only for the pairs whose lower bound leaves
    them a chance to be within tol or to be the least."""
    x = pack(mats)
    pairs: list[tuple[int, int]] = []
    least = math.inf
    for start in range(0, len(x) - 1, _BLOCK_ROWS):
        # rows start.. against columns start+1..; column c holds index
        # start + 1 + c, so c < r lies below the diagonal (j <= i)
        low = _lower_bounds(x[start:start + _BLOCK_ROWS], x[start + 1:])
        low[np.tril_indices(low.shape[0], -1, low.shape[1])] = np.inf
        cut = max(tol, min(least, _UPPER * low.min()))
        rows, cols = np.nonzero(low <= cut)
        i, j = rows + start, cols + start + 1
        d = _exact_dists(x[i], x[j])
        if d.size:
            least = min(least, d.min())
        close = d <= tol
        pairs.extend(zip(i[close].tolist(), j[close].tolist()))
    return pairs, float(least) if len(x) > 1 else None


def match_in_order(a: Sequence[Mat2], b: Sequence[Mat2], tol: float) -> bool:
    """Greedy one-to-one matching in a's order: each matrix takes its
    nearest remaining partner in b, the earliest on ties, and that partner
    must lie within tol."""
    if len(a) != len(b):
        return False
    xa, xb = pack(a), pack(b)
    free = np.ones(len(b), dtype=bool)
    for start in range(0, len(xa), _BLOCK_ROWS):
        low = _lower_bounds(xa[start:start + _BLOCK_ROWS], xb)
        for r, row in enumerate(low, start):
            # the nearest free partner's lower bound is at most the cut
            cut = _UPPER * row[free].min()
            cand = np.flatnonzero(free & (row <= cut))
            d = _exact_dists(xa[r], xb[cand])
            best = int(np.argmin(d))
            if d[best] > tol:
                return False
            free[cand[best]] = False
    return True


def greedy_unique(mats: Sequence[Mat2], tol: float) -> list[int]:
    """Indices of the matrices kept by a greedy pass in list order: one is
    kept unless it lies within tol of an earlier kept one."""
    pairs, _ = close_pairs(mats, tol)
    dropped: set[int] = set()
    # by later index, so that every i < j is settled before j is
    for i, j in sorted(pairs, key=lambda p: p[1]):
        if i not in dropped:
            dropped.add(j)
    return [i for i in range(len(mats)) if i not in dropped]


@dataclass(frozen=True)
class MatrixEquation:
    """Monic equation X^n + A_{n-1} X^{n-1} + ... + A_1 X + A_0 = 0.

    ``coeffs`` lists A_0 first; the leading identity coefficient is implicit.
    """

    coeffs: tuple[Mat2, ...]

    def __post_init__(self):
        if not 1 <= len(self.coeffs) <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}")
        if not all(cmath.isfinite(z) for a in self.coeffs
                   for z in (a.m11, a.m12, a.m21, a.m22)):
            raise ValueError("coefficient entries must be finite")
        try:
            scale = self.coeff_scale()
        except OverflowError:  # an entry's modulus exceeds the largest double
            scale = math.inf
        # a coefficient of det M(t) sums 2(n+1) products of two entries, so
        # its modulus stays below sqrt(2) * 2(n+1) * coeff_scale()^2
        if scale > math.sqrt(sys.float_info.max / (4 * (self.n + 1))):
            raise ValueError(f"coefficient scale {scale:.3g} overflows det M(t)")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def coeff_scale(self) -> float:
        """Largest coefficient entry magnitude, floored at the implicit 1."""
        return max(1.0, max(a.max_norm() for a in self.coeffs))


@dataclass(frozen=True)
class PolyMat2:
    e11: Poly
    e12: Poly
    e21: Poly
    e22: Poly

    def eval(self, t: complex) -> Mat2:
        return Mat2(self.e11(t), self.e12(t), self.e21(t), self.e22(t))

    def det(self) -> Poly:
        return self.e11 * self.e22 - self.e12 * self.e21

    def derivative(self) -> "PolyMat2":
        return PolyMat2(self.e11.derivative(), self.e12.derivative(),
                        self.e21.derivative(), self.e22.derivative())


def poly_matrix(eq: MatrixEquation) -> PolyMat2:
    """The polynomial matrix M(t) = t^n I + sum_i A_i t^i of an equation.

    A vector v is annihilated by M(lam) exactly when lam, v can be an
    eigenpair of a solution, so det M(t) gates all solution eigenvalues.
    """
    n = eq.n
    entries = [[0j] * (n + 1) for _ in range(4)]
    for i, a in enumerate(eq.coeffs):
        for slot, value in enumerate((a.m11, a.m12, a.m21, a.m22)):
            entries[slot][i] = value
    entries[0][n] = 1.0
    entries[3][n] = 1.0
    return PolyMat2(*(Poly(e) for e in entries))


def eval_equation(eq: MatrixEquation, x: Mat2) -> Mat2:
    """Residual X^n + A_{n-1} X^{n-1} + ... + A_0 at X.

    Association is fixed left to right, (((X + A_{n-1})X + A_{n-2})X + ...),
    so residuals are bit-reproducible.
    """
    acc = x + eq.coeffs[-1]
    for a in reversed(eq.coeffs[:-1]):
        acc = acc @ x + a
    return acc


def rank_and_nullspace(a: Mat2, scale: float) -> tuple[int, list[Vec2]]:
    """Numerical rank of a 2x2 matrix and an orthonormal kernel basis.

    ``scale`` is the magnitude reference supplied by the caller; entries are
    negligible below RANK_TOL*scale and determinants below
    (RANK_TOL*scale)^2.  Kernel vectors come from the orthogonal complement
    of the larger-norm row and are normalized (unit norm, first nonzero
    component positive real).
    """
    ref = RANK_TOL * max(scale, 1e-300)
    if a.max_norm() <= ref:
        return 0, [E1, E2]
    if abs(a.det()) <= max(ref * ref, _DET_FLOOR * scale * scale):
        r1, r2 = a.rows()
        row = r1 if abs(r1[0]) ** 2 + abs(r1[1]) ** 2 >= abs(r2[0]) ** 2 + abs(r2[1]) ** 2 else r2
        v = Vec2(-row[1], row[0]).normalized()
        return 1, [v]
    return 2, []


@dataclass(frozen=True)
class Eigen2:
    """Eigenvalues of a 2x2 matrix; ``vectors`` holds one vector when the
    matrix is defective, otherwise two."""

    values: tuple[complex, complex]
    vectors: tuple[Vec2, ...]
    defective: bool


def eigen2(a: Mat2) -> Eigen2:
    """Eigen-decomposition through the quadratic formula on the
    characteristic polynomial; classifies defective matrices by eigenvalue
    gap and kernel dimension."""
    tr, dt = a.trace(), a.det()
    disc = cmath.sqrt(tr * tr - 4 * dt)
    lam1, lam2 = (tr + disc) / 2, (tr - disc) / 2
    scale = max(1.0, a.max_norm())
    if abs(lam1 - lam2) > RANK_TOL * scale:
        vecs = []
        for lam in (lam1, lam2):
            shifted = a - Mat2.identity().scale(lam)
            rank, basis = rank_and_nullspace(shifted, scale)
            vecs.append(basis[0] if basis else E1)
        order = sorted(((lam1, vecs[0]), (lam2, vecs[1])),
                       key=lambda p: (p[0].real, p[0].imag))
        return Eigen2((order[0][0], order[1][0]),
                      (order[0][1], order[1][1]), False)
    lam = tr / 2
    shifted = a - Mat2.identity().scale(lam)
    if shifted.max_norm() <= RANK_TOL * scale:
        return Eigen2((lam, lam), (E1, E2), False)
    rank, basis = rank_and_nullspace(shifted, scale)
    return Eigen2((lam, lam), (basis[0] if basis else E1,), True)
