"""2x2 complex matrices, polynomial matrices, matrix equations, and array
kernels over sets of matrices: one pair kernel for the pairs within a
distance (the dedupe, the least distance and set matching), and f(X) and
the eigenvalues for many candidates X at once."""

from __future__ import annotations

import cmath
import math
import sys
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .poly import Poly

# Rank decisions scale with a caller-provided magnitude reference, never with
# raw machine epsilon: equation coefficients can reach ~1e3.
RANK_TOL = 1e-8
# Determinants of evaluated polynomial matrices carry roundoff of order
# (degree+1) * eps * scale^2, so the singularity test needs this floor.
_DET_FLOOR = 4e-13

MAX_DEGREE = 16


class Frozen:
    """Base of the immutable classes that are no NamedTuple: ``__init__``
    sets the attributes through ``object.__setattr__``, assigning or
    deleting one raises AttributeError, and the repr shows ``_fields``."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class Vec2(Frozen):
    """A vector of C^2, its entries coerced to complex."""

    _fields = ("x", "y")

    def __init__(self, x: complex, y: complex):
        object.__setattr__(self, "x", complex(x))
        object.__setattr__(self, "y", complex(y))

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y) == (o.x, o.y)

    def __hash__(self) -> int:
        return hash((self.x, self.y))

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


class Mat2(Frozen):
    """A 2x2 complex matrix, entries m11, m12 (first row), m21, m22."""

    _fields = ("m11", "m12", "m21", "m22")

    def __init__(self, m11: complex, m12: complex, m21: complex,
                 m22: complex):
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m12", m12)
        object.__setattr__(self, "m21", m21)
        object.__setattr__(self, "m22", m22)
        # looked up on the class, where perfbench's tracer wraps it to count
        # allocations
        self.__post_init__()

    def __post_init__(self):
        # finiteness is checked by MatrixEquation and solver.residuals;
        # complex(z) of an exact complex z is z itself, so only other types
        # (int, float, bool, numpy scalars) need converting
        if not (type(self.m11) is type(self.m12) is type(self.m21)
                is type(self.m22) is complex):
            for name in self._fields:
                object.__setattr__(self, name, complex(getattr(self, name)))

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return ((self.m11, self.m12, self.m21, self.m22)
                == (o.m11, o.m12, o.m21, o.m22))

    def __hash__(self) -> int:
        return hash((self.m11, self.m12, self.m21, self.m22))

    @staticmethod
    def zero() -> "Mat2":
        return Mat2(0, 0, 0, 0)

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    @staticmethod
    def diag(a: complex, b: complex) -> "Mat2":
        return Mat2(a, 0, 0, b)

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

    def dist(self, o: "Mat2") -> float:
        return (self - o).max_norm()


def outer(u: Vec2, v: Vec2) -> Mat2:
    """Rank-one matrix u v^T (plain transpose, no conjugation)."""
    return Mat2(u.x * v.x, u.x * v.y, u.y * v.x, u.y * v.y)


E1 = Vec2(1, 0)
E2 = Vec2(0, 1)


def pack(mats: Sequence[Mat2]) -> np.ndarray:
    """The matrices as a (k, 4) complex array, entries in m11, m12, m21,
    m22 order."""
    return np.array([(m.m11, m.m12, m.m21, m.m22) for m in mats],
                    dtype=complex).reshape(-1, 4)


def unpack(x: np.ndarray) -> list[Mat2]:
    """The rows of a packed array as matrices, entries bit for bit."""
    return [Mat2(*row) for row in x.tolist()]


def max_norms(x: np.ndarray) -> np.ndarray:
    """Mat2.max_norm of each row of a packed array, inf where an entry is
    not finite or its modulus overflows (abs() would raise).  Bit for bit:
    Python's complex abs is hypot (numpy's complex abs uses another
    algorithm that can differ in the last bit), and complex subtraction is
    part-wise, so max_norms(a - b) is Mat2.dist between matching rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.hypot(x.real, x.imag).max(axis=1)
    norms[np.isnan(norms)] = np.inf
    return norms


# Batches of 2x2 matrices as "parts": a (2, 2, 2, k) float array holding
# the real, then the imaginary parts of k matrices, by row and column, with
# the k matrices along the last (contiguous) axis.  Each operation below
# does what the Mat2 operator and CPython's complex arithmetic do, in the
# same order, so the values are bit for bit those of the scalar code (NaN
# payloads aside); numpy's own complex multiply and abs may differ in the
# last bit.

def split(x: np.ndarray) -> np.ndarray:
    """A packed (k, 4) complex array as parts."""
    return np.array((x.real.T, x.imag.T)).reshape(2, 2, 2, len(x))


def join(parts: np.ndarray) -> np.ndarray:
    """Parts as a packed (k, 4) complex array."""
    x = np.empty((parts.shape[-1], 4), dtype=complex)
    x.real = parts[0].reshape(4, -1).T
    x.imag = parts[1].reshape(4, -1).T
    return x


def mul_parts(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """s * a entrywise, as Mat2.scale: (sr ar - si ai, sr ai + si ar).
    s holds the parts (2, k) of one scalar per matrix (a may also hold k
    scalars)."""
    sr, si = s
    return np.array((sr * a[0] - si * a[1], sr * a[1] + si * a[0]))


def matmul_parts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as Mat2.__matmul__: (r, c) = a[r,0] b[0,c] + a[r,1] b[1,c],
    each product (ar br - ai bi, ar bi + ai br) as CPython forms it."""
    return _times(a, _right_factor(b))


def _right_factor(b: np.ndarray) -> np.ndarray:
    # w[p, o]: what part p of a left factor multiplies into part o of the
    # product, so that ar br - ai bi becomes the sum ar br + ai (-bi);
    # negating a product and adding a negation are exact
    br, bi = b
    return np.array(((br, bi), (-bi, br)))[:, :, None]


def _times(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # q[p, o, r, j, c]: part p of a[r, j] times w[p, o][j, c]; summing p
    # first gives each complex product, then j the matrix product
    q = a[:, None, :, :, None] * w
    t = q[0] + q[1]
    return t[:, :, 0] + t[:, :, 1]


# up to this many finite rows, the pair kernel measures every pair: on a
# sweep cell's few dozen rows that takes fewer array calls than the sort
_ALL_PAIRS_MAX = 32
# parts the window is filtered on one at a time before the rest are tested
# in one array step
_ONE_AT_A_TIME = 2


@np.errstate(over="ignore")
def _near_pairs(x: np.ndarray, cut: float):
    """Index arrays i < j of exactly the pairs of finite rows of a packed
    array whose Mat2.dist is at most cut, and those distances.  Up to
    _ALL_PAIRS_MAX finite rows every pair is measured.  Above that, a sort
    and sweep (Hinrichs, Nievergelt and Schorn 1988) along the part u of
    widest range pairs each row with the later rows within cut + a few
    ulps of |u| + cut along u, so that rounding drops no pair, and keeps
    those whose real and imaginary parts all differ by at most cut (a
    lower bound on Mat2.dist): on the first _ONE_AT_A_TIME parts one at a
    time, then on the rest in one array step.  A step per part costs about
    six calls, while one step for all parts gathers every part over the
    whole window, about 22k pairs in least_distance at n = 16."""
    rows = np.isfinite(x).all(axis=1).nonzero()[0]
    if len(rows) <= _ALL_PAIRS_MAX:
        s, t = (rows[:, None] < rows).nonzero()
        i, j = rows[s], rows[t]
    else:
        parts = x[rows].view(float)
        widest = np.argmax(parts.max(axis=0, initial=-math.inf)
                           - parts.min(axis=0, initial=math.inf))
        order = np.argsort(parts[:, widest])
        u = parts[order, widest]
        end = np.searchsorted(
            u, u + cut + 4 * np.finfo(float).eps * (np.abs(u) + cut),
            "right")
        first = np.arange(1, len(u) + 1)
        count = np.maximum(end - first, 0)  # none when cut < 0
        s = np.repeat(first - 1, count)
        t = (np.arange(len(s))
             + np.repeat(first - np.cumsum(count) + count, count))
        # take, not [:, s], keeps each part's values contiguous, so that
        # all() runs across parts along the outer axis
        cols = parts.T.take(order, axis=1)
        for col in cols[:_ONE_AT_A_TIME]:
            near = np.abs(col[s] - col[t]) <= cut
            s, t = s[near], t[near]
        rest = cols[_ONE_AT_A_TIME:]
        near = (np.abs(rest.take(s, axis=1) - rest.take(t, axis=1))
                <= cut).all(axis=0)
        i, j = np.sort(rows[order[np.array((s[near], t[near]))]], axis=0)
    d = max_norms(x[i] - x[j])
    near = d <= cut
    return i[near], j[near], d[near]


@np.errstate(over="ignore")
def least_distance(x: np.ndarray) -> Optional[float]:
    """The exact least Mat2.dist between two rows of a packed array, None
    for fewer than two rows; rows with a non-finite entry are in no pair,
    so it is inf for fewer than two finite rows.  Above _ALL_PAIRS_MAX
    finite rows the cut is a distance that occurs, an upper bound on the
    least: that of the neighbours in the one of the 8 part orders whose
    parts differ least (all 8 orders in one array step).  That cut makes
    the sweep window large at n = 16 (about 22k pairs over 496 rows),
    hence the one-at-a-time filters of _near_pairs."""
    if len(x) < 2:
        return None
    y = x[np.isfinite(x).all(axis=1)]
    cut = math.inf
    if len(y) > _ALL_PAIRS_MAX:
        cols = y.view(float).T
        nb = np.argsort(cols, axis=1)
        a, b = nb[:, :-1].ravel(), nb[:, 1:].ravel()
        # by take, for the reason given in _near_pairs
        k = np.abs(cols.take(a, axis=1) - cols.take(b, axis=1)).max(
            axis=0).argmin(keepdims=True)
        cut = max_norms(y[a[k]] - y[b[k]]).min(initial=math.inf)
    return float(_near_pairs(x, cut)[2].min(initial=math.inf))


def match_in_order(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Greedy one-to-one matching of two packed arrays in a's row order:
    each matrix takes its nearest remaining partner in b, the earliest on
    ties, and that partner must lie within tol; so only the pairs within
    tol can decide."""
    if len(a) != len(b):
        return False
    i, j, d = _near_pairs(np.concatenate((a, b)), tol)
    # a's rows come first, so a pair across the sets has i in a, j in b;
    # by row, distance and partner, each row takes the first one still free
    near = (i < len(a)) & (j >= len(a))
    used: set[int] = set()
    for r, _, c in sorted(zip(i[near].tolist(), d[near].tolist(),
                              j[near].tolist())):
        if r not in used and c not in used:
            used.update((r, c))
    return len(used) == 2 * len(a)


def greedy_unique(x: np.ndarray, tol: float) -> list[int]:
    """Indices of the rows of a packed array kept by a greedy pass in row
    order: one is kept unless it lies within tol of an earlier kept one."""
    i, j, _ = _near_pairs(x, tol)
    dropped: set[int] = set()
    # by later index, so that every i < j is settled before j is
    for later, earlier in sorted(zip(j.tolist(), i.tolist())):
        if earlier not in dropped:
            dropped.add(later)
    return [r for r in range(len(x)) if r not in dropped]


class MatrixEquation(Frozen):
    """Monic equation X^n + A_{n-1} X^{n-1} + ... + A_1 X + A_0 = 0.

    ``coeffs`` lists A_0 first; the leading identity coefficient is implicit.
    What derives from them alone is computed once per (immutable) object and
    shared; it is no field, so ==, hash and repr see the coefficients only.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Mat2, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        if not 1 <= len(self.coeffs) <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}")
        if not all(cmath.isfinite(z) for a in self.coeffs
                   for z in (a.m11, a.m12, a.m21, a.m22)):
            raise ValueError("coefficient entries must be finite")
        try:
            norms = tuple(a.max_norm() for a in self.coeffs)
        except OverflowError:  # an entry's modulus exceeds the largest double
            norms = (math.inf,)
        scale = max(1.0, *norms)
        # a coefficient of det M(t) sums 2(n+1) products of two entries, so
        # its modulus stays below sqrt(2) * 2(n+1) * coeff_scale()^2
        if scale > math.sqrt(sys.float_info.max / (4 * (self.n + 1))):
            raise ValueError(f"coefficient scale {scale:.3g} overflows det M(t)")
        object.__setattr__(self, "_scale", scale)
        # sum_k ||A_k|| t^k + t^n at t = |lam| bounds the Horner terms that
        # make up the entries of M(lam), and its derivative those of M'(lam)
        object.__setattr__(self, "norm_poly", Poly(norms + (1.0,)))
        object.__setattr__(self, "_derived", {})

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def coeff_scale(self) -> float:
        """Largest coefficient entry magnitude, floored at the implicit 1."""
        return self._scale

    @cached_property
    def coeff_parts(self) -> np.ndarray:
        """The coefficients as parts (see ``split``), shaped (n, 2, 2, 2, 1)
        to broadcast against a batch."""
        return np.moveaxis(split(pack(self.coeffs)), -1, 0)[..., None]

    @cached_property
    def matrix(self) -> "PolyMat2":
        """M(t), see ``poly_matrix``."""
        return poly_matrix(self)

    @cached_property
    def det_poly(self) -> Poly:
        return self.matrix.det()

    def derived(self, key, compute):
        """compute(), once per object and key; a raise stores nothing."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]


class PolyMat2(NamedTuple):
    """A 2x2 matrix of polynomials, entries e11, e12, e21, e22."""

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


def eval_equation(*args, **kwargs):
    """Placeholder: only the benchmark tracer binds this name.  ROADMAP
    item 5 deletes it together with that binding."""
    raise NotImplementedError("mat2.eval_equation")


def eval_batch(eq: MatrixEquation, x: np.ndarray) -> np.ndarray:
    """f(X) for each candidate row of a packed (k, 4) array, packed alike.

    Association is fixed left to right, (((X + A_{n-1})X + A_{n-2})X + ...),
    and every entry is computed as the Mat2 operators compute it (see
    ``matmul_parts``), so residuals are bit-reproducible and equal to a
    scalar Mat2 Horner pass.  Overflow gives inf or nan entries, no warning.
    """
    coeffs = eq.coeff_parts
    with np.errstate(over="ignore", invalid="ignore"):
        xp = split(x)
        w = _right_factor(xp)
        acc = xp + coeffs[-1]
        for a in coeffs[-2::-1]:
            acc = _times(acc, w)
            acc += a
    return join(acc)


def rank_and_nullspace(a: Mat2, scale: float) -> tuple[int, list[Vec2]]:
    """Numerical rank of a 2x2 matrix and an orthonormal kernel basis.

    ``scale`` is the magnitude reference supplied by the caller; entries are
    negligible below RANK_TOL*scale and determinants below
    _DET_FLOOR*scale^2.  Kernel vectors come from the orthogonal complement
    of the larger-norm row and are normalized (unit norm, first nonzero
    component positive real).
    """
    ref = RANK_TOL * max(scale, 1e-300)
    if a.max_norm() <= ref:
        return 0, [E1, E2]
    if abs(a.det()) <= _DET_FLOOR * scale * scale:
        r1, r2 = (a.m11, a.m12), (a.m21, a.m22)
        row = r1 if abs(r1[0]) ** 2 + abs(r1[1]) ** 2 >= abs(r2[0]) ** 2 + abs(r2[1]) ** 2 else r2
        v = Vec2(-row[1], row[0]).normalized()
        return 1, [v]
    return 2, []


def eigenvalues(x: np.ndarray) -> np.ndarray:
    """Eigenvalues of each row of a packed (k, 4) array by the quadratic
    formula, as (k, 2) pairs ordered by (real, imag).  A pair whose gap is
    not above RANK_TOL * max(1, |a|), or is nan, collapses to tr/2, tr/2.
    Overflow gives inf or nan, no warning."""
    a, b, c, d = x.T
    with np.errstate(over="ignore", invalid="ignore"):
        tr = a + d
        disc = np.sqrt(tr * tr - 4 * (a * d - b * c))
        lam = np.empty((len(x), 2), dtype=complex)
        lam[:, 0] = (tr + disc) / 2
        lam[:, 1] = (tr - disc) / 2
        re, im = lam.real, lam.imag
        swap = (re[:, 1] < re[:, 0]) | (re[:, 1] == re[:, 0]) & (
            im[:, 1] < im[:, 0])
        repeated = ~(np.abs(lam[:, 0] - lam[:, 1])
                     > RANK_TOL * np.maximum(1.0, max_norms(x)))
        lam[swap] = lam[swap, ::-1]
        lam[repeated] = (tr[repeated] / 2)[:, None]
    return lam


def eigen2(*args, **kwargs):
    """Placeholder: only the benchmark tracer binds this name.  ROADMAP
    item 5 deletes it together with that binding."""
    raise NotImplementedError("mat2.eigen2")
