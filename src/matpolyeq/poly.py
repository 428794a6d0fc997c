"""Dense univariate polynomials over the complex numbers.

Coefficients are stored ascending, so ``coeffs[k]`` multiplies ``t**k``.
Root finding offers two backends (a simultaneous-correction iteration on the
full polynomial, and eigenvalues of the companion matrix); both feed a shared
deflation / clustering / polishing stage that assigns multiplicities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Roots closer than CLUSTER_TOL * max(1, max|root|) are the same root.
CLUSTER_TOL = 1e-6
# Clusters closer than this (relative) are fusion candidates; genuine
# distinct roots in this artifact are separated by >= ~3e-2.
_MERGE_RADIUS = 5e-3
# Low-order coefficients below this (relative) are exact zero roots.
_DEFLATE_TOL = 1e-13
_ABERTH_SWEEPS = 200
_EPS = float(np.finfo(float).eps)
_NEWTON_STEPS = 80
# A multiplicity class of at least this many centroids is polished as one
# batch (_newton_batch); below it one at a time costs less (README).
_BATCH_MIN = 16


class NonConvergence(RuntimeError):
    """Root iteration exhausted its budget or overflowed on an
    ill-conditioned input; the caller may retry with scaled coefficients."""


class SingularSystem(RuntimeError):
    """A pivot collapsed during elimination."""


class Poly:
    """Immutable dense polynomial with complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [complex(c) for c in coeffs]
        for c in cs:
            if not cmath.isfinite(c):
                raise ValueError("polynomial coefficients must be finite")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs) if cs else (0j,)

    @classmethod
    def from_roots(cls, roots) -> "Poly":
        """Monic polynomial with the given (value, multiplicity) roots."""
        out = cls((1,))
        for value, mult in roots:
            if mult < 1:
                raise ValueError("multiplicity must be positive")
            for _ in range(mult):
                out = out * cls((-value, 1))
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0j,)

    def __call__(self, t: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [0j] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


@dataclass(frozen=True)
class Root:
    """A root with its multiplicity."""

    value: complex
    multiplicity: int


def dense_solve(a, b) -> list[complex]:
    """Solve the square complex system a x = b by row-pivoted elimination.

    Raises SingularSystem when a pivot falls below 1e-12 times the
    magnitude of the largest input entry.
    """
    m = np.array(a, dtype=complex)
    rhs = np.array(b, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or rhs.shape != (m.shape[0],):
        raise ValueError("need a square matrix and a matching vector")
    n = m.shape[0]
    tol = 1e-12 * max(1.0, float(np.abs(m).max()))
    for col in range(n):
        piv = col + int(np.argmax(np.abs(m[col:, col])))
        if abs(m[piv, col]) <= tol:
            raise SingularSystem(f"pivot {abs(m[piv, col]):.3e} in column {col}")
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            rhs[[col, piv]] = rhs[[piv, col]]
        for row in range(col + 1, n):
            f = m[row, col] / m[col, col]
            m[row, col:] -= f * m[col, col:]
            rhs[row] -= f * rhs[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - m[row, row + 1:] @ x[row + 1:]) / m[row, row]
    return list(x)


@np.errstate(over="ignore", invalid="ignore")
def find_roots(p: Poly, backend: str = "aberth") -> list[Root]:
    """All complex roots of ``p`` with multiplicities.

    Zero roots carried by exactly-vanishing low-order coefficients are
    deflated first.  The remaining roots come from the chosen backend
    (``_aberth_roots``, which forms its roundoff bound only on the sweeps
    where that bound can stop the iteration, or ``_companion_roots``), are
    clustered at ``CLUSTER_TOL`` (relative to the largest root magnitude),
    and every cluster centroid of size k is Newton-polished on the (k-1)-th
    derivative with compensated Horner values (Graillat, Langlois and Louvet
    2009), operation for operation as numpy's complex128 scalars compute
    them, one kernel call per class of centroids of one size
    (``_polish_groups``).  Nearby clusters fuse when they look like one
    multiple root that scattered: the members fail the derivative test
    (``relative_value``) for their claimed multiplicities while the fused
    centroid passes it.

    The roots come back in (real, imag) order, which the critical data
    keep.  Overflow is detected here instead of warned about: iterates or
    roots that stop being finite raise NonConvergence.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    coeffs = np.array(p.coeffs, dtype=complex)
    coeffs /= coeffs[-1]

    zero_mult = 0
    deflate = _DEFLATE_TOL * float(np.abs(coeffs).max())
    while zero_mult < p.degree and abs(coeffs[zero_mult]) <= deflate:
        zero_mult += 1
    q = coeffs[zero_mult:]
    if len(q) == 1:
        return [Root(0j, zero_mult)]

    if backend == "aberth":
        raw = _aberth_roots(q)
    elif backend == "companion":
        raw = _companion_roots(q)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if not np.all(np.isfinite(raw)):
        raise NonConvergence(f"{backend} roots overflow at degree {len(q) - 1}")

    clusters = _cluster_and_polish(q, raw)

    roots = []
    scale = max(1.0, float(np.abs(raw).max()))
    for value, mult in clusters:
        if zero_mult and abs(value) <= CLUSTER_TOL * scale:
            zero_mult += mult
            continue
        roots.append(Root(complex(value), mult))
    if zero_mult:
        roots.append(Root(0j, zero_mult))
    roots.sort(key=lambda r: (r.value.real, r.value.imag))
    assert sum(r.multiplicity for r in roots) == p.degree
    return roots


# --- backends ---------------------------------------------------------------

def _err_bound_scale(c: np.ndarray) -> float:
    """The factor of the closed-form bound ``ub = scale * max(1, |z|)^d``
    on ``_aberth_roots``' running roundoff bound ``err`` at z.

    With p's Horner values ``b_k = sum_{j >= k} c_j z^(j-k)`` (``b_d = 1``),
    ``err = |z|^d / 2 + sum_{k < d} |b_k| |z|^k``.  Each of its d + 1 terms
    is at most ``sum_j |c_j| |z|^j <= (d+1) max|c| max(1, |z|)^d``, so
    ``err <= (d+1)^2 max|c| max(1, |z|)^d``; the factor 2 in the scale
    covers the rounding of the computed ``b_k`` and ``err``, which is
    O(d eps) relative.
    """
    d = len(c) - 1
    return 2.0 * (d + 1) ** 2 * float(np.abs(c).max())


def _aberth_roots(c: np.ndarray) -> np.ndarray:
    """Simultaneous root iteration on a monic polynomial with c[0] != 0.

    The iteration stops when every ``|p(z_i)| <= 8 noise_i``, with ``noise
    = 2 eps err`` from a running roundoff bound ``err`` of p's Horner
    values (Bini 1996), or when every correction is below 1e-15 relative.
    The ``err`` row costs three array calls per Horner step, so a sweep
    forms it only where that test can pass.  Where the closed-form bound
    ``ub`` (``_err_bound_scale``) is finite and some ``|p(z_i)| > 16 eps
    ub_i >= 8 noise_i``, the test fails at i and ``err`` is not needed;
    ``ub`` finite also keeps ``err`` finite, so no overflow goes unseen.
    Every value the iteration uses is computed operation for operation as
    when ``err`` was formed on every sweep, so the roots, the number of
    sweeps and the exceptions are the same bit for bit.
    """
    d = len(c) - 1
    if d == 1:
        return np.array([-c[0]])
    radius = 1.0 + float(np.abs(c[:-1]).max())
    k = np.arange(d)
    # deterministic, slightly perturbed circle of starting points
    z = radius * (1.0 + 0.05 * np.sin(7.0 * k + 1.0)) \
        * np.exp(1j * (2 * np.pi * k / d + 0.4))
    # p and p' as the rows of one Horner pass; p' gets a zero top
    # coefficient, whose first step 0 * z + dc[-1] is exact
    coef = np.array((c, np.concatenate((c[1:] * np.arange(1, d + 1), [0]))))
    # rows[j] holds both Horner rows after j steps; rows[d] = p(z), p'(z).
    # Every operand is a full (2, d) array: broadcasting costs more per
    # call than these small arrays take to compute.
    rows = np.empty((d + 1, 2, d), dtype=complex)
    rows[0] = coef[:, -1:]
    zz = np.empty((2, d), dtype=complex)
    steps = list(zip(rows[:-1], rows[1:],
                     np.repeat(coef[:, -2::-1].T[:, :, None], d, axis=2)))
    pv, dv = rows[d]
    ub_scale = _err_bound_scale(c)
    diff = np.empty((d, d), dtype=complex)
    az = np.abs(z)
    for _ in range(_ABERTH_SWEEPS):
        zz[:] = z
        for prev, cur, ck in steps:
            np.multiply(prev, zz, out=cur)
            np.add(cur, ck, out=cur)
        if not np.isfinite(pv).all():
            raise NonConvergence(f"polynomial values overflow at degree {d}")
        apv = np.abs(pv)
        ub = ub_scale * np.maximum(az, 1.0) ** d
        # a finite ub keeps err finite, and |p(z_i)| above 16 eps ub_i
        # fails the stopping test at i: this sweep cannot return
        if not (np.isfinite(ub).all() and (apv > 16.0 * _EPS * ub).any()):
            # running roundoff bound of p's Horner values
            err = np.abs(rows[0, 0]) * 0.5
            for row in rows[1:, 0]:
                err *= az
                err += np.abs(row)
            noise = 2.0 * err * _EPS
            # an overflowed bound would pass the test below vacuously
            if not np.isfinite(noise).all():
                raise NonConvergence(
                    f"polynomial values overflow at degree {d}")
            if (apv <= 8.0 * noise).all():
                return z
        w = pv / np.where(dv == 0, 1e-30, dv)
        np.subtract(z[:, None], z, out=diff)
        diff.flat[::d + 1] = 1.0
        s = np.divide(1.0, diff, out=diff).sum(axis=1) - 1.0
        corr = w / (1.0 - w * s)
        corr = np.where(np.isfinite(corr), corr, w)
        z = z - corr
        az = np.abs(z)
        if (np.abs(corr) <= 1e-15 * (1.0 + az)).all():
            return z
    raise NonConvergence(
        f"no convergence in {_ABERTH_SWEEPS} sweeps at degree {d}")


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of a monic polynomial."""
    d = len(c) - 1
    if d == 1:
        return np.array([-c[0]])
    comp = np.zeros((d, d), dtype=complex)
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -c[:-1]
    try:
        return np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"companion eigenvalue iteration failed: {exc}") from exc


# --- clustering -------------------------------------------------------------

def _cluster_and_polish(q: np.ndarray, raw: np.ndarray):
    """(value, multiplicity) of each root of q from the raw roots: their
    clusters at ``CLUSTER_TOL``, polished by ``_polish_groups``, then fused
    where a bunch of clusters is one scattered root."""
    scale = max(1.0, float(np.abs(raw).max()))
    ders = [q]
    while len(ders) <= len(q):
        prev = ders[-1]
        ders.append(prev[1:] * np.arange(1, len(prev)))

    groups = _components(list(raw), CLUSTER_TOL * scale)
    entries = _polish_groups(ders, groups, scale)

    # A k-fold root computed in double precision scatters into a ring of
    # radius ~eps^(1/k), which can exceed the cluster tolerance for k >= 3.
    # Ring members fail the derivative test for their claimed multiplicity
    # while the fused centroid validates, so fuse exactly in that case.
    fused = []
    for bunch in _components(entries, _MERGE_RADIUS * scale, lambda e: e[0]):
        if len(bunch) == 1 or all(
                _multiplicity_consistent(ders, v, k) for v, k in bunch):
            fused.extend(bunch)
            continue
        total = sum(k for _, k in bunch)
        center = sum(v * k for v, k in bunch) / total
        polished = _newton(ders[total - 1], ders[total],
                           np.array([center]))[0]
        if abs(polished - center) <= _MERGE_RADIUS * scale and \
                _multiplicity_consistent(ders, polished, total):
            fused.append((polished, total))
        else:
            fused.extend(bunch)
    return fused


def _components(items, radius, value=lambda z: z):
    """Single-linkage components of the items by value, each sorted, and
    ordered by their least values.  The values are compared as Python
    complex copies, which subtract part by part and take the modulus by
    libm's hypot as numpy's scalars do, at a fraction of the cost; where
    that modulus overflows, Python raises and numpy gives inf, so inf is
    taken."""
    values = [complex(value(item)) for item in items]
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            try:
                d = abs(values[i] - values[j])
            except OverflowError:
                d = math.inf
            if d <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(items)):
        groups.setdefault(find(i), []).append(i)

    def key(i):
        return values[i].real, values[i].imag
    out = [sorted(g, key=key) for g in groups.values()]
    out.sort(key=lambda g: key(g[0]))
    return [[items[i] for i in g] for g in out]


def _polish_groups(ders, groups, scale):
    """(value, k) for each group of k raw roots: its centroid polished on
    the (k-1)-th derivative, of which a k-fold root is a simple root, or
    the centroid itself where the polish moved it more than
    ``_MERGE_RADIUS``.  Each class of centroids of one size takes one
    kernel call: ``_newton_batch`` from ``_BATCH_MIN`` centroids on,
    ``_newton`` below."""
    centers = [sum(g) / len(g) for g in groups]
    classes = {}
    for i, g in enumerate(groups):
        classes.setdefault(len(g), []).append(i)
    polished = [None] * len(groups)
    for k, members in classes.items():
        newton = _newton_batch if len(members) >= _BATCH_MIN else _newton
        starts = np.array([centers[i] for i in members])
        for i, z in zip(members, newton(ders[k - 1], ders[k], starts)):
            polished[i] = z
    entries = []
    for z, center, g in zip(polished, centers, groups):
        if abs(z - center) > _MERGE_RADIUS * scale:
            z = center
        entries.append((z, len(g)))
    return entries


def _newton(c, dc, z) -> np.ndarray:
    """Newton's method for a root of ``c`` (derivative ``dc``) from each
    start of the complex array ``z``, one at a time, with the contract of
    ``_newton_batch``: the polished roots as a complex array, the same bits,
    and OverflowError where a modulus of finite parts overflows.

    One loop on compensated values, which pin a clustered root to ulp
    level where plain Horner noise leaves a flat basin; a step that raises
    |value| ends it.  The coefficients become Python floats once per call,
    and each point costs one ``_comp_values`` pass, value and derivative,
    operation for operation as numpy complex128 scalars compute: moduli
    are CPython's complex ``abs`` (libm ``hypot``), the step is numpy's
    scalar division.
    """
    cs, ds = c[::-1].tolist(), dc[::-1].tolist()
    top = cs[0].real, cs[0].imag
    steps = [(a.real, a.imag, b.real, b.imag) for a, b in zip(cs[1:], ds)]
    out = []
    for start in z.tolist():
        zr, zi = start.real, start.imag
        vr, vi, dr, di = _comp_values(top, steps, zr, zi)
        size = abs(complex(vr, vi))
        for _ in range(_NEWTON_STEPS):
            if dr == 0 and di == 0:
                break
            # numpy's complex division (Smith's); CPython's rounds differently
            if abs(dr) >= abs(di):
                rat = di / dr
                scl = 1.0 / (dr + di * rat)
                sr, si = (vr + vi * rat) * scl, (vi - vr * rat) * scl
            else:
                rat = dr / di
                scl = 1.0 / (di + dr * rat)
                sr, si = (vr * rat + vi) * scl, (vi * rat - vr) * scl
            cr, ci = zr - sr, zi - si
            cvr, cvi, cdr, cdi = _comp_values(top, steps, cr, ci)
            candidate_size = abs(complex(cvr, cvi))
            if candidate_size > size:
                break
            zr, zi, vr, vi, dr, di = cr, ci, cvr, cvi, cdr, cdi
            size = candidate_size
            if abs(complex(sr, si)) <= 4e-16 * (1.0 + abs(complex(zr, zi))):
                break
        out.append(complex(zr, zi))
    return np.array(out, dtype=complex)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _newton_batch(c, dc, z) -> np.ndarray:
    """``_newton(c, dc, z)`` for all starts at once: the same bits member
    by member, and OverflowError where some member's ``_newton`` raises it.
    (``_newton``'s Smith division cannot divide by zero: a Horner value
    with a NaN real part has an imaginary part inf or NaN.)

    Each iteration is one ``_batch_values`` call at the candidates of all
    starts; those that stopped are masked out.  A start stops, as in
    ``_newton``, where the derivative is 0, where the candidate raises
    |value|, or where the step is at most ``4e-16 (1 + |z|)``, after at
    most ``_NEWTON_STEPS`` steps.  The step is numpy's complex division
    (Smith's) on the parts, both branches computed and one picked, so the
    warnings of the other are ignored; moduli are ``np.hypot``, libm's
    ``hypot`` as CPython's complex ``abs`` is.
    """
    values = _batch_values(c, dc, len(z))
    zr, zi = z.real.copy(), z.imag.copy()
    vr, vi, dr, di = values(zr, zi)
    size = _moduli(vr, vi, True)
    moving = np.ones(len(z), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        moving &= (dr != 0) | (di != 0)
        if not moving.any():
            break
        # p is the divisor's part of larger modulus and q the other; the
        # branches differ in x, y and the sign of the imaginary numerator
        big = np.abs(dr) >= np.abs(di)
        p, q = np.where(big, dr, di), np.where(big, di, dr)
        x, y = np.where(big, vr, vi), np.where(big, vi, vr)
        rat = q / p
        scl = 1.0 / (p + q * rat)
        sr = (x + y * rat) * scl
        u = x * rat
        si = np.where(big, y - u, u - y) * scl
        cr, ci = zr - sr, zi - si
        vr, vi, dr, di = values(cr, ci)
        candidate_size = _moduli(vr, vi, moving)
        # a NaN modulus compares False, so it is accepted as in _newton
        moving &= ~(candidate_size > size)
        size = candidate_size
        zr, zi = np.where(moving, cr, zr), np.where(moving, ci, zi)
        moving &= ~(_moduli(sr, si, moving)
                    <= 4e-16 * (1.0 + _moduli(zr, zi, moving)))
    out = np.empty(len(z), dtype=complex)
    out.real, out.imag = zr, zi
    return out


def _moduli(re, im, members) -> np.ndarray:
    """``np.hypot(re, im)``, raising OverflowError where CPython's complex
    ``abs`` would at one of the masked ``members``: where the modulus of
    finite parts overflows."""
    out = np.hypot(re, im)
    if np.isinf(out).any() and (members & np.isinf(out) & np.isfinite(re)
                                & np.isfinite(im)).any():
        raise OverflowError("absolute value too large")
    return out


def _batch_values(c, dc, m):
    """The function of m points (zr, zi) that gives ``_comp_values`` at
    each: the compensated value of ``c`` and the plain value of ``dc``, as
    float arrays (vr, vi, dr, di), bit for bit.

    A compensated value is a plain Horner pass plus a Horner pass over the
    error terms, and each step's error terms depend only on the previous
    plain value, z and the coefficient.  So it takes three passes:

    1. the plain recurrence ``s_k = s_{k-1} z + c_k``, keeping every s_k,
       with the derivative's Horner pass as a second row;
    2. the error-free transformations of all steps at once, as
       ``_comp_values`` writes them out: Dekker's split products and
       Knuth's TwoSum;
    3. the error recurrence ``e_k = e_{k-1} z + T_k``, then ``s + e``.

    Each product by z is ``(sr zr - si zi, sr zi + si zr)`` on the parts,
    as a complex128 scalar forms it (numpy's array multiply can differ in
    the last bit): part l of the product is the sum over j of part j times
    ``zt[l, j]``, with ``zt = [[zr, -zi], [zi, zr]]``.  The loops of
    passes 1 and 3 cost a few ufunc calls per step, so they write into
    arrays made once.
    """
    c, dc = c[::-1], dc[::-1]
    steps = len(c) - 1
    mul, add, sub = np.multiply, np.add, np.subtract
    # coef[k] is added on step k + 1: row 0 is c's, row 1 dc's
    coef = np.empty((steps, 2, 2, m))
    coef[:, 0, 0] = c.real[1:, None]
    coef[:, 0, 1] = c.imag[1:, None]
    coef[:, 1, 0] = dc.real[:, None]
    coef[:, 1, 1] = dc.imag[:, None]
    rows = np.empty((steps + 1, 2, 2, m))
    zt = np.empty((2, 2, m))
    prods = np.empty((2, 2, 2, m))  # (row, l, j)
    pa, pb = prods[:, :, 0], prods[:, :, 1]
    horner = [(rows[k][:, None], rows[k + 1], coef[k]) for k in range(steps)]
    s, s_next, ck = rows[:-1, 0], rows[1:, 0], coef[:, 0]
    # products[k, l, j] is part j of s_k times zt[l, j]:
    # (sr zr, -si zi) and (sr zi, si zr)
    products, f, tmp = np.empty((3, steps, 2, 2, m))
    a, b = products[:, :, 0], products[:, :, 1]
    sh, sl, t, v, g, h, terms = np.empty((7, steps, 2, m))
    err = np.empty((2, m))
    eprods = np.empty((2, 2, m))
    ea, eb = eprods[:, 0], eprods[:, 1]
    err_row = err[None]
    corrections = list(terms)

    def values(zr, zi):
        zt[0, 0] = zr
        np.negative(zi, out=zt[0, 1])
        zt[1, 0] = zi
        zt[1, 1] = zr
        rows[0, 0, 0] = c[0].real
        rows[0, 0, 1] = c[0].imag
        rows[0, 1] = 0.0
        # pass 1: both plain Horner rows
        for prev, cur, coef_k in horner:
            mul(prev, zt, prods)
            add(pa, pb, cur)
            add(cur, coef_k, cur)
        # pass 2: the error terms of every step.  Dekker's split of each
        # s_{k-1} and of zt, and the error f of each product
        mul(s, _SPLITTER, t)
        sub(t, s, sh)
        sub(t, sh, sh)
        sub(s, sh, sl)
        zs = _SPLITTER * zt
        zh = zs - (zs - zt)
        zl = zt - zh
        mul(s[:, None], zt, products)
        mul(sh[:, None], zh, f)
        sub(f, products, f)
        mul(sh[:, None], zl, tmp)
        add(f, tmp, f)
        mul(sl[:, None], zh, tmp)
        add(f, tmp, f)
        mul(sl[:, None], zl, tmp)
        add(f, tmp, f)
        # TwoSum errors: g of v = a + b, h of s_k = v + c_k
        add(a, b, v)
        sub(v, a, t)
        sub(v, t, g)
        sub(a, g, g)
        sub(b, t, t)
        add(g, t, g)
        sub(s_next, v, t)
        sub(s_next, t, h)
        sub(v, h, h)
        sub(ck, t, t)
        add(h, t, h)
        # T_k: ((f1 - f2) + g1) + h1 and ((f3 + f4) + g2) + h2
        add(f[:, :, 0], f[:, :, 1], terms)
        add(terms, g, terms)
        add(terms, h, terms)
        # pass 3: the Horner pass over the error terms
        err[:] = 0.0
        for term in corrections:
            mul(err_row, zt, eprods)
            add(ea, eb, err)
            add(err, term, err)
        vr, vi = s_next[-1] + err
        dr, di = rows[-1, 1]
        return vr, vi, dr.copy(), di.copy()

    return values


_SPLITTER = 134217729.0  # 2**27 + 1


def _comp_values(top, steps, zr: float, zi: float):
    """``_batch_values`` at the one point zr + i zi on Python floats, in
    one pass: ``top`` holds the parts of the leading coefficient, each step
    those of the next coefficient and derivative coefficient.  Products
    are formed as complex128 scalars form them (numpy's array multiply can
    differ in the last bit).

    The error-free transformations are written out: each product ``p`` of
    two parts gets its rounding error ``f`` from Dekker's split into hi/lo
    halves (z is split once), each sum its error ``g`` or ``h`` from
    Knuth's TwoSum.  Doubles must stay well inside the overflow margin.
    """
    t = _SPLITTER * zr
    zrh = t - (t - zr)
    zrl = zr - zrh
    t = _SPLITTER * zi
    zih = t - (t - zi)
    zil = zi - zih
    sr, si = top
    er = ei = dr = di = 0.0
    for cr, ci, pr, pi in steps:
        t = _SPLITTER * sr
        srh = t - (t - sr)
        srl = sr - srh
        t = _SPLITTER * si
        sih = t - (t - si)
        sil = si - sih
        p1 = sr * zr
        f1 = ((srh * zrh - p1) + srh * zrl + srl * zrh) + srl * zrl
        p2 = si * zi
        f2 = ((sih * zih - p2) + sih * zil + sil * zih) + sil * zil
        p3 = sr * zi
        f3 = ((srh * zih - p3) + srh * zil + srl * zih) + srl * zil
        p4 = si * zr
        f4 = ((sih * zrh - p4) + sih * zrl + sil * zrh) + sil * zrl
        vr = p1 - p2
        t = vr - p1
        g1 = (p1 - (vr - t)) + (-p2 - t)
        vi = p3 + p4
        t = vi - p3
        g2 = (p3 - (vi - t)) + (p4 - t)
        sr = vr + cr
        t = sr - vr
        h1 = (vr - (sr - t)) + (cr - t)
        si = vi + ci
        t = si - vi
        h2 = (vi - (si - t)) + (ci - t)
        er, ei = (er * zr - ei * zi + (f1 - f2 + g1 + h1),
                  er * zi + ei * zr + (f3 + f4 + g2 + h2))
        dr, di = dr * zr - di * zi + pr, dr * zi + di * zr + pi
    return sr + er, si + ei, dr, di


def _multiplicity_consistent(ders, value, mult):
    for j in range(mult):
        if relative_value(ders[j], value) > 1e-6:
            return False
    return relative_value(ders[mult], value) > 1e-6


def relative_value(c, t) -> np.ndarray:
    """|p(t)| over the term bound sum_k |c_k| max(1, |t|)^k, which its
    rounding error follows, at each point of ``t``; ``c`` holds p's
    coefficients, ascending.  Overflow gives inf or nan, no warning."""
    t = np.asarray(t, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.maximum(1.0, np.abs(t))
        value, terms = np.zeros(t.shape, complex), np.zeros(r.shape)
        for ck in reversed(c):
            value = value * t + ck
            terms = terms * r + abs(ck)
        return np.abs(value) / terms
