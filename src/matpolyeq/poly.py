"""Dense univariate polynomials over the complex numbers.

Coefficients are stored ascending, so ``coeffs[k]`` multiplies ``t**k``.
Root finding offers two backends (a simultaneous-correction iteration on the
full polynomial, and eigenvalues of the companion matrix); both feed a shared
deflation / clustering / polishing stage that assigns multiplicities.
"""

from __future__ import annotations

import cmath
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
    2009), computed on Python floats operation for operation as numpy's
    complex128 scalars compute them (see ``_newton``).  Nearby clusters
    fuse when they look like one multiple root that scattered: the members
    fail the derivative test (``relative_value``) for their claimed
    multiplicities while the fused centroid passes it.

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
    coef = np.stack((c, np.append(c[1:] * np.arange(1, d + 1), 0)))
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
    scale = max(1.0, float(np.abs(raw).max()))
    ders = [q]
    while len(ders) <= len(q):
        prev = ders[-1]
        ders.append(prev[1:] * np.arange(1, len(prev)))

    groups = _components(list(raw), CLUSTER_TOL * scale)
    entries = [_polish_group(ders, g, scale) for g in groups]

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
        polished = _newton(ders[total - 1], ders[total], center)
        if abs(polished - center) <= _MERGE_RADIUS * scale and \
                _multiplicity_consistent(ders, polished, total):
            fused.append((polished, total))
        else:
            fused.extend(bunch)
    return fused


def _components(items, radius, value=lambda z: z):
    """Single-linkage components of the items by value, each sorted, and
    ordered by their least values."""
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if abs(value(items[i]) - value(items[j])) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(find(i), []).append(item)

    def key(item):
        return value(item).real, value(item).imag
    out = [sorted(g, key=key) for g in groups.values()]
    out.sort(key=lambda g: key(g[0]))
    return out


def _polish_group(ders, members, scale):
    k = len(members)
    center = sum(members) / k
    # a k-fold root of q is a simple root of the (k-1)-th derivative
    polished = _newton(ders[k - 1], ders[k], center)
    if abs(polished - center) > _MERGE_RADIUS * scale:
        polished = center
    return polished, k


def _newton(c, dc, z) -> np.complex128:
    """Newton's method for a root of ``c`` (derivative ``dc``) from ``z``.

    One loop on compensated values, which pin a clustered root to ulp
    level where plain Horner noise leaves a flat basin; a step that raises
    |value| ends it.  The arithmetic is on Python floats, operation for
    operation what numpy complex128 scalars compute: moduli are CPython's
    complex ``abs`` (libm ``hypot``), the step is numpy's scalar division
    and the result a complex128, so the fusion in ``_cluster_and_polish``
    keeps numpy's arithmetic.
    """
    c = [(ck.real, ck.imag) for ck in c[::-1].tolist()]
    dc = [(ck.real, ck.imag) for ck in dc[::-1].tolist()]
    z = complex(z)
    zr, zi = z.real, z.imag
    vr, vi = _comp_horner(c, zr, zi)
    size = abs(complex(vr, vi))
    for _ in range(_NEWTON_STEPS):
        dr, di = _horner_scalar(dc, zr, zi)
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
        cvr, cvi = _comp_horner(c, cr, ci)
        candidate_size = abs(complex(cvr, cvi))
        if candidate_size > size:
            break
        zr, zi, vr, vi, size = cr, ci, cvr, cvi, candidate_size
        if abs(complex(sr, si)) <= 4e-16 * (1.0 + abs(complex(zr, zi))):
            break
    return np.complex128(complex(zr, zi))


def _horner_scalar(c, zr: float, zi: float):
    """Horner value at zr + i zi of the (re, im) pairs ``c``, highest
    degree first, with each product formed as a complex128 scalar forms it
    (numpy's array multiply can differ in the last bit)."""
    ar = ai = 0.0
    for cr, ci in c:
        ar, ai = ar * zr - ai * zi + cr, ar * zi + ai * zr + ci
    return ar, ai


_SPLITTER = 134217729.0  # 2**27 + 1


def _comp_horner(c, zr: float, zi: float):
    """Horner value at zr + i zi of the (re, im) pairs ``c``, highest
    degree first, with a compensation term, roughly doubling the working
    precision for ill-conditioned arguments.

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
    sr, si = c[0]
    er = ei = 0.0
    for cr, ci in c[1:]:
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
    return sr + er, si + ei


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
        value, terms = np.zeros_like(t), np.zeros_like(r)
        for ck in reversed(c):
            value = value * t + ck
            terms = terms * r + abs(ck)
        return np.abs(value) / terms
