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

    def __divmod__(self, other: "Poly"):
        """Euclidean division; returns (quotient, remainder)."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dd = other.degree
        quot = [0j] * max(len(rem) - dd, 1)
        for k in range(len(rem) - 1, dd - 1, -1):
            f = rem[k] / dlead
            quot[k - dd] = f
            for j, c in enumerate(other.coeffs):
                rem[k - dd + j] -= f * c
        return Poly(quot), Poly(rem[:dd] if dd else [0j])

    def max_abs_coeff(self) -> float:
        return max(abs(c) for c in self.coeffs)

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
    deflated first.  The remaining roots come from the chosen backend, are
    clustered at ``CLUSTER_TOL`` (relative to the largest root magnitude),
    and every cluster centroid of size k is Newton-polished on the (k-1)-th
    derivative.  Nearby clusters fuse when they look like one multiple root
    that scattered: the members fail the derivative test for their claimed
    multiplicities while the fused centroid passes it.

    Overflow is detected here instead of warned about: iterates or roots
    that stop being finite raise NonConvergence.
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

def _aberth_roots(c: np.ndarray, sweeps: int = _ABERTH_SWEEPS) -> np.ndarray:
    """Simultaneous root iteration on a monic polynomial with c[0] != 0."""
    d = len(c) - 1
    if d == 1:
        return np.array([-c[0]])
    radius = 1.0 + float(np.abs(c[:-1]).max())
    k = np.arange(d)
    # deterministic, slightly perturbed circle of starting points
    z = radius * (1.0 + 0.05 * np.sin(7.0 * k + 1.0)) \
        * np.exp(1j * (2 * np.pi * k / d + 0.4))
    dc = c[1:] * np.arange(1, d + 1)
    for _ in range(sweeps):
        pv, noise = _horner_vec(c, z)
        # an overflowed value or bound would pass the test below vacuously
        if not (np.all(np.isfinite(pv)) and np.all(np.isfinite(noise))):
            raise NonConvergence(f"polynomial values overflow at degree {d}")
        if np.all(np.abs(pv) <= 8.0 * noise):
            return z
        dv, _ = _horner_vec(dc, z)
        dv = np.where(dv == 0, 1e-30, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = (1.0 / diff).sum(axis=1) - 1.0
        corr = w / (1.0 - w * s)
        corr = np.where(np.isfinite(corr), corr, w)
        z = z - corr
        if np.all(np.abs(corr) <= 1e-15 * (1.0 + np.abs(z))):
            return z
    raise NonConvergence(f"no convergence in {sweeps} sweeps at degree {d}")


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


def _horner_vec(c: np.ndarray, z: np.ndarray):
    """Vectorized Horner evaluation plus a running roundoff bound."""
    acc = np.full_like(z, c[-1])
    err = np.abs(acc) * 0.5
    az = np.abs(z)
    for ck in c[-2::-1]:
        acc = acc * z + ck
        err = err * az + np.abs(acc)
    return acc, 2.0 * err * np.finfo(float).eps


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
    for bunch in _components_of(entries, _MERGE_RADIUS * scale):
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


def _components_of(entries, radius):
    """Single-linkage components of (value, mult) entries by value."""
    groups = _components([e[0] for e in entries], radius)
    by_value = {}
    for e in entries:
        by_value.setdefault((e[0].real, e[0].imag), []).append(e)
    out = []
    for g in groups:
        bunch = []
        for z in g:
            bunch.append(by_value[(z.real, z.imag)].pop())
        out.append(bunch)
    return out


def _components(points, radius):
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(points[i] - points[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i, z in enumerate(points):
        groups.setdefault(find(i), []).append(z)
    out = [sorted(g, key=lambda z: (z.real, z.imag)) for g in groups.values()]
    out.sort(key=lambda g: (g[0].real, g[0].imag))
    return out


def _polish_group(ders, members, scale):
    k = len(members)
    center = sum(members) / k
    # a k-fold root of q is a simple root of the (k-1)-th derivative
    polished = _newton(ders[k - 1], ders[k], center)
    if abs(polished - center) > _MERGE_RADIUS * scale:
        polished = center
    return polished, k


def _newton(c, dc, z):
    best_z, best_v = z, abs(_horner_scalar(c, z))
    stall = 0
    for _ in range(_NEWTON_STEPS):
        dv = _horner_scalar(dc, z)
        if dv == 0:
            break
        step = _horner_scalar(c, z) / dv
        z = z - step
        v = abs(_horner_scalar(c, z))
        if v < best_v:
            best_z, best_v, stall = z, v, 0
        else:
            stall += 1
            if stall >= 3:
                break
        if abs(step) <= 4e-16 * (1.0 + abs(z)):
            break
    # plain Horner noise leaves a flat basin around clustered roots; a few
    # compensated steps pin the root to ulp level, so both backends land on
    # the same value
    for _ in range(6):
        dv = _horner_scalar(dc, best_z)
        if dv == 0:
            break
        step = _comp_horner(c, best_z) / dv
        candidate = best_z - step
        if abs(_comp_horner(c, candidate)) <= abs(_comp_horner(c, best_z)):
            best_z = candidate
        if abs(step) <= 4e-16 * (1.0 + abs(best_z)):
            break
    return best_z


def _horner_scalar(c, z):
    acc = 0j
    for ck in c[::-1]:
        acc = acc * z + ck
    return acc


# error-free transformations (doubles well inside the overflow margin)

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _comp_horner(c, z: complex) -> complex:
    """Horner evaluation with a compensation term, roughly doubling the
    working precision for ill-conditioned arguments."""
    zr, zi = z.real, z.imag
    sr, si = c[-1].real, c[-1].imag
    er = ei = 0.0
    for ck in c[-2::-1]:
        p1, f1 = _two_prod(sr, zr)
        p2, f2 = _two_prod(si, zi)
        p3, f3 = _two_prod(sr, zi)
        p4, f4 = _two_prod(si, zr)
        vr, g1 = _two_sum(p1, -p2)
        vi, g2 = _two_sum(p3, p4)
        nr, h1 = _two_sum(vr, ck.real)
        ni, h2 = _two_sum(vi, ck.imag)
        er, ei = (er * zr - ei * zi + (f1 - f2 + g1 + h1),
                  er * zi + ei * zr + (f3 + f4 + g2 + h2))
        sr, si = nr, ni
    return complex(sr + er, si + ei)


def _multiplicity_consistent(ders, value, mult):
    for j in range(mult):
        if abs(_horner_scalar(ders[j], value)) > 1e-6 * _der_scale(ders[j], value):
            return False
    return abs(_horner_scalar(ders[mult], value)) > 1e-6 * _der_scale(ders[mult], value)


def _der_scale(c, value):
    powers = np.power(max(1.0, abs(value)), np.arange(len(c)))
    return max(1.0, float(np.abs(c) @ powers))
