"""Dense univariate polynomials over the complex numbers.

Coefficients are stored ascending, so ``coeffs[k]`` multiplies ``t**k``.
Root finding offers the backends of ``BACKENDS`` (simultaneous correction
on the full polynomial, eigenvalues of the companion matrix); both feed a
shared deflation / clustering / polishing stage that assigns multiplicities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Roots closer than CLUSTER_TOL * max(1, max|root|) are the same root.
CLUSTER_TOL = 1e-6
# p vanishes at t where relative_value(p's coefficients, t) is at most this
VANISH_TOL = 1e-6
# Clusters closer than this (relative) are fusion candidates, and a polish
# that moves its start farther fails; genuine distinct roots in this
# artifact are separated by >= ~3e-2.
_MERGE_RADIUS = 5e-3
_ABERTH_SWEEPS = 200
_EPS = float(np.finfo(float).eps)
_SPLITTER = 134217729.0  # 2**27 + 1
_NAN = complex(math.nan, math.nan)
_NEWTON_STEPS = 80
# A multiplicity class of at least this many centroids is polished as one
# batch (_newton_batch); below it one at a time costs less (README).
_BATCH_MIN = 16
# Aberth sweeps run on Python complex scalars up to this degree and on one
# numpy matrix of powers above it (README).
_SCALAR_MAX = 10


class NonConvergence(RuntimeError):
    """Root iteration exhausted its budget, overflowed, or polished a root
    out of its bunch on an ill-conditioned input; the caller may retry with
    scaled coefficients."""


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
        """Monic polynomial with the given (value, multiplicity) roots, one
        synthetic pass per factor t - value in the order of ``__mul__``."""
        out = [1 + 0j]
        for value, mult in roots:
            if mult < 1:
                raise ValueError("multiplicity must be positive")
            low, one = cls((-value, 1)).coeffs
            for _ in range(mult):
                mid = [0j + a * one + b * low for a, b in zip(out, out[1:])]
                out = [0j + out[0] * low, *mid, 0j + out[-1] * one]
        return cls(out)

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


def dense_solve(*args, **kwargs):
    """Placeholder: only the benchmark tracer binds this name.  ROADMAP
    item 5 deletes it together with that binding."""
    raise NotImplementedError("poly.dense_solve")


@np.errstate(over="ignore", invalid="ignore")
def find_roots(p: Poly, backend: str = "aberth") -> list[Root]:
    """All complex roots of ``p`` with multiplicities.

    A backend name not in ``BACKENDS`` is refused before any work.  Zero
    roots carried by exactly-vanishing low-order coefficients are deflated
    first.  The rest come from the backend's kernel (``_aberth_roots``, which
    evaluates p, p' and the rounding bound of p each sweep, on Python
    scalars up to degree ``_SCALAR_MAX`` and from one matrix of powers above
    it, or ``_companion_roots``), are clustered at ``CLUSTER_TOL`` relative
    to the root scale, ``max(1, max|raw|)`` computed once here, and the
    clusters' raw centroids are bunched at ``_MERGE_RADIUS`` on the same
    scale.  A bunch fuses into one start of the total multiplicity when it
    looks like one multiple root that scattered: some centroid fails the
    derivative test (``relative_value``) for its claimed multiplicity.  Every
    start of multiplicity k is Newton-polished once, on the (k-1)-th
    derivative, with compensated Horner values (Graillat, Langlois and
    Louvet 2009), operation for operation as numpy's complex128 scalars
    compute them, one kernel call per class of starts of one k
    (``_polish_groups``).  So the multiplicities are decided once, by the
    bunching; the polish only sharpens the values, and a polish that moves a
    start more than the bunch radius raises NonConvergence.

    The roots come back in (real, imag) order, which the critical data
    keep.  Overflow is detected here instead of warned about: iterates or
    roots that stop being finite raise NonConvergence.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    kernel = BACKENDS.get(backend)
    if kernel is None:
        raise ValueError(f"unknown backend {backend!r}")
    coeffs = np.array(p.coeffs, dtype=complex)
    coeffs /= coeffs[-1]

    zero_mult = 0
    while coeffs[zero_mult] == 0:
        zero_mult += 1
    q = coeffs[zero_mult:]
    if len(q) == 1:
        return [Root(0j, zero_mult)]

    raw = kernel(q)
    overflow = f"{backend} roots overflow at degree {len(q) - 1}"
    if not np.all(np.isfinite(raw)):
        raise NonConvergence(overflow)

    scale = max(1.0, float(np.abs(raw).max()))
    roots = [Root(complex(value), mult)
             for value, mult in _cluster_and_polish(q, raw, scale)]
    # the polish's Dekker split overflows for parts above about 1.3e300
    if not all(cmath.isfinite(r.value) for r in roots):
        raise NonConvergence(overflow)
    if zero_mult:
        roots.append(Root(0j, zero_mult))
    roots.sort(key=lambda r: (r.value.real, r.value.imag))
    assert sum(r.multiplicity for r in roots) == p.degree
    return roots


# --- backends ---------------------------------------------------------------

def _aberth_roots(c: np.ndarray) -> np.ndarray:
    """Simultaneous root iteration on a monic polynomial with c[0] != 0.

    The ``d`` iterates start on one slightly perturbed circle whose radius
    is the outermost radius of the Newton polygon of ``|c|``, ``max_j
    |c_j|^(1/(d-j))``: every root lies within twice it, and it scales with
    the roots (README).  Each sweep takes ``p(z_i)``, ``p'(z_i)`` and the
    rounding bound ``2 (d+1) eps sum_j |c_j| |z_i|^j`` of that ``p(z_i)``,
    and gives every iterate its Aberth correction.  The iteration stops
    when every ``|p(z_i)|`` is within its bound, or when every correction
    is below 1e-15 relative.  Up to degree ``_SCALAR_MAX`` the sweeps run
    on Python complex scalars (``_aberth_scalars``), above it on one
    matrix of powers (``_aberth_powers``).
    """
    d = len(c) - 1
    if d == 1:
        return np.array([-c[0]])
    radius = float((np.abs(c[:-1]) ** (1.0 / np.arange(d, 0, -1))).max())
    k = np.arange(d)
    # deterministic, slightly perturbed circle of starting points
    z = radius * (1.0 + 0.05 * np.sin(7.0 * k + 1.0)) \
        * np.exp(1j * (2 * np.pi * k / d + 0.4))
    kernel = _aberth_scalars if d <= _SCALAR_MAX else _aberth_powers
    return kernel(c, z)


def _aberth_powers(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Aberth sweeps of ``_aberth_roots`` from the starts ``z``, each
    on one ``(d, d+1)`` matrix of the powers ``z_i^j``, j = 0..d, formed by
    ``np.cumprod``: its products with p's coefficients, with p''s and with
    ``|c|`` give ``p(z_i)``, ``p'(z_i)`` and the rounding bound."""
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1)
    ac = np.abs(c)
    powers = np.empty((d, d + 1), dtype=complex)
    diff = np.empty((d, d), dtype=complex)
    for _ in range(_ABERTH_SWEEPS):
        powers[:, 0] = 1.0
        powers[:, 1:] = z[:, None]
        np.cumprod(powers, axis=1, out=powers)
        pv = powers @ c
        noise = (2.0 * (d + 1) * _EPS) * (np.abs(powers) @ ac)
        # an overflowed value or bound would pass the test vacuously
        if not (np.isfinite(pv).all() and np.isfinite(noise).all()):
            raise NonConvergence(f"polynomial values overflow at degree {d}")
        if (np.abs(pv) <= noise).all():
            return z
        dv = powers[:, :-1] @ dc
        w = pv / np.where(dv == 0, 1e-30, dv)
        np.subtract(z[:, None], z, out=diff)
        diff.flat[::d + 1] = 1.0
        s = np.divide(1.0, diff, out=diff).sum(axis=1) - 1.0
        corr = w / (1.0 - w * s)
        corr = np.where(np.isfinite(corr), corr, w)
        z = z - corr
        if (np.abs(corr) <= 1e-15 * (1.0 + np.abs(z))).all():
            return z
    raise NonConvergence(
        f"no convergence in {_ABERTH_SWEEPS} sweeps at degree {d}")


def _aberth_scalars(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``_aberth_powers`` on Python complex scalars, for small degrees
    where numpy's per-call cost outweighs the arithmetic: the same starts,
    stop rules and failure messages.  One Horner pass per iterate gives
    ``p`` and ``p'``, and one on ``|z_i|`` the bound; each pair of iterates
    takes one division for both Aberth sums.  Where CPython's ``abs``
    overflows, numpy's gives inf, so the overflow message is raised.  Where
    two iterates coincide or a correction is not finite, the correction is
    the Newton step, and a p' of 0 is 1e-30, as in ``_aberth_powers``."""
    d = len(c) - 1
    top, *rest = c[::-1].tolist()
    ac = np.abs(c[-2::-1]).tolist()
    bound = 2.0 * (d + 1) * _EPS
    z = z.tolist()
    isfinite = cmath.isfinite
    try:
        for _ in range(_ABERTH_SWEEPS):
            newton = []
            done = True
            for x in z:
                p, dp = top, 0j
                for a in rest:
                    dp = dp * x + p
                    p = p * x + a
                r, b = abs(x), 1.0
                for a in ac:
                    b = b * r + a
                noise = bound * b
                # an overflowed value or bound would pass the test vacuously
                if not (isfinite(p) and noise < math.inf):
                    raise OverflowError
                if done and abs(p) > noise:
                    done = False
                newton.append(p / (dp if dp else 1e-30))
            if done:
                return np.array(z)
            sums = [0j] * d
            for i in range(d - 1):
                x = z[i]
                for j in range(i + 1, d):
                    try:
                        t = 1.0 / (x - z[j])
                    except ZeroDivisionError:
                        t = _NAN
                    sums[i] += t
                    sums[j] -= t
            small = True
            for i, (w, s) in enumerate(zip(newton, sums)):
                den = 1.0 - w * s
                corr = w / den if den else w
                if not isfinite(corr):
                    corr = w
                z[i] = x = z[i] - corr
                if small and abs(corr) > 1e-15 * (1.0 + abs(x)):
                    small = False
            if small:
                return np.array(z)
    except OverflowError:
        raise NonConvergence(
            f"polynomial values overflow at degree {d}") from None
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


# The root backends by name, in cross-check order.
BACKENDS = {"aberth": _aberth_roots, "companion": _companion_roots}


# --- clustering -------------------------------------------------------------

def _cluster_and_polish(q: np.ndarray, raw: np.ndarray, scale: float):
    """(value, multiplicity) of each root of q from the raw roots: their
    clusters at ``CLUSTER_TOL``, bunched where a few clusters are one
    scattered root, each start polished once by ``_polish_groups``; both
    radii are relative to ``find_roots``' root ``scale``.  The derivative
    ladder of q ends at the largest bunch multiplicity, the highest order
    the derivative test and the polish read.

    A k-fold root computed in double precision scatters into a ring of
    radius ~eps^(1/k), which can exceed the cluster tolerance for k >= 3.
    So the clusters' raw centroids are bunched at ``_MERGE_RADIUS``.  A
    bunch of one, or one whose centroids all pass the derivative test
    (``_multiplicity_consistent``) for their claimed multiplicities, gives
    each centroid as a start; any other bunch gives one start, its
    multiplicity-weighted centroid with the total multiplicity."""
    groups = _components(list(raw), CLUSTER_TOL * scale)
    centroids = [(sum(g) / len(g), len(g)) for g in groups]
    bunches = _components(centroids, _MERGE_RADIUS * scale, lambda e: e[0])
    top = max(sum(k for _, k in b) for b in bunches)
    ders = [q]
    while len(ders) <= top:
        prev = ders[-1]
        ders.append(prev[1:] * np.arange(1, len(prev)))

    starts = []
    for bunch in bunches:
        if len(bunch) == 1 or all(
                _multiplicity_consistent(ders, v, k) for v, k in bunch):
            starts.extend(bunch)
            continue
        total = sum(k for _, k in bunch)
        starts.append((sum(v * k for v, k in bunch) / total, total))
    return _polish_groups(ders, starts, scale)


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


def _polish_groups(ders, starts, scale):
    """(value, k) for each start ``(start, k)``, fused or not: the start
    polished once on the (k-1)-th derivative, of which a k-fold root is a
    simple root.  A polish that moves its start more than the bunch radius,
    ``_MERGE_RADIUS`` relative to ``scale``, has left the root the bunching
    decided, so it raises NonConvergence.  Each class of starts of one k
    takes one kernel call: ``_newton_batch`` from ``_BATCH_MIN`` starts on,
    ``_newton`` below."""
    radius = _MERGE_RADIUS * scale
    classes = {}
    for i, (_, k) in enumerate(starts):
        classes.setdefault(k, []).append(i)
    entries = [None] * len(starts)
    for k, indices in classes.items():
        newton = _newton_batch if len(indices) >= _BATCH_MIN else _newton
        zs = np.array([starts[i][0] for i in indices])
        for i, z in zip(indices, newton(ders[k - 1], ders[k], zs)):
            start = starts[i][0]
            if abs(z - start) > radius:
                raise NonConvergence(f"the polish of a {k}-fold root left "
                                     f"its bunch at {start:.6g}")
            entries[i] = (z, k)
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
    most ``_NEWTON_STEPS`` steps.  The step is numpy's complex division,
    the routine of its scalar division (Smith's), on complexes built from
    the parts by assignment (``re + 1j * im`` would turn an infinite
    imaginary part into a NaN real part); moduli are ``np.hypot``, libm's
    ``hypot`` as CPython's complex ``abs`` is.
    """
    values = _batch_values(c, dc)
    zr, zi = z.real.copy(), z.imag.copy()
    vr, vi, dr, di = values(zr, zi)
    size = _moduli(vr, vi, True)
    moving = np.ones(len(z), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        moving &= (dr != 0) | (di != 0)
        if not moving.any():
            break
        step = _complex(vr, vi) / _complex(dr, di)
        sr, si = step.real, step.imag
        cr, ci = zr - sr, zi - si
        vr, vi, dr, di = values(cr, ci)
        candidate_size = _moduli(vr, vi, moving)
        # a NaN modulus compares False, so it is accepted as in _newton
        moving &= ~(candidate_size > size)
        size = candidate_size
        zr, zi = np.where(moving, cr, zr), np.where(moving, ci, zi)
        moving &= ~(_moduli(sr, si, moving)
                    <= 4e-16 * (1.0 + _moduli(zr, zi, moving)))
    return _complex(zr, zi)


def _complex(re, im) -> np.ndarray:
    """The complex array of parts ``re`` and ``im``, signed zeros, infs
    and NaNs as they are."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
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


def _batch_values(c, dc):
    """The function of the points (zr, zi) that gives ``_comp_values`` at
    each: the compensated value of ``c`` and the plain value of ``dc``, as
    float arrays (vr, vi, dr, di), bit for bit.

    A compensated value is a plain Horner pass plus a Horner pass over the
    error terms, and each step's error terms depend only on the previous
    plain value, z and the coefficient.  So it takes three passes:

    1. the plain recurrence ``s_k = s_{k-1} z + c_k``, keeping every s_k,
       with the derivative's Horner pass as a second row;
    2. one ``_comp_step`` on the s_{k-1} of all steps at once, keeping
       only its error terms T_k (its new s is pass 1's s_k, bit for bit);
    3. the error recurrence ``e_k = e_{k-1} z + T_k``, then ``s + e``.

    Each product by z is ``(sr zr - si zi, sr zi + si zr)`` on the parts,
    as a complex128 scalar forms it (numpy's array multiply can differ in
    the last bit): part l of the product is the sum over j of part j times
    ``zt[l, j]``, with ``zt = [[zr, -zi], [zi, zr]]``.
    """
    c, dc = c[::-1], dc[::-1]
    # coef[k] is added on step k + 1: row 0 is c's, row 1 dc's
    coef = np.empty((len(c) - 1, 2, 2, 1))
    coef[:, 0, 0, 0], coef[:, 0, 1, 0] = c.real[1:], c.imag[1:]
    coef[:, 1, 0, 0], coef[:, 1, 1, 0] = dc.real, dc.imag

    def values(zr, zi):
        zt = np.array([[zr, -zi], [zi, zr]])
        s = np.zeros((2, 2, len(zr)))
        s[0, 0], s[0, 1] = c[0].real, c[0].imag
        # pass 1: both plain Horner rows, keeping the value row's s_{k-1}
        prev = []
        for coef_k in coef:
            prev.append(s[0])
            prods = s[:, None] * zt
            s = prods[:, :, 0] + prods[:, :, 1] + coef_k
        # pass 2: the error terms of all steps
        sr, si = np.array(prev).swapaxes(0, 1)
        terms = _comp_step(sr, si, zr, zi, *_split(zr), *_split(zi),
                           coef[:, 0, 0], coef[:, 0, 1])[2:]
        # pass 3: the Horner pass over the error terms
        err = np.zeros((2, len(zr)))
        for term in np.array(terms).swapaxes(0, 1):
            prods = err * zt
            err = prods[:, 0] + prods[:, 1] + term
        vr, vi = s[0] + err
        dr, di = s[1]
        return vr, vi, dr, di

    return values


def _split(x):
    """Dekker's split of x into 26-bit halves hi and lo, hi + lo = x."""
    t = _SPLITTER * x
    hi = t - (t - x)
    return hi, x - hi


def _comp_step(sr, si, zr, zi, zrh, zrl, zih, zil, cr, ci):
    """One compensated Horner step ``s z + c`` on the parts, the same
    operations on Python floats and on float64 arrays: the new s and its
    error term T, as (sr, si, tr, ti); ``zrh, zrl`` and ``zih, zil`` are
    ``_split`` of zr and zi.  Each product ``p`` of two parts gets its
    rounding error ``f`` from Dekker's split into hi/lo halves, each sum
    its error ``g`` or ``h`` from Knuth's TwoSum (Graillat, Langlois and
    Louvet 2009).  Products are formed as complex128 scalars form them
    (numpy's array multiply can differ in the last bit).  Doubles must
    stay well inside the overflow margin."""
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
    return sr, si, f1 - f2 + g1 + h1, f3 + f4 + g2 + h2


def _comp_values(top, steps, zr: float, zi: float):
    """``_batch_values`` at the one point zr + i zi on Python floats, one
    ``_comp_step`` per step: ``top`` holds the parts of the leading
    coefficient, each step those of the next coefficient and derivative
    coefficient."""
    (zrh, zrl), (zih, zil) = _split(zr), _split(zi)
    sr, si = top
    er = ei = dr = di = 0.0
    for cr, ci, pr, pi in steps:
        sr, si, tr, ti = _comp_step(sr, si, zr, zi, zrh, zrl, zih, zil,
                                    cr, ci)
        er, ei = er * zr - ei * zi + tr, er * zi + ei * zr + ti
        dr, di = dr * zr - di * zi + pr, dr * zi + di * zr + pi
    return sr + er, si + ei, dr, di


def _multiplicity_consistent(ders, value, mult):
    for j in range(mult):
        if relative_value(ders[j], value) > VANISH_TOL:
            return False
    return relative_value(ders[mult], value) > VANISH_TOL


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
