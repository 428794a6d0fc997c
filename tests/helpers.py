"""Test-only routines: exact-arithmetic references the package does not
need, the per-solution sort key and document writer that the packed
solution batch replaced, and the rank-pattern equations shared by the
solver and scan tests."""

import cmath
import math

import numpy as np

from matpolyeq import poly
from matpolyeq.documents import FORMAT_VERSION
from matpolyeq.mat2 import Mat2, MatrixEquation, Vec2, outer
from matpolyeq.poly import NonConvergence, Poly
from matpolyeq.solver import RESIDUAL_COEF, Solution, SolutionSet


def poly_divmod(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Euclidean division of p by d; returns (quotient, remainder)."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    dlead = d.coeffs[-1]
    dd = d.degree
    quot = [0j] * max(len(rem) - dd, 1)
    for k in range(len(rem) - 1, dd - 1, -1):
        f = rem[k] / dlead
        quot[k - dd] = f
        for j, c in enumerate(d.coeffs):
            rem[k - dd + j] -= f * c
    return Poly(quot), Poly(rem[:dd] if dd else [0j])


def ref_residual_tol(eq: MatrixEquation, x: Mat2) -> float:
    """The acceptance threshold of one candidate, one float at a time:
    RESIDUAL_COEF (1 + coefficient scale) (1 + ||X||)^n with CPython's
    power, ||X|| the largest entry modulus, inf where an entry is not
    finite or the modulus or the power overflows."""
    entries = (x.m11, x.m12, x.m21, x.m22)
    try:
        norm = (max(abs(z) for z in entries)
                if all(map(cmath.isfinite, entries)) else math.inf)
        return RESIDUAL_COEF * (1.0 + eq.coeff_scale()) * (1.0 + norm) ** eq.n
    except OverflowError:
        return math.inf


def ref_sort_key(sol: Solution):
    """The solver's output order, one Solution at a time: the eigenvalues
    of the eigen data by (real, imag), then the entries' parts."""
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


def _ref_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _ref_mat(m: Mat2) -> list:
    return [[_ref_pair(m.m11), _ref_pair(m.m12)],
            [_ref_pair(m.m21), _ref_pair(m.m22)]]


def ref_solution_set_to_doc(sset: SolutionSet) -> dict:
    """documents.solution_set_to_doc as it wrote each Solution object's
    matrix through [re, im] pairs, before it wrote the packed batch."""
    doc = {
        "format_version": FORMAT_VERSION,
        "classification": "finite" if sset.is_finite else "infinite",
        "solutions": [
            {"matrix": _ref_mat(s.matrix), "kind": s.kind,
             "residual": float(s.residual)}
            for s in sset.solutions
        ],
        "metadata": {
            "critical_values": [
                {"value": _ref_pair(d.value),
                 "multiplicity": d.multiplicity, "space_dim": d.space_dim}
                for d in sset.critical_data
            ],
        },
    }
    if sset.certificate is not None:
        cert = sset.certificate
        doc["certificate"] = {
            "reason": cert.reason,
            "base": _ref_mat(cert.base),
            "direction": _ref_mat(cert.direction),
            "samples": [_ref_pair(mu) for mu in cert.samples],
            "sample_residuals": [float(r) for r in cert.sample_residuals],
        }
    return doc


def ref_aberth_roots(c: np.ndarray, sweeps=None) -> np.ndarray:
    """poly._aberth_roots as it was when it formed its running roundoff
    bound on every sweep, verbatim apart from ``sweeps``: a list that, when
    given, receives (|z|, err) of every sweep."""
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
    for _ in range(poly._ABERTH_SWEEPS):
        acc = np.repeat(coef[:, -1:], d, axis=1)
        # running roundoff bound of p's Horner values
        err = np.abs(acc[0]) * 0.5
        az = np.abs(z)
        for ck in coef[:, -2::-1].T:
            acc *= z
            acc += ck[:, None]
            err *= az
            err += np.abs(acc[0])
        if sweeps is not None:
            sweeps.append((az, err))
        pv, dv = acc
        noise = 2.0 * err * np.finfo(float).eps
        # an overflowed value or bound would pass the test below vacuously
        if not (np.all(np.isfinite(pv)) and np.all(np.isfinite(noise))):
            raise NonConvergence(f"polynomial values overflow at degree {d}")
        if np.all(np.abs(pv) <= 8.0 * noise):
            return z
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
    raise NonConvergence(
        f"no convergence in {poly._ABERTH_SWEEPS} sweeps at degree {d}")


def max_abs_coeff(p: Poly) -> float:
    return max(abs(c) for c in p.coeffs)


def inverse(m: Mat2) -> Mat2:
    d = m.det()
    if d == 0:
        raise ZeroDivisionError("singular 2x2 matrix")
    return m.adjugate().scale(1.0 / d)


def _vec(rng):
    return Vec2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (2, 2))))


def _mat(rng):
    return Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))


def _columns(c1, c2):
    return Mat2(c1.x, c2.x, c1.y, c2.y)


# M(lam) = a b^T or 0, and how M'(lam) acts on the kernel vector k of a b^T
RANK_PATTERNS = ("jordan_invertible", "jordan_rank_one", "off_a",
                 "kernel_rank_one", "kernel_zero",
                 "zero_invertible", "zero_rank_one", "zero_zero")
JORDAN_PATTERNS = ("jordan_invertible", "jordan_rank_one")
# M(lam) = 0 with M'(lam) = a a_perp^T nilpotent: at n = 2, det M(t) =
# (t - lam)^4 and lam I + s a a_perp^T solves the equation for every s.  At
# n = 4 the solver can miss this family (a multiplicity-4 root read as a
# one-dimensional space), so only the degree-2 scan test uses it.
NILPOTENT_FAMILY = "zero_nilpotent"
# the same M'(lam) perturbed by 1e-10 b k2^T: no longer singular, so no
# family through lam I, although lam I + s a a_perp^T passes the residual
# test for every s up to C(4, 2) + 1
NEAR_FAMILY = "zero_near_nilpotent"


def prescribed_equation(pattern, n, seed):
    """A degree-n equation whose M(lam) and M'(lam) follow ``pattern`` at a
    seeded lam: A_1 comes from M'(lam), then A_0 from M(lam); A_2 .. A_{n-1}
    are seeded.  Returns the equation, lam, and for the Jordan patterns the
    one non-diagonalizable solution lam I - k b^T / alpha."""
    rng = np.random.default_rng(seed)
    lam = complex(*rng.uniform(-1, 1, 2))
    a, b, k2 = _vec(rng), _vec(rng), _vec(rng)
    k = Vec2(b.y, -b.x)
    alpha = complex(*rng.uniform(0.5, 1.5, 2))
    alpha_a = Vec2(alpha * a.x, alpha * a.y)
    # M'(lam) by its images of k and k2
    to_basis = inverse(_columns(k, k2))
    mval = Mat2.zero() if pattern.startswith("zero") else outer(a, b)
    mder = {
        "jordan_invertible": _columns(alpha_a, _vec(rng)) @ to_basis,
        "jordan_rank_one": outer(a, Vec2(alpha, 2j)) @ to_basis,
        "off_a": _mat(rng),
        "kernel_rank_one": outer(_vec(rng), b),
        "kernel_zero": Mat2.zero(),
        "zero_invertible": _mat(rng),
        "zero_rank_one": outer(_vec(rng), _vec(rng)),
        "zero_zero": Mat2.zero(),
        NILPOTENT_FAMILY: outer(a, Vec2(a.y, -a.x)),
        NEAR_FAMILY: outer(a, Vec2(a.y, -a.x)) + outer(b, k2).scale(1e-10),
    }[pattern]
    high = [_mat(rng) for _ in range(n - 2)]
    a1 = mder - Mat2.identity().scale(n * lam ** (n - 1))
    a0 = mval - Mat2.identity().scale(lam ** n)
    for i, ai in enumerate(high, start=2):
        a1 = a1 - ai.scale(i * lam ** (i - 1))
        a0 = a0 - ai.scale(lam ** i)
    a0 = a0 - a1.scale(lam)
    jordan = Mat2.identity().scale(lam) - outer(k, b).scale(1 / alpha)
    return MatrixEquation((a0, a1, *high)), lam, jordan
