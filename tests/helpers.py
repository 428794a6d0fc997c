"""Test-only routines: exact-arithmetic references the package does not
need, a one-row view of the batch residual kernel and a one-kind view of
the finite candidates, the per-solution sort key and document writer that
the packed solution batch replaced, the per-pair candidate scan that the
batched one replaced, the rank-pattern and diagonal equations shared by
the solver and scan tests, the rescaled equation of X = 2^j Y, the
similarity by diag(1, d), and the rounded unitary similarity Y = Q X Q^H."""

import cmath
import math

import numpy as np

from matpolyeq.construct import DomainError
from matpolyeq.documents import FORMAT_VERSION
from matpolyeq.mat2 import (Mat2, MatrixEquation, Vec2, det2, eval_batch,
                            greedy_unique, outer, pack, unpack)
from matpolyeq.poly import Poly
from matpolyeq.solver import (INDEPENDENCE_TOL, RESIDUAL_COEF, Candidates,
                              Solution, SolutionSet, accepted, critical_data,
                              finite_candidates, residuals, solution_bound)
from matpolyeq.verify import _least_right_singular, _offsets


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


def eval_one(eq: MatrixEquation, x: Mat2) -> Mat2:
    """f(X) = X^n + A_{n-1} X^{n-1} + ... + A_0 at one matrix: one row of
    ``mat2.eval_batch``."""
    return unpack(eval_batch(eq, pack([x])))[0]


def rows_of_kind(eq: MatrixEquation, data, kind: str) -> Candidates:
    """The rows of ``solver.finite_candidates`` for the one critical-data
    set ``data`` whose kind is ``kind``, in batch order."""
    found, _ = finite_candidates(eq, (data,))
    return found.take([r for r, k in enumerate(found.kinds) if k == kind])


def ref_sort_key(sol: Solution):
    """The solver's output order, one Solution at a time: the two
    eigenvalues of the eigen data (a non-diagonalizable row's one eigenvalue
    twice) by (real, imag), then the entries' parts."""
    lams = sorted((sol.eigen_data[0][0], sol.eigen_data[-1][0]),
                  key=lambda z: (z.real, z.imag))
    m = sol.matrix
    return tuple(part for z in (*lams, m.m11, m.m12, m.m21, m.m22)
                 for part in (z.real, z.imag))


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


def ref_brute_force_scan(eq: MatrixEquation, keep_tol: float) -> list[Mat2]:
    """verify.brute_force_scan as it was when it fitted each pair of
    sampled eigenpairs by its own least-squares solve and built the scalar
    candidates value by value, verbatim apart from the dedupe tolerance
    ``keep_tol``, which it took as ten times the solver's, and a plane's
    directions, which were eight fixed ones."""
    data = critical_data(eq, backend="companion")

    samples = []
    for d in data:
        if d.space_dim == 1:
            samples.append((d.value, [d.basis[0]]))
        else:
            spread = [Vec2(1, t) for t in range(solution_bound(eq.n) + 1)]
            samples.append((d.value, [Vec2(0, 1)] + spread))

    fits: list[Mat2] = []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            la, vas = samples[i]
            lb, vbs = samples[j]
            for va in vas:
                for vb in vbs:
                    if abs(det2(va.normalized(), vb.normalized())) \
                            <= INDEPENDENCE_TOL:
                        continue
                    x = _ref_fit_eigenpairs(la, va, lb, vb)
                    if x is not None:
                        fits.append(x)
    x = np.concatenate([pack(fits),
                        _ref_scalar_candidates(eq, [d.value for d in data])])
    x = x[accepted(eq, x, residuals(eq, x))]
    x = x[np.lexsort(x.view(float).T[::-1])]
    return unpack(x[greedy_unique(x, keep_tol)])


def _ref_fit_eigenpairs(la, va, lb, vb):
    """Least-squares fit of X v = lam v for two prescribed eigenpairs."""
    rows = np.array([
        [va.x, va.y, 0, 0],
        [0, 0, va.x, va.y],
        [vb.x, vb.y, 0, 0],
        [0, 0, vb.x, vb.y],
    ], dtype=complex)
    rhs = np.array([la * va.x, la * va.y, lb * vb.x, lb * vb.y], dtype=complex)
    sol, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < 4:
        return None
    return Mat2(*sol)


def _ref_scalar_candidates(eq: MatrixEquation, lams) -> np.ndarray:
    """verify._scalar_candidates one critical value at a time, packed in
    value order: lam I, its family-line members, its offset."""
    scalars = pack([Mat2.identity().scale(lam) for lam in lams])
    scalar_ok = accepted(eq, scalars, residuals(eq, scalars))
    mval = pack([eq.matrix.eval(lam) for lam in lams]).reshape(-1, 2, 2)
    mder = pack([eq.matrix.derivative().eval(lam)
                 for lam in lams]).reshape(-1, 2, 2)
    tiny = np.array([1e-24 * max(1.0, np.abs(d).max()) ** 2 for d in mder])
    cap = np.array([1e4 * (1.0 + abs(lam)) for lam in lams])

    kmat, degenerate, c = _offsets(mval, mder, tiny,
                                   _least_right_singular(mval))
    offset_ok = ~scalar_ok & ~degenerate & (np.abs(c) <= cap)
    line, flat, _ = _offsets(mval, mder, tiny, _least_right_singular(mder))
    line_ok = scalar_ok & flat
    steps = np.arange(1.0, solution_bound(eq.n) + 2)
    out = [scalars[:0]]
    for v, lam in enumerate(lams):
        base = lam * np.eye(2)
        if scalar_ok[v]:
            out.append(scalars[v:v + 1])
        if line_ok[v]:
            out.append((base + steps[:, None, None] * line[v]).reshape(-1, 4))
        if offset_ok[v]:
            out.append((base + c[v] * kmat[v]).reshape(1, 4))
    return np.concatenate(out)


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


def diagonal_equation(m: int, n: int) -> MatrixEquation:
    """Explicit diagonal equations with exactly m = 4 (n >= 2) or m = 16
    (n >= 4) solutions: diag(a, b) with a in {+-1}, b in {+-2}, or a in
    {+-1, +-3}, b in {+-2, +-4}.  det M(t) has roots of multiplicity n - 1
    (n - 3 for 16) at -1 and -2, so they stress the root stage at high
    multiplicity."""
    if m == 4:
        if n < 2:
            raise DomainError("m = 4 requires n >= 2")
        top = Poly.from_roots([(1, 1), (-1, n - 1)])
        bottom = Poly.from_roots([(2, 1), (-2, n - 1)])
    elif m == 16:
        if n < 4:
            raise DomainError("m = 16 requires n >= 4")
        top = Poly.from_roots([(3, 1), (-3, 1), (1, 1), (-1, n - 3)])
        bottom = Poly.from_roots([(4, 1), (-4, 1), (2, 1), (-2, n - 3)])
    else:
        raise DomainError(f"no diagonal equation for m = {m}")
    coeffs = tuple(Mat2.diag(top.coeffs[i], bottom.coeffs[i]) for i in range(n))
    return MatrixEquation(coeffs)


def rescaled(eq: MatrixEquation, j: int) -> MatrixEquation:
    """The equation of Y = 2^-j X: B_k = 2^(-j (n - k)) A_k, exact in
    doubles, whose solutions are 2^-j times those of eq."""
    return MatrixEquation(tuple(a.scale(2.0 ** (-j * (eq.n - k)))
                                for k, a in enumerate(eq.coeffs)))


def diagonally_similar(eq: MatrixEquation, d: complex) -> MatrixEquation:
    """The equation of Y = D X D^-1 for D = diag(1, d): B_k = D A_k D^-1
    divides a12 by d and multiplies a21 by d, exact in doubles for d a
    power of two or i, so its solutions map one to one onto those of eq."""
    return MatrixEquation(tuple(Mat2(a.m11, a.m12 / d, a.m21 * d, a.m22)
                                for a in eq.coeffs))


def seeded_unitary(seed: int) -> np.ndarray:
    """A random 2x2 unitary: the Q of the QR factorization of a seeded
    complex normal matrix, its columns rephased by diag(R) / |diag(R)| so
    that Q is unique."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def similar(eq: MatrixEquation, q: np.ndarray) -> MatrixEquation:
    """The equation of Y = Q X Q^H for a unitary Q: B_k = Q A_k Q^H,
    rounded to doubles, so its solutions are those of eq only up to
    rounding."""
    return MatrixEquation(tuple(
        Mat2(*(q @ np.array([[a.m11, a.m12], [a.m21, a.m22]])
               @ q.conj().T).ravel().tolist())
        for a in eq.coeffs))
