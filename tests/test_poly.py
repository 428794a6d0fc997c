import hashlib

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq import poly
from matpolyeq.construct import construct, special_case
from matpolyeq.mat2 import Mat2, MatrixEquation
from matpolyeq.poly import (CLUSTER_TOL, NonConvergence, Poly, SingularSystem,
                            _aberth_roots, _comp_horner, _err_bound_scale,
                            _horner_scalar, _newton, dense_solve, find_roots,
                            relative_value)
from matpolyeq.solver import solution_bound
from matpolyeq.verify import brute_force_scan

from helpers import (NEAR_FAMILY, NILPOTENT_FAMILY, RANK_PATTERNS,
                     max_abs_coeff, prescribed_equation, ref_aberth_roots)

BACKENDS = ("aberth", "companion")


class TestPolyArithmetic:
    def test_eval(self):
        p = Poly([-1, 0, 1])  # t^2 - 1
        assert p(2) == 3
        assert p(1) == 0

    def test_eval_quartic_from_factors(self):
        # (t-1)(t+1)(t-2)(t+2), expanded independently via numpy
        coeffs = npp.polyfromroots([1, -1, 2, -2])
        p = Poly(coeffs)
        assert p.coeffs == (4, 0, -5, 0, 1)
        assert p(0) == 4

    def test_mul(self):
        assert (Poly([1, 1]) * Poly([-1, 1])).coeffs == (-1, 0, 1)

    def test_cancellation_gives_zero(self):
        q = Poly([0, 0, 1]) + Poly([0, 0, -1])
        assert q.is_zero
        assert q.coeffs == (0j,)

    def test_mul_matches_numpy_convolution(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            ours = (Poly(a) * Poly(b)).coeffs
            theirs = npp.polymul(a, b)
            assert np.allclose(ours, theirs)

    def test_derivative(self):
        assert Poly([0, 0, 1]).derivative().coeffs == (0, 2)
        assert Poly([5]).derivative().is_zero
        assert Poly([4, 0, -5, 0, 1]).derivative().coeffs == (0, -10, 0, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Poly([1, float("nan")])


class TestFromRoots:
    def test_two_simple_roots(self):
        assert Poly.from_roots([(1, 1), (-1, 1)]).coeffs == (-1, 0, 1)

    def test_zero_with_multiplicity(self):
        assert Poly.from_roots([(0, 4)]).coeffs == (0, 0, 0, 0, 1)

    def test_four_symmetric_roots(self):
        # (t-3)(t+3)(t-1)(t+1) = (t^2-9)(t^2-1) = t^4 - 10 t^2 + 9
        p = Poly.from_roots([(3, 1), (-3, 1), (1, 1), (-1, 1)])
        assert p.coeffs == (9, 0, -10, 0, 1)


class TestFindRoots:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_quadratic(self, backend):
        roots = find_roots(Poly([-1, 0, 1]), backend=backend)
        assert [(round(r.value.real), r.multiplicity) for r in roots] == \
            [(-1, 1), (1, 1)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pure_power(self, backend):
        roots = find_roots(Poly([0, 0, 0, 0, 1]), backend=backend)
        assert len(roots) == 1
        assert roots[0].value == 0
        assert roots[0].multiplicity == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_quadratics(self, backend):
        p = Poly.from_roots([(1, 1), (-1, 1), (2, 1), (-2, 1)])
        roots = find_roots(p, backend=backend)
        values = sorted(r.value.real for r in roots)
        assert np.allclose(values, [-2, -1, 1, 2], atol=1e-9)
        assert all(r.multiplicity == 1 for r in roots)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_triple_root_off_origin(self, backend):
        p = Poly.from_roots([(-1, 3), (2, 1)])
        roots = find_roots(p, backend=backend)
        assert sorted((round(r.value.real), r.multiplicity) for r in roots) == \
            [(-1, 3), (2, 1)]
        triple = next(r for r in roots if r.multiplicity == 3)
        assert abs(triple.value + 1) < 1e-9

    def test_residual_invariant(self):
        p = Poly.from_roots([(1.5, 2), (-0.5 + 1j, 1), (2j, 1)])
        bound = 1e-9 * (1 + max_abs_coeff(p))
        for r in find_roots(p):
            assert abs(p(r.value)) <= bound

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(Poly([3]))

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            find_roots(Poly([-1, 0, 1]), backend="secant")

    def test_iteration_budget_exhaustion(self, monkeypatch):
        coeffs = np.array(Poly.from_roots([(1, 1), (2, 1), (3, 1)]).coeffs)
        monkeypatch.setattr(poly, "_ABERTH_SWEEPS", 1)
        with pytest.raises(NonConvergence, match="in 1 sweeps at degree 3"):
            _aberth_roots(coeffs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend):
        p = Poly.from_roots([(1, 2), (-2, 1), (0.5j, 1)])
        ours = find_roots(p, backend=backend)
        others = find_roots(p, backend="companion")
        scale = max(1.0, max(abs(r.value) for r in ours))
        for a, b in zip(ours, others):
            assert abs(a.value - b.value) <= 10 * CLUSTER_TOL * scale
            assert a.multiplicity == b.multiplicity


@st.composite
def root_multisets(draw):
    # well separated roots on a coarse grid, total degree <= 10
    grid = [complex(re, im) for re in (-2, -1, 0, 1, 2)
            for im in (-1.5, 0, 1.5)]
    count = draw(st.integers(1, 4))
    values = draw(st.permutations(grid))[:count]
    mults = [draw(st.integers(1, 3)) for _ in range(count)]
    while sum(mults) > 10:
        mults[mults.index(max(mults))] -= 1
    return list(zip(values, mults))


@settings(max_examples=60, deadline=None)
@given(root_multisets(), st.sampled_from(BACKENDS))
def test_roundtrip_roots(roots, backend):
    p = Poly.from_roots(roots)
    found = find_roots(p, backend=backend)
    assert sum(r.multiplicity for r in found) == p.degree
    scale = max(1.0, max(abs(v) for v, _ in roots))
    remaining = [(r.value, r.multiplicity) for r in found]
    assert len(remaining) == len(roots)
    for ev, em in roots:
        hit = min(range(len(remaining)), key=lambda i: abs(remaining[i][0] - ev))
        gv, gm = remaining.pop(hit)
        assert abs(ev - gv) <= CLUSTER_TOL * scale
        assert em == gm


class TestRelativeValue:
    def test_value_over_term_bound(self):
        # p = t^2 - 3t + 2: at t = 3 the terms add up to 9 + 9 + 2
        c = Poly.from_roots([(1, 1), (2, 1)]).coeffs
        assert relative_value(c, 3.0) == pytest.approx(2 / 20)
        # inside the unit disc the bound is the coefficient sum, 6
        assert relative_value(c, 0.5j) == pytest.approx(abs(2 - 1.5j - 0.25) / 6)

    def test_points_keep_their_shape(self):
        c = Poly.from_roots([(1, 2), (-2j, 1)]).coeffs
        t = np.array([[1, -2j], [0.5, 1e3]])
        got = relative_value(c, t)
        assert got.shape == (2, 2)
        assert got[0, 0] == got[0, 1] == 0
        assert got[1, 0] > 0.01 and got[1, 1] == pytest.approx(1, rel=1e-2)

    def test_overflow_gives_no_warning(self):
        got = relative_value(Poly([1, 0, 1]).coeffs, [1e300, np.inf, np.nan])
        assert not np.isfinite(got).any()


class TestNewton:
    def test_polishes_to_the_nearest_double(self):
        # p = t^2 - 2 from a start 1e-6 away
        c = np.array([-2, 0, 1], dtype=complex)
        z = _newton(c, c[1:] * np.arange(1, 3), 1.4142146 + 1e-7j)
        assert abs(z - 2 ** 0.5) <= 2.3e-16

    def test_stops_where_the_derivative_vanishes(self):
        c = np.array([1, 0, 1], dtype=complex)
        assert _newton(c, c[1:] * np.arange(1, 3), 0j) == 0j


# --- the polish against the numpy-scalar code it replaced --------------------
# The references compute on np.float64 / np.complex128 scalars, one helper
# call per error-free transformation.  The polish on Python floats must give
# their bits, compared through uint64 views (every NaN made one value), and
# raise where they raise.

_SPLITTER = 134217729.0  # 2**27 + 1


def ref_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def ref_two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def ref_comp_horner(c, z):
    zr, zi = z.real, z.imag
    sr, si = c[-1].real, c[-1].imag
    er = ei = 0.0
    for ck in c[-2::-1]:
        p1, f1 = ref_two_prod(sr, zr)
        p2, f2 = ref_two_prod(si, zi)
        p3, f3 = ref_two_prod(sr, zi)
        p4, f4 = ref_two_prod(si, zr)
        vr, g1 = ref_two_sum(p1, -p2)
        vi, g2 = ref_two_sum(p3, p4)
        nr, h1 = ref_two_sum(vr, ck.real)
        ni, h2 = ref_two_sum(vi, ck.imag)
        er, ei = (er * zr - ei * zi + (f1 - f2 + g1 + h1),
                  er * zi + ei * zr + (f3 + f4 + g2 + h2))
        sr, si = nr, ni
    return complex(sr + er, si + ei)


def ref_horner_scalar(c, z):
    acc = 0j
    for ck in c[::-1]:
        acc = acc * z + ck
    return acc


def ref_newton(c, dc, z):
    value = ref_comp_horner(c, z)
    for _ in range(80):
        dv = ref_horner_scalar(dc, z)
        if dv == 0:
            break
        step = value / dv
        candidate = z - step
        candidate_value = ref_comp_horner(c, candidate)
        if abs(candidate_value) > abs(value):
            break
        z, value = candidate, candidate_value
        if abs(step) <= 4e-16 * (1.0 + abs(z)):
            break
    return z


def outcome(f, *args):
    """The bits of f's result, a complex or an (re, im) pair, or the name
    of what it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            got = f(*args)
    except ArithmeticError as exc:
        return type(exc).__name__
    got = complex(*got) if isinstance(got, tuple) else complex(got)
    parts = np.array([got.real, got.imag])
    parts[np.isnan(parts)] = np.nan
    return parts.view(np.uint64).tolist()


def pairs(c):
    """Coefficients as the polish holds them: (re, im), highest first."""
    return [(ck.real, ck.imag) for ck in c[::-1].tolist()]


def derivative(c):
    return c[1:] * np.arange(1, len(c))


def _scaled(mantissa, exponent):
    return mantissa * 10.0 ** exponent


_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                   st.builds(_scaled, st.floats(-1.0, 1.0),
                             st.integers(-30, 30)))
_COMPLEX = st.builds(complex, _PARTS, _PARTS)
_NEAR = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=150, deadline=None)
@given(c=st.lists(_COMPLEX, min_size=2, max_size=33), z=_COMPLEX)
def test_polish_matches_numpy_scalars(c, z):
    c, z = np.array(c, dtype=complex), np.complex128(z)
    dc = derivative(c)
    assert outcome(_comp_horner, pairs(c), z.real, z.imag) == \
        outcome(ref_comp_horner, c, z)
    assert outcome(_horner_scalar, pairs(dc), z.real, z.imag) == \
        outcome(ref_horner_scalar, dc, z)
    assert outcome(_newton, c, dc, z) == outcome(ref_newton, c, dc, z)


@st.composite
def near_multiple_roots(draw):
    """A k-fold root scattered by up to 1e-6 among other roots (degree at
    most 32), the (k-1)-th derivative to polish on, and a start near it."""
    root = draw(_NEAR)
    k = draw(st.integers(2, 6))
    spread = draw(st.builds(_scaled, st.floats(0.0, 1.0),
                            st.integers(-16, -6)))
    others = draw(st.lists(_NEAR, max_size=32 - k))
    roots = [root + spread * np.exp(2j * np.pi * j / k + 0.3)
             for j in range(k)] + others
    c = np.poly(roots)[::-1].astype(complex)
    for _ in range(k - 1):
        c = derivative(c)
    start = root + draw(st.builds(complex, st.floats(-1e-3, 1e-3),
                                  st.floats(-1e-3, 1e-3)))
    return c, np.complex128(start)


@settings(max_examples=150, deadline=None)
@given(near_multiple_roots())
def test_polish_matches_numpy_scalars_near_multiple_roots(case):
    c, z = case
    dc = derivative(c)
    got = _newton(c, dc, z)
    assert type(got) is np.complex128
    assert outcome(_newton, c, dc, z) == outcome(ref_newton, c, dc, z)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n, m", [(8, 75), (10, 128)])
def test_polish_matches_numpy_scalars_on_constructed_roots(n, m, backend,
                                                           monkeypatch):
    # companion roots such as 1 + 4.5e-16j, where a step's acceptance hangs
    # on the last bit of a modulus (math.hypot rounds differently)
    calls = []

    def recording(c, dc, z):
        calls.append((c, dc, z))
        return _newton(c, dc, z)

    monkeypatch.setattr(poly, "_newton", recording)
    find_roots(construct(n, m, validate=False).equation.det_poly, backend)
    assert len(calls) >= 12
    for c, dc, z in calls:
        assert outcome(_newton, c, dc, z) == outcome(ref_newton, c, dc, z)


# sha256 of find_roots' output, both backends, on the benchmark's sweep_n5
# cells (construct(n, m) for every n <= 5) and its scan fixtures: float.hex
# of each root's parts and its multiplicity, or the name of the exception.
# Recorded from the numpy-scalar polish; the random_n16 document digests see
# simple roots only, this sees the multiple-root path too.
ROOT_BITS_SHA256 = \
    "4774aaff7f0f1cdf355b98d2c5a86df55132282bc3492eae97bc1b6c826303c7"
SCAN_FIXTURES = ("eq_four_solutions", "eq_x_squared_zero",
                 "eq_x_squared_identity", "eq_x_squared_nilpotent",
                 "eq_x_squared_jordan", "eq_shifted_square", "eq_degree_one")


def test_root_bits_match_the_recorded_digest(request):
    equations = [construct(n, m, validate=False).equation
                 for n in range(1, 6)
                 for m in range(1, solution_bound(n) + 1)]
    equations += [request.getfixturevalue(name) for name in SCAN_FIXTURES]
    digest = hashlib.sha256()
    for eq in equations:
        for backend in BACKENDS:
            try:
                out = [(r.value.real.hex(), r.value.imag.hex(), r.multiplicity)
                       for r in find_roots(eq.det_poly, backend)]
            except NonConvergence as exc:
                out = type(exc).__name__
            digest.update(repr(out).encode())
    assert len(equations) == 102
    assert digest.hexdigest() == ROOT_BITS_SHA256


# sha256 of brute_force_scan's output on the benchmark's scan_n3 equations
# (construct(n, m) for every n <= 3, and the scan fixtures) and on every rank
# pattern at n = 2, 3 with seeds 0 and 1: float.hex of each entry's parts.
# Recorded from the scan whose offset and family directions are the least
# right singular vectors of M(lam) and M'(lam).
SCAN_BITS_SHA256 = \
    "d103e2f09fab779eca9b4d9a16c5e4f21afb3cb5463c7738220531044aec95f7"


def test_scan_bits_match_the_recorded_digest(request):
    equations = [construct(n, m, validate=False).equation
                 for n in range(1, 4)
                 for m in range(1, solution_bound(n) + 1)]
    equations += [request.getfixturevalue(name) for name in SCAN_FIXTURES]
    equations += [prescribed_equation(pattern, n, seed)[0]
                  for pattern in RANK_PATTERNS + (NILPOTENT_FAMILY,
                                                  NEAR_FAMILY)
                  for n in (2, 3) for seed in (0, 1)]
    digest = hashlib.sha256()
    for eq in equations:
        out = [(z.real.hex(), z.imag.hex()) for x in brute_force_scan(eq)
               for z in (x.m11, x.m12, x.m21, x.m22)]
        digest.update(repr(out).encode())
    assert len(equations) == 69
    assert digest.hexdigest() == SCAN_BITS_SHA256


class _Captured(Exception):
    pass


def aberth_input(p: Poly):
    """The coefficients find_roots hands to the aberth backend for p (monic,
    zero roots deflated), or None when it needs no iteration."""
    seen = []

    def capture(c):
        seen.append(c.copy())
        raise _Captured

    original, poly._aberth_roots = poly._aberth_roots, capture
    try:
        find_roots(p)
    except _Captured:
        pass
    finally:
        poly._aberth_roots = original
    return seen[0] if seen else None


def _random_equation(seed, n, scale):
    rng = np.random.default_rng(seed)
    return MatrixEquation(tuple(
        Mat2(*(complex(a, b) * scale for a, b in rng.uniform(-1, 1, (4, 2))))
        for _ in range(n)))


def aberth_corpus():
    """The aberth inputs of the sweep cells with n <= 5, of random
    equations at n = 1..16 with entries scaled from 1 to 1e60, and of the
    explicit diagonal equations for m = 4 and m = 16 up to n = 16."""
    equations = [construct(n, m, validate=False).equation
                 for n in range(1, 6)
                 for m in range(1, solution_bound(n) + 1)]
    equations += [_random_equation(seed, n, scale)
                  for scale in (1.0, 1e10, 1e30, 1e60)
                  for seed in range(3) for n in range(1, 17)]
    equations += [special_case(m, n) for m, n_min in ((4, 2), (16, 4))
                  for n in range(n_min, 17)]
    inputs = [aberth_input(eq.det_poly) for eq in equations]
    return [c for c in inputs if c is not None]


def kernel_outcome(kernel, c):
    """The raw bytes of the roots, or the type and text of the exception."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return kernel(c.copy()).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def assert_bound_dominates(c):
    """The closed-form ub is at least the running err of every sweep of
    the reference, wherever ub is finite."""
    sweeps = []
    kernel_outcome(lambda c: ref_aberth_roots(c, sweeps), c)
    d = len(c) - 1
    for az, err in sweeps:
        with np.errstate(over="ignore"):
            ub = _err_bound_scale(c) * np.maximum(az, 1.0) ** d
        finite = np.isfinite(ub)
        assert np.all(ub[finite] >= err[finite])


class TestAberthKernel:
    """_aberth_roots forms its roundoff bound only where the bound can stop
    the iteration; it must give what forming it on every sweep gave."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return aberth_corpus()

    def test_bits_match_the_reference(self, corpus):
        outcomes = [kernel_outcome(_aberth_roots, c) for c in corpus]
        assert outcomes == [kernel_outcome(ref_aberth_roots, c)
                            for c in corpus]
        # roots, values that overflow, and a spent sweep budget
        assert len(corpus) == 315
        assert any(isinstance(o, bytes) for o in outcomes)
        errors = [o[1] for o in outcomes if isinstance(o, tuple)]
        assert any("overflow" in e for e in errors)
        assert any("sweeps" in e for e in errors)

    def test_bound_dominates_the_running_bound(self, corpus):
        for c in corpus:
            assert_bound_dominates(c)

    def test_bound_overflowing_at_some_points(self):
        # the start circle's 5% wobble spreads |z|^150 over ~1e13: ub
        # overflows at the outer points, where err does and p(z) does not,
        # and is finite and far below |p(z)| at the inner ones
        c = np.zeros(151, dtype=complex)
        c[0], c[-1] = 10.0 ** (302 / 150), 1.0
        ref = kernel_outcome(ref_aberth_roots, c)
        assert ref == (NonConvergence,
                       "polynomial values overflow at degree 150")
        assert kernel_outcome(_aberth_roots, c) == ref

    def test_sweep_budget_matches_the_reference(self, monkeypatch):
        c = aberth_input(_random_equation(0, 16, 1.0).det_poly)
        for sweeps in (1, 5, 20):
            monkeypatch.setattr(poly, "_ABERTH_SWEEPS", sweeps)
            assert kernel_outcome(_aberth_roots, c) == \
                kernel_outcome(ref_aberth_roots, c)


@settings(max_examples=40, deadline=None)
@given(c=st.lists(_COMPLEX, min_size=2, max_size=12))
def test_aberth_matches_the_reference(c):
    c = np.array([*c, 1.0], dtype=complex)
    if c[0] == 0:
        c[0] = 1.0
    assert kernel_outcome(_aberth_roots, c) == \
        kernel_outcome(ref_aberth_roots, c)
    assert_bound_dominates(c)


class TestDenseSolve:
    def test_identity(self):
        assert dense_solve([[1, 0], [0, 1]], [5, 7]) == [5, 7]

    def test_one_by_one(self):
        # first-row system of the degree-1, single-solution construction
        (x,) = dense_solve([[1]], [-1])
        assert x == -1

    def test_vandermonde_interpolation(self):
        nodes = [1, 2, 3]
        rows = [[n ** k for k in range(3)] for n in nodes]
        rhs = [n ** 3 for n in nodes]
        x = dense_solve(rows, rhs)
        assert np.allclose(x, [6, -11, 6])

    def test_singular_raises(self):
        with pytest.raises(SingularSystem):
            dense_solve([[1, 1], [1, 1]], [1, 2])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense_solve([[1, 0]], [1])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 9))
    def test_residual_property(self, seed, size):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        if np.linalg.cond(a) > 1e6:
            return
        b = rng.normal(size=size) + 1j * rng.normal(size=size)
        x = np.array(dense_solve(a, b))
        res = np.abs(a @ x - b).max()
        norm = np.abs(a).max() * max(np.abs(x).max(), 1e-30)
        assert res <= 1e-10 * norm
