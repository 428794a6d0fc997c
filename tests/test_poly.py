import hashlib
import math

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matpolyeq import poly
from matpolyeq.construct import construct, special_case
from matpolyeq.mat2 import Mat2, MatrixEquation, pack
from matpolyeq.poly import (CLUSTER_TOL, NonConvergence, Poly, SingularSystem,
                            _aberth_roots, _batch_values, _comp_step,
                            _comp_values, _err_bound_scale, _newton,
                            _newton_batch, _split, dense_solve, find_roots,
                            relative_value)
from matpolyeq.solver import critical_data, dedupe_tol, solution_bound
from matpolyeq.verify import brute_force_scan

from helpers import (NEAR_FAMILY, NILPOTENT_FAMILY, RANK_PATTERNS,
                     max_abs_coeff, prescribed_equation, ref_aberth_roots,
                     ref_brute_force_scan)

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


def ref_components(items, radius, value=lambda z: z):
    """poly._components as it compared numpy complex128 scalars."""
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if abs(np.complex128(value(items[i]))
                       - np.complex128(value(items[j]))) <= radius:
                    parent[find(i)] = find(j)
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(find(i), []).append(item)

    def key(item):
        return value(item).real, value(item).imag
    out = [sorted(g, key=key) for g in groups.values()]
    out.sort(key=lambda g: key(g[0]))
    return out


_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 2 ** -52, 1e-300,
                          1.3e308, -1.3e308, 1.7e308, -1.7e308])


class TestComponents:
    # find_roots passes the raw roots as numpy scalars, under its errstate
    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(st.tuples(_PARTS, _PARTS), max_size=7),
           radius=st.sampled_from([0.0, 2 ** -52, 1.0, 1e308, np.inf]))
    @np.errstate(over="ignore", invalid="ignore")
    def test_matches_numpy_scalars(self, parts, radius):
        items = [np.complex128(complex(*p)) for p in parts]
        assert poly._components(items, radius) == \
            ref_components(items, radius)
        # the items come back as they went in, compared through value
        entries = [(z, k) for k, z in enumerate(items)]
        assert poly._components(entries, radius, lambda e: e[0]) == \
            ref_components(entries, radius, lambda e: e[0])

    @np.errstate(over="ignore")
    def test_overflowing_modulus_is_inf(self):
        # a finite difference 1.5e308 (1 + 1j) whose modulus overflows:
        # numpy gives inf, where Python's complex abs raises OverflowError
        items = [np.complex128(1.5e308 + 1.5e308j), np.complex128(0)]
        assert poly._components(items, np.inf) == [items[::-1]]
        assert poly._components(items, 1e308) == [[items[1]], [items[0]]]


class TestNewton:
    KERNELS = (_newton, _newton_batch)

    def test_polishes_to_the_nearest_double(self):
        # p = t^2 - 2 from starts 1e-6 away
        c = np.array([-2, 0, 1], dtype=complex)
        for kernel in self.KERNELS:
            z = kernel(c, c[1:] * np.arange(1, 3),
                       np.array([1.4142146 + 1e-7j, -1.4142146]))
            assert np.abs(z - [2 ** 0.5, -2 ** 0.5]).max() <= 2.3e-16

    def test_stops_where_the_derivative_vanishes(self):
        c = np.array([1, 0, 1], dtype=complex)
        for kernel in self.KERNELS:
            assert kernel(c, c[1:] * np.arange(1, 3),
                          np.zeros(1, complex)) == 0j

    def test_no_starts(self):
        c = np.array([1, 0, 1], dtype=complex)
        for kernel in self.KERNELS:
            got = kernel(c, c[1:] * np.arange(1, 3), np.zeros(0, complex))
            assert got.dtype == complex and got.shape == (0,)


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


def ref_abs(z):
    """abs(z), raising OverflowError where CPython's complex abs does:
    where the modulus of finite parts overflows (a complex128's gives inf)."""
    size = abs(z)
    if math.isinf(size) and math.isfinite(z.real) and math.isfinite(z.imag):
        raise OverflowError("absolute value too large")
    return size


def ref_newton(c, dc, z):
    value = ref_comp_horner(c, z)
    size = ref_abs(value)
    for _ in range(80):
        dv = ref_horner_scalar(dc, z)
        if dv == 0:
            break
        step = value / dv
        candidate = z - step
        candidate_value = ref_comp_horner(c, candidate)
        candidate_size = ref_abs(candidate_value)
        if candidate_size > size:
            break
        z, value, size = candidate, candidate_value, candidate_size
        if ref_abs(step) <= 4e-16 * (1.0 + ref_abs(z)):
            break
    return z


def outcome(f, *args):
    """The bits of f's complex result, or the name of what it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            got = complex(f(*args))
    except ArithmeticError as exc:
        return type(exc).__name__
    parts = np.array([got.real, got.imag])
    parts[np.isnan(parts)] = np.nan
    return parts.view(np.uint64).tolist()


def comp_values(c, dc, z):
    """_comp_values at z as _newton calls it: the compensated value of c
    and the plain value of dc, as two complexes."""
    cs, ds, z = c[::-1].tolist(), dc[::-1].tolist(), complex(z)
    steps = [(a.real, a.imag, b.real, b.imag) for a, b in zip(cs[1:], ds)]
    vr, vi, dr, di = _comp_values((cs[0].real, cs[0].imag), steps,
                                  z.real, z.imag)
    return complex(vr, vi), complex(dr, di)


def polish_outcome(kernel, c, dc, z):
    """The bits of each member of the kernel's result, a complex array as
    long as z, or the name of what it raised."""
    try:
        got = kernel(c, dc, z)
    except ArithmeticError as exc:
        return type(exc).__name__
    assert got.dtype == np.complex128 and got.shape == z.shape
    return [outcome(complex, zi) for zi in got]


def newton_outcome(c, dc, z):
    """_newton from the one start z, as outcome gives ref_newton's."""
    got = polish_outcome(_newton, c, dc, np.array([z]))
    return got if isinstance(got, str) else got[0]


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
# the step's modulus overflows with finite parts: both raise
@example(c=[1.5e300 + 1.5e300j, 1e-8], z=0j)
def test_polish_matches_numpy_scalars(c, z):
    c, z = np.array(c, dtype=complex), np.complex128(z)
    dc = derivative(c)
    value, slope = comp_values(c, dc, z)
    assert outcome(complex, value) == outcome(ref_comp_horner, c, z)
    assert outcome(complex, slope) == outcome(ref_horner_scalar, dc, z)
    assert newton_outcome(c, dc, z) == outcome(ref_newton, c, dc, z)


@settings(max_examples=150, deadline=None)
@given(c=st.lists(_COMPLEX, min_size=2, max_size=34),
       z=st.lists(_COMPLEX, min_size=1, max_size=8))
@example(c=[1.5e300 + 1.5e300j, 1e-8], z=[0j, 3.0])
def test_batch_values_match_the_scalar_pass(c, z):
    # point by point, so a difference that Newton's stopping rule absorbs
    # still shows; _batch_values runs under _newton_batch's errstate
    c, z = np.array(c, dtype=complex), np.array(z, dtype=complex)
    dc = derivative(c)
    with np.errstate(all="ignore"):
        vr, vi, dr, di = _batch_values(c, dc, len(z))(z.real.copy(),
                                                      z.imag.copy())
    for k, zk in enumerate(z):
        value, slope = comp_values(c, dc, zk)
        assert outcome(complex, complex(vr[k], vi[k])) == \
            outcome(complex, value)
        assert outcome(complex, complex(dr[k], di[k])) == \
            outcome(complex, slope)


# the ordinary draws and the extremes, where the split overflows to NaN
_STEP_PARTS = st.one_of(_PARTS, st.sampled_from([5e-324, 1e-300, 1.3e308,
                                                 -1.7e308]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[_STEP_PARTS] * 6), min_size=1, max_size=8))
def test_comp_step_gives_the_same_bits_on_floats_and_arrays(rows):
    # the one step of both polish kernels, element by element; the arrays
    # run under _newton_batch's errstate
    def step(sr, si, zr, zi, cr, ci):
        return _comp_step(sr, si, zr, zi, *_split(zr), *_split(zi), cr, ci)
    with np.errstate(all="ignore"):
        got = step(*map(np.array, zip(*rows)))
    for k, row in enumerate(rows):
        assert [outcome(float, part) for part in step(*row)] == \
            [outcome(float, part[k]) for part in got]


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
    assert newton_outcome(c, dc, z) == outcome(ref_newton, c, dc, z)


def assert_kernel_matches_reference(kernel, c, dc, z):
    """Each member as ref_newton gives it; where ref_newton raises for some
    member, the kernel raises one of those exceptions."""
    want = [outcome(ref_newton, c, dc, zi) for zi in z.tolist()]
    raised = {w for w in want if isinstance(w, str)}
    got = polish_outcome(kernel, c, dc, z)
    if raised:
        assert got in raised
    else:
        assert got == want


@st.composite
def batch_cases(draw):
    """Coefficients and 1 to 40 starts: arbitrary ones, or the derivative
    of near_multiple_roots with starts near its root and elsewhere."""
    starts = st.lists(st.one_of(_COMPLEX, _NEAR), min_size=1, max_size=40)
    if draw(st.booleans()):
        c = np.array(draw(st.lists(_COMPLEX, min_size=2, max_size=33)),
                     dtype=complex)
        return c, np.array(draw(starts), dtype=complex)
    c, start = draw(near_multiple_roots())
    near = st.builds(lambda d: start + d,
                     st.builds(complex, st.floats(-1e-3, 1e-3),
                               st.floats(-1e-3, 1e-3)))
    more = draw(st.lists(st.one_of(near, _NEAR), max_size=39))
    return c, np.array([start, *more], dtype=complex)


@settings(max_examples=150, deadline=None)
@given(batch_cases())
def test_batch_polish_matches_numpy_scalars(case):
    c, z = case
    assert_kernel_matches_reference(_newton_batch, c, derivative(c), z)


@settings(max_examples=150, deadline=None)
@given(batch_cases())
@example(case=(np.array([1.5e300 + 1.5e300j, 1e-8]), np.array([0j, 3.0])))
def test_kernels_give_the_same_bits(case):
    # the one contract of both polish kernels: the same starts give the
    # same bits, or both raise the same exception
    c, z = case
    dc = derivative(c)
    assert polish_outcome(_newton, c, dc, z) == \
        polish_outcome(_newton_batch, c, dc, z)


@pytest.mark.parametrize("c", [
    # the modulus of the value at the start overflows
    [1.5e308 + 1.5e308j, 1.0],
    # the value's is 2.1e300, the step's 2.1e308
    [1.5e300 + 1.5e300j, 1e-8],
])
def test_batch_raises_where_a_member_overflows(c):
    c = np.array(c, dtype=complex)
    dc = derivative(c)
    for z in (0j, 3.0):
        assert newton_outcome(c, dc, np.complex128(z)) == "OverflowError"
        assert outcome(ref_newton, c, dc, np.complex128(z)) == "OverflowError"
    z = np.array([0j, 3.0])
    for kernel in (_newton, _newton_batch):
        assert polish_outcome(kernel, c, dc, z) == "OverflowError"
        assert_kernel_matches_reference(kernel, c, dc, z)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n, m", [(8, 75), (10, 128)])
def test_polish_matches_numpy_scalars_on_constructed_roots(n, m, backend,
                                                           monkeypatch):
    # companion roots such as 1 + 4.5e-16j, where a step's acceptance hangs
    # on the last bit of a modulus (math.hypot rounds differently); each
    # class is one kernel call, and the 16 simple roots of (10, 128) take
    # the batch
    calls = []

    def recording(kernel):
        def record(c, dc, z):
            calls.append((kernel, c, dc, z))
            return kernel(c, dc, z)
        return record

    monkeypatch.setattr(poly, "_newton", recording(_newton))
    monkeypatch.setattr(poly, "_newton_batch", recording(_newton_batch))
    find_roots(construct(n, m, validate=False).equation.det_poly, backend)
    assert sum(len(z) for *_, z in calls) >= 12
    assert [kernel for kernel, *_ in calls].count(_newton_batch) == (n == 10)
    for kernel, c, dc, z in calls:
        assert (kernel is _newton_batch) == (len(z) >= poly._BATCH_MIN)
        assert_kernel_matches_reference(kernel, c, dc, z)


# the explicit diagonal equations whose 3- to 6-fold roots scatter past
# CLUSTER_TOL, so that find_roots fuses them
FUSED_CELLS = ((4, 4), (5, 4), (6, 4), (6, 16))


def record_polish(monkeypatch) -> list:
    """Record (c, starts, polished) of every polish kernel call."""
    calls = []

    def recording(kernel):
        def record(c, dc, z):
            out = kernel(c, dc, z)
            calls.append((c, z.copy(), out))
            return out
        return record

    monkeypatch.setattr(poly, "_newton", recording(_newton))
    monkeypatch.setattr(poly, "_newton_batch", recording(_newton_batch))
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n, m", FUSED_CELLS)
def test_each_root_is_polished_once(n, m, backend, monkeypatch):
    # the fusion is decided on the raw centroids, so a scattered k-fold
    # root takes one start, on the (k-1)-th derivative, and no member of
    # its ring is polished as a simple root first
    calls = record_polish(monkeypatch)
    p = construct(n, m, validate=False).equation.det_poly
    roots = find_roots(p, backend)
    assert max(r.multiplicity for r in roots) >= 3
    # no zero root is deflated here, so the k-th class polishes on the
    # derivative of degree p.degree - k + 1
    polished = sorted(((complex(z), p.degree + 2 - len(c))
                       for c, _, out in calls for z in out),
                      key=lambda e: (e[0].real, e[0].imag))
    assert sum(len(starts) for _, starts, _ in calls) == len(roots)
    assert polished == [(r.value, r.multiplicity) for r in roots]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n, m", FUSED_CELLS)
def test_each_bunch_is_decided_before_the_polish(n, m, backend, monkeypatch):
    # where every derivative test fails, every bunch of raw centroids fuses:
    # it comes back as one root of its total multiplicity, whatever its
    # polished value, and each start is polished exactly once
    p = construct(n, m, validate=False).equation.det_poly
    raw = []
    backend_roots = getattr(poly, f"_{backend}_roots")

    def capture(c):
        raw.extend(backend_roots(c))
        return np.array(raw)

    monkeypatch.setattr(poly, f"_{backend}_roots", capture)
    monkeypatch.setattr(poly, "_multiplicity_consistent",
                        lambda ders, value, mult: False)
    calls = record_polish(monkeypatch)
    roots = find_roots(p, backend)
    scale = max(1.0, float(np.abs(raw).max()))
    centroids = [(sum(g) / len(g), len(g))
                 for g in poly._components(raw, CLUSTER_TOL * scale)]
    starts = []
    for bunch in poly._components(centroids, poly._MERGE_RADIUS * scale,
                                  lambda e: e[0]):
        total = sum(k for _, k in bunch)
        starts.append(bunch[0] if len(bunch) == 1 else
                      (sum(v * k for v, k in bunch) / total, total))
    assert len(starts) < len(centroids)
    assert sorted(r.multiplicity for r in roots) == \
        sorted(k for _, k in starts)
    # no zero root is deflated here, so the k-th class polishes on the
    # derivative of degree p.degree - k + 1
    polished = [(complex(z), p.degree + 2 - len(c))
                for c, zs, _ in calls for z in zs]

    def key(e):
        return e[0].real, e[0].imag, e[1]
    assert sorted(polished, key=key) == \
        sorted(((complex(v), k) for v, k in starts), key=key)


# Known defect: the cluster and bunch radii are relative to the largest root
# magnitude, so the two roots near 1.29e5 of this determinant widen the
# bunch radius to about 647, and the other 30 simple roots (moduli 0.56 to
# under 647) chain into one bunch that fuses into a 30-fold root.  Radii
# that do not let one large root decide for the others must turn this test
# into a pass.
@pytest.mark.xfail(strict=True, raises=AssertionError)
def test_a_large_root_leaves_the_small_ones_simple():
    roots = find_roots(_random_equation(0, 16, 1e5).det_poly, "companion")
    assert [r.multiplicity for r in roots] == [1] * 32


# sha256 of find_roots' output, both backends, on the benchmark's sweep_n5
# cells (construct(n, m) for every n <= 5) and its scan fixtures: float.hex
# of each root's parts and its multiplicity, or the name of the exception.
# Recorded from the one-pass polish, which fuses a scattered multiple root
# on the raw centroids and polishes it once; the random_n16 document digests
# see simple roots only, this sees the multiple-root path too.  Against the
# polish that fused after polishing every member, only the triple root -2
# of (4, 4) moved: its imaginary part went from -+2.96e-31 to 0 on both
# backends.
ROOT_BITS_SHA256 = \
    "2dd8d4172aa4858baa569a7ca8188fb36823c3df91ed71cc0ddec5b4e27a3519"
SCAN_FIXTURES = ("eq_four_solutions", "eq_x_squared_zero",
                 "eq_x_squared_identity", "eq_x_squared_nilpotent",
                 "eq_x_squared_jordan", "eq_shifted_square", "eq_degree_one")


def test_root_bits_match_the_recorded_digest(request):
    equations = [construct(n, m, validate=False).equation
                 for n in range(1, 6)
                 for m in range(1, solution_bound(n) + 1)]
    equations += [request.getfixturevalue(name) for name in SCAN_FIXTURES]
    assert len(equations) == 102
    assert root_bits_digest(equations) == ROOT_BITS_SHA256


def root_bits_digest(equations) -> str:
    """sha256 of find_roots' output on the equations' determinants, both
    backends: float.hex of each root's parts and its multiplicity, or the
    name of the exception."""
    digest = hashlib.sha256()
    for eq in equations:
        for backend in BACKENDS:
            try:
                out = [(r.value.real.hex(), r.value.imag.hex(), r.multiplicity)
                       for r in find_roots(eq.det_poly, backend)]
            except NonConvergence as exc:
                out = type(exc).__name__
            digest.update(repr(out).encode())
    return digest.hexdigest()


# The same digest on determinants whose multiplicity classes hold 12 to 32
# centroids, so that both sides of the polish's batch threshold are pinned:
# random equations at n = 6, 8, 12, 16 (seeds 0-4) and the constructed
# cells (10, 128) and (16, 496).  Recorded from the one-root-at-a-time
# polish (_newton on every centroid), before the batched kernel existed.
LARGE_ROOT_BITS_SHA256 = \
    "09976ae92f03f27e3d35f5174e22da37d9f302a167beafe7e9b8089caddbf00d"


def test_large_degree_root_bits_match_the_recorded_digest():
    equations = [_random_equation(seed, n, 1.0)
                 for n in (6, 8, 12, 16) for seed in range(5)]
    equations += [construct(n, m, validate=False).equation
                  for n, m in ((10, 128), (16, 496))]
    assert len(equations) == 22
    assert root_bits_digest(equations) == LARGE_ROOT_BITS_SHA256


# sha256 of brute_force_scan's output on the benchmark's scan_n3 equations
# (construct(n, m) for every n <= 3, and the scan fixtures) and on every rank
# pattern at n = 2, 3 with seeds 0 and 1: float.hex of each entry's parts.
# Recorded from the scan that fits all its eigenpair samples by one batched
# LU solve and dedupes at the solver's tolerance.
SCAN_BITS_SHA256 = \
    "ed8dc49518378c5ef09410a816ae7412bfca0a90b1fc4043fe81d16ade169b71"


def scan_equations(request) -> list[MatrixEquation]:
    equations = [construct(n, m, validate=False).equation
                 for n in range(1, 4)
                 for m in range(1, solution_bound(n) + 1)]
    equations += [request.getfixturevalue(name) for name in SCAN_FIXTURES]
    equations += [prescribed_equation(pattern, n, seed)[0]
                  for pattern in RANK_PATTERNS + (NILPOTENT_FAMILY,
                                                  NEAR_FAMILY)
                  for n in (2, 3) for seed in (0, 1)]
    return equations


def test_scan_bits_match_the_recorded_digest(request):
    equations = scan_equations(request)
    digest = hashlib.sha256()
    for eq in equations:
        out = [(z.real.hex(), z.imag.hex()) for x in brute_force_scan(eq)
               for z in (x.m11, x.m12, x.m21, x.m22)]
        digest.update(repr(out).encode())
    assert len(equations) == 69
    assert digest.hexdigest() == SCAN_BITS_SHA256


def test_scan_matches_the_per_pair_reference(request, scaled_random_equation):
    # the batched LU fit and the per-pair least-squares fit round
    # differently, and candidates come in another order, so the outputs
    # agree as sets to a few ulps of each row's largest entry
    equations = scan_equations(request)
    equations += [scaled_random_equation(seed, n, 1.0)
                  for seed in range(40) for n in (1, 2, 3)]
    for eq in equations:
        got = pack(brute_force_scan(eq))
        keep_tol = dedupe_tol(critical_data(eq, backend="companion"))
        want = pack(ref_brute_force_scan(eq, keep_tol))
        assert len(got) == len(want)
        gap = np.abs(got[:, None] - want).max(axis=2).min(axis=1,
                                                         initial=np.inf)
        assert (gap <= 1e-14 * (1 + np.abs(got).max(axis=1))).all()


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
