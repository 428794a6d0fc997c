import hashlib
import math

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matpolyeq import poly
from matpolyeq.construct import construct
from matpolyeq.mat2 import Mat2, MatrixEquation, pack
from matpolyeq.poly import (BACKENDS, CLUSTER_TOL, NonConvergence, Poly,
                            _aberth_powers, _aberth_roots, _aberth_scalars,
                            _batch_values, _comp_step, _comp_values,
                            _companion_roots, _newton, _newton_batch, _split,
                            find_roots, relative_value)
from matpolyeq.solver import critical_data, solution_bound
from matpolyeq.verify import brute_force_scan, dedupe_tol

from helpers import (NEAR_FAMILY, NILPOTENT_FAMILY, RANK_PATTERNS,
                     diagonal_equation, max_abs_coeff, prescribed_equation,
                     ref_brute_force_scan)


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

    def test_add_shorter_operand_first(self):
        assert (Poly([1]) + Poly([0, 1])).coeffs == (1, 1)
        assert (Poly([0, 1]) + Poly([1])).coeffs == (1, 1)

    def test_equality_hash_and_repr(self):
        # trailing zeros are trimmed, so both spellings are one polynomial
        p, q = Poly([1, 2j, 0]), Poly([1, 2j])
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != Poly([1, 2]) and p != (1, 2j)
        assert repr(p) == "Poly([(1+0j), 2j])"

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

    @settings(max_examples=200, deadline=None)
    @given(roots=st.lists(st.tuples(
        st.complex_numbers(max_magnitude=10, allow_subnormal=False)
        | st.sampled_from([0, -0.0, complex(-0.0, -0.0), 1, -2.5]),
        st.integers(1, 4)), min_size=1, max_size=5))
    def test_bits_of_the_product_of_linear_factors(self, roots):
        # the synthetic pass keeps Poly.__mul__'s products and sums, in its
        # order, signed zeros included
        product = Poly((1,))
        for value, mult in roots:
            for _ in range(mult):
                product = product * Poly((-value, 1))
        assert [(c.real.hex(), c.imag.hex()) for c in Poly.from_roots(
            roots).coeffs] == [(c.real.hex(), c.imag.hex())
                               for c in product.coeffs]

    @pytest.mark.parametrize("roots", [[(1, 0)], [(math.inf, 1)],
                                       [(1, 1), (1e300, 2)]])
    def test_refused(self, roots):
        with pytest.raises(ValueError):
            Poly.from_roots(roots)


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

    # only an exactly-zero low coefficient is a zero root: a tiny one
    # carries a tiny simple root, which X = 2^j Y scales like any other
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tiny_constant_is_no_zero_root(self, backend):
        roots = find_roots(Poly([1e-14, 1, 1]), backend=backend)
        small = min(roots, key=lambda r: abs(r.value))
        assert small.multiplicity == 1
        assert abs(small.value + 1e-14) <= 1e-12 * 1e-14

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
        # refused before the deflation, even where every root is an exact
        # zero and no backend would run
        for p in (Poly([-1, 0, 1]), Poly([0, 0, 1])):
            with pytest.raises(ValueError,
                               match="^unknown backend 'secant'$"):
                find_roots(p, backend="secant")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("root", [2e300, -1.3e308 - 1.3e308j])
    def test_polish_overflow_raises(self, backend, root):
        # the raw root is finite, but the polish's Dekker split of its
        # parts overflows
        with pytest.raises(NonConvergence,
                           match=f"{backend} roots overflow at degree 1"):
            find_roots(Poly([-root, 1]), backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infinite_raw_root_raises(self, backend, monkeypatch):
        # a kernel's non-finite root is refused before the clustering
        monkeypatch.setitem(BACKENDS, backend,
                            lambda c: np.array([complex(math.inf, 0)]))
        with pytest.raises(NonConvergence,
                           match=f"^{backend} roots overflow at degree 1$"):
            find_roots(Poly([-1, 1]), backend=backend)

    def test_companion_eigenvalue_failure_raises(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NonConvergence, match=(
                "^companion eigenvalue iteration failed: "
                "Eigenvalues did not converge$")):
            find_roots(Poly([2, -3, 1]), backend="companion")

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
@given(root_multisets(), st.sampled_from(tuple(BACKENDS)))
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
        vr, vi, dr, di = _batch_values(c, dc)(z.real.copy(), z.imag.copy())
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
# the batch builds its complexes from the parts: re + 1j * im would lose
# the sign of a zero imaginary part, and give a NaN real part where the
# value's imaginary part is infinite
@example(case=(np.array([-0j, complex(-0.0, 1e-300), 1e300 - 1j]),
               np.array([complex(-0.0, -0.0)])))
@example(case=(np.array([-1e300 + 1e-300j, -1j, 1e-300 + 1j, 1e-300j]),
               np.array([-1e300 + 0.5j])))
def test_kernels_give_the_same_bits(case):
    # the one contract of both polish kernels: the same starts give the
    # same bits, or both raise the same exception
    c, z = case
    dc = derivative(c)
    assert polish_outcome(_newton, c, dc, z) == \
        polish_outcome(_newton_batch, c, dc, z)


def smith_division(vr, vi, dr, di):
    """_newton's step v / d on the parts, as _newton writes it."""
    if abs(dr) >= abs(di):
        rat = di / dr
        scl = 1.0 / (dr + di * rat)
        return (vr + vi * rat) * scl, (vi - vr * rat) * scl
    rat = dr / di
    scl = 1.0 / (di + dr * rat)
    return (vr * rat + vi) * scl, (vi * rat - vr) * scl


def test_array_division_is_the_smith_division_of_newton():
    # _newton_batch divides with numpy's complex array division, which
    # must give _newton's Smith formula part for part: on every value and
    # divisor drawn from the special parts, the divisor not 0 (the kernels
    # stop there); the formula runs on np.float64, where _newton's floats
    # would raise ZeroDivisionError on a divisor of NaN real part and 0
    # imaginary part (Horner values do not take those)
    special = [0.0, -0.0, 1.0, -1.0, 3.5, 1e-310, 5e-324, 1e-200, 1e300,
               1.3e308, -1.7e308, math.inf, -math.inf, math.nan]
    grid = np.array(np.meshgrid(*[special] * 4)).reshape(4, -1)
    grid = grid[:, (grid[2] != 0) | (grid[3] != 0)]
    assert grid.shape[1] == 37632
    vr, vi, dr, di = grid
    with np.errstate(all="ignore"):
        step = poly._complex(vr, vi) / poly._complex(dr, di)
        want = np.array([smith_division(*parts) for parts in grid.T])
    got = np.array([step.real, step.imag]).T
    got[np.isnan(got)] = want[np.isnan(want)] = np.nan
    assert (got.view(np.uint64) == want.view(np.uint64)).all()


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


# the diagonal equations (helpers.diagonal_equation) whose 3- to 6-fold
# roots scatter past CLUSTER_TOL, so that find_roots fuses them
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
    p = diagonal_equation(m, n).det_poly
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
    p = diagonal_equation(m, n).det_poly
    raw = []
    backend_roots = BACKENDS[backend]

    def capture(c):
        raw.extend(backend_roots(c))
        return np.array(raw)

    monkeypatch.setitem(BACKENDS, backend, capture)
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
# cells (construct(n, m) for every n <= 5), its scan fixtures and the six
# diagonal equations with n <= 5, whose (n - 1)-fold roots keep the
# multiple-root path pinned: float.hex of each root's parts and its
# multiplicity, or the name of the exception.
# Recorded from the Aberth iteration that starts on the Newton-polygon
# radius and runs on Python scalars up to degree poly._SCALAR_MAX, which
# all these inputs are, with the one-pass polish; the random_n16 document
# digests see simple roots only, this sees the multiple-root path too.
# Against the matrix-of-powers kernel started on 1 + max|c|, the aberth
# roots of 62 of the 108 equations moved in their last bits (the polish
# takes them from its raw start), and no multiplicity or outcome did.
ROOT_BITS_SHA256 = \
    "29ee25e5ea52f79d7e955ba577429f1140658c3d6b6a2e154afa6af2b5caefe4"
SCAN_FIXTURES = ("eq_four_solutions", "eq_x_squared_zero",
                 "eq_x_squared_identity", "eq_x_squared_nilpotent",
                 "eq_x_squared_jordan", "eq_shifted_square", "eq_degree_one")


def test_root_bits_match_the_recorded_digest(request):
    equations = [construct(n, m, validate=False).equation
                 for n in range(1, 6)
                 for m in range(1, solution_bound(n) + 1)]
    equations += [request.getfixturevalue(name) for name in SCAN_FIXTURES]
    equations += [diagonal_equation(m, n) for m, n_min in ((4, 2), (16, 4))
                  for n in range(n_min, 6)]
    assert len(equations) == 108
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
# cells (10, 128) and (16, 496).  Recorded from the matrix-of-powers
# Aberth kernel started on the Newton-polygon radius; against the start
# radius 1 + max|c|, the aberth roots of 1 of the 22 equations moved in
# their last bits, and no multiplicity did.  This pin also depends on the
# BLAS kernel numpy uses for ``@``.
LARGE_ROOT_BITS_SHA256 = \
    "affc33954e8a7ff4cacc16f40d8f19baa1123a89bf0fb15bb70792c76a83ec60"


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
# LU solve, samples C(2n,2) + 2 directions of a plane and dedupes at the
# solver's tolerance; re-recorded when (2, 4) and (3, 4) took their doubled
# value, and no other equation's scan moved.
SCAN_BITS_SHA256 = \
    "5cd849fff278f23faa891f68d265f4ac8a2b29d8ae3cd6326445bcdcf5aba1a5"


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

    original, BACKENDS["aberth"] = BACKENDS["aberth"], capture
    try:
        find_roots(p)
    except _Captured:
        pass
    finally:
        BACKENDS["aberth"] = original
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
    equations += [diagonal_equation(m, n) for m, n_min in ((4, 2), (16, 4))
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


def find_outcome(p: Poly):
    """find_roots' roots of p with the aberth backend, or the text of its
    NonConvergence."""
    try:
        return find_roots(p)
    except NonConvergence as exc:
        return str(exc)


class TestAberthKernel:
    """_aberth_roots starts on the Newton-polygon radius and sweeps on
    Python scalars up to degree _SCALAR_MAX, on one matrix of powers above
    it."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return aberth_corpus()

    def test_every_outcome_is_roots_or_a_stated_failure(self, corpus):
        outcomes = [kernel_outcome(_aberth_roots, c) for c in corpus]
        kinds = []
        for c, o in zip(corpus, outcomes):
            d = len(c) - 1
            if isinstance(o, bytes):
                kinds.append("roots")
                assert len(o) == 16 * d
            else:
                assert o in ((NonConvergence,
                              f"polynomial values overflow at degree {d}"),
                             (NonConvergence,
                              f"no convergence in 200 sweeps at degree {d}"))
                kinds.append(o[1].split()[0])
        assert len(corpus) == 315
        # roots, values that overflow, and a spent sweep budget
        assert [kinds.count(k) for k in ("roots", "polynomial", "no")] == \
            [213, 79, 23]

    def test_kernels_agree_below_the_crossover(self, corpus, monkeypatch):
        # each input that both kernels can take, rooted by find_roots with
        # the scalar kernel and then with the matrix of powers
        small = [c for c in corpus if len(c) - 1 <= poly._SCALAR_MAX]
        outcomes = []
        for cap in (poly._SCALAR_MAX, 0):
            monkeypatch.setattr(poly, "_SCALAR_MAX", cap)
            outcomes.append([find_outcome(Poly(c)) for c in small])
        both = 0
        for c, scalar, powers in zip(small, *outcomes):
            d = len(c) - 1
            for o in (scalar, powers):
                assert isinstance(o, list) or o in (
                    f"polynomial values overflow at degree {d}",
                    f"no convergence in 200 sweeps at degree {d}")
            if isinstance(scalar, list) and isinstance(powers, list):
                both += 1
                assert [r.multiplicity for r in scalar] == \
                    [r.multiplicity for r in powers]
                got = np.array([r.value for r in scalar])
                want = np.array([r.value for r in powers])
                scale = max(1.0, np.abs(want).max())
                assert (np.abs(got - want) <= CLUSTER_TOL * scale).all()
        assert (len(small), both) == (161, 145)

    @pytest.mark.parametrize("starts", [[0.5, 0.5], [0, 0], [0, 2j]])
    def test_zero_divisors_take_the_newton_step(self, starts):
        # coinciding iterates and p'(0) = 0 on t^2 - 1: the scalar kernel
        # raises nothing and ends where the matrix of powers does
        c = np.array([-1, 0, 1], dtype=complex)
        z = np.array(starts, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.sort_complex(_aberth_powers(c, z))
        got = np.sort_complex(_aberth_scalars(c, z))
        assert np.abs(got - want).max() <= 1e-15

    def test_an_overflowing_modulus_is_a_value_overflow(self):
        # the modulus of an iterate of finite parts overflows CPython's
        # abs, where numpy's powers of it overflow
        c = np.array([-1, 0, 1], dtype=complex)
        z = np.array([1.5e308 + 1.5e308j, 0.5])
        for kernel in (_aberth_scalars, _aberth_powers):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonConvergence,
                                  match="polynomial values overflow"):
                kernel(c, z)

    def test_roots_lie_near_the_companion_roots(self):
        for seed in range(3):
            for n in range(1, 17):
                c = aberth_input(_random_equation(seed, n, 1.0).det_poly)
                if c is None:
                    continue
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _aberth_roots(c.copy())
                want = _companion_roots(c)
                scale = max(1.0, np.abs(want).max())
                gaps = np.abs(got[:, None] - want).min(axis=1)
                assert (gaps <= CLUSTER_TOL * scale).all(), (seed, n)

