import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq.poly import (CLUSTER_TOL, NonConvergence, Poly, SingularSystem,
                            _aberth_roots, _newton, dense_solve, find_roots,
                            relative_value)

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

    def test_divmod(self):
        p = Poly([4, 0, -5, 0, 1])
        d = Poly([-1, 0, 1])
        q, r = divmod(p, d)
        assert r.is_zero
        assert (q * d + r).coeffs == p.coeffs

    def test_divmod_with_remainder(self):
        p = Poly([1, 2, 3, 4])
        d = Poly([1, 1])
        q, r = divmod(p, d)
        recon = q * d + r
        assert np.allclose(recon.coeffs, p.coeffs)
        assert r.degree == 0

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
        bound = 1e-9 * (1 + p.max_abs_coeff())
        for r in find_roots(p):
            assert abs(p(r.value)) <= bound

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(Poly([3]))

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            find_roots(Poly([-1, 0, 1]), backend="secant")

    def test_iteration_budget_exhaustion(self):
        coeffs = np.array(Poly.from_roots([(1, 1), (2, 1), (3, 1)]).coeffs)
        with pytest.raises(NonConvergence):
            _aberth_roots(coeffs, sweeps=1)

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
