import math

import numpy as np
import pytest

from matpolyeq.mat2 import (E1, E2, Mat2, MatrixEquation, Vec2, det2, eigen2,
                            eval_equation, poly_matrix)
from matpolyeq.poly import CLUSTER_TOL, NonConvergence, Poly
from matpolyeq.solver import (CriticalDatum, InfiniteCertificate,
                              InternalInconsistency, Solution, critical_data,
                              detect_infinite, enumerate_diagonalizable,
                              find_nondiagonalizable, residual, residual_ok,
                              residual_tol, scalar_solutions, solution_bound,
                              solve_equation)

BACKENDS = ("aberth", "companion")


def _by_value(data, value, tol=1e-8):
    hits = [d for d in data if abs(d.value - value) <= tol]
    assert len(hits) == 1, f"no unique datum at {value}"
    return hits[0]


class TestCriticalData:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_four_solution_fixture(self, eq_four_solutions, backend):
        data = critical_data(eq_four_solutions, backend=backend)
        assert len(data) == 4
        for value, vec in [(1, E1), (-1, E1), (2, E2), (-2, E2)]:
            d = _by_value(data, value)
            assert d.multiplicity == 1
            assert d.space_dim == 1
            assert abs(det2(d.basis[0], vec)) < 1e-8

    def test_nilpotent_square(self, eq_x_squared_zero):
        data = critical_data(eq_x_squared_zero)
        assert len(data) == 1
        assert data[0].value == 0
        assert data[0].multiplicity == 4
        assert data[0].space_dim == 2
        assert data[0].basis == (E1, E2)

    def test_degree_one_fixture(self, eq_degree_one):
        data = critical_data(eq_degree_one)
        assert [d.multiplicity for d in data] == [1, 1]
        zero = _by_value(data, 0)
        assert zero.basis[0] == E1
        one = _by_value(data, 1)
        diag = Vec2(1, 1).normalized()
        assert (one.basis[0].x, one.basis[0].y) == \
            pytest.approx((diag.x, diag.y))


class TestEnumerateDiagonalizable:
    def test_four_diagonal_solutions(self, eq_four_solutions):
        data = critical_data(eq_four_solutions)
        sols = enumerate_diagonalizable(eq_four_solutions, data)
        got = sorted((round(s.matrix.m11.real), round(s.matrix.m22.real))
                     for s in sols)
        assert got == [(-1, -2), (-1, 2), (1, -2), (1, 2)]
        assert all(s.kind == "diagonalizable_distinct" for s in sols)
        for s in sols:
            off = max(abs(s.matrix.m12), abs(s.matrix.m21))
            assert off < 1e-10

    def test_shared_direction_gives_nothing(self, eq_four_solutions):
        data = [
            CriticalDatum(1 + 0j, 1, 1, (E1,)),
            CriticalDatum(-1 + 0j, 1, 1, (E1,)),
        ]
        assert enumerate_diagonalizable(eq_four_solutions, data) == []

    def test_degree_one_assembly(self, eq_degree_one):
        data = critical_data(eq_degree_one)
        sols = enumerate_diagonalizable(eq_degree_one, data)
        assert len(sols) == 1
        assert sols[0].matrix.dist(Mat2(0, 1, 0, 1)) < 1e-10


class TestScalarSolutions:
    def test_nilpotent_square_includes_zero(self, eq_x_squared_zero):
        data = critical_data(eq_x_squared_zero)
        sols = scalar_solutions(eq_x_squared_zero, data)
        assert len(sols) == 1
        assert sols[0].matrix.dist(Mat2.zero()) == 0
        assert sols[0].kind == "scalar"

    def test_four_solution_fixture_empty(self, eq_four_solutions):
        data = critical_data(eq_four_solutions)
        assert scalar_solutions(eq_four_solutions, data) == []

    def test_shifted_square_includes_identity(self, eq_shifted_square):
        data = critical_data(eq_shifted_square)
        sols = scalar_solutions(eq_shifted_square, data)
        assert len(sols) == 1
        assert sols[0].matrix.dist(Mat2.identity()) == 0


class TestFindNondiagonalizable:
    def test_jordan_square_roots(self, eq_x_squared_jordan):
        data = critical_data(eq_x_squared_jordan)
        plus = find_nondiagonalizable(eq_x_squared_jordan, _by_value(data, 1))
        assert isinstance(plus, Solution)
        assert plus.matrix.dist(Mat2(1, 0.5, 0, 1)) < 1e-10
        minus = find_nondiagonalizable(eq_x_squared_jordan, _by_value(data, -1))
        assert isinstance(minus, Solution)
        assert minus.matrix.dist(Mat2(-1, -0.5, 0, -1)) < 1e-10

    def test_nilpotent_square_gives_family(self, eq_x_squared_zero):
        data = critical_data(eq_x_squared_zero)
        family = find_nondiagonalizable(eq_x_squared_zero, data[0])
        assert isinstance(family, InfiniteCertificate)
        assert family.reason == "nilpotent_affine_family"

    def test_unsolvable_nilpotent_target(self, eq_x_squared_nilpotent):
        data = critical_data(eq_x_squared_nilpotent)
        assert find_nondiagonalizable(eq_x_squared_nilpotent, data[0]) is None

    def test_simple_roots_skipped(self, eq_four_solutions):
        data = critical_data(eq_four_solutions)
        assert all(find_nondiagonalizable(eq_four_solutions, d) is None
                   for d in data)


class TestDetectInfinite:
    def test_involutions(self, eq_x_squared_identity):
        data = critical_data(eq_x_squared_identity)
        cert = detect_infinite(eq_x_squared_identity, data)
        assert cert is not None
        assert cert.reason == "two_dim_space_with_second_value"
        assert len(cert.samples) == 3

    def test_nilpotent_family(self, eq_x_squared_zero):
        data = critical_data(eq_x_squared_zero)
        cert = detect_infinite(eq_x_squared_zero, data)
        assert cert is not None
        assert cert.reason == "nilpotent_affine_family"

    def test_finite_fixture(self, eq_four_solutions):
        data = critical_data(eq_four_solutions)
        assert detect_infinite(eq_four_solutions, data) is None


class TestSolveEquation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_four_solutions(self, eq_four_solutions, backend):
        ss = solve_equation(eq_four_solutions, backend=backend)
        assert ss.is_finite
        assert ss.count == 4

    def test_no_solutions(self, eq_x_squared_nilpotent):
        ss = solve_equation(eq_x_squared_nilpotent)
        assert ss.is_finite
        assert ss.count == 0

    def test_involutions_infinite(self, eq_x_squared_identity):
        ss = solve_equation(eq_x_squared_identity)
        assert not ss.is_finite
        assert ss.count is None

    def test_jordan_pair(self, eq_x_squared_jordan):
        ss = solve_equation(eq_x_squared_jordan)
        assert ss.count == 2
        assert {s.kind for s in ss.solutions} == {"non_diagonalizable"}

    def test_scalar_only(self):
        # X = 3I is the unique solution of X - 3I = 0
        eq = MatrixEquation((Mat2.identity().scale(-3),))
        ss = solve_equation(eq)
        assert ss.count == 1
        assert ss.solutions[0].kind == "scalar"
        assert ss.solutions[0].matrix.dist(Mat2.diag(3, 3)) == 0

    def test_shifted_square_infinite(self, eq_shifted_square):
        ss = solve_equation(eq_shifted_square)
        assert not ss.is_finite
        assert ss.certificate.reason == "nilpotent_affine_family"

    def test_output_sorted_and_deterministic(self, eq_four_solutions):
        a = solve_equation(eq_four_solutions)
        b = solve_equation(eq_four_solutions)
        assert [s.matrix for s in a.solutions] == [s.matrix for s in b.solutions]


class TestSolutionInvariants:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_residuals_within_tolerance(self, eq_four_solutions,
                                        eq_x_squared_jordan, backend):
        for eq in (eq_four_solutions, eq_x_squared_jordan):
            ss = solve_equation(eq, backend=backend)
            for s in ss.solutions:
                assert s.residual <= residual_tol(eq, s.matrix)

    def test_eigenvalue_containment(self, eq_four_solutions, eq_x_squared_jordan,
                                    eq_degree_one):
        for eq in (eq_four_solutions, eq_x_squared_jordan, eq_degree_one):
            ss = solve_equation(eq)
            values = [d.value for d in ss.critical_data]
            scale = max(1.0, max(abs(v) for v in values))
            for s in ss.solutions:
                for lam in eigen2(s.matrix).values:
                    assert min(abs(lam - v) for v in values) <= \
                        CLUSTER_TOL * scale

    def test_characteristic_divides_det(self, eq_four_solutions,
                                        eq_x_squared_jordan):
        for eq in (eq_four_solutions, eq_x_squared_jordan):
            det = poly_matrix(eq).det()
            ss = solve_equation(eq)
            for s in ss.solutions:
                char = Poly([s.matrix.det(), -s.matrix.trace(), 1])
                _, rem = divmod(det, char)
                assert rem.max_abs_coeff() <= 1e-6 * det.max_abs_coeff()

    def test_nondiagonalizable_only_at_repeated_values(self,
                                                       eq_x_squared_jordan):
        ss = solve_equation(eq_x_squared_jordan)
        mults = {round(d.value.real, 6): d.multiplicity
                 for d in ss.critical_data}
        for s in ss.solutions:
            if s.kind == "non_diagonalizable":
                lam = eigen2(s.matrix).values[0]
                assert mults[round(lam.real, 6)] >= 2

    def test_certificate_samples_verify(self, eq_x_squared_identity,
                                        eq_x_squared_zero):
        for eq in (eq_x_squared_identity, eq_x_squared_zero):
            cert = solve_equation(eq).certificate
            assert len(cert.samples) == 3
            assert len(set(cert.samples)) == 3
            for mu, res in zip(cert.samples, cert.sample_residuals):
                x = cert.member(mu)
                assert res <= residual_tol(eq, x)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generic_equations_hit_the_bound(self, n):
        rng = np.random.default_rng(99 + n)
        for _ in range(30):
            coeffs = tuple(
                Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
                for _ in range(n))
            ss = solve_equation(MatrixEquation(coeffs))
            assert ss.is_finite
            assert ss.count <= solution_bound(n)

    def test_bound_value(self):
        assert [solution_bound(n) for n in range(1, 6)] == [1, 6, 15, 28, 45]


class TestResidual:
    def test_nan_past_the_first_entry_is_infinite(self, eq_degree_one):
        x = Mat2(0, 1, 0, math.nan)
        # max() keeps its first candidate against a NaN, so max_norm is 0
        assert eval_equation(eq_degree_one, x).max_norm() == 0
        assert residual(eq_degree_one, x) == math.inf
        assert not residual_ok(eq_degree_one, x, residual(eq_degree_one, x))

    def test_overflowing_threshold_accepts_nothing(self, eq_four_solutions):
        # (1 + 1e200)^2 overflows, so the threshold says nothing about X
        x = Mat2.diag(1e200, 1e200)
        assert residual_tol(eq_four_solutions, x) == math.inf
        assert not residual_ok(eq_four_solutions, x, 0.0)


class TestOverflow:
    @pytest.mark.parametrize("scale", [1e40, 1e50, 1e60])
    def test_huge_coefficients_do_not_converge(self, scaled_random_equation,
                                               scale):
        # the Aberth start circle has radius ~ scale^2: its Horner values
        # overflow, which once read as converged and certified a family
        eq = scaled_random_equation(5, 2, scale)
        with pytest.raises(NonConvergence):
            solve_equation(eq)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degree_16_overflow_is_typed(self, scaled_random_equation,
                                         backend):
        eq = scaled_random_equation(5, 16, 1e20)
        with pytest.raises((NonConvergence, InternalInconsistency)):
            solve_equation(eq, backend=backend)
