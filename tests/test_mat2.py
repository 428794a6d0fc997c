import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq.mat2 import (E1, E2, Mat2, MatrixEquation, Vec2, det2, eigen2,
                            eval_equation, outer, poly_matrix,
                            rank_and_nullspace)

N1_FIXTURE = MatrixEquation((Mat2(0, -1, 0, -1),))
FOUR_FIXTURE = MatrixEquation((Mat2.diag(-1, -4), Mat2.zero()))


def complexes(bound=3.0):
    reals = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    return st.builds(complex, reals, reals)


def _close(a: Mat2, b: Mat2, tol=1e-12):
    return a.dist(b) <= tol


class TestPolyMatrix:
    def test_degree_one(self):
        m = poly_matrix(N1_FIXTURE)
        assert m.e11.coeffs == (0, 1)
        assert m.e12.coeffs == (-1,)
        assert m.e21.is_zero
        assert m.e22.coeffs == (-1, 1)

    def test_diagonal_quadratic(self):
        m = poly_matrix(FOUR_FIXTURE)
        assert m.e11.coeffs == (-1, 0, 1)
        assert m.e22.coeffs == (-4, 0, 1)
        assert m.e12.is_zero and m.e21.is_zero

    def test_trivial_equation(self):
        m = poly_matrix(MatrixEquation((Mat2.zero(), Mat2.zero())))
        assert m.e11.coeffs == (0, 0, 1)
        assert m.e22.coeffs == (0, 0, 1)

    def test_monic_diagonal_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            coeffs = tuple(
                Mat2(*(complex(a, b) for a, b in rng.normal(size=(4, 2))))
                for _ in range(n))
            eq = MatrixEquation(coeffs)
            det = poly_matrix(eq).det()
            assert det.degree == 2 * n
            assert det.coeffs[-1] == pytest.approx(1)

    def test_eval(self):
        m = poly_matrix(FOUR_FIXTURE)
        assert _close(m.eval(1), Mat2.diag(0, -3))
        assert _close(m.eval(0), Mat2.diag(-1, -4))
        m1 = poly_matrix(N1_FIXTURE)
        assert _close(m1.eval(1), Mat2(1, -1, 0, 0))

    def test_det(self):
        assert poly_matrix(FOUR_FIXTURE).det().coeffs == (4, 0, -5, 0, 1)
        m = poly_matrix(N1_FIXTURE)
        assert m.det().coeffs == (0, -1, 1)
        nil = poly_matrix(MatrixEquation((Mat2(0, -1, 0, 0), Mat2.zero())))
        assert nil.det().coeffs == (0, 0, 0, 0, 1)

    def test_derivative(self):
        m = poly_matrix(FOUR_FIXTURE).derivative()
        assert m.e11.coeffs == (0, 2)
        assert m.e22.coeffs == (0, 2)


class TestRankAndNullspace:
    def test_rank_one_upper(self):
        rank, basis = rank_and_nullspace(Mat2(0, -1, 0, 0), 1.0)
        assert rank == 1
        assert basis[0] == E1

    def test_zero_matrix(self):
        rank, basis = rank_and_nullspace(Mat2.zero(), 1.0)
        assert rank == 0
        assert basis == [E1, E2]

    def test_rank_one_lower(self):
        rank, basis = rank_and_nullspace(Mat2(0, 0, 0, -3), 4.0)
        assert rank == 1
        assert basis[0] == E1

    def test_full_rank(self):
        rank, basis = rank_and_nullspace(Mat2.diag(2, 3), 1.0)
        assert rank == 2
        assert basis == []

    def test_kernel_normalization(self):
        rank, basis = rank_and_nullspace(Mat2(1j, 1, 0, 0), 1.0)
        assert rank == 1
        v = basis[0]
        assert v.norm() == pytest.approx(1)
        lead = v.x if abs(v.x) > 1e-12 else v.y
        assert abs(lead.imag) < 1e-12 and lead.real > 0

    @settings(max_examples=50, deadline=None)
    @given(complexes(), complexes(), complexes())
    def test_kernel_annihilation(self, a, b, s):
        # rank-one by construction: rows proportional
        m = Mat2(a, b, s * a, s * b)
        scale = max(1.0, m.max_norm())
        rank, basis = rank_and_nullspace(m, scale)
        for v in basis:
            image = m.apply(v)
            assert max(abs(image.x), abs(image.y)) <= 10 * 1e-8 * scale


class TestEvalEquation:
    def test_degree_one_solution(self):
        assert eval_equation(N1_FIXTURE, Mat2(0, 1, 0, 1)).max_norm() == 0

    def test_nilpotent_squares_to_zero(self):
        eq = MatrixEquation((Mat2.zero(), Mat2.zero()))
        assert eval_equation(eq, Mat2(0, 3.7, 0, 0)).max_norm() == 0

    def test_diagonal_solution(self):
        assert eval_equation(FOUR_FIXTURE, Mat2.diag(1, 2)).max_norm() == 0

    def test_left_horner_association(self):
        # coefficients multiply from the left: f(X) = X^2 + A1 X + A0
        a1 = Mat2(0, 1, 0, 0)
        x = Mat2(0, 0, 1, 0)
        eq = MatrixEquation((Mat2.zero(), a1))
        assert _close(eval_equation(eq, x), x @ x + a1 @ x)


class TestMat2Utils:
    def test_eigen_diagonal(self):
        eig = eigen2(Mat2.diag(1, 2))
        assert eig.values == (1, 2)
        assert not eig.defective
        assert eig.vectors == (E1, E2)

    def test_eigen_defective(self):
        eig = eigen2(Mat2(1, 1, 0, 1))
        assert eig.defective
        assert eig.values == (1, 1)
        assert len(eig.vectors) == 1
        assert eig.vectors[0] == E1

    def test_eigen_scalar(self):
        eig = eigen2(Mat2.diag(3, 3))
        assert not eig.defective
        assert eig.values == (3, 3)
        assert len(eig.vectors) == 2

    def test_nilpotency_probes(self):
        n = Mat2(0, 1, 0, 0)
        assert n.det() == 0
        assert n.trace() == 0

    def test_outer_and_det2(self):
        u, v = Vec2(1, 2), Vec2(3, 4)
        assert det2(u, v) == 4 - 6
        o = outer(u, v)
        assert (o.m11, o.m12, o.m21, o.m22) == (3, 4, 6, 8)

    @settings(max_examples=50, deadline=None)
    @given(*(complexes() for _ in range(8)))
    def test_det_multiplicative(self, a, b, c, d, e, f, g, h):
        x, y = Mat2(a, b, c, d), Mat2(e, f, g, h)
        lhs = (x @ y).det()
        rhs = x.det() * y.det()
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_vector_normalization_phase(self):
        v = Vec2(0, 2j).normalized()
        assert abs(v.x) < 1e-15
        assert v.y == pytest.approx(1)

    def test_equation_degree_limits(self):
        with pytest.raises(ValueError):
            MatrixEquation(())
        with pytest.raises(ValueError):
            MatrixEquation(tuple(Mat2.zero() for _ in range(17)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf,
                                     complex(0, -math.inf)])
    def test_equation_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MatrixEquation((Mat2.zero(), Mat2(1, 0, bad, 1)))

    def test_equation_rejects_overflowing_det(self):
        # det M(t) multiplies pairs of entries: 1e200^2 is not a double
        with pytest.raises(ValueError, match="overflows det M"):
            MatrixEquation((Mat2.diag(1e200, 1e200), Mat2.zero()))
        with pytest.raises(ValueError, match="overflows det M"):
            MatrixEquation((Mat2(complex(1.5e308, 1.5e308), 0, 0, 0),))
        # the limit is sqrt(max double / (4 (n + 1))), about 3.9e153 at n = 2
        MatrixEquation((Mat2.diag(3e153, 3e153), Mat2.zero()))

    def test_entries_coerced_to_complex(self):
        m = Mat2(np.complex128(1 + 2j), 0, 0, 1)
        assert type(m.m11) is complex

    @pytest.mark.parametrize("value, want", [
        (3, 3 + 0j), (-0.0, complex(-0.0, 0.0)), (5e-324, 5e-324 + 0j),
        (True, 1 + 0j), (False, 0j),
        (np.complex128(complex(1e308, -0.0)), complex(1e308, -0.0)),
        (np.float64(-2.5), -2.5 + 0j)])
    @pytest.mark.parametrize("slot", range(4))
    def test_each_entry_converts_alone(self, value, want, slot):
        # the other entries are exact complex numbers and stay the objects
        # they were; the odd one out converts as complex() converts it
        z = complex(-0.0, 2.0)
        args = [z] * 4
        args[slot] = value
        m = Mat2(*args)
        entries = (m.m11, m.m12, m.m21, m.m22)
        assert all(type(e) is complex for e in entries)
        assert all(e is z for i, e in enumerate(entries) if i != slot)
        got = entries[slot]
        assert (got.real.hex(), got.imag.hex()) == \
            (want.real.hex(), want.imag.hex())
