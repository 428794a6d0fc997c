import math

import pytest

from matpolyeq.construct import construct
from matpolyeq.mat2 import Mat2, MatrixEquation
from matpolyeq.solver import (Solution, SolutionSet, solution_bound,
                              solve_equation)
from matpolyeq.verify import (brute_force_scan, count_cross_check,
                              verify_solution_set)


def _with_solutions(sset, solutions):
    return SolutionSet(tuple(solutions), sset.certificate, sset.critical_data)


class TestVerifySolutionSet:
    def test_clean_set_passes(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        report = verify_solution_set(eq_four_solutions, ss)
        assert report.verdict == "pass"
        assert report.reasons == ()
        assert report.claimed_count == 4

    def test_duplicate_detected(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        tampered = _with_solutions(ss, ss.solutions + (ss.solutions[0],))
        report = verify_solution_set(eq_four_solutions, tampered)
        assert report.verdict == "fail"
        assert not report.duplicates_ok

    def test_bound_violation_detected(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        fabricated = [
            Mat2(complex(i, j), 0.25 * i, 0.125 * j, complex(j, -i))
            for i in range(4) for j in range(4)
        ]
        sols = tuple(type(ss.solutions[0])(m, "diagonalizable_distinct",
                                           None, 0.0) for m in fabricated)
        report = verify_solution_set(eq_four_solutions, _with_solutions(ss, sols))
        assert report.verdict == "fail"
        assert not report.bound_ok
        assert len(fabricated) == 16 > solution_bound(2)

    def test_perturbed_solution_fails_residual(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        bad = ss.solutions[0]
        shifted = type(bad)(bad.matrix + Mat2(1e-2, 0, 0, 0), bad.kind,
                            bad.eigen_data, bad.residual)
        report = verify_solution_set(
            eq_four_solutions, _with_solutions(ss, (shifted,) + ss.solutions[1:]))
        assert report.verdict == "fail"
        assert not report.residuals_ok

    @pytest.mark.parametrize("bad", [Mat2(1, 2, 3, math.nan),
                                     Mat2(math.inf, 0, 0, 1)])
    def test_non_finite_matrix_fails_residual(self, eq_four_solutions, bad):
        ss = solve_equation(eq_four_solutions)
        planted = Solution(bad, "diagonalizable_distinct", None, 0.0)
        report = verify_solution_set(
            eq_four_solutions,
            _with_solutions(ss, ss.solutions[:2] + (planted,) + ss.solutions[2:]))
        assert report.verdict == "fail"
        assert not report.residuals_ok
        assert report.residuals[2] == math.inf

    def test_certificate_checked(self, eq_x_squared_identity):
        ss = solve_equation(eq_x_squared_identity)
        report = verify_solution_set(eq_x_squared_identity, ss)
        assert report.verdict == "pass"
        assert report.certificate_ok is True
        assert report.classification == "infinite"

    def test_backend_disagreement_reported(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        report = verify_solution_set(eq_four_solutions, ss,
                                     backend_agreement=False)
        assert report.verdict == "fail"

    def test_text_is_deterministic(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        a = verify_solution_set(eq_four_solutions, ss).to_text()
        b = verify_solution_set(eq_four_solutions, ss).to_text()
        assert a == b
        assert "verdict: pass" in a


class TestCountCrossCheck:
    def test_four_solution_fixture(self, eq_four_solutions):
        cc = count_cross_check(eq_four_solutions)
        assert (cc.count_a, cc.count_b, cc.agree) == (4, 4, True)

    def test_infinite_fixture(self, eq_x_squared_identity):
        cc = count_cross_check(eq_x_squared_identity)
        assert cc.count_a is None and cc.count_b is None
        assert cc.agree

    def test_constructed_equation(self):
        eq = construct(3, 10, validate=False).equation
        cc = count_cross_check(eq)
        assert (cc.count_a, cc.count_b, cc.agree) == (10, 10, True)


class TestBruteForceScan:
    def test_four_solution_fixture(self, eq_four_solutions):
        scan = brute_force_scan(eq_four_solutions)
        expected = [Mat2.diag(sa, sb) for sa in (1, -1) for sb in (2, -2)]
        assert len(scan) == 4
        for want in expected:
            assert min(x.dist(want) for x in scan) < 1e-8

    def test_unsolvable_equation(self, eq_x_squared_nilpotent):
        assert brute_force_scan(eq_x_squared_nilpotent) == []

    def test_degree_one(self, eq_degree_one):
        scan = brute_force_scan(eq_degree_one)
        assert len(scan) == 1
        assert scan[0].dist(Mat2(0, 1, 0, 1)) < 1e-8

    def test_infinite_fixtures_overflow_bound(self, eq_x_squared_identity,
                                              eq_x_squared_zero):
        for eq in (eq_x_squared_identity, eq_x_squared_zero):
            assert len(brute_force_scan(eq)) > solution_bound(eq.n)

    def test_jordan_roots_found(self, eq_x_squared_jordan):
        scan = brute_force_scan(eq_x_squared_jordan)
        assert len(scan) == 2
        for want in (Mat2(1, 0.5, 0, 1), Mat2(-1, -0.5, 0, -1)):
            assert min(x.dist(want) for x in scan) < 1e-8

    def test_degree_cap(self):
        eq = MatrixEquation(tuple(Mat2.zero() for _ in range(4)))
        with pytest.raises(ValueError):
            brute_force_scan(eq)

    def test_scan_is_deterministic(self, eq_four_solutions):
        a = brute_force_scan(eq_four_solutions)
        b = brute_force_scan(eq_four_solutions)
        assert a == b
