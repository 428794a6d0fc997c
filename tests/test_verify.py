import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matpolyeq
from matpolyeq.construct import construct
from matpolyeq.mat2 import Mat2, MatrixEquation
from matpolyeq.solver import (Solution, SolutionSet, solution_bound,
                              solve_equation)
from matpolyeq.verify import (brute_force_scan, count_cross_check, minimize,
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
                                     Mat2(math.inf, 0, 0, 1),
                                     # finite, but |m11| overflows
                                     Mat2(complex(1.5e308, 1.5e308), 0, 0, 1)])
    def test_non_finite_matrix_fails_residual(self, eq_four_solutions, bad):
        ss = solve_equation(eq_four_solutions)
        planted = Solution(bad, "diagonalizable_distinct", None, 0.0)
        report = verify_solution_set(
            eq_four_solutions,
            _with_solutions(ss, ss.solutions[:2] + (planted,) + ss.solutions[2:]))
        assert report.verdict == "fail"
        assert not report.residuals_ok
        assert report.residuals[2] == math.inf

    @pytest.mark.parametrize("entry,reason", [
        (2.0, "residual 4.000e+00 exceeds 1.800e-06"),
        # (1 + ||X||)^2 overflows, so there is no threshold to exceed
        (1.5e308, "residual inf of a matrix with no finite threshold"),
    ])
    def test_residual_reason(self, eq_x_squared_zero, entry, reason):
        ss = SolutionSet((Solution(Mat2(entry, 0, 0, 0),
                                   "diagonalizable_distinct", None, 0.0),),
                         None, ())
        report = verify_solution_set(eq_x_squared_zero, ss)
        assert report.reasons[0] == reason

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


class TestCharacteristicDivisor:
    def test_random_degree_16_set_passes(self):
        # equation 7 of seed 1, drawn as acceptance criterion 3 draws them:
        # its correct set once left division remainders of 2e-5
        rng = np.random.default_rng(1)
        for _ in range(8):
            eq = MatrixEquation(tuple(
                Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
                for _ in range(16)))
        ss = solve_equation(eq)
        assert ss.count == solution_bound(16)
        report = verify_solution_set(eq, ss)
        assert report.char_divisor_ok
        assert report.verdict == "pass"

    @pytest.mark.parametrize("n, scale", [(3, 1e3), (4, 1e2), (4, 1e4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scaled_sets_pass(self, scaled_random_equation, seed, n, scale):
        eq = scaled_random_equation(seed, n, scale)
        ss = solve_equation(eq)
        assert ss.count == solution_bound(n)
        assert verify_solution_set(eq, ss).verdict == "pass"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_moved_solution_fails(self, scaled_random_equation, seed):
        eq = scaled_random_equation(seed, 3, 1e3)
        ss = solve_equation(eq)
        bad = ss.solutions[0]
        # a relative move of 1e-4 shifts both eigenvalues off the roots
        moved = Solution(bad.matrix + Mat2.identity().scale(
            1e-4 * bad.matrix.max_norm()), bad.kind, bad.eigen_data, 0.0)
        report = verify_solution_set(
            eq, _with_solutions(ss, (moved,) + ss.solutions[1:]))
        assert not report.char_divisor_ok
        assert report.verdict == "fail"


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

    def test_runs_without_scipy(self):
        code = (
            "import sys\n"
            "import matpolyeq, matpolyeq.cli, matpolyeq.documents\n"
            "eq = matpolyeq.MatrixEquation((matpolyeq.Mat2.diag(-1, -4),\n"
            "                               matpolyeq.Mat2.zero()))\n"
            "assert len(matpolyeq.brute_force_scan(eq)) == 4\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
        src = str(Path(matpolyeq.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


def _valley(x, starts, centre=(0.3, -1.2)):
    """A rotated quadratic, condition number 10, least at ``centre``; the
    start of each point is ignored."""
    u = (x[:, 0] - centre[0]) + (x[:, 1] - centre[1])
    v = (x[:, 0] - centre[0]) - (x[:, 1] - centre[1])
    return 10 * u ** 2 + v ** 2


class TestMinimize:
    STARTS = np.array([(0.0, 0.0), (1.0, -2.0), (0.5, 0.5)])

    def test_converges_from_every_start(self):
        res = minimize(_valley, self.STARTS)
        assert res.x.shape == self.STARTS.shape
        np.testing.assert_allclose(res.x, [(0.3, -1.2)] * 3, rtol=0,
                                   atol=1e-11)

    def test_counts_evaluated_points(self):
        seen = []

        def cost(x, starts):
            seen.append(len(x))
            return _valley(x, starts)

        res = minimize(cost, self.STARTS)
        assert isinstance(res.nfev, int)
        assert res.nfev == sum(seen)

    def test_stops_below_step_tolerance(self):
        # at the minimum no move helps: the step halves from 0.1 until it
        # is below 1e-13, 40 times, with four neighbours each time
        res = minimize(_valley, np.array([(0.3, -1.2)]))
        assert res.nfev == 1 + 4 * 40
        assert res.x.tolist() == [[0.3, -1.2]]

    def test_bit_identical_reruns(self):
        starts = self.STARTS.copy()
        a = minimize(_valley, starts)
        b = minimize(_valley, starts)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.nfev == b.nfev
        assert np.array_equal(starts, self.STARTS)  # x0 is not modified

    def test_batched_starts_match_separate_runs(self):
        # a different valley per start: the batch must follow each start's
        # own path, evaluate each point against its own start's cost, and
        # count the points of all the separate runs.  The first start sits
        # at its minimum and finishes first, so the later ones are named
        # by their rows of x0, not by their places among unfinished starts.
        centres = np.array([(0.0, 0.0), (-0.7, 0.05), (2.0, 1.0)])
        alone = []
        for x0, centre in zip(self.STARTS, centres):
            points = []

            def cost(x, starts, centre=centre):
                points.append(x.copy())
                return _valley(x, starts, centre)

            res = minimize(cost, x0[None])
            alone.append((res, np.concatenate(points)))

        seen = [[] for _ in self.STARTS]

        def cost(x, starts):
            for i, point in zip(starts.tolist(), x):
                seen[i].append(point.copy())
            u = x - centres[starts]
            return 10 * (u[:, 0] + u[:, 1]) ** 2 + (u[:, 0] - u[:, 1]) ** 2

        res = minimize(cost, self.STARTS)
        assert res.x.tobytes() == np.concatenate(
            [r.x for r, _ in alone]).tobytes()
        assert res.nfev == sum(r.nfev for r, _ in alone)
        assert [r.nfev for r, _ in alone] == [1 + 4 * 40, 313, 241]
        for (_, points), mine in zip(alone, seen):
            assert np.array(mine).tobytes() == points.tobytes()

    def test_cost_keeps_the_start_points(self):
        # the search updates its points in place; what the cost was given
        # must not change under it
        kept = []

        def cost(x, starts):
            kept.append(x)
            return _valley(x, starts)

        res = minimize(cost, self.STARTS)
        assert kept[0].tolist() == self.STARTS.tolist()
        assert not np.array_equal(res.x, self.STARTS)
