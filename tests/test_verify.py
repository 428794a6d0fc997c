import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matpolyeq
from matpolyeq import verify
from matpolyeq.construct import construct
from matpolyeq.documents import report_to_doc
from matpolyeq.mat2 import Mat2, MatrixEquation, pack
from matpolyeq.poly import BACKENDS, NonConvergence, relative_value
from matpolyeq.solver import (SECOND_VALUE_FAMILY, Candidates,
                              InfiniteCertificate, Solution, SolutionSet,
                              accepted, residuals, solution_bound,
                              solve_equation)
from matpolyeq.verify import (CHECKS, VerificationReport, _fit_eigenpairs,
                              brute_force_scan, count_cross_check,
                              verify_solution_set)

from helpers import prescribed_equation


def _with_solutions(sset, solutions):
    return SolutionSet.of(solutions, sset.certificate, sset.critical_data)


def _large_scale_swap(scaled_random_equation):
    """The n = 3, scale 1e6, seed 0 equation, its solve, and a claim of 15
    rows whose first true solution is swapped for the one matrix the scan
    keeps that the solve does not find."""
    eq = scaled_random_equation(0, 3, 1e6)
    ss = solve_equation(eq)
    extra = max(brute_force_scan(eq), key=lambda x: min(
        x.dist(s.matrix) for s in ss.solutions))
    res = float(residuals(eq, pack([extra]))[0])
    swapped = Solution(extra, "diagonalizable_distinct", None, res)
    return eq, ss, _with_solutions(ss, (swapped,) + ss.solutions[1:])


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

    # Known gap: every check of verify_solution_set looks at the claimed
    # matrices one by one or in pairs, and none knows how many solutions
    # there are, so a correct set with a row deleted passes (all 90 cells
    # with n <= 5 and m >= 2 do).  An exact count of the verifier's own
    # must turn this test into a pass.
    @pytest.mark.xfail(strict=True, raises=AssertionError)
    @pytest.mark.parametrize("n, m", [(3, 11), (4, 4), (5, 45)])
    def test_truncated_set_fails(self, n, m):
        eq = construct(n, m).equation
        ss = solve_equation(eq, backend="aberth")
        truncated = _with_solutions(ss, ss.solutions[:-1])
        assert verify_solution_set(eq, truncated).verdict == "fail"

    def test_truncated_claim_fails_the_solve_row(self):
        # the claim against a fresh solve: only its own row fails, and the
        # backends, not asked, have no row
        eq = construct(3, 11).equation
        ss = solve_equation(eq)
        report = verify_solution_set(
            eq, _with_solutions(ss, ss.solutions[:-3]), solved=ss)
        assert (report.solve_agreement, report.backend_agreement) == (
            False, None)
        assert report.reasons == ("the claimed set does not match the "
                                  "solve (8 claimed, 11 solved)",)
        assert "solve agreement: FAIL" in report.to_text().splitlines()
        report = verify_solution_set(eq, ss, solved=ss)
        assert report.solve_agreement is True
        assert report.verdict == "pass"

    def test_finite_claim_of_an_infinite_set_fails_the_solve_row(
            self, eq_x_squared_identity):
        # X^2 = I is infinite; I and -I alone pass every other check
        solved = solve_equation(eq_x_squared_identity)
        claim = SolutionSet.of(
            [Solution(Mat2.identity().scale(s), "scalar", None, 0.0)
             for s in (1, -1)], None, solved.critical_data)
        report = verify_solution_set(eq_x_squared_identity, claim,
                                     solved=solved)
        assert report.solve_agreement is False
        assert report.reasons == ("the claimed set does not match the "
                                  "solve (2 claimed, infinite solved)",)

    def test_no_solve_no_row(self, eq_four_solutions):
        report = verify_solution_set(eq_four_solutions,
                                     solve_equation(eq_four_solutions))
        assert report.solve_agreement is None
        assert "solve agreement" not in report.to_text()

    # A ratchet on silent wrong answers: the matrix with eigenpairs
    # (la, va) and (lb, vc), where vc is the critical vector of a third
    # value c, is no solution, yet in place of a true one it can pass
    # verify.  The triples run over the first 8 one-dimensional critical
    # data.  The bounds are the counts of passing sets when the ratchet
    # was set; they may only go down.
    @pytest.mark.parametrize("n, most", [(4, 0), (8, 0), (16, 52)])
    def test_silent_wrong_vectors_do_not_grow(self, scaled_random_equation,
                                              n, most):
        eq = scaled_random_equation(n, n, 1.0)
        ss = solve_equation(eq, backend="aberth")
        lines = [d for d in ss.critical_data if d.space_dim == 1][:8]
        batch = ss.batch
        silent = []
        for a, b, c in itertools.permutations(lines, 3):
            va, vc = a.basis[0], c.basis[0]
            p = Mat2(va.x, vc.x, va.y, vc.y)
            wrong = (p @ Mat2.diag(a.value, b.value)
                     @ p.adjugate()).scale(1.0 / p.det())
            x = batch.matrices.copy()
            x[0] = pack([wrong])[0]
            claimed = SolutionSet(
                Candidates(x, batch.residuals, batch.kinds, batch.pairs),
                ss.certificate, ss.critical_data)
            if verify_solution_set(eq, claimed).verdict == "pass":
                silent.append((a.value, b.value, c.value))
        assert len(silent) <= most, silent

    # Known gap (ROADMAP item 2): at n = 3, scale 1e6, seed 0 the scan keeps
    # one matrix the solver does not find, residual 3.0e16 under its
    # threshold 4.3e16.  Swapped in for a true solution, it passes every
    # row that does not ask for a fresh solve.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: the residual threshold is "
                              "vacuous at scale 1e6")
    def test_large_scale_swap_fails(self, scaled_random_equation):
        eq, _, claim = _large_scale_swap(scaled_random_equation)
        assert verify_solution_set(eq, claim).verdict == "fail"

    def test_large_scale_swap_fails_the_solve_row(self,
                                                  scaled_random_equation):
        eq, ss, claim = _large_scale_swap(scaled_random_equation)
        report = verify_solution_set(eq, claim, solved=ss)
        assert report.solve_agreement is False
        assert report.failed == ("solve_agreement",)

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
        ss = SolutionSet.of((Solution(Mat2(entry, 0, 0, 0),
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

    # (X - sI)^2 = 0: M'(s) = 0, so s I + mu k k_perp^T solves it for every
    # mu.  A direction of norm 1 is below the floor RANK_TOL * s from
    # s = 1e8 on, so the family's direction must grow with s
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("s", [1e8, 1e9])
    def test_large_nilpotent_family_passes(self, s, backend):
        eq = MatrixEquation((Mat2.identity().scale(s * s),
                             Mat2.identity().scale(-2 * s)))
        ss = solve_equation(eq, backend=backend)
        assert ss.certificate.reason == "nilpotent_affine_family"
        report = verify_solution_set(eq, ss)
        assert report.verdict == "pass"
        assert report.certificate_ok is True

    def test_companion_data_where_aberth_fails(self, monkeypatch):
        # where aberth cannot root det M(t) in its sweep budget, the
        # companion backend's set is judged on its own data; aberth roots
        # this X = Y / 256 equation since it starts on the Newton-polygon
        # radius, so its failure is forced
        def spent(c):
            raise NonConvergence(
                f"no convergence in 200 sweeps at degree {len(c) - 1}")

        monkeypatch.setitem(BACKENDS, "aberth", spent)
        eq = prescribed_equation("jordan_invertible", 4, 28)[0]
        eq = MatrixEquation(tuple(a.scale(2.0 ** (8 * (eq.n - k)))
                                  for k, a in enumerate(eq.coeffs)))
        with pytest.raises(NonConvergence, match="200 sweeps"):
            solve_equation(eq, backend="aberth")
        ss = solve_equation(eq, backend="companion")
        assert ss.count == 22
        assert verify_solution_set(eq, ss).verdict == "pass"

    @staticmethod
    def _claimed_family(eq, base, direction):
        """verify_solution_set on a claim of the family base + mu direction
        that stores the samples 0.25, 0.5 and 0.75, each a true solution
        here; verify samples the family at its own parameters."""
        mus = (0.25 + 0j, 0.5 + 0j, 0.75 + 0j)
        members = pack([base + direction.scale(mu) for mu in mus])
        assert accepted(eq, members, residuals(eq, members)).all()
        cert = InfiniteCertificate(SECOND_VALUE_FAMILY, base, direction, mus,
                                   (0.0,) * 3)
        return verify_solution_set(eq, SolutionSet.of((), cert, ()))

    def test_zero_direction_fails(self, eq_four_solutions):
        # X^2 = diag(1, 4) has 4 solutions; a "family" that never moves
        # from one of them is no family
        report = self._claimed_family(eq_four_solutions, Mat2.diag(1, 2),
                                      Mat2.zero())
        assert report.verdict == "fail"
        assert report.certificate_ok is False
        assert report.reasons == ("certificate direction is zero within "
                                  "2.000e-08",)

    def test_three_collinear_solutions_fail(self):
        # A_k = diag(p_k, q_k) with p = (t - .25)(t - .5)(t - .75) and
        # q = t (t - 2)(t - 3): 9 solutions, three of them diag(mu, 0) at
        # mu = 0.25, 0.5 and 0.75, so a cubic needs a fourth parameter
        p = (-0.09375, 0.6875, -1.5)
        q = (0.0, 6.0, -5.0)
        eq = MatrixEquation(tuple(Mat2.diag(a, b) for a, b in zip(p, q)))
        assert solve_equation(eq).count == 9
        report = self._claimed_family(eq, Mat2.zero(), Mat2.diag(1, 0))
        assert report.verdict == "fail"
        assert report.certificate_ok is False
        assert report.reasons == ("certificate sample mu=1.0 fails its "
                                  "residual",)

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

    @staticmethod
    def _recorded_points(monkeypatch, eq, sset):
        # the points of each relative_value call the divisor test makes
        calls = []

        def recording(c, t):
            calls.append(np.asarray(t).tolist())
            return relative_value(c, t)

        monkeypatch.setattr(verify, "relative_value", recording)
        return verify_solution_set(eq, sset), calls

    def test_repeated_eigenvalues_get_the_derivative_test(
            self, monkeypatch, eq_x_squared_jordan):
        # the two non-diagonalizable square roots: eigenvalues -1, -1 and
        # 1, 1, each a double root of det M(t) = (t^2 - 1)^2
        ss = solve_equation(eq_x_squared_jordan)
        report, calls = self._recorded_points(monkeypatch,
                                              eq_x_squared_jordan, ss)
        assert report.char_divisor_ok and report.verdict == "pass"
        assert len(calls) == 2
        assert sorted(calls[1], key=lambda z: z.real) == [-1, 1]

    def test_one_repeated_eigenvalue(self, monkeypatch):
        # X - 2I = 0: det M(t) = (t - 2)^2, and 2I repeats its eigenvalue
        eq = MatrixEquation((Mat2.identity().scale(-2),))
        ss = solve_equation(eq)
        report, calls = self._recorded_points(monkeypatch, eq, ss)
        assert report.char_divisor_ok and report.verdict == "pass"
        assert calls[1:] == [[2]]

    def test_distinct_eigenvalues_skip_the_derivative_test(
            self, monkeypatch, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        report, calls = self._recorded_points(monkeypatch, eq_four_solutions,
                                              ss)
        assert report.char_divisor_ok and report.verdict == "pass"
        assert len(calls) == 1

    def test_repeated_eigenvalue_of_a_simple_root_fails(
            self, monkeypatch, eq_four_solutions):
        # {I} claimed for X^2 = diag(1, 4): 1 is a simple root of
        # det M(t) = (t^2 - 1)(t^2 - 4), so the derivative test fails it
        claimed = _with_solutions(
            solve_equation(eq_four_solutions),
            (Solution(Mat2.identity(), "scalar", None, 0.0),))
        report, calls = self._recorded_points(monkeypatch, eq_four_solutions,
                                              claimed)
        assert report.eigenvalues_ok
        assert not report.char_divisor_ok
        assert report.verdict == "fail"
        assert calls == [[[1, 1]], [1]]


def test_checks_table_has_one_row_per_check(eq_four_solutions):
    # each *_ok and *_agreement field of the report is one row, each with
    # its own document key and text: a new check reaches the report
    # document, the sweep's verify: token and the text report by one row
    fields = [f for f in VerificationReport._fields
              if f.endswith(("_ok", "_agreement"))]
    assert sorted(field for field, _, _ in CHECKS) == sorted(fields)
    assert len({key for _, key, _ in CHECKS}) == len(CHECKS)
    report = verify_solution_set(eq_four_solutions,
                                 solve_equation(eq_four_solutions))
    assert len({text(report) for _, _, text in CHECKS}) == len(CHECKS)


def _all_checks_apply(eq):
    """A passing report of eq's solve with every row of CHECKS set."""
    ss = solve_equation(eq)
    report = verify_solution_set(eq, ss, backend_agreement=True, solved=ss)
    return report._replace(certificate_ok=True)


class TestTextReport:
    def test_known_text(self, eq_four_solutions):
        # the header, the rows in table order, the verdict; the numbers are
        # the max residual, the count against C(2n,2) and the least distance
        report = verify_solution_set(eq_four_solutions,
                                     solve_equation(eq_four_solutions))
        assert report.to_text().splitlines() == [
            "equation: degree 2, coefficient scale 4",
            "classification: finite (4 solutions)",
            "max residual: 0.000e+00: ok",
            "pairwise distinct (min distance 2.000e+00): ok",
            "bound: 4 <= C(2n,2) = 6: ok",
            "eigenvalues among critical values: ok",
            "characteristic divides det M(t): ok",
            "verdict: pass"]

    def test_one_line_per_row_in_table_order(self, eq_four_solutions):
        report = _all_checks_apply(eq_four_solutions)
        lines = report.to_text().splitlines()
        assert lines[2:-1] == [f"{text(report)}: ok"
                               for _, _, text in CHECKS]
        assert lines[-1] == "verdict: pass"

    @pytest.mark.parametrize("row", CHECKS, ids=[f for f, _, _ in CHECKS])
    def test_a_false_field_fails_its_line(self, eq_four_solutions, row):
        field, _, text = row
        report = _all_checks_apply(eq_four_solutions)
        failed = report._replace(**{field: False})
        before = report.to_text().splitlines()
        after = failed.to_text().splitlines()
        i = before.index(f"{text(report)}: ok")
        assert after[i] == f"{text(failed)}: FAIL"
        assert (before[-1], after[-1]) == ("verdict: pass", "verdict: fail")
        assert after[:i] + after[i + 1:-1] == before[:i] + before[i + 1:-1]

    @pytest.mark.parametrize("row", CHECKS, ids=[f for f, _, _ in CHECKS])
    def test_a_false_row_fails_the_verdict(self, eq_four_solutions, row):
        # the rows decide the verdict, with no reason given; the reasons
        # only explain them
        field, key, _ = row
        failed = _all_checks_apply(eq_four_solutions)._replace(
            **{field: False})
        assert (failed.failed, failed.reasons) == ((field,), ())
        assert failed.verdict == "fail"
        doc = report_to_doc(failed)
        assert (doc["checks"][key], doc["verdict"]) == (False, "fail")

    def test_each_failed_row_has_its_reason(self, eq_four_solutions):
        # a report the verifier returns gives a reason for each failed row
        # and none where every row passes
        ss = solve_equation(eq_four_solutions)
        three = SolutionSet(ss.batch.take(range(3)), None, ss.critical_data)
        twice = SolutionSet(ss.batch.take([0, 0, 1, 2]), None,
                            ss.critical_data)
        for sset, kwargs, failed in [
                (ss, {"backend_agreement": True, "solved": ss}, ()),
                (ss, {"backend_agreement": False}, ("backend_agreement",)),
                (three, {"solved": ss}, ("solve_agreement",)),
                (twice, {}, ("duplicates_ok",))]:
            report = verify_solution_set(eq_four_solutions, sset, **kwargs)
            assert report.failed == failed
            assert len(report.reasons) == len(failed)

    @pytest.mark.parametrize("row", CHECKS, ids=[f for f, _, _ in CHECKS])
    def test_a_none_field_has_no_line(self, eq_four_solutions, row):
        field, _, text = row
        report = _all_checks_apply(eq_four_solutions)
        skipped = report._replace(**{field: None})
        before = report.to_text().splitlines()
        before.remove(f"{text(report)}: ok")
        assert skipped.to_text().splitlines() == before

    def test_reasons_follow_the_verdict(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        report = verify_solution_set(eq_four_solutions, ss,
                                     backend_agreement=False)
        assert report.to_text().splitlines()[-2:] == [
            "verdict: fail", "  - backends disagree"]

    def test_derived_numbers(self, eq_x_squared_identity):
        # the classification, the bound and the max residual follow from
        # what the verifier measured
        report = verify_solution_set(eq_x_squared_identity,
                                     solve_equation(eq_x_squared_identity))
        assert (report.claimed_count, report.classification) == (
            None, "infinite")
        assert (report.bound, report.max_residual) == (6, 0.0)
        report = report._replace(claimed_count=2,
                                 residuals=(0.5, math.inf, math.nan))
        assert (report.classification, report.max_residual) == (
            "finite", math.inf)


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

    def test_solution_objects_stay_unbuilt(self):
        # a sweep cell's cross-check and verification read the batches only
        eq = construct(4, 21, validate=False).equation
        cc = count_cross_check(eq)
        report = verify_solution_set(eq, cc.set_a, backend_agreement=cc.agree)
        assert report.verdict == "pass" and cc.count_a == 21
        assert "solutions" not in vars(cc.set_a)
        assert "solutions" not in vars(cc.set_b)


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

    def test_plane_with_one_partner_overflows_bound(self):
        # X^3 - 2X^2 + (I + E)X = 0, E = [[0, 1], [0, 0]]: det M(t) =
        # t^2 (t - 1)^4, M(0) = 0 and the space at 1 is a line, so each
        # direction of the plane at 0 pairs with that one vector only
        eq = MatrixEquation((Mat2.zero(), Mat2(1, 1, 0, 1),
                             Mat2.identity().scale(-2)))
        assert not solve_equation(eq).is_finite
        assert len(brute_force_scan(eq)) > solution_bound(eq.n)

    def test_jordan_roots_found(self, eq_x_squared_jordan):
        scan = brute_force_scan(eq_x_squared_jordan)
        assert len(scan) == 2
        for want in (Mat2(1, 0.5, 0, 1), Mat2(-1, -0.5, 0, -1)):
            assert min(x.dist(want) for x in scan) < 1e-8

    @pytest.mark.parametrize("seed", [2, 4])
    def test_wide_critical_values_keep_close_solutions(
            self, scaled_random_equation, seed):
        # critical values from about 0.5 to 1e5; ten times the solver's
        # dedupe tolerance merged solutions 0.88 apart
        eq = scaled_random_equation(seed, 3, 1e5)
        ss = solve_equation(eq)
        scan = brute_force_scan(eq)
        assert len(scan) == ss.count == 15
        for sol in ss.solutions:
            assert min(x.dist(sol.matrix) for x in scan) <= \
                1e-9 * (1 + sol.matrix.max_norm())

    # Known gap (ROADMAP item 2): the residual test is vacuous at large
    # scales, so the scan keeps matrices that solve nothing.  At n = 1 every
    # seed scans to 3 survivors at 1e8 and 1e10 and to 1 at 1e5 and 1e6; 3
    # is above C(2, 2) = 1, which reads as an infinite set.  At n = 3,
    # scale 1e6, seed 0 the scan keeps 16 against the solver's 15.
    @pytest.mark.parametrize("scale", [1e5, pytest.param(
        1e8, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 2: the residual threshold is vacuous at "
                   "scale 1e8"))])
    def test_degree_one_scan_at_scale(self, scaled_random_equation, scale):
        eq = scaled_random_equation(0, 1, scale)
        assert solve_equation(eq).count == 1
        assert len(brute_force_scan(eq)) == 1

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: the residual threshold is "
                              "vacuous at scale 1e6")
    def test_degree_three_scan_at_scale_1e6(self, scaled_random_equation):
        eq = scaled_random_equation(0, 3, 1e6)
        assert solve_equation(eq).count == 15
        assert len(brute_force_scan(eq)) == 15

    def test_pair_independence_threshold(self):
        # unit vectors |det| apart, one with a phase, which |det| ignores
        def pair(det):
            va = np.array([[1, 0]], complex)
            vb = np.exp(0.3j) * np.array([[math.sqrt(1 - det ** 2), det]])
            return _fit_eigenpairs(np.array([0.5 - 1j]), va,
                                   np.array([2 + 0.25j]), vb), va, vb

        x, va, vb = pair(2e-6)
        assert x.shape == (1, 4)
        x = x.reshape(2, 2)
        for lam, v in ((0.5 - 1j, va[0]), (2 + 0.25j, vb[0])):
            assert np.abs(x @ v - lam * v).max() <= 1e-9 * np.abs(x).max()
        # below INDEPENDENCE_TOL the pair is one direction: no fit, so no
        # singular system ever reaches the solve
        assert pair(5e-7)[0].shape == (0, 4)

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

