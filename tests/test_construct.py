import hashlib
import itertools
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq.construct import (DomainError, ValidationFailure,
                                 build_partition, choose_p, choose_values,
                                 construct, solve_coefficients)
from matpolyeq.cli import _sweep_cell, main
from matpolyeq.documents import equation_to_doc, plan_to_doc
from matpolyeq.mat2 import Mat2, Vec2
from matpolyeq.poly import Poly
from matpolyeq.solver import (SECOND_VALUE_FAMILY, InfiniteCertificate,
                              SolutionSet, solution_bound, solve_equation)
from matpolyeq.verify import count_cross_check, verify_solution_set


class TestChooseP:
    @pytest.mark.parametrize("m,expected", [
        (1, (2, 0, 0)),
        (5, (4, 0, 1)),
        (6, (4, 0, 0)),
        (2, (3, 0, 1)),
        (37, (10, 2, 2)),
    ])
    def test_examples(self, m, expected):
        assert choose_p(m) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            choose_p(0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 500))
    def test_defining_inequality(self, m):
        p, a, b = choose_p(m)
        assert math.comb(p - 1, 2) < m <= math.comb(p, 2)
        assert 3 * a + b == math.comb(p, 2) - m
        assert 0 <= b < 3


class TestBuildPartition:
    def test_single_pair_block(self):
        assert build_partition(5) == (((0,), (1, 2), (3,)), ())

    def test_all_singletons(self):
        assert build_partition(3) == (((0,), (1,), (2,)), ())

    def test_quadruple_case(self):
        got = build_partition(37)
        assert got == (((0,), (1, 2, 3, 4), (5, 6), (7, 8), (9,)), ())

    def test_two_pair_case_preferred(self):
        # b=2 with room for two pairs instead of the quadruple layout
        assert choose_p(8) == (5, 0, 2)   # p > 3a + 4
        got = build_partition(8)
        assert got == (((0,), (1, 2), (3, 4)), ())

    def test_special_counts_double_one_value(self):
        # b = 2 with fewer than two triples to merge: C(p - 1, 2) + 1 = m
        assert choose_p(4) == (4, 0, 2)
        assert choose_p(16) == (7, 1, 2)
        assert build_partition(4) == (((0,), (1,), (2,)), (1,))
        assert build_partition(16) == (tuple((i,) for i in range(6)), (1,))

    def test_miscounted_partition_fails_validation(self, monkeypatch):
        # a budget one pair short of C(5, 2) - 8 leaves 9 pairs, not 8
        monkeypatch.setitem(build_partition.__globals__, "choose_p",
                            lambda m: (5, 0, 1))
        with pytest.raises(ValidationFailure):
            build_partition(8)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300))
    def test_partition_conditions(self, m):
        p = choose_p(m)[0]
        blocks, doubled = build_partition(m)
        if m in (4, 16):
            p -= 1
            assert doubled == (1,)
        else:
            assert doubled == ()
        flat = sorted(i for blk in blocks for i in blk)
        assert flat == list(range(p))
        assert blocks[0] == (0,)
        independent = math.comb(p, 2) - sum(
            math.comb(len(blk), 2) for blk in blocks)
        assert independent + len(doubled) == m
        assert max(len(blk) for blk in blocks) <= math.ceil(p / 2)


class TestChooseValues:
    def test_blocks_share_targets(self):
        n = 3
        partition = ((0,), (1, 2), (3,), (4, 5, 6))
        lambdas, ys, vectors = choose_values(partition, n)
        assert lambdas[0] == 0
        for i in range(1, 7):
            assert abs(lambdas[i]) == pytest.approx(1, abs=1e-12)
            assert abs(lambdas[i] ** n - ys[i]) <= 1e-12
        assert ys[1] == ys[2] and ys[4] == ys[5] == ys[6]
        assert len({ys[1], ys[3], ys[4]}) == 3
        pairs = itertools.combinations(lambdas, 2)
        assert min(abs(a - b) for a, b in pairs) > 1e-6
        assert vectors[0] == Vec2(1, 0)
        assert vectors[1] == vectors[2] == Vec2(1, ys[1])

    def test_degree_one(self):
        lambdas, ys, vectors = choose_values(((0,), (1,)), 1)
        assert lambdas == (0, 1)
        assert ys[1] == 1
        assert vectors[1] == Vec2(1, 1)

    def test_roots_power_back_to_target(self):
        partition = ((0,), (1, 2, 3), (4,))
        lambdas, ys, _ = choose_values(partition, 3)
        for i in range(1, 5):
            assert lambdas[i] ** 3 == pytest.approx(ys[i])
        assert len({(round(l.real, 9), round(l.imag, 9))
                    for l in lambdas}) == 5


class TestSolveCoefficients:
    def test_degree_one_single_solution(self):
        result = construct(1, 1)
        assert result.equation.coeffs[0].dist(Mat2(0, -1, 0, -1)) < 1e-12

    def test_zero_dominant_branch(self):
        # n=3, m=1: one nonzero critical value, zero takes multiplicity 5
        result = construct(3, 1)
        eq = result.equation
        assert result.plan.pbar == 5
        a0, a1, a2 = eq.coeffs
        assert a0.dist(Mat2(0, -1, 0, 0)) < 1e-12
        assert a1.dist(Mat2.zero()) < 1e-12
        assert a2.dist(Mat2(0, 0, 0, -1)) < 1e-12

    def test_round_trip_full_pair_count(self):
        result = construct(2, 6)
        ss = solve_equation(result.equation)
        assert ss.count == 6

    def test_plan_invariants(self):
        result = construct(3, 7)
        plan = result.plan
        assert plan.pbar == 2 * plan.n - plan.p + 1
        assert solve_coefficients(plan).coeffs == result.equation.coeffs


class TestSpecialCase:
    """m = 4 and m = 16: p - 1 singleton values with the one at index 1
    doubled, C(p - 1, 2) diagonalizable solutions and one
    non-diagonalizable."""

    def test_four_at_degree_two(self):
        # det M(t) = t (t - 1)^2 (t + i)
        result = construct(2, 4)
        plan = result.plan
        assert (plan.p, plan.pbar, plan.partition, plan.doubled) == \
            (3, 1, ((0,), (1,), (2,)), (1,))
        assert plan.lambdas[1] == 1 and abs(plan.lambdas[2] + 1j) < 1e-15
        a0, a1 = result.equation.coeffs
        assert a0.dist(Mat2(0, -1, 0, 1 - 2j)) < 1e-15
        assert a1.dist(Mat2(0, 0, 1j, -2 + 1j)) < 1e-15

    def test_four_at_degree_three(self):
        result = construct(3, 4)
        plan = result.plan
        assert (plan.p, plan.pbar, plan.doubled) == (3, 3, (1,))
        want = Poly.from_roots([(0, 3), (plan.lambdas[1], 2),
                                (plan.lambdas[2], 1)])
        assert result.equation.det_poly.coeffs == want.coeffs

    def test_sixteen_at_degree_four(self):
        # the one non-diagonalizable solution is lambda_1 I + K, K a nonzero
        # nilpotent that kills the critical vector v_1
        result = construct(4, 16)
        plan = result.plan
        assert (plan.p, plan.pbar, plan.doubled) == (6, 2, (1,))
        assert plan.partition == tuple((i,) for i in range(6))
        ss = solve_equation(result.equation)
        jordan = [s for s in ss.solutions if s.kind == "non_diagonalizable"]
        assert len(jordan) == 1
        k = jordan[0].matrix - Mat2.identity().scale(plan.lambdas[1])
        assert k.max_norm() > 0.1
        assert (k @ k).max_norm() < 1e-10
        assert k.apply(plan.vectors[1]).norm() < 1e-10

    def test_degree_floors(self):
        # C(2n, 2) >= 4 needs n >= 2, and C(2n, 2) >= 16 needs n >= 4
        with pytest.raises(DomainError):
            construct(1, 4)
        with pytest.raises(DomainError):
            construct(3, 16)

    # both backends agree and verify passes; acceptance criterion 10
    # checks every n up to 16
    @pytest.mark.parametrize("n, m", [(n, 4) for n in range(2, 7)]
                             + [(n, 16) for n in range(4, 9)])
    def test_counts_and_verifies(self, n, m):
        eq = construct(n, m, validate=False).equation
        cross = count_cross_check(eq)
        assert cross.count_a == cross.count_b == m
        assert cross.agree
        report = verify_solution_set(eq, cross.set_a, cross.agree)
        assert report.verdict == "pass", report

    # every multiple root of det M(t) but the double lambda_1 sits at the
    # exact zero, which find_roots deflates exactly
    def test_sixteen_at_degree_nine_validates(self):
        eq = construct(9, 16).equation
        ss = solve_equation(eq, backend="aberth")
        assert ss.count == 16
        assert verify_solution_set(eq, ss).verdict == "pass"


class TestConstruct:
    def test_four_solutions(self):
        # one diagonalizable solution per pair of the values 0, 1, -i, and
        # one non-diagonalizable at the doubled value 1
        result = construct(2, 4)
        ss = solve_equation(result.equation)
        lams = result.plan.lambdas

        def nearest(z):
            i = min(range(3), key=lambda i: abs(z - lams[i]))
            assert abs(z - lams[i]) < 1e-8
            return i

        pairs = sorted((tuple(sorted(nearest(s.eigen_data[k][0])
                                     for k in (0, -1))), s.kind)
                       for s in ss.solutions)
        assert pairs == [((0, 1), "diagonalizable_distinct"),
                         ((0, 2), "diagonalizable_distinct"),
                         ((1, 1), "non_diagonalizable"),
                         ((1, 2), "diagonalizable_distinct")]

    def test_degree_one(self):
        result = construct(1, 1)
        ss = solve_equation(result.equation)
        assert ss.count == 1
        assert ss.solutions[0].matrix.dist(Mat2(0, 1, 0, 1)) < 1e-10

    def test_m_out_of_range(self):
        with pytest.raises(DomainError):
            construct(2, 7)
        with pytest.raises(DomainError):
            construct(2, 0)
        with pytest.raises(DomainError):
            construct(0, 1)
        with pytest.raises(DomainError):
            construct(17, 1)

    def test_special_flag(self):
        assert construct(2, 4).plan.doubled == (1,)
        assert construct(4, 16).plan.doubled == (1,)
        assert construct(2, 5).plan.doubled == ()

    def test_expected_count_recorded(self):
        assert construct(3, 11).plan.m == 11

    def test_zero_value_keeps_claimed_multiplicity(self):
        # det M(t) is t^pbar prod (t - lambda_i) to the last bit on every
        # cell, each doubled lambda_i twice, so the zero root is deflated
        # exactly pbar times
        for n in range(1, 17):
            for m in range(1, solution_bound(n) + 1):
                result = construct(n, m, validate=False)
                plan = result.plan
                roots = [(lam, 1 + (i in plan.doubled))
                         for i, lam in enumerate(plan.lambdas) if i]
                want = Poly.from_roots([(0, plan.pbar)] + roots)
                assert result.equation.det_poly.coeffs == want.coeffs, (n, m)


# sha256 of the plan and equation documents of every cell with n <= 16
# (construct(n, m, validate=False)), each pair as json.dumps writes it, so
# every number as its repr.  Recorded when m = 4 and 16 took their one
# doubled value; against the explicit diagonal equations they replaced,
# the other 2,828 cells kept their equation documents byte for byte, and
# their plan documents only gained "doubled": [].
CONSTRUCTION_SHA256 = \
    "9619e7d7a19af032355bac0574d09d62dc73d85f9885ea3ce017f19c56194ca0"


def test_construction_matches_the_recorded_digest():
    digest = hashlib.sha256()
    cells = 0
    for n in range(1, 17):
        for m in range(1, solution_bound(n) + 1):
            result = construct(n, m, validate=False)
            digest.update(json.dumps([plan_to_doc(result),
                                      equation_to_doc(result.equation)])
                          .encode())
            cells += 1
    assert cells == 2856
    assert digest.hexdigest() == CONSTRUCTION_SHA256


class TestValidation:
    """construct's own check of what it built, ``construct.check``, shared
    with the sweep; its inputs are patched in the construct module
    (matpolyeq.construct is the function)."""

    @staticmethod
    def _patch(monkeypatch, name, wrap):
        module = sys.modules["matpolyeq.construct"]
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda eq, *args, **kwargs:
                            wrap(real(eq, *args, **kwargs)))

    @staticmethod
    def _both(sset):
        return lambda cross: cross._replace(set_a=sset, set_b=sset,
                                             count_a=sset.count,
                                             count_b=sset.count)

    @staticmethod
    def _infinite():
        cert = InfiniteCertificate(SECOND_VALUE_FAMILY, Mat2.identity(),
                                   Mat2(0, 1, 0, 0), (0.25, 0.5, 0.75),
                                   (0.0,) * 3)
        return SolutionSet.of((), cert, ())

    def test_infinite_solve_fails(self, monkeypatch):
        self._patch(monkeypatch, "count_cross_check",
                    self._both(self._infinite()))
        with pytest.raises(ValidationFailure) as raised:
            construct(2, 5)
        assert str(raised.value) == (
            "construction failed its check: count:inf!=5,verify:certificate"
            " (infinite: two_dim_space_with_second_value)")

    def test_wrong_count_fails(self, monkeypatch):
        # both backends lose the last of the 5 solutions; verify passes
        # the truncated set, so the count alone fails
        sset = solve_equation(construct(2, 5, validate=False).equation)
        self._patch(monkeypatch, "count_cross_check", self._both(
            SolutionSet(sset.batch.take(range(4)), None, sset.critical_data)))
        with pytest.raises(ValidationFailure) as raised:
            construct(2, 5)
        assert str(raised.value) == \
            "construction failed its check: count:4!=5"

    # a disagreement of the backends on one cell, failed report checks on
    # another: both are rows of the report, and construct names exactly
    # what the sweep's row names
    @pytest.mark.parametrize("cell, name, wrap, error", [
        ((2, 5), "count_cross_check",
         lambda cross: cross._replace(agree=False),
         "verify:backend_agreement"),
        ((3, 7), "verify_solution_set",
         lambda report: report._replace(eigenvalues_ok=False,
                                       char_divisor_ok=False),
         "verify:eigenvalues+char_divisor"),
    ])
    def test_construct_fails_as_the_sweep_does(self, monkeypatch, cell, name,
                                               wrap, error):
        self._patch(monkeypatch, name, wrap)
        row = _sweep_cell(cell)
        assert (row["count"], row["error"]) == (cell[1], error)
        with pytest.raises(ValidationFailure) as raised:
            construct(*cell)
        assert str(raised.value) == f"construction failed its check: {error}"

    def test_cli_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                            monkeypatch):
        self._patch(monkeypatch, "count_cross_check",
                    self._both(self._infinite()))
        out = tmp_path / "eq.json"
        capsys.readouterr()
        assert main(["construct", "--n", "2", "--m", "5",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "validation failure (ValidationFailure): construction failed its"
            " check: count:inf!=5,verify:certificate (infinite:"
            " two_dim_space_with_second_value)\n")
        assert not out.exists()
