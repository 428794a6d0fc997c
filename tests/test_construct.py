import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq.construct import (SPECIAL_COUNTS, DomainError,
                                 ValidationFailure, build_partition,
                                 choose_p, choose_values, construct,
                                 solve_coefficients, special_case)
from matpolyeq.documents import equation_to_doc, plan_to_doc
from matpolyeq.mat2 import Mat2, Vec2
from matpolyeq.poly import Poly
from matpolyeq.solver import solution_bound, solve_equation


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
        assert build_partition(5) == ((0,), (1, 2), (3,))

    def test_all_singletons(self):
        assert build_partition(3) == ((0,), (1,), (2,))

    def test_quadruple_case(self):
        got = build_partition(37)
        assert got == ((0,), (1, 2, 3, 4), (5, 6), (7, 8), (9,))

    def test_two_pair_case_preferred(self):
        # b=2 with room for two pairs instead of the quadruple layout
        assert choose_p(8) == (5, 0, 2)   # p > 3a + 4
        got = build_partition(8)
        assert got == ((0,), (1, 2), (3, 4))

    def test_special_counts_rejected(self):
        with pytest.raises(DomainError):
            build_partition(4)
        with pytest.raises(DomainError):
            build_partition(16)

    def test_miscounted_partition_fails_validation(self, monkeypatch):
        # a budget one pair short of C(5, 2) - 8 leaves 9 pairs, not 8
        monkeypatch.setitem(build_partition.__globals__, "choose_p",
                            lambda m: (5, 0, 1))
        with pytest.raises(ValidationFailure):
            build_partition(8)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300))
    def test_partition_conditions(self, m):
        if m in (4, 16):
            return
        p = choose_p(m)[0]
        blocks = build_partition(m)
        flat = sorted(i for blk in blocks for i in blk)
        assert flat == list(range(p))
        assert blocks[0] == (0,)
        independent = math.comb(p, 2) - sum(
            math.comb(len(blk), 2) for blk in blocks)
        assert independent == m
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
    def test_four_at_degree_two(self):
        eq = special_case(4, 2)
        assert eq.coeffs[0].dist(Mat2.diag(-1, -4)) == 0
        assert eq.coeffs[1].dist(Mat2.zero()) == 0

    def test_four_at_degree_three(self):
        eq = special_case(4, 3)
        assert eq.coeffs[2].dist(Mat2.diag(1, 2)) < 1e-12
        assert eq.coeffs[1].dist(Mat2.diag(-1, -4)) < 1e-12
        assert eq.coeffs[0].dist(Mat2.diag(-1, -8)) < 1e-12

    def test_sixteen_at_degree_four(self):
        eq = special_case(16, 4)
        assert eq.coeffs[0].dist(Mat2.diag(9, 64)) < 1e-12
        assert eq.coeffs[2].dist(Mat2.diag(-10, -20)) < 1e-12
        assert eq.coeffs[1].dist(Mat2.zero()) == 0
        assert eq.coeffs[3].dist(Mat2.zero()) == 0

    def test_degree_floors(self):
        with pytest.raises(DomainError):
            special_case(4, 1)
        with pytest.raises(DomainError):
            special_case(16, 3)
        with pytest.raises(DomainError):
            special_case(5, 3)


class TestConstruct:
    def test_four_solutions(self):
        result = construct(2, 4)
        ss = solve_equation(result.equation)
        expected = [Mat2.diag(sa, sb) for sa in (1, -1) for sb in (2, -2)]
        assert ss.count == 4
        for want in expected:
            assert min(s.matrix.dist(want) for s in ss.solutions) < 1e-8

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
        assert construct(2, 4).special_case == 4
        assert construct(4, 16).special_case == 16
        assert construct(2, 5).special_case is None

    def test_expected_count_recorded(self):
        assert construct(3, 11).expected_count == 11

    def test_zero_value_keeps_claimed_multiplicity(self):
        # det M(t) is t^pbar prod (t - lambda_i) to the last bit on every
        # partition cell, so the zero root is deflated exactly pbar times
        for n in range(1, 17):
            for m in range(1, solution_bound(n) + 1):
                if m in SPECIAL_COUNTS:
                    continue
                result = construct(n, m, validate=False)
                plan = result.plan
                roots = [(lam, 1) for lam in plan.lambdas[1:]]
                want = Poly.from_roots([(0, plan.pbar)] + roots)
                assert result.equation.det_poly.coeffs == want.coeffs, (n, m)


# sha256 of the plan and equation documents of every cell with n <= 16
# (construct(n, m, validate=False), the special counts included), each pair
# as json.dumps writes it, so every number as its repr.  Recorded before
# build_partition derived its block sizes from m alone.
CONSTRUCTION_SHA256 = \
    "8f27b9f395ff8bdada58f45bd53ee202707d563b3254bf3eb067ce739d8a1e1d"


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
