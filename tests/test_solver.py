import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq.construct import construct
from matpolyeq.mat2 import (E1, E2, Mat2, MatrixEquation, Vec2, det2, eigen2,
                            eval_equation, pack, poly_matrix, unpack)
from matpolyeq.poly import CLUSTER_TOL, NonConvergence, Poly
from matpolyeq.solver import (KINDS, Candidates, CriticalDatum,
                              InternalInconsistency, SolutionSet, accepted,
                              critical_data, detect_infinite,
                              enumerate_diagonalizable,
                              find_nondiagonalizable, output_order,
                              residual_tols, residuals, scalar_solutions,
                              solution_bound, solve_equation)
from matpolyeq.verify import (brute_force_scan, count_cross_check,
                              verify_solution_set)

from helpers import (JORDAN_PATTERNS, NEAR_FAMILY, NILPOTENT_FAMILY,
                     RANK_PATTERNS, max_abs_coeff, poly_divmod,
                     prescribed_equation, ref_sort_key)

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
        found = enumerate_diagonalizable(eq_four_solutions, data)
        mats = unpack(found.matrices)
        got = sorted((round(m.m11.real), round(m.m22.real)) for m in mats)
        assert got == [(-1, -2), (-1, 2), (1, -2), (1, 2)]
        assert found.kinds == ("diagonalizable_distinct",) * 4
        for m in mats:
            assert max(abs(m.m12), abs(m.m21)) < 1e-10

    def test_shared_direction_gives_nothing(self, eq_four_solutions):
        data = [
            CriticalDatum(1 + 0j, 1, 1, (E1,)),
            CriticalDatum(-1 + 0j, 1, 1, (E1,)),
        ]
        assert len(enumerate_diagonalizable(eq_four_solutions, data)) == 0

    def test_degree_one_assembly(self, eq_degree_one):
        data = critical_data(eq_degree_one)
        mats = unpack(enumerate_diagonalizable(eq_degree_one, data).matrices)
        assert len(mats) == 1
        assert mats[0].dist(Mat2(0, 1, 0, 1)) < 1e-10


class TestScalarSolutions:
    def test_nilpotent_square_includes_zero(self, eq_x_squared_zero):
        data = critical_data(eq_x_squared_zero)
        found = scalar_solutions(eq_x_squared_zero, data)
        assert found.kinds == ("scalar",)
        assert unpack(found.matrices)[0].dist(Mat2.zero()) == 0

    def test_four_solution_fixture_empty(self, eq_four_solutions):
        data = critical_data(eq_four_solutions)
        assert len(scalar_solutions(eq_four_solutions, data)) == 0

    def test_shifted_square_includes_identity(self, eq_shifted_square):
        data = critical_data(eq_shifted_square)
        mats = unpack(scalar_solutions(eq_shifted_square, data).matrices)
        assert len(mats) == 1
        assert mats[0].dist(Mat2.identity()) == 0


class TestFindNondiagonalizable:
    def test_jordan_square_roots(self, eq_x_squared_jordan):
        # X^2 = [[1, 1], [0, 1]]: one offset at each of -1 and +1, packed
        # and residual-checked together, in the order of the data
        data = critical_data(eq_x_squared_jordan)
        assert [d.value for d in data] == [-1, 1]
        found = find_nondiagonalizable(eq_x_squared_jordan, data)
        assert found.kinds == ("non_diagonalizable",) * 2
        assert list(found.eigen_data) == [((d.value, d.basis[0]),)
                                          for d in data]
        minus, plus = unpack(found.matrices)
        assert minus.dist(Mat2(-1, -0.5, 0, -1)) < 1e-10
        assert plus.dist(Mat2(1, 0.5, 0, 1)) < 1e-10
        _assert_accepted(eq_x_squared_jordan, [minus, plus],
                         found.residuals.tolist())

    def test_plane_left_to_detect_infinite(self, eq_x_squared_zero):
        # M(0) = 0: the family is detect_infinite's, no offset comes back
        data = critical_data(eq_x_squared_zero)
        assert len(find_nondiagonalizable(eq_x_squared_zero, data)) == 0

    def test_unsolvable_nilpotent_target(self, eq_x_squared_nilpotent):
        data = critical_data(eq_x_squared_nilpotent)
        assert len(find_nondiagonalizable(eq_x_squared_nilpotent, data)) == 0

    def test_simple_roots_skipped(self, eq_four_solutions):
        data = critical_data(eq_four_solutions)
        assert len(find_nondiagonalizable(eq_four_solutions, data)) == 0


class TestRankPatterns:
    """Every rank pattern of (M(lam), M'(lam)) at a repeated critical value."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("pattern", RANK_PATTERNS)
    def test_forced_offsets(self, pattern, n):
        for seed in range(10):
            eq, lam, jordan = prescribed_equation(pattern, n, seed)
            cross = count_cross_check(eq)
            assert cross.agree, (pattern, n, seed)
            for ss in (cross.set_a, cross.set_b):
                data = ss.critical_data
                datum = min(data, key=lambda d: abs(d.value - lam))
                found = find_nondiagonalizable(eq, (datum,))
                if pattern.startswith("zero"):
                    # lam I solves it, and a second value, or alone a
                    # singular M'(lam), spreads that into a family
                    assert not ss.is_finite
                    assert detect_infinite(eq, data) == ss.certificate
                    lone = len(data) == 1
                    assert not lone or pattern != "zero_invertible"
                    assert ss.certificate.reason == (
                        "nilpotent_affine_family" if lone
                        else "two_dim_space_with_second_value")
                    assert datum.space_dim == 2 and len(found) == 0
                    continue
                assert ss.is_finite
                offsets = [s.matrix for s in ss.solutions
                           if s.kind == "non_diagonalizable"]
                if pattern in JORDAN_PATTERNS:
                    assert len(found) == 1
                    assert len(offsets) == 1
                    assert offsets[0].dist(jordan) <= \
                        1e-10 * (1 + jordan.max_norm())
                else:
                    # with M'(lam) k ~ 0 a least-squares offset blows up and
                    # can pass the residual test, so only the rank rule holds
                    assert len(found) == 0, (pattern, n, seed)
                    assert offsets == []

    @pytest.mark.parametrize("pattern",
                             RANK_PATTERNS + (NILPOTENT_FAMILY, NEAR_FAMILY))
    def test_scan_agrees_at_degree_two(self, pattern):
        # the family patterns merge lam into a 4-fold value whose M(lam) is
        # at noise level; the scan must not take the kernel of that noise
        # for an offset direction there.  More seeds cover more of them
        _assert_scan_agrees(pattern, 2,
                            2 if pattern in RANK_PATTERNS else 38)

    @pytest.mark.parametrize("pattern", RANK_PATTERNS)
    def test_scan_agrees_at_degree_three(self, pattern):
        # the family patterns stay at degree 2: at n = 3 the solver can read
        # their 4-fold value as one-dimensional
        _assert_scan_agrees(pattern, 3, 10)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("pattern", JORDAN_PATTERNS)
    def test_scan_offset_reaches_jordan_solution(self, pattern, n):
        # K k = 0 forces M(lam) k = 0, so the offset direction is the kernel
        # of the rank-one M(lam), and the least-squares c is then exact
        for seed in range(10):
            eq, _, jordan = prescribed_equation(pattern, n, seed)
            scan = brute_force_scan(eq)
            assert min(x.dist(jordan) for x in scan) <= \
                1e-13 * (1 + jordan.max_norm()), seed


def _assert_scan_agrees(pattern, n, seeds):
    """The scan and the solver agree on the classification, the count and
    (within 1e-5) the solutions of ``pattern`` at degree n, seeds 0 ..
    seeds - 1."""
    for seed in range(seeds):
        eq, _, _ = prescribed_equation(pattern, n, seed)
        ss = solve_equation(eq)
        scan = brute_force_scan(eq)
        assert (len(scan) > solution_bound(n)) == (not ss.is_finite), seed
        if ss.is_finite:
            assert len(scan) == ss.count, seed
            for sol in ss.solutions:
                assert min(x.dist(sol.matrix) for x in scan) <= 1e-5, seed


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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_output_in_sort_key_order(self, request, backend):
        equations = [request.getfixturevalue(name) for name in _FIXTURES]
        equations += [construct(n, m, validate=False).equation
                      for n in (1, 2, 3)
                      for m in range(1, solution_bound(n) + 1)]
        for eq in equations:
            keys = [ref_sort_key(s)
                    for s in solve_equation(eq, backend=backend).solutions]
            assert keys == sorted(keys)


# few distinct parts, so that repeated eigenvalues, exact ties between
# keys and +-0.0 entries are common
_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324])
_VALUES = st.builds(complex, _PARTS, _PARTS)


@st.composite
def _solver_rows(draw):
    """(matrix, kind, eigen data) rows with one eigenvalue (non-
    diagonalizable), one repeated (scalar) or two (diagonalizable), some of
    them drawn twice, in any order."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(KINDS))
        la = draw(_VALUES)
        lb = la if kind == "scalar" else draw(_VALUES)
        m = Mat2(*(draw(_VALUES) for _ in range(4)))
        if kind == "non_diagonalizable":
            rows.append((m, kind, ((la, E1),)))
            if draw(st.booleans()):
                # a two-eigenvalue key that the one-eigenvalue key is a
                # prefix of: its second eigenvalue is m11, then m12 .. m22
                rows.append((Mat2(m.m12, m.m21, m.m22, draw(_VALUES)),
                             "diagonalizable_distinct",
                             ((la, E1), (m.m11, E2))))
        else:
            rows.append((m, kind, ((la, E1), (lb, E2))))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(rows=_solver_rows())
def test_output_order_matches_the_sort_key(rows):
    # the one lexsort against a stable sort on the per-solution key
    mats, kinds, eigen = zip(*rows) if rows else ((), (), ())
    batch = Candidates(pack(mats), np.zeros(len(rows)), kinds, eigen)
    sols = SolutionSet(batch, None, ()).solutions
    assert output_order(batch).tolist() == sorted(
        range(len(sols)), key=lambda r: ref_sort_key(sols[r]))


# sha256 of solve_equation's output with both backends on the conftest
# equations and on every prescribed pattern at n = 2, 3, 4 with seeds 0-9:
# float.hex of each solution's entry parts and residual, with its kind, and
# of each certificate's reason, base, direction and sample residuals.  These
# are the non-diagonalizable solutions and the families that the document
# digests, all of random diagonalizable sets, do not reach.
SOLVE_BITS_SHA256 = \
    "c282342ccec8540b0515254e77f9374abfd6d6304d35d94d314c07c89018e189"

_FIXTURES = ("eq_four_solutions", "eq_x_squared_zero", "eq_x_squared_identity",
             "eq_x_squared_nilpotent", "eq_x_squared_jordan",
             "eq_shifted_square", "eq_nilpotent_family", "eq_degree_one")


def _hex_parts(m):
    return [part.hex() for z in (m.m11, m.m12, m.m21, m.m22)
            for part in (z.real, z.imag)]


def test_solve_bits_match_the_recorded_digest(request):
    equations = [request.getfixturevalue(name) for name in _FIXTURES]
    equations += [prescribed_equation(pattern, n, seed)[0]
                  for pattern in RANK_PATTERNS + (NILPOTENT_FAMILY,
                                                  NEAR_FAMILY)
                  for n in (2, 3, 4) for seed in range(10)]
    digest = hashlib.sha256()
    for eq in equations:
        for backend in BACKENDS:
            ss = solve_equation(eq, backend=backend)
            out = [(_hex_parts(s.matrix), s.residual.hex(), s.kind)
                   for s in ss.solutions]
            cert = ss.certificate
            if cert is not None:
                out.append((cert.reason, _hex_parts(cert.base),
                            _hex_parts(cert.direction),
                            [r.hex() for r in cert.sample_residuals]))
            digest.update(repr(out).encode())
    assert len(equations) == 308
    assert digest.hexdigest() == SOLVE_BITS_SHA256


class TestSolutionInvariants:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_residuals_within_tolerance(self, eq_four_solutions,
                                        eq_x_squared_jordan, backend):
        for eq in (eq_four_solutions, eq_x_squared_jordan):
            ss = solve_equation(eq, backend=backend)
            _assert_accepted(eq, [s.matrix for s in ss.solutions],
                             [s.residual for s in ss.solutions])

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
                _, rem = poly_divmod(det, char)
                assert max_abs_coeff(rem) <= 1e-6 * max_abs_coeff(det)

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
            _assert_accepted(eq, [cert.member(mu) for mu in cert.samples],
                             cert.sample_residuals)

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


def _assert_accepted(eq, mats, stored):
    """The stored residuals are the batch kernel's, bit for bit, and every
    matrix passes the one acceptance test."""
    x = pack(mats)
    res = residuals(eq, x)
    assert [r.hex() for r in res.tolist()] == [r.hex() for r in stored]
    assert accepted(eq, x, res).all()


def _batch_of_one(eq, x, res=None):
    """Residual, threshold and verdict of one candidate, or of one with the
    given residual, as a batch of one."""
    packed = pack([x])
    res = residuals(eq, packed) if res is None else np.array([res])
    return (float(res[0]), float(residual_tols(eq, packed)[0]),
            bool(accepted(eq, packed, res)[0]))


class TestResidual:
    def test_nan_past_the_first_entry_is_infinite(self, eq_degree_one):
        x = Mat2(0, 1, 0, math.nan)
        # max() keeps its first candidate against a NaN, so max_norm is 0
        assert eval_equation(eq_degree_one, x).max_norm() == 0
        res, _, ok = _batch_of_one(eq_degree_one, x)
        assert res == math.inf
        assert not ok

    def test_overflowing_modulus_is_infinite(self, eq_degree_one):
        # finite entries, but abs() of f(X)'s first entry would overflow
        x = Mat2(complex(1.5e308, 1.5e308), 0, 0, 0)
        assert _batch_of_one(eq_degree_one, x) == (math.inf, math.inf, False)

    def test_overflowing_threshold_accepts_nothing(self, eq_four_solutions):
        # (1 + 1e200)^2 overflows, so the threshold says nothing about X
        x = Mat2.diag(1e200, 1e200)
        assert _batch_of_one(eq_four_solutions, x, 0.0) == \
            (0.0, math.inf, False)


class TestOverflow:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scale", [1e40, 1e50, 1e60])
    def test_huge_coefficients_do_not_converge(self, scaled_random_equation,
                                               scale, backend):
        # the Aberth start circle has radius ~ scale^2: its Horner values
        # overflow, which once read as converged and certified a family;
        # the companion matrix yields a spurious root where M(t) has full
        # rank, which once read as an internal inconsistency
        eq = scaled_random_equation(5, 2, scale)
        with pytest.raises(NonConvergence):
            solve_equation(eq, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degree_16_overflow_is_typed(self, scaled_random_equation,
                                         backend):
        eq = scaled_random_equation(5, 16, 1e20)
        with pytest.raises((NonConvergence, InternalInconsistency)):
            solve_equation(eq, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scale", [1e10, 1e20, 1e60])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_degree_one_keeps_its_solution(self, scaled_random_equation,
                                                 seed, scale, backend):
        # X + A0 = 0 has exactly X = -A0; a rank reference of
        # coeff_scale() * |lam|^n once read M(lam) as zero and certified
        # a family
        eq = scaled_random_equation(seed, 1, scale)
        ss = solve_equation(eq, backend=backend)
        assert ss.count == 1
        assert verify_solution_set(eq, ss).verdict == "pass"
