import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matpolyeq import solver
from matpolyeq.construct import construct
from matpolyeq.documents import (report_to_doc, save_doc,
                                 solution_set_from_doc, solution_set_to_doc)
from matpolyeq.mat2 import (E1, E2, Mat2, MatrixEquation, Vec2, det2,
                            eigenvalues, pack, poly_matrix, unpack)
from matpolyeq.poly import BACKENDS, CLUSTER_TOL, NonConvergence, Poly
from matpolyeq.solver import (DIAGONALIZABLE, KINDS, NON_DIAGONALIZABLE,
                              SCALAR, Candidates, CriticalDatum,
                              InternalInconsistency, SolutionSet, accepted,
                              critical_data, detect_infinite, output_order,
                              residual_tols, residuals, solution_bound,
                              solve_equation)
from matpolyeq.verify import (brute_force_scan, count_cross_check,
                              verify_solution_set)

from helpers import (JORDAN_PATTERNS, NEAR_FAMILY, NILPOTENT_FAMILY,
                     RANK_PATTERNS, diagonal_equation, diagonally_similar,
                     eval_one, max_abs_coeff, poly_divmod,
                     prescribed_equation, ref_sort_key, rescaled,
                     rows_of_kind, seeded_unitary, similar)


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
    """The pair rows of ``finite_candidates`` for one set: one per pair of
    distinct critical values with linearly independent critical vectors,
    in (i, j) order, with their residuals."""

    def test_four_diagonal_solutions(self, eq_four_solutions):
        data = critical_data(eq_four_solutions)
        found = rows_of_kind(eq_four_solutions, data, DIAGONALIZABLE)
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
        assert len(rows_of_kind(eq_four_solutions, data,
                                DIAGONALIZABLE)) == 0

    def test_degree_one_assembly(self, eq_degree_one):
        data = critical_data(eq_degree_one)
        mats = unpack(rows_of_kind(eq_degree_one, data,
                                   DIAGONALIZABLE).matrices)
        assert len(mats) == 1
        assert mats[0].dist(Mat2(0, 1, 0, 1)) < 1e-10


class TestScalarSolutions:
    """The scalar rows of ``finite_candidates`` for one set: lam * I for
    every critical value whose critical space is the whole plane."""

    @staticmethod
    def _scalars(eq):
        return rows_of_kind(eq, critical_data(eq), SCALAR)

    def test_nilpotent_square_includes_zero(self, eq_x_squared_zero):
        found = self._scalars(eq_x_squared_zero)
        assert found.kinds == ("scalar",)
        assert unpack(found.matrices)[0].dist(Mat2.zero()) == 0

    def test_four_solution_fixture_empty(self, eq_four_solutions):
        assert len(self._scalars(eq_four_solutions)) == 0

    def test_shifted_square_includes_identity(self, eq_shifted_square):
        mats = unpack(self._scalars(eq_shifted_square).matrices)
        assert len(mats) == 1
        assert mats[0].dist(Mat2.identity()) == 0


class TestFindNondiagonalizable:
    """The offset rows of ``finite_candidates`` for one set: lam*I + N with
    N nonzero nilpotent at each repeated critical value lam with a
    one-dimensional critical space, in data order, with their residuals."""

    def test_jordan_square_roots(self, eq_x_squared_jordan):
        # X^2 = [[1, 1], [0, 1]]: one offset at each of -1 and +1, packed
        # and residual-checked together, in the order of the data
        data = critical_data(eq_x_squared_jordan)
        assert [d.value for d in data] == [-1, 1]
        found = rows_of_kind(eq_x_squared_jordan, data, NON_DIAGONALIZABLE)
        assert found.kinds == ("non_diagonalizable",) * 2
        assert found.pairs.tolist() == [[0, 0], [1, 1]]
        sols = SolutionSet(found, None, data).solutions
        assert [s.eigen_data for s in sols] == [((d.value, d.basis[0]),)
                                                for d in data]
        minus, plus = unpack(found.matrices)
        assert minus.dist(Mat2(-1, -0.5, 0, -1)) < 1e-10
        assert plus.dist(Mat2(1, 0.5, 0, 1)) < 1e-10
        _assert_accepted(eq_x_squared_jordan, [minus, plus],
                         found.residuals.tolist())

    def test_plane_left_to_detect_infinite(self, eq_x_squared_zero):
        # M(0) = 0: the family is detect_infinite's, no offset comes back
        data = critical_data(eq_x_squared_zero)
        assert len(rows_of_kind(eq_x_squared_zero, data,
                                NON_DIAGONALIZABLE)) == 0

    def test_unsolvable_nilpotent_target(self, eq_x_squared_nilpotent):
        data = critical_data(eq_x_squared_nilpotent)
        assert len(rows_of_kind(eq_x_squared_nilpotent, data,
                                NON_DIAGONALIZABLE)) == 0

    def test_simple_roots_skipped(self, eq_four_solutions):
        data = critical_data(eq_four_solutions)
        assert len(rows_of_kind(eq_four_solutions, data,
                                NON_DIAGONALIZABLE)) == 0

    def test_failing_offset_raises(self, monkeypatch, eq_x_squared_jordan):
        # both offsets of X^2 = [[1, 1], [0, 1]] made to fail their
        # residual: the solve must raise, not answer the empty set
        monkeypatch.setattr(solver, "residuals",
                            lambda eq, x: np.full(len(x), math.inf))
        with pytest.raises(InternalInconsistency,
                           match="candidate residual inf exceeds"):
            solve_equation(eq_x_squared_jordan)

    @pytest.mark.parametrize("fixture", ["eq_four_solutions",
                                         "eq_x_squared_zero",
                                         "eq_x_squared_nilpotent"])
    def test_empty_batch_has_the_packed_layout(self, request, fixture):
        # no offset to check: the empty batch still has a packed (0, 4)
        # complex array, (0,) float residuals and (0, 2) int pairs, as a
        # batch of rows has
        eq = request.getfixturevalue(fixture)
        found = rows_of_kind(eq, critical_data(eq), NON_DIAGONALIZABLE)
        assert (found.matrices.dtype, found.matrices.shape) == \
            (np.complex128, (0, 4))
        assert (found.residuals.dtype, found.residuals.shape) == \
            (np.float64, (0,))
        assert (found.pairs.dtype, found.pairs.shape) == \
            (np.dtype(int), (0, 2))
        assert found.kinds == ()


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
                found = rows_of_kind(eq, (datum,), NON_DIAGONALIZABLE)
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

    # M(lam) = 0 exactly makes each of these infinite (a two-dimensional
    # critical value with another value beside it), but the doubles break
    # the family: find_roots keeps lam as one 4-fold root, which has no
    # critical space, so the solve raises on both backends.  The first four
    # were silent wrong answers once: finite, verify passing and the
    # backends agreeing.
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("pattern, n, seed", [
        (NILPOTENT_FAMILY, 5, 31), (NILPOTENT_FAMILY, 8, 25),
        (NEAR_FAMILY, 7, 34), ("zero_rank_one", 8, 10),
        *(("zero_invertible", n, seed) for n, seed in (
            (6, 34), (7, 31), (7, 34), (8, 17), (8, 25), (8, 28), (8, 31),
            (8, 34)))])
    def test_exact_zero_value_fails_loudly(self, pattern, n, seed, backend):
        eq, _, _ = prescribed_equation(pattern, n, seed)
        with pytest.raises(NonConvergence):
            solve_equation(eq, backend=backend)

    # A ratchet on silent wrong answers: every one of these equations is
    # infinite, so each finite set that verify passes is a wrong count with
    # exit code 0.  The bounds are the counts over n = 3..8, seeds 0-37
    # when the ratchet was set; they may only go down.
    @pytest.mark.parametrize("pattern, most", [
        (NILPOTENT_FAMILY, 3), (NEAR_FAMILY, 3), ("zero_rank_one", 1),
        ("zero_invertible", 0), ("zero_zero", 0)])
    def test_silent_finite_answers_do_not_grow(self, pattern, most):
        silent = []
        for n in range(3, 9):
            for seed in range(38):
                eq, _, _ = prescribed_equation(pattern, n, seed)
                try:
                    ss = solve_equation(eq)
                except (NonConvergence, InternalInconsistency):
                    continue
                if ss.is_finite and \
                        verify_solution_set(eq, ss).verdict == "pass":
                    silent.append((n, seed, ss.count))
        assert len(silent) <= most, silent


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

    def test_failing_family_raises(self, monkeypatch, eq_x_squared_zero):
        # X^2 = 0: M'(0) = 0 guarantees the family 0 + mu E12, so samples
        # that fail their residual must raise, not answer the finite {0}.
        # The family's sample batch is the only one of more than one row.
        real = solver.residuals

        def failing(eq, x):
            return np.full(len(x), math.inf) if len(x) > 1 else real(eq, x)

        monkeypatch.setattr(solver, "residuals", failing)
        with pytest.raises(InternalInconsistency, match="family"):
            solve_equation(eq_x_squared_zero)

    def test_samples_survive_the_document(self):
        # f(X(mu)) has degree 4 in mu at n = 4, so 5 parameters decide it
        eq, _, _ = prescribed_equation(NILPOTENT_FAMILY, 4, 0)
        ss = solve_equation(eq)
        cert = ss.certificate
        assert cert.samples == (0.2, 0.4, 0.6, 0.8, 1.0)
        _assert_accepted(eq, [cert.base + cert.direction.scale(mu)
                              for mu in cert.samples],
                         cert.sample_residuals)
        back = solution_set_from_doc(
            json.loads(json.dumps(solution_set_to_doc(ss)))).certificate
        assert back.samples == cert.samples
        assert [r.hex() for r in back.sample_residuals] == \
            [r.hex() for r in cert.sample_residuals]


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

    def test_unknown_backend_is_refused_before_any_work(self,
                                                        eq_x_squared_zero):
        # every root of det M(t) = t^4 is an exact zero, so no backend
        # kernel would run; the name is refused all the same, and neither
        # critical data nor a critical space is stored on the equation
        with pytest.raises(ValueError, match="^unknown backend 'secant'$"):
            solve_equation(eq_x_squared_zero, backend="secant")
        assert eq_x_squared_zero._derived == {}

    # Known defect: the fusion rule of find_roots merges the double roots
    # +-sqrt(c) of det M(t) = (t^2 - c)^2 into one 4-fold root at 0, where
    # M(0) has full rank, so the solve raises.  The set is infinite, as for
    # X^2 = I; mending the rule must turn this test into a pass.
    @pytest.mark.xfail(strict=True, raises=NonConvergence)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("c", [1e-6, 2.0 ** -32], ids=["1e-6", "2^-32"])
    def test_small_scalar_square_infinite(self, c, backend):
        eq = MatrixEquation((Mat2.diag(-c, -c), Mat2.zero()))
        ss = solve_equation(eq, backend=backend)
        assert not ss.is_finite

    # At tiny coefficient scales the kernel vector of M(lam) or M'(lam)
    # underflows: the squared moduli of its row round to 0.  A solve there
    # either returns a set that verifies at the generic count C(2n, 2) or
    # fails with a typed error; solving these equations is the work of the
    # exact scale normalization.
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("k", [0, 100, 200, 300, 320])
    def test_tiny_scales_solve_or_fail_typed(self, scaled_random_equation,
                                             k, n, backend):
        eq = scaled_random_equation(0, n, 10.0 ** -k)
        try:
            ss = solve_equation(eq, backend=backend)
        except (NonConvergence, InternalInconsistency):
            return
        assert ss.count == solution_bound(n)
        assert verify_solution_set(eq, ss).verdict == "pass"

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("eq, value", [
        # the critical space of M(0) = -1e-200 I
        (MatrixEquation((Mat2.diag(-1e-200, -1e-200), Mat2.zero())), "0"),
        # the nilpotent offset at the lone critical value 0: M'(0) = A_1
        (MatrixEquation((Mat2.zero(), Mat2(0, 1e-200, 0, 0))), "0"),
        (MatrixEquation((Mat2.diag(1e-300, 1e-300),)), "-2e-300"),
    ], ids=["critical space", "nilpotent offset", "degree one"])
    def test_underflowing_kernel_vector_names_its_value(self, eq, value,
                                                        backend):
        with pytest.raises(NonConvergence, match=(
                f"^the kernel vector underflows at critical value "
                f"{value}\\+0j$")):
            solve_equation(eq, backend=backend)

    # On these diagonal equations the polish of a simple root leaves its
    # bunch.  Keeping the start gives a wrong finite count (49 at (7, 4))
    # that verify passes on its own with aberth, so the solve must raise.
    # Aberth's polish stays in its bunches at (9, 16).
    @pytest.mark.parametrize("n, m, backend", [
        (n, m, backend)
        for n, m in ((7, 4), (8, 4), (9, 4), (10, 4), (11, 4), (9, 16),
                     (10, 16), (11, 16))
        for backend in BACKENDS if (n, m, backend) != (9, 16, "aberth")])
    def test_polish_that_leaves_its_bunch_raises(self, n, m, backend):
        eq = diagonal_equation(m, n)
        with pytest.raises(NonConvergence, match="left its bunch"):
            solve_equation(eq, backend=backend)

    # All 28 explicit diagonal equations on both backends, the yardstick
    # for roots of high multiplicity: every cell must count m and verify,
    # and the strict markers show any change to the root stage.
    @pytest.mark.parametrize("m, n, backend", [
        pytest.param(m, n, backend, marks=() if n <= (6 if m == 4 else 8)
                     or (m, n, backend) == (16, 9, "aberth") else
                     pytest.mark.xfail(strict=True, raises=NonConvergence,
                                       reason="ROADMAP item 1: roots of "
                                              "multiplicity n - 1 (n - 3 "
                                              "for m = 16) fail the "
                                              "floating-point clustering"))
        for m, n_min in ((4, 2), (16, 4)) for n in range(n_min, 17)
        for backend in BACKENDS])
    def test_explicit_diagonal_cells_count_m(self, m, n, backend):
        eq = diagonal_equation(m, n)
        ss = solve_equation(eq, backend=backend)
        assert ss.count == m
        assert verify_solution_set(eq, ss).verdict == "pass"

    def test_duplicate_candidate_reaches_the_set(self, monkeypatch,
                                                 eq_four_solutions):
        # a pair assembled twice must reach the set, where verify's
        # duplicate check fails it, not be merged where nothing reports it;
        # the batch of every set's candidates is where pairs are assembled
        real = solver.finite_candidates

        def twice(eq, sets):
            found, owner = real(eq, sets)
            rows = [*range(len(found)),
                    found.kinds.index("diagonalizable_distinct")]
            return found.take(rows), owner[rows]

        monkeypatch.setattr(solver, "finite_candidates", twice)
        ss = solve_equation(eq_four_solutions)
        assert ss.count == 5
        report = verify_solution_set(eq_four_solutions, ss)
        assert not report.duplicates_ok
        assert report.verdict == "fail"

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
        # the patterns' non-diagonalizable rows share an eigenvalue with
        # pair rows
        equations += [prescribed_equation(pattern, n, seed)[0]
                      for pattern in RANK_PATTERNS + (NILPOTENT_FAMILY,
                                                      NEAR_FAMILY)
                      for n in (2, 3) for seed in range(10)]
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
    """Critical data with distinct values in (real, imag) order, as
    ``find_roots`` gives them, and (matrix, kind, index pair) rows naming
    it: one index twice (non-diagonalizable or scalar) or two, in either
    order (diagonalizable), some rows drawn twice, in any order."""
    values = {(z.real, z.imag): z
              for z in draw(st.lists(_VALUES, min_size=1, max_size=8))}
    data = tuple(CriticalDatum(values[key], 1, 1, (E1,))
                 for key in sorted(values))
    index = st.integers(0, len(data) - 1)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(KINDS))
        a = draw(index)
        b = draw(index) if kind == "diagonalizable_distinct" else a
        rows.append((Mat2(*(draw(_VALUES) for _ in range(4))), kind, (a, b)))
        if kind == "non_diagonalizable" and draw(st.booleans()):
            # a pair row that shares the lone eigenvalue
            rows.append((Mat2(*(draw(_VALUES) for _ in range(4))),
                         "diagonalizable_distinct", (a, draw(index))))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return data, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(drawn=_solver_rows())
def test_output_order_matches_the_sort_key(drawn):
    # the one lexsort on the index pairs against a stable sort on the
    # per-solution key of eigenvalues, for the rows as one set
    data, rows = drawn
    mats, kinds, pairs = zip(*rows) if rows else ((), (), ())
    batch = Candidates(pack(mats), np.zeros(len(rows)), kinds,
                       np.array(pairs, int).reshape(-1, 2))
    sols = SolutionSet(batch, None, data).solutions
    assert output_order(batch, np.zeros(len(rows), int)).tolist() == sorted(
        range(len(sols)), key=lambda r: ref_sort_key(sols[r]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_critical_values_increase_in_real_then_imag(request, backend,
                                                    scaled_random_equation):
    # output_order sorts rows on their critical-data indices, which orders
    # them as their eigenvalues only while each set's values increase
    equations = _pinned_equations(request)
    equations += [construct(n, m, validate=False).equation
                  for n in range(1, 6)
                  for m in range(1, solution_bound(n) + 1)]
    equations += [scaled_random_equation(seed, n, 1.0)
                  for n in range(1, 17) for seed in range(3)]
    assert len(equations) == 308 + 95 + 48
    for eq in equations:
        keys = [(d.value.real, d.value.imag)
                for d in critical_data(eq, backend=backend)]
        assert all(a < b for a, b in zip(keys, keys[1:])), keys


# sha256 of solve_equation's output with both backends on the conftest
# equations and on every prescribed pattern at n = 2, 3, 4 with seeds 0-9:
# float.hex of each solution's entry parts and residual, with its kind, and
# of each certificate's reason, base, direction and sample residuals.  These
# are the non-diagonalizable solutions and the families that the document
# digests, all of random diagonalizable sets, do not reach.
SOLVE_BITS_SHA256 = \
    "09e68d2c53b438447506031814e522c3c8ffe61e854e599225177c011c82bde7"

_FIXTURES = ("eq_four_solutions", "eq_x_squared_zero", "eq_x_squared_identity",
             "eq_x_squared_nilpotent", "eq_x_squared_jordan",
             "eq_shifted_square", "eq_nilpotent_family", "eq_degree_one")


def _hex_parts(m):
    return [part.hex() for z in (m.m11, m.m12, m.m21, m.m22)
            for part in (z.real, z.imag)]


def _pinned_equations(request):
    equations = [request.getfixturevalue(name) for name in _FIXTURES]
    equations += [prescribed_equation(pattern, n, seed)[0]
                  for pattern in RANK_PATTERNS + (NILPOTENT_FAMILY,
                                                  NEAR_FAMILY)
                  for n in (2, 3, 4) for seed in range(10)]
    return equations


def test_solve_bits_match_the_recorded_digest(request):
    equations = _pinned_equations(request)
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


# sha256 of the text, as save_doc writes it, of the solution document of
# each solve above and of the verify command's report on it (both
# backends' agreement and the claim against the default backend's solve),
# solution document then report, equation by equation and backend by
# backend.  These are the certificates, samples, non-diagonalizable rows
# and empty sets that the random n = 16 document digests do not reach; a
# change to the document writer or its fields moves this pin.
DOCUMENT_TEXT_SHA256 = \
    "339a57c20ee9c6a6d677f6c0f78e1ecb12eec49ef2eb22eb860f76092765688b"


def test_document_text_matches_the_recorded_digest(request, tmp_path):
    path = tmp_path / "doc.json"
    digest = hashlib.sha256()
    for eq in _pinned_equations(request):
        cross = count_cross_check(eq)
        for backend in BACKENDS:
            ss = solve_equation(eq, backend=backend)
            report = verify_solution_set(eq, ss, backend_agreement=cross.agree,
                                         solved=cross.set_a)
            for doc in (solution_set_to_doc(ss), report_to_doc(report)):
                save_doc(doc, path)
                digest.update(path.read_bytes())
    assert digest.hexdigest() == DOCUMENT_TEXT_SHA256


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
                for lam in eigenvalues(pack([s.matrix]))[0]:
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
                lam = eigenvalues(pack([s.matrix]))[0, 0]
                assert mults[round(lam.real, 6)] >= 2

    def test_certificate_samples_verify(self, eq_x_squared_identity,
                                        eq_x_squared_zero):
        for eq in (eq_x_squared_identity, eq_x_squared_zero):
            cert = solve_equation(eq).certificate
            assert len(cert.samples) == 3
            assert len(set(cert.samples)) == 3
            _assert_accepted(eq, [cert.base + cert.direction.scale(mu)
                                  for mu in cert.samples],
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
        assert eval_one(eq_degree_one, x).max_norm() == 0
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

    def test_overflowing_critical_matrix_raises(self, eq_four_solutions,
                                                monkeypatch):
        # an M(lambda) that stops being finite is refused before its rank
        inf = Mat2(math.inf, 0, 0, 0)
        monkeypatch.setattr(solver, "_matrix_at",
                            lambda eq, order, lam: (inf, math.inf))
        with pytest.raises(NonConvergence,
                           match=r"^M\(t\) overflows at critical value "):
            critical_data(eq_four_solutions)

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


def _swapped(eq):
    # similarity by P = [[0, 1], [1, 0]]: P A P
    return MatrixEquation(tuple(Mat2(a.m22, a.m21, a.m12, a.m11)
                                for a in eq.coeffs))


def _conjugated(eq):
    return MatrixEquation(tuple(
        Mat2(*(z.conjugate() for z in (a.m11, a.m12, a.m21, a.m22)))
        for a in eq.coeffs))


def _silent_change(eq, count) -> bool:
    """Whether eq's answer is a count other than ``count`` that nothing
    flags: the backends agree and verify passes.  A raise is loud."""
    try:
        cross = count_cross_check(eq)
    except (NonConvergence, InternalInconsistency):
        return False
    return (cross.count_a != count and cross.agree
            and verify_solution_set(eq, cross.set_a).verdict == "pass")


@pytest.fixture(scope="module")
def small_cells():
    """Every construct cell with n <= 8, its equation and its count m."""
    return [((n, m), construct(n, m, validate=False).equation, m)
            for n in range(1, 9) for m in range(1, solution_bound(n) + 1)]


class TestScaleCovariance:
    """X = 2^j Y, similarity by the swap or by diag(1, d) and entrywise
    conjugation map the solutions of an equation one to one, exactly in
    doubles, so none may change a count.  A change that the backends agree
    on and verify passes is a silent wrong answer, and none is allowed."""

    TRANSFORMS = {"j=-1": (lambda eq: rescaled(eq, -1), 8),
                  "j=2": (lambda eq: rescaled(eq, 2), 8),
                  "j=4": (lambda eq: rescaled(eq, 4), 8),
                  "swap": (_swapped, 6),
                  "conjugate": (_conjugated, 6),
                  "s=18": (lambda eq: diagonally_similar(eq, 2.0 ** 18), 8),
                  "s=-18": (lambda eq: diagonally_similar(eq, 2.0 ** -18),
                            8),
                  "d=i": (lambda eq: diagonally_similar(eq, 1j), 8)}

    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_cells_keep_their_count(self, small_cells, name):
        transform, n_max = self.TRANSFORMS[name]
        silent = [cell for cell, eq, count in small_cells
                  if cell[0] <= n_max and _silent_change(transform(eq), count)]
        assert silent == []

    @pytest.mark.parametrize("j", [3, 4])
    def test_random_equations_keep_their_count(self, scaled_random_equation,
                                               j):
        equations = [scaled_random_equation(s, 8, 1.0) for s in range(5)]
        silent = [s for s, eq in enumerate(equations)
                  if _silent_change(rescaled(eq, j), solve_equation(eq).count)]
        assert silent == []

    # Aberth starts on the Newton-polygon radius of det M(t), which scales
    # with the roots; from the circle 1 + max|c| it spent its 200 sweeps on
    # these top cells at X = Y / 2 and on these random equations.
    @pytest.mark.parametrize("n, m", [(15, 435), (16, 496)])
    def test_halved_top_cells_root_on_aberth(self, n, m):
        eq = rescaled(construct(n, m, validate=False).equation, -1)
        ss = solve_equation(eq, backend="aberth")
        assert ss.count == m
        assert verify_solution_set(eq, ss).verdict == "pass"

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    @pytest.mark.parametrize("seed", range(3))
    def test_scaled_random_equations_root_on_aberth(
            self, scaled_random_equation, seed, scale):
        eq = scaled_random_equation(seed, 16, scale)
        ss = solve_equation(eq, backend="aberth")
        assert ss.count == 496
        assert verify_solution_set(eq, ss).verdict == "pass"

    # At j = 2 the polish of a simple root leaves its bunch on these
    # diagonal equations; keeping its start gives an infinite set whose
    # family verify passes on both backends.  A loud failure or the right
    # count of 16 passes.
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [15, 16])
    def test_rescaled_special_cell_is_not_infinite(self, n, backend):
        eq = rescaled(diagonal_equation(16, n), 2)
        try:
            ss = solve_equation(eq, backend=backend)
        except NonConvergence:
            return
        assert ss.count == 16


def _rotated(a):
    # Q A Q^T for Q the rotation by 0.3
    q = Mat2(math.cos(0.3), -math.sin(0.3), math.sin(0.3), math.cos(0.3))
    return q @ a @ Mat2(q.m11, q.m21, q.m12, q.m22)


def _zero_solutions(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="0 solutions, verify passing: " + reason)


_CONSTRUCTED_LINEAR = construct(1, 1, validate=False).equation


class TestLinearEquation:
    """X + A_0 = 0 has exactly one solution, -A_0, for every A_0: a
    property that needs no contract on what a count means.  The expected
    failures are silent wrong answers."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("a0", [
        pytest.param(Mat2.identity().scale(2 - 1j), id="scalar"),
        pytest.param(Mat2.diag(1, -3j), id="diagonal"),
        pytest.param(Mat2(2, 1, 0, 2), id="jordan"),
        pytest.param(Mat2.zero(), id="zero"),
        pytest.param(Mat2(0, 1, 0, 0), id="nilpotent"),
        *(pytest.param(diagonally_similar(_CONSTRUCTED_LINEAR,
                                           2.0 ** s).coeffs[0],
                       id=f"construct-s={s}") for s in (-18, -10, 10, 20)),
        pytest.param(Mat2(0, -1e6, 0, -1), id="angle-1e-6",
                     marks=_zero_solutions("eigenvectors 1e-6 apart")),
        pytest.param(Mat2(0, -1e3, 0, -1e-3), id="angle-1e-6-scaled",
                     marks=_zero_solutions("eigenvectors 1e-6 apart")),
        pytest.param(_rotated(Mat2(0, -1e8, 0, -1)), id="rotated-angle-1e-8",
                     marks=_zero_solutions("eigenvectors 1e-8 apart, no "
                                           "diagonal scaling helps")),
        pytest.param(Mat2(0, -1, 0, -1e-7), id="eigenvalues-1e-7-apart",
                     marks=_zero_solutions("roots 0 and 1e-7 are simple, "
                                           "but their vectors [1, 0] and "
                                           "[1, 1e-7] have |det2| 1e-7, "
                                           "below INDEPENDENCE_TOL")),
        pytest.param(diagonally_similar(_CONSTRUCTED_LINEAR,
                                         2.0 ** -20).coeffs[0],
                     id="construct-s=-20",
                     marks=_zero_solutions("critical vectors [1, 2^-20] "
                                           "read as parallel")),
    ])
    def test_one_solution(self, a0, backend):
        ss = solve_equation(MatrixEquation((a0,)), backend=backend)
        assert ss.count == 1
        assert ss.solutions[0].matrix.dist(a0.scale(-1)) \
            <= 1e-9 * max(1.0, a0.max_norm())

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(a=st.complex_numbers(max_magnitude=4),
           b=st.complex_numbers(max_magnitude=4),
           p=st.complex_numbers(max_magnitude=0.5),
           q=st.complex_numbers(max_magnitude=0.5))
    def test_one_solution_of_a_well_conditioned_a0(self, a, b, p, q,
                                                    backend):
        # A_0 = -P diag(a, b) P^-1, P = [[1, p], [q, 1]]: eigenvalues at
        # least 0.1 apart, eigenvectors far from parallel (|pq| <= 1/4)
        assume(abs(a - b) >= 0.1)
        d = 1 - p * q
        a0 = Mat2(-(a - p * b * q) / d, -(p * b - a * p) / d,
                  -(q * a - b * q) / d, -(b - q * a * p) / d)
        eq = MatrixEquation((a0,))
        ss = solve_equation(eq, backend=backend)
        assert ss.count == 1
        assert ss.solutions[0].matrix.dist(a0.scale(-1)) \
            <= 1e-9 * (1.0 + a0.max_norm())
        assert verify_solution_set(eq, ss).verdict == "pass"


def test_rounded_unitary_similarity_silent_answers_do_not_grow(small_cells):
    # Y = Q X Q^H with Q from seed 1, rounded to doubles, moves each
    # constructed multiple root of det M(t) off its exact zero tail; at
    # (5, 1) the 9-fold zero root scatters into 9 simple roots, each
    # paired with the value 1.  13 of the 161 cells with n <= 6 came back
    # with a wrong count nothing flags when this ratchet was set; the
    # bound may only go down.
    q = seeded_unitary(1)
    silent = [cell for cell, eq, count in small_cells
              if cell[0] <= 6 and _silent_change(similar(eq, q), count)]
    assert len(silent) <= 13, silent


@pytest.mark.parametrize("s, most", [(20, 166), (-20, 372)])
def test_diagonal_similarity_silent_answers_do_not_grow(small_cells, s,
                                                        most):
    # D = diag(1, 2^s) maps each critical vector [1, y] to [1, 2^s y]; at
    # |s| = 20 the unit vectors of independent pairs meet at about
    # INDEPENDENCE_TOL and read as parallel, on both backends.  Of the 372
    # cells with n <= 8, 166 (s = 20) and 372 (s = -20) came back with a
    # wrong count nothing flags when this ratchet was set; the bounds may
    # only go down.
    silent = [cell for cell, eq, count in small_cells
              if _silent_change(diagonally_similar(eq, 2.0 ** s), count)]
    assert len(silent) <= most, silent
