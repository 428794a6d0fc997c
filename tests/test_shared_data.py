"""What an equation derives from its coefficients alone (M(t), det M(t),
the coefficient scale, the critical data per backend, the critical space
per value, and M and M' at each critical value) is computed once per
equation object and shared by solve, cross-check, verify and the scan."""

import inspect
import math
import struct

import numpy as np
import pytest

from matpolyeq import solver
from matpolyeq.construct import construct
from matpolyeq.mat2 import Mat2, MatrixEquation, PolyMat2
from matpolyeq.poly import BACKENDS, NonConvergence
from matpolyeq.solver import (InternalInconsistency, critical_data,
                              solution_bound, solve_equation)
from matpolyeq.verify import (brute_force_scan, count_cross_check,
                              verify_solution_set)

from helpers import (NEAR_FAMILY, NILPOTENT_FAMILY, RANK_PATTERNS,
                     diagonal_equation, prescribed_equation)


@pytest.fixture
def root_calls(monkeypatch):
    """Counts the calls of find_roots made through the solver."""
    calls = []
    real = solver.find_roots

    def spy(p, **kwargs):
        calls.append(kwargs.get("backend"))
        return real(p, **kwargs)

    monkeypatch.setattr(solver, "find_roots", spy)
    return calls


def _fresh(eq):
    return MatrixEquation(tuple(Mat2(a.m11, a.m12, a.m21, a.m22)
                                for a in eq.coeffs))


def test_cross_check_then_verify_finds_roots_twice(scaled_random_equation,
                                                   root_calls):
    eq = scaled_random_equation(3, 4, 1.0)
    cross = count_cross_check(eq)
    report = verify_solution_set(eq, cross.set_a,
                                 backend_agreement=cross.agree)
    assert report.verdict == "pass"
    assert root_calls == list(BACKENDS)


def test_solve_then_verify_finds_roots_once(scaled_random_equation,
                                            root_calls):
    eq = scaled_random_equation(3, 4, 1.0)
    report = verify_solution_set(eq, solve_equation(eq))
    assert report.verdict == "pass"
    assert root_calls == ["aberth"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_memo_matches_a_fresh_computation(scaled_random_equation, backend):
    eq = scaled_random_equation(4, 8, 1.0)
    first = critical_data(eq, backend=backend)
    assert critical_data(eq, backend=backend) is first
    again = critical_data(_fresh(eq), backend=backend)
    assert again is not first
    # bit for bit: values, multiplicities, dimensions and bases
    assert again == first
    assert [(d.value, d.multiplicity, d.space_dim, d.basis) for d in again] \
        == [(d.value, d.multiplicity, d.space_dim, d.basis) for d in first]


def test_equal_equations_do_not_share(eq_four_solutions, root_calls):
    other = _fresh(eq_four_solutions)
    assert other == eq_four_solutions and other is not eq_four_solutions
    critical_data(eq_four_solutions)
    critical_data(other)
    critical_data(eq_four_solutions)
    assert root_calls == ["aberth", "aberth"]
    assert other.matrix is not eq_four_solutions.matrix


def test_failure_is_not_memoized(scaled_random_equation, root_calls):
    eq = scaled_random_equation(5, 2, 1e40)
    for _ in range(2):
        with pytest.raises(NonConvergence):
            critical_data(eq)
    assert root_calls == ["aberth", "aberth"]


def test_equation_identity_is_its_coefficients(eq_four_solutions):
    before = (repr(eq_four_solutions), hash(eq_four_solutions))
    solve_equation(eq_four_solutions)
    count_cross_check(eq_four_solutions)
    other = _fresh(eq_four_solutions)
    assert (repr(eq_four_solutions), hash(eq_four_solutions)) == before
    assert eq_four_solutions == other
    assert hash(eq_four_solutions) == hash(other)
    assert repr(eq_four_solutions) == repr(other)
    assert list(inspect.signature(MatrixEquation).parameters) == ["coeffs"]


def test_derived_polynomials(eq_four_solutions):
    eq = eq_four_solutions
    assert eq.det_poly.coeffs == (4, 0, -5, 0, 1)
    assert eq.norm_poly.coeffs == (4, 0, 1)
    # M'(t) = 2t I and the norm polynomial's derivative 2t, at t = 3
    assert solver._matrix_at(eq, 1, 3 + 0j) == (Mat2.diag(6, 6), 6.0)
    assert eq.coeff_scale() == 4.0


FIXTURES = ("eq_four_solutions", "eq_x_squared_zero", "eq_x_squared_identity",
            "eq_x_squared_nilpotent", "eq_x_squared_jordan",
            "eq_shifted_square", "eq_nilpotent_family", "eq_degree_one")


def _outcome(solve):
    """What a solve gives, exactly: per set the matrices and residuals as
    uint64 bits, and the reprs (exact for doubles and signed zeros) of the
    kinds, the solutions' eigen data, the certificate and the critical
    data; or the raised type and message."""
    try:
        sets = solve()
    except (NonConvergence, InternalInconsistency) as exc:
        return type(exc), str(exc)
    return [(ss.batch.matrices.view(np.uint64).tolist(),
             ss.batch.residuals.view(np.uint64).tolist(),
             repr((ss.batch.kinds, [s.eigen_data for s in ss.solutions],
                   ss.certificate, ss.critical_data)))
            for ss in sets]


def _one_pass(eq):
    cross = count_cross_check(eq)
    return cross.set_a, cross.set_b


def _two_solves(eq):
    # each backend on an equation of its own, its roots before any solve,
    # as the one pass orders its work
    fresh = {backend: _fresh(eq) for backend in BACKENDS}
    for backend in BACKENDS:
        critical_data(fresh[backend], backend=backend)
    return tuple(solve_equation(fresh[backend], backend=backend)
                 for backend in BACKENDS)


def _assert_same_sets(equations):
    differ = [label for label, eq in equations
              if _outcome(lambda: _one_pass(eq))
              != _outcome(lambda: _two_solves(eq))]
    assert differ == []


def test_one_pass_matches_two_solves_on_the_cells():
    _assert_same_sets(
        ((n, m), construct(n, m, validate=False).equation)
        for n in range(1, 7) for m in range(1, solution_bound(n) + 1))


def test_one_pass_matches_two_solves_on_the_fixtures(request):
    _assert_same_sets((name, request.getfixturevalue(name))
                      for name in FIXTURES)


def test_one_pass_matches_two_solves_on_the_patterns():
    _assert_same_sets(
        ((pattern, n, seed), prescribed_equation(pattern, n, seed)[0])
        for pattern in RANK_PATTERNS + (NILPOTENT_FAMILY, NEAR_FAMILY)
        for n in (2, 3, 4) for seed in range(10))


def test_one_pass_matches_two_solves_on_random_equations(
        scaled_random_equation):
    _assert_same_sets(((n, seed), scaled_random_equation(seed, n, 1.0))
                      for n in (2, 4, 8, 16) for seed in range(3))


# the polish leaves its bunch on the companion backend alone at (9, 16),
# on both at (7, 4)
@pytest.mark.parametrize("m, n", [(16, 9), (4, 7)])
def test_one_pass_raises_as_two_solves(m, n):
    eq = diagonal_equation(m, n)
    outcome = _outcome(lambda: _one_pass(eq))
    assert outcome[0] is NonConvergence
    assert outcome == _outcome(lambda: _two_solves(eq))


def test_companion_roots_fail_before_aberth_candidates(monkeypatch):
    # every candidate row fails its residual: aberth's solve alone raises
    # InternalInconsistency, but the cross-check roots both backends first,
    # so the companion backend's NonConvergence comes out
    eq = diagonal_equation(16, 9)
    monkeypatch.setattr(solver, "residuals",
                        lambda eq, x: np.full(len(x), math.inf))
    with pytest.raises(InternalInconsistency, match="candidate residual"):
        solve_equation(_fresh(eq), backend="aberth")
    with pytest.raises(NonConvergence, match="left its bunch"):
        count_cross_check(eq)


def _bits(*zs):
    return tuple(z.hex() for c in zs for z in (c.real, c.imag))


def test_critical_spaces_are_computed_once_per_value(monkeypatch):
    # the backends polish most roots to the same double; each distinct
    # value gets one critical space, shared by both
    eq = _fresh(construct(5, 45).equation)
    values = []
    real = solver.rank_and_nullspace

    def spy(a, scale):
        values.append(a)
        return real(a, scale)

    monkeypatch.setattr(solver, "rank_and_nullspace", spy)
    cross = count_cross_check(eq)
    data = cross.set_a.critical_data + cross.set_b.critical_data
    distinct = {_bits(d.value) for d in data}
    assert len(values) == len(distinct) < len(data)


@pytest.mark.parametrize("source", [
    lambda: construct(6, 4).equation,
    lambda: prescribed_equation("jordan_invertible", 3, 0)[0],
    lambda: prescribed_equation("jordan_rank_one", 4, 0)[0]],
    ids=["cell_6_4", "jordan_invertible", "jordan_rank_one"])
def test_offsets_are_computed_once_per_value_and_vector(monkeypatch, source):
    # an offset is built by one outer product; on these equations the two
    # backends give their offset's value and vector as the same doubles,
    # so both sets' rows share one
    eq = _fresh(source())
    calls = []
    real = solver.outer

    def spy(u, v):
        calls.append((u, v))
        return real(u, v)

    monkeypatch.setattr(solver, "outer", spy)
    cross = count_cross_check(eq)
    rows = [_bits(lam, k.x, k.y)
            for ss in (cross.set_a, cross.set_b)
            for s in ss.solutions if len(s.eigen_data) == 1
            for lam, k in s.eigen_data]
    assert len(calls) == len(set(rows)) < len(rows)


def test_m_and_its_derivative_are_evaluated_once_per_value(request,
                                                           monkeypatch):
    # the benchmark's scan_n3 equations: the constructed cells with n <= 3
    # (the doubled (2, 4) and (3, 4) reach the offset rule) and the scan
    # fixtures (x^2 = 0 reaches the nilpotent family rule); solve,
    # cross-check, verify and scan each read M(lam) and M'(lam) from one
    # evaluation per equation, order and value
    equations = [construct(n, m, validate=False).equation
                 for n in range(1, 4) for m in range(1, solution_bound(n) + 1)]
    equations += [request.getfixturevalue(name) for name in FIXTURES
                  if name != "eq_nilpotent_family"]
    calls = []
    real = PolyMat2.eval

    def spy(self, t):
        calls.append((self, struct.pack("2d", t.real, t.imag)))
        return real(self, t)

    monkeypatch.setattr(PolyMat2, "eval", spy)
    evaluations = repeats = 0
    for eq in map(_fresh, equations):
        calls.clear()
        verify_solution_set(eq, solve_equation(eq))
        count_cross_check(eq)
        brute_force_scan(eq)
        # M(t) and M'(t), each built once
        assert len({id(m) for m, _ in calls}) <= 2
        keys = [(id(m), t) for m, t in calls]
        evaluations += len(keys)
        repeats += len(keys) - len(set(keys))
    assert len(equations) == 29
    assert evaluations > 0 and repeats == 0
