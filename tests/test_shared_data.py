"""What an equation derives from its coefficients alone (M(t), det M(t),
the coefficient scale and the critical data per backend) is computed once
per equation object and shared by solve, cross-check and verify."""

import dataclasses

import pytest

from matpolyeq import solver
from matpolyeq.mat2 import Mat2, MatrixEquation
from matpolyeq.poly import NonConvergence
from matpolyeq.solver import critical_data, solve_equation
from matpolyeq.verify import count_cross_check, verify_solution_set

BACKENDS = ("aberth", "companion")


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
    assert sorted(root_calls) == ["aberth", "companion"]


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
    assert [f.name for f in dataclasses.fields(MatrixEquation)] == ["coeffs"]


def test_derived_polynomials(eq_four_solutions):
    eq = eq_four_solutions
    assert eq.det_poly.coeffs == (4, 0, -5, 0, 1)
    assert eq.matrix_derivative.e22.coeffs == (0, 2)
    assert eq.norm_poly.coeffs == (4, 0, 1)
    assert eq.coeff_scale() == 4.0
