import numpy as np
import pytest

from matpolyeq.construct import DomainError
from matpolyeq.mat2 import Mat2, MatrixEquation
from matpolyeq.poly import Poly

from helpers import (diagonal_equation, diagonally_similar, inverse,
                     poly_divmod, seeded_unitary, similar)


def test_divmod():
    p = Poly([4, 0, -5, 0, 1])
    d = Poly([-1, 0, 1])
    q, r = poly_divmod(p, d)
    assert r.is_zero
    assert (q * d + r).coeffs == p.coeffs


def test_divmod_with_remainder():
    p = Poly([1, 2, 3, 4])
    d = Poly([1, 1])
    q, r = poly_divmod(p, d)
    recon = q * d + r
    assert np.allclose(recon.coeffs, p.coeffs)
    assert r.degree == 0


def test_inverse():
    m = Mat2(1, 2, 3, 4)
    assert (m @ inverse(m)).dist(Mat2.identity()) <= 1e-12
    with pytest.raises(ZeroDivisionError):
        inverse(Mat2(1, 1, 1, 1))


def test_diagonal_four_at_degree_two():
    eq = diagonal_equation(4, 2)
    assert eq.coeffs[0].dist(Mat2.diag(-1, -4)) == 0
    assert eq.coeffs[1].dist(Mat2.zero()) == 0


def test_diagonal_four_at_degree_three():
    eq = diagonal_equation(4, 3)
    assert eq.coeffs[2].dist(Mat2.diag(1, 2)) < 1e-12
    assert eq.coeffs[1].dist(Mat2.diag(-1, -4)) < 1e-12
    assert eq.coeffs[0].dist(Mat2.diag(-1, -8)) < 1e-12


def test_diagonal_sixteen_at_degree_four():
    eq = diagonal_equation(16, 4)
    assert eq.coeffs[0].dist(Mat2.diag(9, 64)) < 1e-12
    assert eq.coeffs[2].dist(Mat2.diag(-10, -20)) < 1e-12
    assert eq.coeffs[1].dist(Mat2.zero()) == 0
    assert eq.coeffs[3].dist(Mat2.zero()) == 0


def test_diagonal_degree_floors():
    with pytest.raises(DomainError):
        diagonal_equation(4, 1)
    with pytest.raises(DomainError):
        diagonal_equation(16, 3)
    with pytest.raises(DomainError):
        diagonal_equation(5, 3)


def test_seeded_unitary_and_similar():
    q = seeded_unitary(1)
    assert np.abs(q @ q.conj().T - np.eye(2)).max() <= 1e-15
    assert (seeded_unitary(1) == q).all() and (seeded_unitary(2) != q).any()
    # Q X Q^H keeps every eigenvalue: X^2 = diag(1, 4) keeps its 4 roots
    eq = similar(MatrixEquation((Mat2.diag(-1, -4), Mat2.zero())), q)
    assert eq.coeffs[1] == Mat2.zero()
    lams = np.linalg.eigvals(np.array([[eq.coeffs[0].m11, eq.coeffs[0].m12],
                                       [eq.coeffs[0].m21, eq.coeffs[0].m22]]))
    assert np.allclose(np.sort(lams.real), [-4, -1], atol=1e-14)


@pytest.mark.parametrize("d", [2.0 ** 18, 2.0 ** -20, 1j])
def test_diagonally_similar_is_exact(d):
    a = Mat2(1 - 2j, 0.1 + 0.3j, -0.7 + 5e-300j, 3)
    b = diagonally_similar(MatrixEquation((a, a.scale(2))), d)
    assert b.coeffs[0] == Mat2.diag(1, d) @ a @ Mat2.diag(1, 1 / d)
    assert b.coeffs[1] == b.coeffs[0].scale(2)
    assert diagonally_similar(b, 1 / d).coeffs == (a, a.scale(2))
