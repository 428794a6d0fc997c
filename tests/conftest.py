import numpy as np
import pytest

from matpolyeq import Mat2, MatrixEquation


@pytest.fixture
def eq_four_solutions():
    """X^2 = diag(1, 4): exactly the four solutions diag(+-1, +-2)."""
    return MatrixEquation((Mat2.diag(-1, -4), Mat2.zero()))


@pytest.fixture
def eq_x_squared_zero():
    return MatrixEquation((Mat2.zero(), Mat2.zero()))


@pytest.fixture
def eq_x_squared_identity():
    return MatrixEquation((Mat2.diag(-1, -1), Mat2.zero()))


@pytest.fixture
def eq_x_squared_nilpotent():
    """X^2 = [[0,1],[0,0]]: no solutions at all."""
    return MatrixEquation((Mat2(0, -1, 0, 0), Mat2.zero()))


@pytest.fixture
def eq_x_squared_jordan():
    """X^2 = [[1,1],[0,1]]: exactly two non-diagonalizable square roots."""
    return MatrixEquation((Mat2(-1, -1, 0, -1), Mat2.zero()))


@pytest.fixture
def eq_shifted_square():
    """(X - I)^2 = 0."""
    return MatrixEquation((Mat2.identity(), Mat2.identity().scale(-2)))


@pytest.fixture
def eq_nilpotent_family():
    """(X - I)^2 + N (X - I) = 0 with N = c c_perp^T, c = (1, 0.5 + 0.5j):
    det M(t) = (t - 1)^4 with M(1) = 0 and M'(1) = N, and I + s N solves
    it for every s."""
    n = Mat2(0.5 + 0.5j, -1, 0.5j, -0.5 - 0.5j)
    return MatrixEquation((Mat2.identity() - n,
                           n - Mat2.identity().scale(2)))


@pytest.fixture
def eq_degree_one():
    """X + A0 = 0 with the single solution [[0,1],[0,1]]."""
    return MatrixEquation((Mat2(0, -1, 0, -1),))


@pytest.fixture
def scaled_random_equation():
    """Degree-n equation with entries complex(U(-1,1), U(-1,1)) drawn from
    default_rng(seed), as acceptance criterion 3 draws them, times scale."""
    def make(seed, n, scale):
        rng = np.random.default_rng(seed)
        return MatrixEquation(tuple(
            Mat2(*(scale * complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
            for _ in range(n)))
    return make
