import numpy as np
import pytest

from matpolyeq.mat2 import Mat2
from matpolyeq.poly import Poly

from helpers import inverse, poly_divmod


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
