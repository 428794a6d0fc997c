"""The batch residual kernel and the batched pair assembly against the
scalar Mat2 arithmetic they replaced.

The references below are written with the Mat2 operators, as the solver,
the verifier and the scan computed f(X) and X = P diag(la, lb) adj(P) /
pairing one candidate at a time; ``eval_equation`` itself now runs on the
kernel, so it cannot serve as the reference.  Values must agree bit for bit,
signed zeros included (compared through their uint64 views); NaN payloads
and signs are not compared, since a NaN entry makes the residual inf either
way.
"""

import cmath
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq.mat2 import (Mat2, MatrixEquation, Vec2, det2, eval_batch,
                            eval_equation, pack, unpack)
from matpolyeq.solver import (INDEPENDENCE_TOL, CriticalDatum, critical_data,
                              enumerate_diagonalizable, residual, residuals)


def ref_eval(eq, x):
    acc = x + eq.coeffs[-1]
    for a in reversed(eq.coeffs[:-1]):
        acc = acc @ x + a
    return acc


def ref_residual(eq, x):
    r = ref_eval(eq, x)
    if not all(map(cmath.isfinite, (r.m11, r.m12, r.m21, r.m22))):
        return math.inf
    try:
        return r.max_norm()
    except OverflowError:
        return math.inf


def ref_assemble(la, va, lb, vb, pairing):
    p = Mat2(va.x, vb.x, va.y, vb.y)
    return (p @ Mat2.diag(la, lb) @ p.adjugate()).scale(1.0 / pairing)


def bits(x):
    """uint64 views of a packed array, every NaN made one value."""
    x = np.array(x, dtype=complex).reshape(-1, 4)
    parts = np.stack((x.real, x.imag))
    parts[np.isnan(parts)] = np.nan
    return parts.view(np.uint64).tolist()


def _scaled(mantissa, exponent):
    return mantissa * 10.0 ** exponent


# mixed magnitudes up to 1e308, signed zeros, infinities and NaN
_REALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308, 5e-324,
                     math.inf, -math.inf, math.nan]),
    st.builds(_scaled, st.floats(-1.0, 1.0), st.integers(-320, 308)),
    st.floats(-1e3, 1e3),
)
_ENTRIES = st.builds(complex, _REALS, _REALS)
_MATS = st.builds(Mat2, _ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES)
# coefficients stay finite and below the scale MatrixEquation admits
_COEFF_REALS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.builds(_scaled, st.floats(-1.0, 1.0),
                                   st.integers(-320, 100)))
_COEFF_ENTRIES = st.builds(complex, _COEFF_REALS, _COEFF_REALS)
_COEFFS = st.builds(Mat2, _COEFF_ENTRIES, _COEFF_ENTRIES, _COEFF_ENTRIES,
                    _COEFF_ENTRIES)


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(_COEFFS, min_size=1, max_size=16),
       mats=st.lists(_MATS, max_size=20))
def test_kernel_matches_scalar_horner(coeffs, mats):
    eq = MatrixEquation(tuple(coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eval_batch(eq, pack(mats))
        res = residuals(eq, pack(mats))
    assert values.shape == (len(mats), 4)
    assert bits(values) == bits(pack([ref_eval(eq, x) for x in mats]))
    assert res.tolist() == [ref_residual(eq, x) for x in mats]


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(_COEFFS, min_size=1, max_size=16), x=_MATS)
def test_one_row_calls(coeffs, x):
    eq = MatrixEquation(tuple(coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, res = eval_equation(eq, x), residual(eq, x)
    assert bits(pack([got])) == bits(pack([ref_eval(eq, x)]))
    assert res == ref_residual(eq, x)


def test_unpack_round_trips_signed_zeros():
    mats = [Mat2(complex(-0.0, 0.0), complex(0.0, -0.0), -1.5, 5e-324j)]
    assert bits(pack(unpack(pack(mats)))) == bits(pack(mats))


_UNIT = st.builds(_scaled, st.floats(-1.0, 1.0), st.integers(-12, 0))
_VALUES = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
_VECS = st.builds(Vec2, st.builds(complex, _UNIT, _UNIT),
                  st.builds(complex, _UNIT, _UNIT))
_DATA = st.lists(st.builds(lambda lam, v: CriticalDatum(lam, 1, 1, (v,)),
                           _VALUES, _VECS), max_size=12)


@settings(max_examples=100, deadline=None)
@given(data=_DATA)
def test_batched_assembly_matches_scalar(data):
    eq = MatrixEquation((Mat2(0.5, -1, 0.25j, 2), Mat2(-1, 0, 1j, 0.5)))
    want = []
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            vi, vj = data[i].basis[0], data[j].basis[0]
            pairing = det2(vi, vj)
            if abs(pairing) > INDEPENDENCE_TOL:
                want.append((ref_assemble(data[i].value, vi, data[j].value,
                                          vj, pairing), (i, j)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = enumerate_diagonalizable(eq, data)
    assert bits(got.matrices) == bits(pack([x for x, _ in want]))
    assert got.residuals.tolist() == [ref_residual(eq, x) for x, _ in want]
    assert list(got.eigen_data) == [
        ((data[i].value, data[i].basis[0]), (data[j].value, data[j].basis[0]))
        for _, (i, j) in want]


def test_assembly_on_random_degree_16_data():
    # the critical data of a random n = 16 equation: 496 pairs
    rng = np.random.default_rng(3)
    eq = MatrixEquation(tuple(
        Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
        for _ in range(16)))
    data = critical_data(eq)
    got = enumerate_diagonalizable(eq, data)
    want = [ref_assemble(di.value, di.basis[0], dj.value, dj.basis[0],
                         det2(di.basis[0], dj.basis[0]))
            for i, di in enumerate(data) for dj in data[i + 1:]]
    assert len(got) == len(want) == 496
    assert bits(got.matrices) == bits(pack(want))
    assert got.residuals.tolist() == [ref_residual(eq, x) for x in want]
