"""The batch residual kernel, the batched pair assembly and the verifier's
batched eigenvalue checks against the scalar code they replaced.

The references below are written with the Mat2 operators, as the solver,
the verifier and the scan computed f(X) and X = P diag(la, lb) adj(P) /
pairing one candidate at a time.  Values must agree bit for bit, signed
zeros included (compared through their uint64 views); NaN payloads and
signs are not compared, since a NaN entry makes the residual inf either
way.  The eigenvalue checks have their own references, further down.
"""

import cmath
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matpolyeq import mat2, poly, solver, verify
from matpolyeq.mat2 import (RANK_TOL, Mat2, MatrixEquation, Vec2, det2,
                            eigenvalues, eval_batch, pack, unpack)
from matpolyeq.poly import CLUSTER_TOL
from matpolyeq.solver import (DIAGONALIZABLE, INDEPENDENCE_TOL,
                              CriticalDatum, Solution, SolutionSet,
                              critical_data, residual_tols, residuals,
                              solve_equation)
from matpolyeq.verify import verify_solution_set

from helpers import ref_residual_tol, rows_of_kind


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


# The strategies above seldom draw an ordinary magnitude, where real
# residuals live and where numpy's abs differs from CPython's (hypot) in the
# last bit on about a third of values.  So every example also runs on fixed
# candidates of norm 1e-2 to 1e2, and the fixed examples add equations drawn
# as acceptance criterion 3 draws them (entries U(-1, 1)) at n = 1, 4, 16.
_MODERATE_SPREAD = np.random.default_rng(29).uniform(-1, 1, (2, 40, 4))
_MODERATE = unpack((_MODERATE_SPREAD[0] + 1j * _MODERATE_SPREAD[1])
                   * 10.0 ** np.arange(-2, 3).repeat(8)[:, None])
_UNIFORM_RNG = np.random.default_rng(20260809)
_UNIFORM_COEFFS = [
    [Mat2(*(complex(a, b) for a, b in _UNIFORM_RNG.uniform(-1, 1, (4, 2))))
     for _ in range(n)]
    for n in (1, 4, 16)]


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(_COEFFS, min_size=1, max_size=16),
       mats=st.lists(_MATS, max_size=20))
@example(coeffs=_UNIFORM_COEFFS[0], mats=[])
@example(coeffs=_UNIFORM_COEFFS[1], mats=[])
@example(coeffs=_UNIFORM_COEFFS[2], mats=[])
def test_kernel_matches_scalar_horner(coeffs, mats):
    eq = MatrixEquation(tuple(coeffs))
    mats = mats + _MODERATE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eval_batch(eq, pack(mats))
        res = residuals(eq, pack(mats))
    assert values.shape == (len(mats), 4)
    assert bits(values) == bits(pack([ref_eval(eq, x) for x in mats]))
    assert res.tolist() == [ref_residual(eq, x) for x in mats]


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(_COEFFS, min_size=1, max_size=16), x=_MATS)
@example(coeffs=_UNIFORM_COEFFS[0], x=_MODERATE[0])
@example(coeffs=_UNIFORM_COEFFS[1], x=_MODERATE[0])
@example(coeffs=_UNIFORM_COEFFS[2], x=_MODERATE[0])
def test_one_row_calls(coeffs, x):
    eq = MatrixEquation(tuple(coeffs))
    for row in [x] + _MODERATE:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = residuals(eq, pack([row]))[0]
        assert res == ref_residual(eq, row)


# on top of the drawn rows: rows whose threshold overflows, NaN and inf
# rows, and rows of moderate norm, where numpy's power and CPython's differ
# in the last bit for about one (1 + norm, n) in twenty
_SPREAD = np.random.default_rng(13).uniform(-1, 1, (2, 64, 4))
_TOL_ROWS = [Mat2.diag(1e200, 1e200), Mat2(complex(1.5e308, 1.5e308), 0, 0, 0),
             Mat2(0, 1, 0, math.nan), Mat2(math.inf, 0, 0, 1j)] + unpack(
    (_SPREAD[0] + 1j * _SPREAD[1]) * 10.0 ** np.arange(-2, 2).repeat(16)[:, None])


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(_COEFFS, min_size=1, max_size=16),
       mats=st.lists(_MATS, max_size=20))
def test_thresholds_match_scalar_power(coeffs, mats):
    # CPython's power, not numpy's, which differs in the last bit
    eq = MatrixEquation(tuple(coeffs))
    mats = mats + _TOL_ROWS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tols = residual_tols(eq, pack(mats))
    assert [t.hex() for t in tols.tolist()] == \
        [ref_residual_tol(eq, x).hex() for x in mats]


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
        got = rows_of_kind(eq, data, DIAGONALIZABLE)
    assert bits(got.matrices) == bits(pack([x for x, _ in want]))
    assert got.residuals.tolist() == [ref_residual(eq, x) for x, _ in want]
    assert got.pairs.tolist() == [[i, j] for _, (i, j) in want]


def test_assembly_on_random_degree_16_data():
    # the critical data of a random n = 16 equation: 496 pairs
    rng = np.random.default_rng(3)
    eq = MatrixEquation(tuple(
        Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
        for _ in range(16)))
    data = critical_data(eq)
    got = rows_of_kind(eq, data, DIAGONALIZABLE)
    want = [ref_assemble(di.value, di.basis[0], dj.value, dj.basis[0],
                         det2(di.basis[0], dj.basis[0]))
            for i, di in enumerate(data) for dj in data[i + 1:]]
    assert len(got) == len(want) == 496
    assert bits(got.matrices) == bits(pack(want))
    assert got.residuals.tolist() == [ref_residual(eq, x) for x in want]


# --- eigenvalue containment and the characteristic divisor ----------------
#
# verify_solution_set runs both checks over all the finite matrices in one
# pass (mat2.eigenvalues, poly.relative_value).  The references below are
# the scalar quadratic formula and a per-solution loop; the flags must
# agree, while the eigenvalues themselves agree to rounding only (numpy's
# complex sqrt is not cmath.sqrt).

def ref_eigenvalues2(a):
    tr, dt = a.trace(), a.det()
    disc = cmath.sqrt(tr * tr - 4 * dt)
    lam1, lam2 = (tr + disc) / 2, (tr - disc) / 2
    if abs(lam1 - lam2) > RANK_TOL * max(1.0, a.max_norm()):
        return tuple(sorted((lam1, lam2), key=lambda z: (z.real, z.imag)))
    return tr / 2, tr / 2


def ref_relative_value(p, t):
    r, terms = max(1.0, abs(t)), 0.0
    for c in reversed(p.coeffs):
        terms = terms * r + abs(c)
    return abs(p(t)) / terms


def ref_checks(eq, mats):
    """(eigenvalues_ok, char_divisor_ok) one solution at a time."""
    values = [d.value for d in critical_data(eq)]
    eig_tol = CLUSTER_TOL * max(1.0, max(abs(v) for v in values))
    det = eq.det_poly
    det_der = det.derivative()
    eig_ok = div_ok = True
    for m, keep in zip(mats, np.isfinite(residuals(eq, pack(mats)))):
        if not keep:
            continue
        lam1, lam2 = ref_eigenvalues2(m)
        for lam in (lam1, lam2):
            if not any(abs(lam - v) <= eig_tol for v in values):
                eig_ok = False
        zeros = (((det, lam1), (det, lam2)) if lam1 != lam2
                 else ((det, lam1), (det_der, lam1)))
        if not all(ref_relative_value(p, lam) <= 1e-6 for p, lam in zeros):
            div_ok = False
    return eig_ok, div_ok


def _random_equation(seed, n):
    rng = np.random.default_rng(seed)
    return MatrixEquation(tuple(
        Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
        for _ in range(n)))


def _flags(eq, mats):
    sset = SolutionSet.of([Solution(m, "diagonalizable_distinct", None, 0.0)
                           for m in mats], None, ())
    report = verify_solution_set(eq, sset)
    return report.eigenvalues_ok, report.char_divisor_ok


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_checks_match_scalar_loop(seed, n):
    eq = _random_equation(seed, n)
    mats = [s.matrix for s in solve_equation(eq).solutions]
    assert _flags(eq, mats) == ref_checks(eq, mats) == (True, True)
    # one solution moved by each offset: from clearly wrong to within
    # the tolerances
    for i, delta in enumerate((1e-2, 1e-3, 1e-6, 1e-9, 1e-12)):
        moved = list(mats)
        k = (7 * i + seed) % len(moved)
        moved[k] = moved[k] + Mat2(delta, -0.5j * delta, 0, delta)
        assert _flags(eq, moved) == ref_checks(eq, moved), (k, delta)


def test_eigenvalues_match_numpy():
    rng = np.random.default_rng(5)
    x = (rng.normal(size=(300, 4)) + 1j * rng.normal(size=(300, 4))) \
        * 10.0 ** rng.integers(-3, 4, size=(300, 1))
    got = eigenvalues(x)
    want = np.linalg.eigvals(x.reshape(-1, 2, 2))
    for row, ref, a in zip(got, want, x):
        scale = max(1.0, np.abs(ref).max())
        err = min(np.abs(row - ref).max(), np.abs(row - ref[::-1]).max())
        assert err <= 1e-9 * scale
        assert (row[0].real, row[0].imag) <= (row[1].real, row[1].imag)
        assert np.allclose(eigenvalues(a[None])[0], ref_eigenvalues2(Mat2(*a)),
                           rtol=1e-12, atol=1e-12 * scale)


def test_eigenvalues_collapse_exactly():
    got = eigenvalues(pack([Mat2(2, 1, 0, 2), Mat2.diag(3j, 3j),
                            Mat2(1, 0, 0, 1 + 1e-12), Mat2.diag(1, -1)]))
    assert got.tolist() == [[2, 2], [3j, 3j], [1 + 5e-13, 1 + 5e-13],
                            [-1, 1]]
    assert eigenvalues(pack([Mat2(2, 1, 0, 2)])).tolist() == [[2, 2]]
    assert eigenvalues(pack([])).shape == (0, 2)


def test_derivative_branch(eq_four_solutions, eq_x_squared_identity):
    # lambda I at a simple critical value of X^2 = diag(1, 4): its repeated
    # eigenvalue is a critical value, but det M'(1) != 0
    assert _flags(eq_four_solutions, [Mat2.identity()]) == (True, False)
    assert ref_checks(eq_four_solutions, [Mat2.identity()]) == (True, False)
    # at the double root 1 of det M(t) = (t^2 - 1)^2 of X^2 = I it passes
    assert _flags(eq_x_squared_identity, [Mat2.identity()]) == (True, True)


@pytest.mark.parametrize("x, flags", [
    (Mat2(1e200, 0, 0, 1e200), (False, False)),
    (Mat2(1e200, 1e200, 1e200, 1e200), (False, False)),
    (Mat2(1e200j, -1e200, 1e200, 3), (False, False)),
    # tr = 0 while the discriminant is inf + nan i: the nan gap collapses
    # the pair to tr / 2 = 0, a critical value, with det M'(0) != 0
    (Mat2(1e200, 0, 0, -1e200), (True, False)),
])
def test_huge_finite_residual_fails_without_warning(eq_degree_one, x, flags):
    # f(X) = X + A0 stays finite, so X reaches the eigenvalue checks,
    # where tr^2 or det overflows; RuntimeWarning is an error under pytest
    sset = SolutionSet.of((Solution(x, "diagonalizable_distinct", None, 0.0),),
                          None, ())
    report = verify_solution_set(eq_degree_one, sset)
    assert math.isfinite(report.max_residual)
    assert not report.residuals_ok
    assert report.verdict == "fail"
    assert (report.eigenvalues_ok, report.char_divisor_ok) == \
        ref_checks(eq_degree_one, [x]) == flags


# sweep batches hold about 17 rows, where numpy's Python-level helpers cost
# more per call than the arithmetic: np.stack about 6 us against np.array's
# 1.4 us, np.triu_indices(7, 1) 23 us against a mask's nonzero() 5.3 us;
# np.max or np.min over a list of arrays stacks the list first, where one
# reduction along an axis of an array needs no list
_SMALL_BATCH_KERNELS = [
    mat2.split, mat2.mul_parts, mat2._near_pairs, mat2.least_distance,
    mat2.greedy_unique, mat2.match_in_order, mat2.eigenvalues,
    solver._parts, solver._assemble, solver.finite_candidates,
    solver.solve_sets,
    verify._offsets, verify.brute_force_scan, verify._fit_eigenpairs,
    verify._scalar_candidates,
    poly._aberth_roots, poly._aberth_powers, poly.relative_value,
    poly._newton_batch, poly._moduli, poly._batch_values, poly._comp_step,
]
_PY_HELPERS = re.compile(
    r"\bnp\.(stack|hstack|triu_indices|flatnonzero|zeros_like|append)\("
    r"|\bnp\.(max|min)\(\[")


@pytest.mark.parametrize("kernel", _SMALL_BATCH_KERNELS,
                         ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_small_batch_kernels_call_no_python_level_helpers(kernel):
    assert _PY_HELPERS.findall(inspect.getsource(kernel)) == []
