"""The array pairwise kernel against the scalar Mat2.dist loops it replaced.

The reference loops below are the solver dedupe, verify's duplicate scan and
verify's set matching as they were written before the kernel; the kernel
must reproduce their kept sets, verdicts and least distance exactly.  The
loops read each distance from a table of Mat2.dist values, so that one set
can be checked at several tolerances for the cost of one all-pairs pass.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq.mat2 import (Mat2, _exact_dists, _near_pairs, close_pairs,
                            greedy_unique, match_in_order, pack)


def dist_table(mats):
    """dist(i, j) = mats[i].dist(mats[j]), each pair computed once."""
    table = {(i, j): mats[i].dist(mats[j]) for i in range(len(mats))
             for j in range(i + 1, len(mats))}
    return lambda i, j: table[min(i, j), max(i, j)]


def ref_greedy_unique(k, dist, tol):
    unique = []
    for i in range(k):
        if all(dist(i, u) > tol for u in unique):
            unique.append(i)
    return unique


def ref_duplicate_scan(k, dist, tol):
    min_dist = None
    duplicates_ok = True
    for i in range(k):
        for j in range(i + 1, k):
            d = dist(i, j)
            min_dist = d if min_dist is None else min(min_dist, d)
            if d <= tol:
                duplicates_ok = False
    return duplicates_ok, min_dist


def ref_match_sets(a, b, tol):
    if len(a) != len(b):
        return False
    remaining = list(b)
    for x in a:
        best = min(range(len(remaining)),
                   key=lambda i: x.dist(remaining[i]), default=None)
        if best is None or x.dist(remaining[best]) > tol:
            return False
        remaining.pop(best)
    return True


# few distinct entry values, so that equal and near-equal matrices are common
_ENTRIES = st.builds(complex,
                     st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-7, 2.5e-7]),
                     st.sampled_from([0.0, 1.0, -3.0, 1e-7]))
_MATS = st.lists(st.builds(Mat2, _ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES),
                 max_size=24)
_TOLS = st.sampled_from([0.0, 1e-7, 2e-7, 1.5e-7, 1.0, 1e-6])


def _check_kernel(mats, tols):
    dist = dist_table(mats)
    k = len(mats)
    for tol in tols:
        pairs, least = close_pairs(pack(mats), tol)
        duplicates_ok, min_dist = ref_duplicate_scan(k, dist, tol)
        assert (not pairs) == duplicates_ok
        assert least == min_dist
        assert pairs == [(i, j) for i in range(k) for j in range(i + 1, k)
                         if dist(i, j) <= tol]
        assert greedy_unique(pack(mats), tol) == ref_greedy_unique(k, dist,
                                                                   tol)


def _around(d):
    """d and one ulp either side of it."""
    return d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)


@pytest.mark.parametrize("shift", [1, 3, 64])
@settings(max_examples=60, deadline=None)
@given(mats=_MATS, tol=_TOLS)
def test_kernel_matches_scalar_loops(shift, mats, tol):
    # and with every real part moved by shift: the near-equal entries then
    # sit away from zero, where the sweep window's ulp allowance grows with |u|
    moved = [Mat2(*(e + shift for e in (m.m11, m.m12, m.m21, m.m22)))
             for m in mats]
    _check_kernel(mats, [tol])
    _check_kernel(moved, [tol])


@settings(max_examples=40, deadline=None)
@given(mats=_MATS, data=st.data())
def test_tolerance_at_an_actual_distance(mats, data):
    # tol equal to a distance that occurs, and one ulp either side of it
    if len(mats) < 2:
        return
    i = data.draw(st.integers(0, len(mats) - 2))
    j = data.draw(st.integers(i + 1, len(mats) - 1))
    _check_kernel(mats, _around(mats[i].dist(mats[j])))


def _planted(seed, k):
    """k well separated random matrices, then near-duplicates of some of
    them at exactly tol, one ulp below and one ulp above it."""
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))
    mats = [Mat2(*row) for row in entries]
    tol = 1e-6
    for idx, offset in ((0, tol), (1, math.nextafter(tol, 0.0)),
                        (2, math.nextafter(tol, 1.0)), (k - 1, tol / 2)):
        base = mats[idx]
        mats.append(Mat2(base.m11 + offset, base.m12, base.m21,
                         base.m22 - 1j * offset / 3))
    # a chain a ~ b ~ c with a, c apart: greedy keeps a and c, drops b
    base = mats[3]
    mats += [Mat2(base.m11 + 0.7 * tol, base.m12, base.m21, base.m22),
             Mat2(base.m11 + 1.4 * tol, base.m12, base.m21, base.m22)]
    order = rng.permutation(len(mats))
    return [mats[i] for i in order], tol


@pytest.mark.parametrize("seed,k", [(0, 10), (1, 40), (2, 100)])
def test_planted_near_duplicates(seed, k):
    mats, tol = _planted(seed, k)
    _check_kernel(mats, _around(tol))
    kept = greedy_unique(pack(mats), tol)
    assert len(mats) - 6 <= len(kept) < len(mats)


@pytest.mark.parametrize("seed,k", [(3, 150), (4, 300)])
def test_spread_sets_at_planted_distances(seed, k):
    # matrices scaled over six decades, so that the rows' windows along the
    # widest part hold very different numbers of rows, and near-duplicates
    # of some of them about tol away; tol at each planted distance and one
    # ulp either side of it
    rng = np.random.default_rng(seed)
    entries = (rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))) \
        * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
    mats = [Mat2(*row) for row in entries.tolist()]
    tol = 1e-6
    base = [mats[i] for i in rng.choice(k, 6, replace=False)]
    near = [Mat2(m.m11 + tol, m.m12 - 1j * tol, m.m21, m.m22) for m in base]
    mats += near
    mats = [mats[i] for i in rng.permutation(len(mats))]
    _check_kernel(mats, [t for m, n in zip(base, near)
                         for t in _around(m.dist(n))] + list(_around(tol)))


@pytest.mark.parametrize("seed", [0, 1])
def test_heavy_ties_on_the_widest_part(seed):
    # m11.real spans 0..4 and takes five values only; the other parts vary
    # in ranges below 1e-5 with ties of their own, so each window holds a
    # fifth of the set and most pairs tie along the sweep
    rng = np.random.default_rng(seed)
    k = 120
    entries = (rng.integers(0, 5, size=(k, 4)) * np.array([1.0, 0, 0, 0])
               + rng.integers(0, 3, size=(k, 4)) * 4e-6
               + 1j * rng.integers(0, 2, size=(k, 4)) * 3e-6)
    mats = [Mat2(*row) for row in entries.tolist()]
    mats += mats[:5]
    dist = dist_table(mats)
    occurring = sorted({dist(0, j) for j in range(1, len(mats))})[:3]
    _check_kernel(mats, [0.0, 1e-6, 1e-5]
                  + [t for d in occurring for t in _around(d)])


def test_small_sets():
    a, b = Mat2(1, 2, 3, 4), Mat2(1, 2, 3, 4 + 1e-9)
    assert close_pairs(pack([]), 1.0) == ([], None)
    assert close_pairs(pack([a]), 1.0) == ([], None)
    assert close_pairs(pack([a, b]), 1e-8) == ([(0, 1)], a.dist(b))
    assert close_pairs(pack([a, b]), 1e-10) == ([], a.dist(b))
    assert greedy_unique(pack([]), 1.0) == []
    assert greedy_unique(pack([a]), 1.0) == [0]
    assert greedy_unique(pack([a, b]), 1e-8) == [0]
    assert pack([]).shape == (0, 4)


def test_non_finite_rows_are_never_paired():
    # a NaN row used to pair every finite row with itself at distance 0,
    # and the dedupe then dropped the distinct finite matrices after it
    nan_row = Mat2(complex(math.nan, 0), 0, 0, 0)
    inf_row = Mat2(0, complex(0, math.inf), 0, 0)
    a, c = Mat2(1, 2, 3, 4), Mat2(1, 2, 3, 5)
    for rows in ([nan_row, a, c], [a, inf_row, c, nan_row]):
        x = pack(rows)
        assert close_pairs(x, 1e-6) == ([], a.dist(c))
        assert greedy_unique(x, 1e-6) == list(range(len(rows)))
    x = pack([nan_row, a, inf_row, a])
    assert close_pairs(x, 1e-6) == ([(1, 3)], 0.0)
    assert greedy_unique(x, 1e-6) == [0, 1, 2]
    # at an infinite tolerance every part difference passes, inf - 1 too
    assert close_pairs(pack([a, inf_row, c]), math.inf) == ([(0, 2)],
                                                            a.dist(c))
    assert greedy_unique(pack([a, inf_row, c]), math.inf) == [0, 1]
    assert not match_in_order(pack([a, inf_row]), pack([inf_row, c]),
                              math.inf)
    # no finite pair: no least distance over finite pairs
    assert close_pairs(pack([nan_row, a]), 1.0) == ([], math.inf)
    assert close_pairs(pack([nan_row, inf_row]), 1.0) == ([], math.inf)
    assert not match_in_order(pack([nan_row]), pack([nan_row]), 1.0)
    assert not match_in_order(pack([a, nan_row]), pack([a, a]), 1.0)


def test_empty_sweep_window():
    # a window that holds no pair: cut < 0, fewer than two finite rows, or
    # rows farther apart along the sweep part than the cut
    a, b, c = Mat2(1, 2, 3, 4), Mat2(1, 2, 3, 4 + 1e-9), Mat2(9, 2, 3, 4)
    nan_row = Mat2(complex(math.nan, 0), 0, 0, 0)
    inf_row = Mat2(0, complex(0, math.inf), 0, 0)
    # m11.real has the widest range and steps by 10
    far = [Mat2(10.0 * k, -3.0 * k, 1j * k, 2) for k in range(5)]
    for x, cut in ((pack([a, b, c]), -1.0), (pack(far), 1.0),
                   (pack([a, c]), 7.9), (pack([a]), 1.0), (pack([]), 1.0),
                   (pack([nan_row, a, inf_row]), 1.0)):
        i, j, d = _near_pairs(x, cut)
        assert (i.dtype, j.dtype, d.dtype) == (np.intp, np.intp, np.float64)
        assert i.shape == j.shape == d.shape == (0,)
    for mats in ([a], far, [a, c]):
        _check_kernel(mats, [0.0, 1e-9, 1.0])
        for tol in (0.0, 1.0):
            assert match_in_order(pack(mats), pack(mats[::-1]), tol) == \
                ref_match_sets(mats, mats[::-1], tol)
            assert match_in_order(pack(mats), pack(far[:len(mats)]), tol) \
                == ref_match_sets(mats, far[:len(mats)], tol)
    # non-finite rows are never paired, so a set of them has no finite pair
    for mats in ([nan_row], [nan_row, inf_row], [inf_row, nan_row, inf_row]):
        x = pack(mats)
        assert close_pairs(x, 1.0) == ([], None if len(mats) < 2
                                       else math.inf)
        assert greedy_unique(x, 1.0) == list(range(len(mats)))
        assert not match_in_order(x, x, 1.0)


def test_exact_distances_and_bounds():
    # magnitudes from subnormal to 1e300, where hypot rounds differently
    # from numpy's complex abs
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.integers(-320, 300, size=(60, 4))
    entries = (rng.normal(size=(60, 4)) + 1j * rng.normal(size=(60, 4))) * scale
    mats = [Mat2(*row) for row in entries]
    mats += [Mat2(0.5, 0, 0, 0), Mat2(0, 0, 0, 3j), Mat2(5e-324, 0, 0, 0)]
    x = pack(mats)
    parts = x.view(float)
    # the kernel's bound: the largest |real or imaginary part| difference
    low = np.abs(parts[:, None, :] - parts[None, :, :]).max(axis=2)
    for i, m in enumerate(mats):
        exact = _exact_dists(x[i], x)
        assert exact.tolist() == [m.dist(o) for o in mats]
        assert np.all(low[i] <= exact)
    # the sweep keeps exactly the pairs whose bound is within the cut, each
    # with its exact distance; cuts at occurring bounds and an ulp below
    upper = np.triu_indices(len(mats), 1)
    cuts = [0.0, 1e-300, 1.0, 1e300] + [
        t for c in np.sort(low[upper])[::97].tolist()
        for t in (c, math.nextafter(c, 0.0))]
    for cut in cuts:
        i, j, d = _near_pairs(x, cut)
        assert sorted(zip(i.tolist(), j.tolist())) == [
            (a, b) for a, b in zip(*upper) if low[a, b] <= cut]
        assert d.tolist() == [mats[a].dist(mats[b]) for a, b in zip(i, j)]
    _check_kernel(mats, [0.0, 1e-300, 1.0, 1e300])


def _match_cases(seed):
    rng = np.random.default_rng(seed)
    base = [Mat2(*row) for row in rng.normal(size=(12, 4))]
    tol = 1e-5
    shifted = [Mat2(m.m11 + tol * rng.uniform(0, 1.2), m.m12, m.m21, m.m22)
               for m in base]
    yield base, list(reversed(base)), tol
    yield base, [shifted[i] for i in rng.permutation(len(base))], tol
    yield base, base[:-1], tol
    # ties: b holds two identical partners for two identical a entries
    yield [base[0], base[0], base[1]], [base[1], base[0], base[0]], tol
    # greedy order decides: a[0] takes the partner a[1] needs, although
    # the other assignment would match both within tol
    near, far = base[0], Mat2(base[0].m11 + 1.3 * tol, base[0].m12,
                              base[0].m21, base[0].m22)
    yield [Mat2(near.m11 + 0.4 * tol, near.m12, near.m21, near.m22), near], \
        [far, near], tol
    yield [], [], tol


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_match_sets_matches_scalar_loop(seed):
    for a, b, tol in _match_cases(seed):
        for t in (tol, 0.0, 1.0):
            assert match_in_order(pack(a), pack(b), t) == \
                ref_match_sets(a, b, t)


@settings(max_examples=60, deadline=None)
@given(a=_MATS, data=st.data(), tol=_TOLS)
def test_match_sets_property(a, data, tol):
    b = data.draw(st.permutations(a)) if data.draw(st.booleans()) \
        else data.draw(_MATS)
    assert match_in_order(pack(a), pack(b), tol) == \
        ref_match_sets(a, b, tol)


@settings(max_examples=60, deadline=None)
@given(a=_MATS, data=st.data())
def test_match_at_an_actual_distance(a, data):
    # tol equal to a distance between the sets, and one ulp either side
    if not a:
        return
    b = data.draw(st.lists(st.sampled_from(a), min_size=len(a),
                           max_size=len(a)))
    if data.draw(st.booleans()):
        b = [Mat2(m.m11 + 1e-7, m.m12, m.m21, m.m22 - 2.5e-7j) for m in b]
    d = a[data.draw(st.integers(0, len(a) - 1))].dist(
        b[data.draw(st.integers(0, len(b) - 1))])
    for tol in _around(d):
        assert match_in_order(pack(a), pack(b), tol) == \
        ref_match_sets(a, b, tol)
