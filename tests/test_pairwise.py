"""The array pairwise kernel against the scalar Mat2.dist loops it replaced.

The reference loops below are the solver dedupe, verify's duplicate scan and
verify's set matching as they were written before the kernel; the kernel
must reproduce their kept sets, verdicts and least distance exactly.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq import mat2
from matpolyeq.mat2 import (Mat2, _exact_dists, _lower_bounds, close_pairs,
                            greedy_unique, match_in_order, pack)


def ref_greedy_unique(mats, tol):
    unique = []
    for i, x in enumerate(mats):
        if all(x.dist(mats[u]) > tol for u in unique):
            unique.append(i)
    return unique


def ref_duplicate_scan(mats, tol):
    min_dist = None
    duplicates_ok = True
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            d = mats[i].dist(mats[j])
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


def _check_kernel(mats, tol):
    pairs, least = close_pairs(pack(mats), tol)
    duplicates_ok, min_dist = ref_duplicate_scan(mats, tol)
    assert (not pairs) == duplicates_ok
    assert least == min_dist
    assert pairs == [(i, j) for i in range(len(mats))
                     for j in range(i + 1, len(mats))
                     if mats[i].dist(mats[j]) <= tol]
    assert greedy_unique(pack(mats), tol) == ref_greedy_unique(mats, tol)


@pytest.mark.parametrize("block_rows", [1, 3, 64])
@settings(max_examples=60, deadline=None)
@given(mats=_MATS, tol=_TOLS)
def test_kernel_matches_scalar_loops(block_rows, mats, tol):
    with mock.patch.object(mat2, "_BLOCK_ROWS", block_rows):
        _check_kernel(mats, tol)


@settings(max_examples=40, deadline=None)
@given(mats=_MATS, data=st.data())
def test_tolerance_at_an_actual_distance(mats, data):
    # tol equal to a distance that occurs, and one ulp either side of it
    if len(mats) < 2:
        return
    i = data.draw(st.integers(0, len(mats) - 2))
    j = data.draw(st.integers(i + 1, len(mats) - 1))
    d = mats[i].dist(mats[j])
    for tol in (d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)):
        _check_kernel(mats, tol)


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
    for t in (tol, math.nextafter(tol, 0.0), math.nextafter(tol, 1.0)):
        _check_kernel(mats, t)
    kept = greedy_unique(pack(mats), tol)
    assert len(mats) - 6 <= len(kept) < len(mats)


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


def test_exact_distances_and_bounds():
    # magnitudes from subnormal to 1e300, where hypot rounds differently
    # from numpy's complex abs
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.integers(-320, 300, size=(60, 4))
    entries = (rng.normal(size=(60, 4)) + 1j * rng.normal(size=(60, 4))) * scale
    mats = [Mat2(*row) for row in entries]
    mats += [Mat2(0.5, 0, 0, 0), Mat2(0, 0, 0, 3j), Mat2(5e-324, 0, 0, 0)]
    x = pack(mats)
    low = _lower_bounds(x, x)
    for i, m in enumerate(mats):
        exact = _exact_dists(x[i], x)
        assert exact.tolist() == [m.dist(o) for o in mats]
        assert np.all(low[i] <= exact)
        assert np.all(exact <= mat2._UPPER * low[i])


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
            assert match_in_order(a, b, t) == ref_match_sets(a, b, t)


@settings(max_examples=60, deadline=None)
@given(a=_MATS, data=st.data(), tol=_TOLS)
def test_match_sets_property(a, data, tol):
    b = data.draw(st.permutations(a)) if data.draw(st.booleans()) \
        else data.draw(_MATS)
    with mock.patch.object(mat2, "_BLOCK_ROWS", 5):
        assert match_in_order(a, b, tol) == ref_match_sets(a, b, tol)
