"""Acceptance suite: every release criterion, one test each, with a
printed pass line per criterion."""

import collections
import itertools
import math
import time

import numpy as np
import pytest

from matpolyeq.construct import construct
from matpolyeq.mat2 import (Mat2, MatrixEquation, eigenvalues, pack,
                            poly_matrix)
from matpolyeq.poly import Poly
from matpolyeq.solver import (accepted, residuals, solution_bound,
                              solve_equation)
from matpolyeq.verify import brute_force_scan, count_cross_check

from helpers import eval_one, max_abs_coeff, poly_divmod

SWEEP_N_MAX = 5


@pytest.fixture(scope="module")
def sweep():
    """Construct and cross-solve every (n, m) cell once, timing each."""
    cells = []
    t_total = time.perf_counter()
    for n in range(1, SWEEP_N_MAX + 1):
        for m in range(1, solution_bound(n) + 1):
            t_cell = time.perf_counter()
            result = construct(n, m, validate=False)
            cross = count_cross_check(result.equation)
            elapsed = time.perf_counter() - t_cell
            cells.append((n, m, result, cross, elapsed))
    return cells, time.perf_counter() - t_total


def _ok(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_1_exact_counts_across_sweep(sweep):
    cells, total = sweep
    assert len(cells) == 95
    worst = 0.0
    for n, m, result, cross, elapsed in cells:
        assert cross.set_a.is_finite, f"(n={n}, m={m}) classified infinite"
        assert cross.count_a == m, f"(n={n}, m={m}) gave {cross.count_a}"
        # the stored residuals are the batch kernel's, bit for bit, and
        # every solution passes the one acceptance test
        x = pack([sol.matrix for sol in cross.set_a.solutions])
        res = residuals(result.equation, x)
        assert [r.hex() for r in res.tolist()] == \
            [sol.residual.hex() for sol in cross.set_a.solutions]
        assert accepted(result.equation, x, res).all(), (n, m)
        assert elapsed < 1.0, f"(n={n}, m={m}) took {elapsed:.2f}s"
        worst = max(worst, elapsed)
    assert total < 60.0
    _ok(1, f"95 cells, total {total:.1f}s, slowest cell {worst * 1e3:.0f}ms")


def test_criterion_2_explicit_special_cases(sweep):
    # m = 4 and 16 take p - 1 singleton values with lambda_1 doubled: one
    # diagonalizable solution per pair of plan values, and lambda_1 I + K
    # with K a nonzero nilpotent
    cells, _ = sweep
    by_key = {(n, m): (result, cross) for n, m, result, cross, _ in cells}
    for key in ((2, 4), (4, 16)):
        result, cross = by_key[key]
        plan, sset = result.plan, cross.set_a
        assert sset.count == key[1]

        def nearest(z):
            i = min(range(plan.p), key=lambda i: abs(z - plan.lambdas[i]))
            assert abs(z - plan.lambdas[i]) <= 1e-8, (key, z)
            return i

        pairs, jordan = [], []
        for sol in sset.solutions:
            if sol.kind == "non_diagonalizable":
                jordan.append(sol.matrix)
                continue
            assert sol.kind == "diagonalizable_distinct"
            values = eigenvalues(pack([sol.matrix]))[0].tolist()
            assert values[0] != values[1]
            pairs.append(tuple(sorted(map(nearest, values))))
        assert sorted(pairs) == list(itertools.combinations(range(plan.p), 2))
        assert len(jordan) == 1
        lam = jordan[0].trace() / 2
        assert abs(lam - plan.lambdas[1]) <= 1e-8, key
        k = jordan[0] - Mat2.identity().scale(lam)
        assert k.max_norm() > 0.1 and (k @ k).max_norm() <= 1e-8, key
    _ok(2, "m=4 and m=16 give every plan pair plus one Jordan solution "
           "at the doubled value")


def test_criterion_3_bound_and_generic_count(sweep):
    cells, _ = sweep
    for n, m, _, cross, _ in cells:
        for sset in (cross.set_a, cross.set_b):
            if sset.is_finite:
                assert sset.count <= solution_bound(n)

    rng = np.random.default_rng(20260809)
    rates = []
    for n in range(1, 5):
        exact = 0
        trials = 200
        for _ in range(trials):
            coeffs = tuple(
                Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
                for _ in range(n))
            sset = solve_equation(MatrixEquation(coeffs))
            if sset.is_finite:
                assert sset.count <= solution_bound(n)
                if sset.count == solution_bound(n):
                    exact += 1
        rate = exact / trials
        rates.append(rate)
        assert rate >= 0.95, f"n={n}: generic rate {rate:.2%}"
    _ok(3, "bound holds on sweep + 800 random equations; generic rates "
           + ", ".join(f"{r:.1%}" for r in rates))


def test_criterion_4_infinite_fixtures(eq_x_squared_identity,
                                       eq_x_squared_zero):
    involutions = solve_equation(eq_x_squared_identity)
    assert not involutions.is_finite
    assert involutions.certificate.reason == "two_dim_space_with_second_value"

    nilpotents = solve_equation(eq_x_squared_zero)
    assert not nilpotents.is_finite
    assert nilpotents.certificate.reason == "nilpotent_affine_family"

    for eq, sset in ((eq_x_squared_identity, involutions),
                     (eq_x_squared_zero, nilpotents)):
        cert = sset.certificate
        assert len(set(cert.samples)) == 3
        for mu in cert.samples:
            member = cert.base + cert.direction.scale(mu)
            assert eval_one(eq, member).max_norm() <= 1e-10
    _ok(4, "both certificates verified to 1e-10")


def test_criterion_5_zero_and_defective_counts(eq_x_squared_nilpotent,
                                               eq_x_squared_jordan):
    empty = solve_equation(eq_x_squared_nilpotent)
    assert empty.is_finite and empty.count == 0

    jordan = solve_equation(eq_x_squared_jordan)
    assert jordan.is_finite and jordan.count == 2
    assert all(s.kind == "non_diagonalizable" for s in jordan.solutions)
    for want in (Mat2(1, 0.5, 0, 1), Mat2(-1, -0.5, 0, -1)):
        assert min(s.matrix.dist(want) for s in jordan.solutions) <= 1e-8
    _ok(5, "no square root of N; both Jordan square roots within 1e-8")


def test_criterion_6_characteristic_divisor(sweep):
    cells, _ = sweep
    checked = 0
    for n, m, result, cross, _ in cells:
        det = poly_matrix(result.equation).det()
        det_scale = max_abs_coeff(det)
        for sol in cross.set_a.solutions:
            char = Poly([sol.matrix.det(), -sol.matrix.trace(), 1])
            _, rem = poly_divmod(det, char)
            assert max_abs_coeff(rem) <= 1e-6 * det_scale, (n, m)
            checked += 1
    assert checked == sum(m for n in range(1, 6)
                          for m in range(1, solution_bound(n) + 1))
    _ok(6, f"remainders below 1e-6 * ||det M|| for {checked} solutions")


def test_criterion_7_oracle_equivalence(sweep, eq_four_solutions,
                                        eq_x_squared_zero,
                                        eq_x_squared_identity,
                                        eq_x_squared_nilpotent,
                                        eq_x_squared_jordan,
                                        eq_shifted_square, eq_degree_one,
                                        eq_nilpotent_family):
    fixtures = [eq_four_solutions, eq_x_squared_zero, eq_x_squared_identity,
                eq_x_squared_nilpotent, eq_x_squared_jordan,
                eq_shifted_square, eq_degree_one, eq_nilpotent_family]
    fixtures += [construct(n, m, validate=False).equation
                 for n, m in [(1, 1), (2, 1), (2, 3), (2, 4), (2, 5),
                              (2, 6), (3, 1), (3, 4), (3, 8), (3, 15)]]
    scanned = 0
    for eq in fixtures:
        sset = solve_equation(eq)
        scan = brute_force_scan(eq)
        scan_infinite = len(scan) > solution_bound(eq.n)
        assert scan_infinite == (not sset.is_finite), "classification differs"
        if sset.is_finite:
            assert len(scan) == sset.count
            for sol in sset.solutions:
                assert min((x.dist(sol.matrix) for x in scan),
                           default=float("inf")) <= 1e-5
        scanned += 1

    cells, _ = sweep
    agreements = sum(1 for _, _, _, cross, _ in cells if cross.agree)
    assert agreements == len(cells)
    _ok(7, f"scan matched on {scanned} fixtures; backends agreed on "
           f"{agreements}/{len(cells)} cells")


def test_criterion_8_zero_value_structure(sweep):
    cells, _ = sweep
    checked = 0
    for n, m, result, cross, _ in cells:
        plan = result.plan
        pbar = plan.pbar
        assert pbar == 2 * n - plan.p + 1 - len(plan.doubled), (n, m)
        zero = [d for d in cross.set_a.critical_data if abs(d.value) <= 1e-6]
        assert len(zero) == 1, (n, m)
        assert zero[0].multiplicity == pbar, (n, m)
        assert zero[0].space_dim == 1, (n, m)
        assert abs(zero[0].basis[0].x) >= 1 - 1e-8, (n, m)
        checked += 1
    assert checked == len(cells)
    _ok(8, f"zero keeps multiplicity 2n-p+1-len(doubled) with direction "
           f"[1,0] on {checked} cells")


def test_criterion_10_construction_beyond_the_sweep():
    # every cell of n = 6..8, and at n = 9..16 the top two counts, every
    # 25th, and the special counts 4 and 16
    cells = [(n, m) for n in range(6, 9)
             for m in range(1, solution_bound(n) + 1)]
    for n in range(9, 17):
        top = solution_bound(n)
        cells += [(n, m) for m in sorted({4, 16, top, top - 1,
                                          *range(1, top + 1, 25)})]
    start = time.perf_counter()
    # construct raises ValidationFailure unless construct.check passes:
    # the aberth set counts m, the companion set agrees with it, and
    # verify_solution_set passes it
    for n, m in cells:
        assert construct(n, m).plan.m == m
    # m = 4 and 16 at every n, on both backends: C(p, 2) diagonalizable
    # solutions and one non-diagonalizable at the doubled value
    special = [(n, 4) for n in range(2, 17)] + [(n, 16) for n in range(4, 17)]
    for n, m in special:
        result = construct(n, m, validate=False)
        cross = count_cross_check(result.equation)
        want = {"diagonalizable_distinct": math.comb(result.plan.p, 2),
                "non_diagonalizable": 1}
        for sset in (cross.set_a, cross.set_b):
            assert collections.Counter(s.kind for s in sset.solutions) \
                == want, (n, m)
    _ok(10, f"{len(cells)} cells with 6 <= n <= 16 self-validated (count "
            f"m, backends agree, verify passes) and {len(special)} cells "
            f"with m = 4, 16 checked on both backends "
            f"in {time.perf_counter() - start:.1f}s")
