"""Build equations with a prescribed finite number of solutions.

Given n and 1 <= m <= C(2n, 2), pick p distinct critical values with
C(p-1, 2) < m <= C(p, 2), group the indices 0..p-1 into blocks so that
exactly m cross-block pairs remain, and place the nonzero values on the unit
circle: every block gets a shared target y and its critical values are
distinct n-th roots of y.  With the first row of M(t) fixed to [t^n, -1],
the critical vectors come out [1, 0] for the value 0 and [1, y_i]
elsewhere, and the second row is read off one polynomial expansion,
det M(t) = t^pbar prod_i (t - lambda_i).  Vectors agree inside a block and
are independent across blocks, so the equation has exactly m
diagonalizable solutions and nothing else.  m = 4 and m = 16 escape the
partition counting and use explicit diagonal equations instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .mat2 import MAX_DEGREE, Mat2, MatrixEquation, Vec2
from .poly import Poly
from .solver import SolutionSet, solution_bound, solve_equation

SPECIAL_COUNTS = (4, 16)


class DomainError(ValueError):
    """The requested (n, m) lies outside the constructible range."""


class ValidationFailure(RuntimeError):
    """The built equation did not round-trip to exactly m solutions."""


@dataclass(frozen=True)
class ConstructionPlan:
    """Full witness of the choices behind a constructed equation."""

    n: int
    m: int
    p: int
    pbar: int
    partition: tuple[tuple[int, ...], ...]
    lambdas: tuple[complex, ...]   # index 0 is the distinguished zero
    ys: tuple[complex, ...]        # ys[0] unused, kept index-aligned
    vectors: tuple[Vec2, ...]


@dataclass(frozen=True)
class ConstructionResult:
    equation: MatrixEquation
    plan: Optional[ConstructionPlan]   # None for the m = 4, 16 diagonals
    special_case: Optional[int]
    expected_count: int


def choose_p(m: int) -> tuple[int, int, int]:
    """The unique p with C(p-1, 2) < m <= C(p, 2), plus the split
    C(p, 2) - m = 3a + b with b in {0, 1, 2}."""
    if m < 1:
        raise DomainError("m must be positive")
    p = 1
    while math.comb(p, 2) < m:
        p += 1
    gap = math.comb(p, 2) - m
    return p, gap // 3, gap % 3


def build_partition(m: int) -> tuple[tuple[int, ...], ...]:
    """Blocks over 0..p-1 leaving exactly m cross-block index pairs.

    0 always sits alone.  The equivalent-pair budget C(p, 2) - m = 3a + b
    is spent on a triples (3 pairs each) and b pairs (1 each), in index
    order; when those do not fit in p indices, two triples and the two
    pairs become one quadruple and two pairs (6 + 2 = 3 * 2 + 2 pairs).
    """
    if m in SPECIAL_COUNTS:
        raise DomainError(f"m = {m} is handled by the explicit special case")
    p, a, b = choose_p(m)
    sizes = [3] * a + [2] * b
    if 1 + sum(sizes) > p:
        sizes = [3] * (a - 2) + [4, 2, 2]
    blocks: list[tuple[int, ...]] = [(0,)]
    nxt = 1
    for size in sizes:
        blocks.append(tuple(range(nxt, nxt + size)))
        nxt += size
    blocks.extend((i,) for i in range(nxt, p))
    _check_partition(blocks, m, p)
    return tuple(blocks)


def _check_partition(blocks, m, p):
    flat = sorted(i for b in blocks for i in b)
    assert flat == list(range(p)), "blocks must partition 0..p-1"
    assert blocks[0] == (0,), "0 must sit in a singleton block"
    equivalent = sum(math.comb(len(b), 2) for b in blocks)
    if math.comb(p, 2) - equivalent != m:
        raise ValidationFailure(
            f"partition leaves {math.comb(p, 2) - equivalent} pairs, wanted {m}")
    assert max(len(b) for b in blocks) <= -(-p // 2), "block too large"


def choose_values(partition: Sequence[Sequence[int]], n: int):
    """Place every nonzero critical value on the unit circle.

    Nonzero block b of B (0-based, in partition order) takes the angle
    alpha_b = 2 pi b / (n B) and the target y_b = exp(i n alpha_b), so the
    targets differ across blocks.  Its members are distinct n-th roots of
    y_b, exp(i (alpha_b + 2 pi (j + s_b) / n)), where the shift s_b
    maximises the least distance to the values already placed (the first
    such shift on a tie).
    """
    p = sum(len(b) for b in partition)
    lambdas = [0j] * p
    ys = [0j] * p
    nonzero_blocks = [b for b in partition if b != (0,)]
    placed: list[complex] = []
    for pos, block in enumerate(nonzero_blocks):
        if len(block) > n:
            raise DomainError(f"block of {len(block)} values exceeds n = {n}")
        alpha = 2 * math.pi * pos / (n * len(nonzero_blocks))
        shifts = [[cmath.exp(1j * (alpha + 2 * math.pi * (j + s) / n))
                   for j in range(len(block))] for s in range(n)]
        members = max(shifts, key=lambda lams: min(
            (abs(lam - q) for lam in lams for q in placed), default=math.inf))
        y = cmath.exp(1j * n * alpha)
        for idx, lam in zip(sorted(block), members):
            lambdas[idx] = lam
            ys[idx] = y
        placed.extend(members)
    vectors = [Vec2(1, 0)] + [Vec2(1, ys[i]) for i in range(1, p)]
    return tuple(lambdas), tuple(ys), tuple(vectors)


def solve_coefficients(plan: ConstructionPlan) -> MatrixEquation:
    """Coefficient entries realizing the plan's critical pairs, in closed form.

    Row 1 of M(t) is [t^n, -1], so M(lambda_i) annihilates [1, lambda_i^n] =
    [1, y_i] and det M(t) = m21(t) + t^n m22(t).  Row 2 makes that
    determinant t^pbar prod_i (t - lambda_i): its coefficients of t^0 ..
    t^(n-1) are a21 and those of t^n .. t^(2n-1) are a22.  The value 0 then
    has multiplicity pbar = 2n - p + 1 and critical vector [1, 0].
    """
    n = plan.n
    row2 = Poly.from_roots([(0, plan.pbar)]
                           + [(lam, 1) for lam in plan.lambdas[1:]]).coeffs
    return MatrixEquation(tuple(
        Mat2(0, -1 if k == 0 else 0, row2[k], row2[n + k]) for k in range(n)))


def special_case(m: int, n: int) -> MatrixEquation:
    """Explicit diagonal equations for m = 4 (n >= 2) and m = 16 (n >= 4)."""
    if m == 4:
        if n < 2:
            raise DomainError("m = 4 requires n >= 2")
        top = Poly.from_roots([(1, 1), (-1, n - 1)])
        bottom = Poly.from_roots([(2, 1), (-2, n - 1)])
    elif m == 16:
        if n < 4:
            raise DomainError("m = 16 requires n >= 4")
        top = Poly.from_roots([(3, 1), (-3, 1), (1, 1), (-1, n - 3)])
        bottom = Poly.from_roots([(4, 1), (-4, 1), (2, 1), (-2, n - 3)])
    else:
        raise DomainError(f"no special case for m = {m}")
    coeffs = tuple(Mat2.diag(top.coeffs[i], bottom.coeffs[i]) for i in range(n))
    return MatrixEquation(coeffs)


def construct(n: int, m: int, validate: bool = True) -> ConstructionResult:
    """An n-th degree equation with exactly m solutions, plus its witness.

    Self-validates by solving the built equation; a mismatch raises
    ValidationFailure rather than returning silently.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if n > MAX_DEGREE:
        raise DomainError(f"n is capped at {MAX_DEGREE}")
    if not 1 <= m <= solution_bound(n):
        raise DomainError(
            f"m must lie in 1..{solution_bound(n)} for n = {n}, got {m}")

    if m in SPECIAL_COUNTS:
        eq = special_case(m, n)
        result = ConstructionResult(eq, None, m, m)
    else:
        partition = build_partition(m)
        lambdas, ys, vectors = choose_values(partition, n)
        p = len(lambdas)
        plan = ConstructionPlan(n, m, p, 2 * n - p + 1, partition,
                                lambdas, ys, vectors)
        result = ConstructionResult(solve_coefficients(plan), plan, None, m)

    if validate:
        solved = solve_equation(result.equation)
        _validate_count(solved, m)
    return result


def _validate_count(solved: SolutionSet, m: int) -> None:
    if not solved.is_finite:
        raise ValidationFailure(
            f"construction came out infinite ({solved.certificate.reason})")
    if solved.count != m:
        raise ValidationFailure(
            f"construction yielded {solved.count} solutions, wanted {m}")
