"""Build equations with a prescribed finite number of solutions.

Given n and 1 <= m <= C(2n, 2), pick p distinct critical values with
C(p-1, 2) < m <= C(p, 2), group the indices 0..p-1 into blocks so that
exactly m cross-block pairs remain, and place the nonzero values on the unit
circle: every block gets a shared target y and its critical values are
distinct n-th roots of y.  With the first row of M(t) fixed to [t^n, -1],
the critical vectors come out [1, 0] for the value 0 and [1, y_i]
elsewhere, and the second row is read off one polynomial expansion,
det M(t) = t^pbar prod_i (t - lambda_i).  Vectors agree inside a block and
are independent across blocks, so each cross-block pair gives one
diagonalizable solution and nothing else does.  Only m = 4 and m = 16 have
no such block layout; there p drops by one, every block is a singleton,
and lambda_1 is a double root of det M(t).  That adds exactly one
non-diagonalizable solution lambda_1 I + c v v_perp^T, so the count is
C(p, 2) + 1 = m.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

from .mat2 import MAX_DEGREE, Mat2, MatrixEquation, Vec2
from .poly import Poly
from .solver import solution_bound
from .verify import count_cross_check, verify_solution_set


class DomainError(ValueError):
    """The requested (n, m) lies outside the constructible range."""


class ValidationFailure(RuntimeError):
    """The built equation failed ``check``, or its partition its count."""


class ConstructionPlan(NamedTuple):
    """Full witness of the choices behind a constructed equation."""

    n: int
    m: int
    p: int
    pbar: int
    partition: tuple[tuple[int, ...], ...]
    doubled: tuple[int, ...]       # double roots of det M(t), empty mostly
    lambdas: tuple[complex, ...]   # index 0 is the distinguished zero
    ys: tuple[complex, ...]        # ys[0] unused, kept index-aligned
    vectors: tuple[Vec2, ...]


class ConstructionResult(NamedTuple):
    """A constructed equation with the plan that built it."""

    equation: MatrixEquation
    plan: ConstructionPlan


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


def build_partition(m: int) -> tuple[tuple[tuple[int, ...], ...],
                                     tuple[int, ...]]:
    """Blocks over 0..p-1 and the doubled indices, leaving exactly m pairs.

    0 always sits alone.  The equivalent-pair budget C(p, 2) - m = 3a + b
    is spent on a triples (3 pairs each) and b pairs (1 each), in index
    order; when those do not fit in p indices, two triples and the two
    pairs become one quadruple and two pairs (6 + 2 = 3 * 2 + 2 pairs).
    With fewer than two triples to merge (m = 4 and 16 alone) p drops by
    one, every block is a singleton and index 1 is doubled: its
    non-diagonalizable solution makes C(p, 2) + 1 = m.
    """
    p, a, b = choose_p(m)
    sizes = [3] * a + [2] * b
    doubled: tuple[int, ...] = ()
    if 1 + sum(sizes) > p:
        if a >= 2:
            sizes = [3] * (a - 2) + [4, 2, 2]
        else:
            p, sizes, doubled = p - 1, [], (1,)
    blocks: list[tuple[int, ...]] = [(0,)]
    nxt = 1
    for size in sizes:
        blocks.append(tuple(range(nxt, nxt + size)))
        nxt += size
    blocks.extend((i,) for i in range(nxt, p))
    _check_partition(blocks, doubled, m, p)
    return tuple(blocks), doubled


def _check_partition(blocks, doubled, m, p):
    flat = sorted(i for b in blocks for i in b)
    assert flat == list(range(p)), "blocks must partition 0..p-1"
    assert blocks[0] == (0,), "0 must sit in a singleton block"
    assert all((i,) in blocks[1:] for i in doubled), \
        "a doubled value must sit in a nonzero singleton block"
    pairs = math.comb(p, 2) - sum(math.comb(len(b), 2) for b in blocks) \
        + len(doubled)
    if pairs != m:
        raise ValidationFailure(f"partition leaves {pairs} pairs, wanted {m}")
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
    determinant t^pbar prod_i (t - lambda_i), each doubled lambda_i twice:
    its coefficients of t^0 .. t^(n-1) are a21 and those of t^n .. t^(2n-1)
    are a22.  The value 0 then has multiplicity
    pbar = 2n - p + 1 - len(doubled) and critical vector [1, 0].
    """
    n = plan.n
    row2 = Poly.from_roots(
        [(0, plan.pbar)] + [(lam, 1 + (i in plan.doubled))
                            for i, lam in enumerate(plan.lambdas) if i]).coeffs
    return MatrixEquation(tuple(
        Mat2(0, -1 if k == 0 else 0, row2[k], row2[n + k]) for k in range(n)))


def construct(n: int, m: int, validate: bool = True) -> ConstructionResult:
    """An n-th degree equation with exactly m solutions, plus its witness.

    Validates the built equation by ``check``: a failed condition raises
    ValidationFailure rather than returning silently.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if n > MAX_DEGREE:
        raise DomainError(f"n is capped at {MAX_DEGREE}")
    if not 1 <= m <= solution_bound(n):
        raise DomainError(
            f"m must lie in 1..{solution_bound(n)} for n = {n}, got {m}")

    partition, doubled = build_partition(m)
    lambdas, ys, vectors = choose_values(partition, n)
    p = len(lambdas)
    plan = ConstructionPlan(n, m, p, 2 * n - p + 1 - len(doubled), partition,
                            doubled, lambdas, ys, vectors)
    result = ConstructionResult(solve_coefficients(plan), plan)

    if validate:
        _, _, error, cert = check(result.equation, m)
        if error:
            raise ValidationFailure(
                f"construction failed its check: {error}"
                + (f" (infinite: {cert.reason})" if cert else ""))
    return result


def check(eq: MatrixEquation, m: int):
    """The sweep's verdict on an equation built with m solutions, from one
    solve per root backend: the aberth set's count ("inf" if infinite), its
    largest residual, the failed conditions (None, or comma-joined
    ``count:<count>!=<m>`` and ``verify:`` joining the report's failed rows
    of ``verify.CHECKS`` less ``_ok``, by ``+``) and its certificate."""
    cross = count_cross_check(eq)
    report = verify_solution_set(eq, cross.set_a,
                                 backend_agreement=cross.agree)
    count = "inf" if cross.count_a is None else cross.count_a
    rows = "+".join(field.removesuffix("_ok") for field in report.failed)
    failed = [f"count:{count}!={m}"] if count != m else []
    failed += [f"verify:{rows}"] if rows else []
    return (count, report.max_residual, ",".join(failed) or None,
            cross.set_a.certificate)
