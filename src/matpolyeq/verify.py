"""Independent checks on solution sets: residuals, bounds, cross-backend
agreement, and a candidate-space scan for small degrees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mat2 import (Mat2, MatrixEquation, Vec2, close_pairs, det2,
                   eigenvalues, greedy_unique, match_in_order, pack, unpack)
from .poly import CLUSTER_TOL, relative_value
from .solver import (INDEPENDENCE_TOL, SolutionSet, accepted, critical_data,
                     dedupe_tol, rejection_reason, residuals,
                     solution_bound, solve_equation)

_CHAR_DIVISOR_TOL = 1e-6


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of every check on one (equation, solution set) pair."""

    n: int
    coeff_scale: float
    classification: str
    claimed_count: Optional[int]
    bound: int
    residuals: tuple[float, ...]
    max_residual: float
    min_pair_distance: Optional[float]
    residuals_ok: bool
    duplicates_ok: bool
    bound_ok: bool
    eigenvalues_ok: bool
    char_divisor_ok: bool
    certificate_ok: Optional[bool]
    backend_agreement: Optional[bool]
    reasons: tuple[str, ...]

    @property
    def verdict(self) -> str:
        return "fail" if self.reasons else "pass"

    def to_text(self) -> str:
        lines = [
            f"equation: degree {self.n}, coefficient scale {self.coeff_scale:.6g}",
            f"classification: {self.classification}"
            + (f" ({self.claimed_count} solutions)"
               if self.claimed_count is not None else ""),
            f"bound: {self.claimed_count if self.claimed_count is not None else 0}"
            f" <= C(2n,2) = {self.bound}: {'ok' if self.bound_ok else 'FAIL'}",
            f"max residual: {self.max_residual:.3e}:"
            f" {'ok' if self.residuals_ok else 'FAIL'}",
            f"pairwise distinct: {'ok' if self.duplicates_ok else 'FAIL'}"
            + (f" (min distance {self.min_pair_distance:.3e})"
               if self.min_pair_distance is not None else ""),
            f"eigenvalues among critical values:"
            f" {'ok' if self.eigenvalues_ok else 'FAIL'}",
            f"characteristic divides det M(t):"
            f" {'ok' if self.char_divisor_ok else 'FAIL'}",
        ]
        if self.certificate_ok is not None:
            lines.append(f"certificate samples: "
                         f"{'ok' if self.certificate_ok else 'FAIL'}")
        if self.backend_agreement is not None:
            lines.append(f"backend agreement: "
                         f"{'ok' if self.backend_agreement else 'FAIL'}")
        lines.append(f"verdict: {self.verdict}")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def verify_solution_set(eq: MatrixEquation, sset: SolutionSet,
                        backend_agreement: Optional[bool] = None
                        ) -> VerificationReport:
    """Re-check a claimed solution set against the equation itself.

    Residuals, pairwise distinctness, the C(2n,2) bound, eigenvalue
    containment in the critical values, and divisibility of det M(t) by each
    solution's characteristic polynomial (det M(t) vanishing at its
    eigenvalues, relative to the term bound) are all recomputed here;
    nothing is taken from the input set but the matrices (the critical
    values are the equation's own, shared with an earlier solve), read from
    the set's packed batch without building Solution objects.  The
    solutions' residuals come from one call of the batch kernel
    ``mat2.eval_batch``, the certificate samples' from another; the pairwise
    distinctness check and the exact ``min_pair_distance`` come from the
    sorted-window pair kernel (``mat2.close_pairs``), which leaves out
    matrices with non-finite entries; the eigenvalues of all the finite
    matrices come from one call of ``mat2.eigenvalues``, and the divisor
    test from two of ``poly.relative_value``.  Failures are reported, not
    raised.
    """
    reasons = []
    data = critical_data(eq)
    values = np.array([d.value for d in data], dtype=complex)
    eig_tol = CLUSTER_TOL * max(1.0, np.abs(values).max(initial=0.0))
    bound = solution_bound(eq.n)

    x = sset.batch.matrices
    res = residuals(eq, x)
    ok = accepted(eq, x, res)
    residuals_ok = bool(ok.all())
    if not residuals_ok:
        reasons.append(rejection_reason(eq, x, res, ok))
    # the checks below need finite numbers; the other matrices failed above
    finite = np.isfinite(res)

    dedupe = dedupe_tol(data)
    duplicates, min_dist = close_pairs(x[finite], dedupe)
    duplicates_ok = not duplicates
    if not duplicates_ok:
        reasons.append(f"duplicate solutions within {dedupe:.3e}")

    bound_ok = sset.certificate is not None or len(x) <= bound
    if not bound_ok:
        reasons.append(f"{len(x)} solutions exceed the C(2n,2) bound {bound}")

    # one row of eigenvalues per finite matrix; the characteristic
    # polynomial divides det M(t) exactly when det vanishes at both
    # eigenvalues, and at a repeated one its derivative too
    lam = eigenvalues(x[finite])
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.abs(lam[:, :, None] - values)
    eigenvalues_ok = bool((gaps <= eig_tol).any(axis=2).all())
    repeated = lam[:, 0] == lam[:, 1]
    char_divisor_ok = bool(
        (relative_value(eq.det_poly.coeffs, lam) <= _CHAR_DIVISOR_TOL).all()
        and (relative_value(eq.det_poly.derivative().coeffs, lam[repeated, 0])
             <= _CHAR_DIVISOR_TOL).all())
    if not eigenvalues_ok:
        reasons.append("an eigenvalue strays from every critical value")
    if not char_divisor_ok:
        reasons.append("det M(t) is not a multiple of some characteristic")

    certificate_ok = None
    if sset.certificate is not None:
        cert = sset.certificate
        samples = pack([cert.member(mu) for mu in cert.samples])
        sample_ok = accepted(eq, samples, residuals(eq, samples)).tolist()
        certificate_ok = all(sample_ok)
        for mu, good in zip(cert.samples, sample_ok):
            if not good:
                reasons.append(f"certificate sample mu={mu} fails its residual")

    if backend_agreement is False:
        reasons.append("backends disagree")

    return VerificationReport(
        n=eq.n,
        coeff_scale=eq.coeff_scale(),
        classification="finite" if sset.is_finite else "infinite",
        claimed_count=sset.count,
        bound=bound,
        residuals=tuple(res.tolist()),
        max_residual=max(res.tolist(), default=0.0),
        min_pair_distance=min_dist,
        residuals_ok=residuals_ok,
        duplicates_ok=duplicates_ok,
        bound_ok=bound_ok,
        eigenvalues_ok=eigenvalues_ok,
        char_divisor_ok=char_divisor_ok,
        certificate_ok=certificate_ok,
        backend_agreement=backend_agreement,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class CrossCheck:
    set_a: SolutionSet
    set_b: SolutionSet
    count_a: Optional[int]
    count_b: Optional[int]
    agree: bool


def count_cross_check(eq: MatrixEquation) -> CrossCheck:
    """Solve with both root backends and compare the outcomes.

    Agreement means identical classification and, for finite sets, packed
    solution batches that match one to one within ten times the dedupe
    tolerance.
    """
    set_a = solve_equation(eq, backend="aberth")
    set_b = solve_equation(eq, backend="companion")
    agree = set_a.is_finite == set_b.is_finite
    if agree and set_a.is_finite:
        tol = 10 * dedupe_tol(set_a.critical_data)
        agree = match_in_order(set_a.batch.matrices,
                               set_b.batch.matrices, tol)
    return CrossCheck(set_a, set_b, set_a.count, set_b.count, agree)


def brute_force_scan(eq: MatrixEquation) -> list[Mat2]:
    """Independent enumeration of solution candidates for degree <= 3.

    Candidates are reassembled from critical data through a separate code
    path on top of the companion root backend, then filtered by residual:
    least-squares eigenpair fits for pairs of critical values, the scalar
    matrices lam I, and nilpotent offsets lam I + c K(k), K(k) = k k_perp^T.
    The offset directions never use the solver's rank rule: where lam I
    fails the residual test, k is the least right singular vector of
    M(lam), and where it passes, the least right singular vector of M'(lam)
    spans a line lam I + s K(k) of solutions if M'(lam) K(k) vanishes (to
    1e-12 of max(1, |M'(lam)|)); see ``_scalar_candidates``.
    Every actual solution arises from critical pairs, scalar matrices, or
    nilpotent offsets, so this candidate space is exhaustive; more distinct
    survivors than C(2n,2) signals an infinite family.
    """
    if eq.n > 3:
        raise ValueError("the scan is limited to degree <= 3")
    data = critical_data(eq, backend="companion")
    keep_tol = 10 * dedupe_tol(data)

    samples = []
    for d in data:
        if d.space_dim == 1:
            samples.append((d.value, [d.basis[0]]))
        else:
            # enough sampled directions to push the distinct-solution count
            # past C(2n,2)
            spread = [Vec2(1, t) for t in range(1, 7)]
            samples.append((d.value, [Vec2(1, 0), Vec2(0, 1)] + spread))

    fits: list[Mat2] = []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            la, vas = samples[i]
            lb, vbs = samples[j]
            for va in vas:
                for vb in vbs:
                    # same parallelism rule as the solver: vectors closer
                    # than the independence tolerance count as one direction
                    if abs(det2(va.normalized(), vb.normalized())) \
                            <= INDEPENDENCE_TOL:
                        continue
                    x = _fit_eigenpairs(la, va, lb, vb)
                    if x is not None:
                        fits.append(x)
    x = np.concatenate([pack(fits),
                        _scalar_candidates(eq, [d.value for d in data])])
    x = x[accepted(eq, x, residuals(eq, x))]
    # the greedy dedupe runs in order of the entries' parts, m11.real first
    x = x[np.lexsort(x.view(float).T[::-1])]
    return unpack(x[greedy_unique(x, keep_tol)])


def _fit_eigenpairs(la, va, lb, vb) -> Optional[Mat2]:
    """Least-squares fit of X v = lam v for two prescribed eigenpairs."""
    rows = np.array([
        [va.x, va.y, 0, 0],
        [0, 0, va.x, va.y],
        [vb.x, vb.y, 0, 0],
        [0, 0, vb.x, vb.y],
    ], dtype=complex)
    rhs = np.array([la * va.x, la * va.y, lb * vb.x, lb * vb.y], dtype=complex)
    sol, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < 4:
        return None
    return Mat2(*sol)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of ``minimize``: the refined points, one row per start, and
    the number of points evaluated."""

    x: np.ndarray
    nfev: int


# the compass moves: +-1 along each coordinate
_MOVES = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
# every start's first step
_FIRST_STEP = 0.1
# a start stops once its step is below this
_STEP_TOL = 1e-13
# a safeguard only: each iteration halves a step or strictly lowers a cost
_MAX_ITER = 2000


def minimize(cost, x0: np.ndarray) -> SearchResult:
    """Compass search from every row of ``x0`` at once.

    ``cost(points, starts)`` maps an (m, 2) array of points to their m
    costs, where ``starts[i]`` is the row of ``x0`` that point i belongs
    to, so one call can search several cost functions side by side.  Each
    iteration evaluates the four neighbours x +- h e_i of every unfinished
    start; a start moves to its best neighbour when that lowers its cost,
    and halves its step h otherwise.  Steps start at 0.1 and the search
    ends when every one is below 1e-13 (Kolda, Lewis and Torczon,
    "Optimization by direct search", SIAM Review 2003).  Ties go to the
    first neighbour in +x1, -x1, +x2, -x2 order, so the search is
    deterministic, and each start follows the path it would follow alone.
    """
    x = np.array(x0, dtype=float)
    # a copy: x is updated in place, and a cost may keep its argument
    fx = cost(x.copy(), np.arange(len(x)))
    h = np.full(len(x), _FIRST_STEP)
    nfev = len(x)
    for _ in range(_MAX_ITER):
        live = np.flatnonzero(h >= _STEP_TOL)
        if live.size == 0:
            break
        trial = x[live, None, :] + h[live, None, None] * _MOVES
        ft = cost(trial.reshape(-1, 2),
                  np.repeat(live, len(_MOVES))).reshape(live.size, -1)
        nfev += ft.size
        best = ft.argmin(axis=1)
        fbest = ft[np.arange(live.size), best]
        moved = fbest < fx[live]
        x[live[moved]] = trial[moved, best[moved]]
        fx[live[moved]] = fbest[moved]
        h[live[~moved]] *= 0.5
    return SearchResult(x, nfev)


def _offsets(mval: np.ndarray, mder: np.ndarray, tiny: np.ndarray,
             k: np.ndarray):
    """For each row of M(lam) ``mval``, M'(lam) ``mder``, degenerate
    threshold ``tiny`` and unit direction ``k``: the rank-one nilpotent
    K = k k_perp^T, whether ||M'(lam) K||^2 <= tiny, and the offset c that
    minimises ||M(lam) + c M'(lam) K|| (0 where M'(lam) K is degenerate)."""
    kmat = k[:, :, None] * np.array((k[:, 1], -k[:, 0])).T[:, None, :]
    g = mder @ kmat
    gnorm2 = (g.real ** 2 + g.imag ** 2).sum(axis=(1, 2))
    degenerate = gnorm2 <= tiny
    inner = (g.conj() * mval).sum(axis=(1, 2))
    c = np.where(degenerate, 0, -inner / np.where(degenerate, 1.0, gnorm2))
    return kmat, degenerate, c


def _least_right_singular(a: np.ndarray) -> np.ndarray:
    """The unit right singular vector of the least singular value of each
    2x2 matrix of an (m, 2, 2) array, one row per matrix."""
    return np.linalg.svd(a)[2][:, -1].conj()


def _scalar_candidates(eq: MatrixEquation, lams: list[complex]) -> np.ndarray:
    """Candidates lam I + c K(k), K(k) = k k_perp^T a rank-one nilpotent, for
    every critical value lam, packed in value order: lam I if it passes the
    residual test, then members of the family line through it, then the
    offset.

    Since K^2 = 0, f(lam I + c K) = M(lam) + c M'(lam) K, and since K k = 0
    a solution needs M(lam) k = 0.  So where lam I fails the residual test,
    k is the least right singular vector of M(lam), its kernel when M(lam)
    has rank one, and c the least-squares fit of M(lam) + c M'(lam) K = 0:
    at most one offset per value.  Where lam I passes, M(lam) = 0 and an
    offset needs M'(lam) K = 0, which makes the whole line lam I + s K
    solutions.  Its direction is the least right singular vector of
    M'(lam), the exact minimiser of ||M'(lam) K(k)|| over unit k, and the
    line counts where ||M'(lam) K||^2 <= 1e-24 max(1, |M'(lam)|)^2;
    C(2n, 2) + 1 of its members are candidates, so that a family pushes the
    distinct-solution count past the bound.  The residual test alone would
    admit a line whose M'(lam) K is merely small, since its tolerance grows
    with s.
    """
    scalars = pack([Mat2.identity().scale(lam) for lam in lams])
    scalar_ok = accepted(eq, scalars, residuals(eq, scalars))
    mval = pack([eq.matrix.eval(lam) for lam in lams]).reshape(-1, 2, 2)
    mder = pack([eq.matrix_derivative.eval(lam)
                 for lam in lams]).reshape(-1, 2, 2)
    tiny = np.array([1e-24 * max(1.0, np.abs(d).max()) ** 2 for d in mder])
    # a larger offset cannot be residual-verified
    cap = np.array([1e4 * (1.0 + abs(lam)) for lam in lams])

    kmat, degenerate, c = _offsets(mval, mder, tiny,
                                   _least_right_singular(mval))
    offset_ok = ~scalar_ok & ~degenerate & (np.abs(c) <= cap)
    line, flat, _ = _offsets(mval, mder, tiny, _least_right_singular(mder))
    line_ok = scalar_ok & flat
    steps = np.arange(1.0, solution_bound(eq.n) + 2)
    out = [scalars[:0]]
    for v, lam in enumerate(lams):
        base = lam * np.eye(2)
        if scalar_ok[v]:
            out.append(scalars[v:v + 1])
        if line_ok[v]:
            out.append((base + steps[:, None, None] * line[v]).reshape(-1, 4))
        if offset_ok[v]:
            out.append((base + c[v] * kmat[v]).reshape(1, 4))
    return np.concatenate(out)
