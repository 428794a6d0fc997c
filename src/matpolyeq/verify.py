"""Checks on a claimed solution set (the rows of ``CHECKS``) and a scan of
candidates for n <= 3; the scan and several rows take solver decisions."""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .mat2 import (Mat2, MatrixEquation, eigenvalues, greedy_unique,
                   least_distance, match_in_order, pack, unpack)
from .poly import (BACKENDS, CLUSTER_TOL, VANISH_TOL, NonConvergence,
                   relative_value)
from .solver import (CriticalDatum, SolutionSet, _matrix_at, accepted,
                     critical_data, family_samples, pairing, rejection_reason,
                     residuals, solution_bound, solve_sets)

DEDUPE_TOL = 1e-6


def dedupe_tol(data: Sequence[CriticalDatum]) -> float:
    """Distance within which two solutions count as one."""
    return DEDUPE_TOL * (1.0 + max((abs(d.value) for d in data), default=0.0))


class VerificationReport(NamedTuple):
    """Outcome of every check on one (equation, solution set) pair; the
    checks are the rows of ``CHECKS``."""

    n: int
    coeff_scale: float
    claimed_count: Optional[int]
    residuals: tuple[float, ...]
    min_pair_distance: Optional[float]
    residuals_ok: bool
    duplicates_ok: bool
    bound_ok: bool
    eigenvalues_ok: bool
    char_divisor_ok: bool
    certificate_ok: Optional[bool]
    backend_agreement: Optional[bool]
    solve_agreement: Optional[bool]
    reasons: tuple[str, ...]

    @property
    def classification(self) -> str:
        return "infinite" if self.claimed_count is None else "finite"

    @property
    def bound(self) -> int:
        return solution_bound(self.n)

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(f for f, _, _ in CHECKS if getattr(self, f) is False)

    @property
    def verdict(self) -> str:
        return "fail" if self.failed else "pass"

    def to_text(self) -> str:
        checks = ((text, getattr(self, field)) for field, _, text in CHECKS)
        return "\n".join([
            f"equation: degree {self.n}, coefficient scale {self.coeff_scale:.6g}",
            f"classification: {self.classification}"
            + (f" ({self.claimed_count} solutions)"
               if self.claimed_count is not None else ""),
            *(f"{text(self)}: {'ok' if ok else 'FAIL'}"
              for text, ok in checks if ok is not None),
            f"verdict: {self.verdict}",
            *(f"  - {reason}" for reason in self.reasons)])


# the verifier's checks in report order: (report field, document key, its
# line's text); a field that is None did not apply, one that is False failed
CHECKS = (
    ("residuals_ok", "residuals",
     lambda r: f"max residual: {r.max_residual:.3e}"),
    ("duplicates_ok", "duplicates", lambda r: "pairwise distinct" + (
        "" if r.min_pair_distance is None
        else f" (min distance {r.min_pair_distance:.3e})")),
    ("bound_ok", "bound",
     lambda r: f"bound: {r.claimed_count or 0} <= C(2n,2) = {r.bound}"),
    ("eigenvalues_ok", "eigenvalue_containment",
     lambda r: "eigenvalues among critical values"),
    ("char_divisor_ok", "characteristic_divisor",
     lambda r: "characteristic divides det M(t)"),
    ("certificate_ok", "certificate", lambda r: "certificate samples"),
    ("backend_agreement", "backend_agreement", lambda r: "backend agreement"),
    ("solve_agreement", "solve_agreement", lambda r: "solve agreement"))


def verify_solution_set(eq: MatrixEquation, sset: SolutionSet,
                        backend_agreement: Optional[bool] = None,
                        solved: Optional[SolutionSet] = None
                        ) -> VerificationReport:
    """Re-check a claimed solution set against the equation itself, one
    report field per row of ``CHECKS``; failures are reported, not raised.

    Nothing is taken from the set but its packed matrices and a family's
    base and direction.  The critical values are the equation's own,
    shared with an earlier solve: the aberth backend's, or the companion
    backend's where aberth raises NonConvergence, so only a failure of
    both raises.  A solution's characteristic polynomial divides det M(t)
    when det M(t) vanishes at its eigenvalues, relative to the term bound,
    and its derivative too at a repeated one.  The set is pairwise
    distinct when its least pair distance (``mat2.least_distance``, over
    the finite matrices) exceeds the dedupe tolerance.  A family gets the
    solver's own check, ``solver.family_samples``, at parameters it
    chooses (k / count for k = 1..count, count = max(3, n + 1)), not at
    the claim's samples: it fails where a member fails its residual or
    where its direction's largest entry is at most RANK_TOL * max(1, |base|).
    Given ``solved``, a fresh solve, the claim must match it by
    ``sets_agree``: backends that agree say nothing of the claim.
    """
    reasons = []
    try:
        data = critical_data(eq)
    except NonConvergence:
        data = critical_data(eq, backend="companion")
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
    min_dist = least_distance(x[finite])
    duplicates_ok = min_dist is None or min_dist > dedupe
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
        (relative_value(eq.det_poly.coeffs, lam) <= VANISH_TOL).all())
    if char_divisor_ok and repeated.any():
        char_divisor_ok = bool(
            (relative_value(eq.det_poly.derivative().coeffs,
                            lam[repeated, 0]) <= VANISH_TOL).all())
    if not eigenvalues_ok:
        reasons.append("an eigenvalue strays from every critical value")
    if not char_divisor_ok:
        reasons.append("det M(t) is not a multiple of some characteristic")

    certificate_ok = None
    if sset.certificate is not None:
        params, _, sample_ok, moves, flat = family_samples(
            eq, sset.certificate.base, sset.certificate.direction)
        certificate_ok = moves and bool(sample_ok.all())
        if not moves:
            reasons.append(f"certificate direction is zero within {flat:.3e}")
        for mu, good in zip(params, sample_ok.tolist()):
            if not good:
                reasons.append(
                    f"certificate sample mu={mu.real} fails its residual")

    if backend_agreement is False:
        reasons.append("backends disagree")
    solve_agreement = None if solved is None else sets_agree(solved, sset)
    if solve_agreement is False:
        claimed, found = ["infinite" if s.count is None else s.count
                          for s in (sset, solved)]
        reasons.append(f"the claimed set does not match the solve "
                       f"({claimed} claimed, {found} solved)")

    return VerificationReport(
        n=eq.n, coeff_scale=eq.coeff_scale(), claimed_count=sset.count,
        residuals=tuple(res.tolist()), min_pair_distance=min_dist,
        residuals_ok=residuals_ok, duplicates_ok=duplicates_ok,
        bound_ok=bound_ok, eigenvalues_ok=eigenvalues_ok,
        char_divisor_ok=char_divisor_ok, certificate_ok=certificate_ok,
        backend_agreement=backend_agreement, solve_agreement=solve_agreement,
        reasons=tuple(reasons))


class CrossCheck(NamedTuple):
    """Both backends' solution sets of one equation, their counts and
    whether the sets agree."""

    set_a: SolutionSet
    set_b: SolutionSet
    count_a: Optional[int]
    count_b: Optional[int]
    agree: bool


def count_cross_check(eq: MatrixEquation) -> CrossCheck:
    """Solve with each root backend of ``poly.BACKENDS``, in its order, in
    one pass (``solver.solve_sets``); compare the sets with ``sets_agree``.

    The backends share each critical space whose value their roots agree
    on to the bit, and the finite candidates of both sets are one array
    batch; each set is still checked on its own and is bit for bit what
    ``solve_equation`` returns on its backend.  The first failure raises,
    in table order within each step: the critical data, then each set's
    family check, then each set's candidate and bound checks.
    """
    set_a, set_b = solve_sets(eq, tuple(BACKENDS))
    return CrossCheck(set_a, set_b, set_a.count, set_b.count,
                      sets_agree(set_a, set_b))


def sets_agree(a: SolutionSet, b: SolutionSet) -> bool:
    """Whether two solution sets of one equation agree: identical
    classification and, for finite sets, packed solution batches that match
    one to one within ten times the dedupe tolerance of a's critical
    data."""
    if a.is_finite != b.is_finite:
        return False
    return not a.is_finite or match_in_order(
        a.batch.matrices, b.batch.matrices, 10 * dedupe_tol(a.critical_data))


def brute_force_scan(eq: MatrixEquation) -> list[Mat2]:
    """Independent enumeration of solution candidates for degree <= 3.

    Candidates are reassembled from critical data through a separate code
    path on top of the companion root backend, then filtered by residual:
    eigenpair fits for pairs of critical values, the scalar matrices lam I,
    and nilpotent offsets lam I + c K(k), K(k) = k k_perp^T.  Every pair of
    sampled critical vectors of distinct values is fitted by one batched LU
    solve, not the solver's adjugate formula; see ``_fit_eigenpairs``.  A
    line gives its own vector, a plane the C(2n,2) + 2 pairwise independent
    directions (0, 1) and (1, t), t = 0..C(2n,2): at most one of them is
    parallel to any partner vector, so even a single partner gives a plane
    C(2n,2) + 1 fits, as a family line gives C(2n,2) + 1 members.
    The offset directions are singular vectors (see ``_scalar_candidates``).
    From the solver come ``critical_data(eq, "companion")``, whose line
    vectors and plane-or-line choice its rank rule decides
    (``rank_and_nullspace`` in ``solver._critical_space``), M(lam) and
    M'(lam) once per value (``solver._matrix_at``), the parallel rule
    (``solver.pairing``) and the residual test (``solver.accepted``).
    Candidate order is irrelevant: the survivors are sorted by their
    entries' parts before the greedy dedupe at the solver's tolerance.
    Every actual solution arises from critical pairs, scalar matrices, or
    nilpotent offsets, so this candidate space is exhaustive; more distinct
    survivors than C(2n,2) signals an infinite family.
    """
    if eq.n > 3:
        raise ValueError("the scan is limited to degree <= 3")
    data = critical_data(eq, backend="companion")
    plane = ((0, 1),) + tuple((1, t) for t in range(solution_bound(eq.n) + 1))
    samples = [plane if d.space_dim == 2
               else ((d.basis[0].x, d.basis[0].y),) for d in data]
    # the critical value each sampled vector belongs to
    owner = np.repeat(np.arange(len(data)), [len(s) for s in samples])
    vec = np.array([u for s in samples for u in s], complex).reshape(-1, 2)
    lam = np.array([d.value for d in data], complex)
    i, j = np.nonzero(owner[:, None] < owner)
    x = np.concatenate([
        _fit_eigenpairs(lam[owner[i]], vec[i], lam[owner[j]], vec[j]),
        _scalar_candidates(eq, lam)])
    x = x[accepted(eq, x, residuals(eq, x))]
    # the greedy dedupe runs in order of the entries' parts, m11.real first
    x = x[np.lexsort(x.view(float).T[::-1])]
    return unpack(x[greedy_unique(x, dedupe_tol(data))])


def _fit_eigenpairs(la: np.ndarray, va: np.ndarray, lb: np.ndarray,
                    vb: np.ndarray) -> np.ndarray:
    """The packed X with X va = la va and X vb = lb vb for each row of the
    eigenvalues ``la``, ``lb`` and the (k, 2) vectors ``va``, ``vb``, from
    one LU solve of [va vb]^T X^T = [la va, lb vb]^T.  A row whose unit
    vectors ``solver.pairing`` calls parallel is one direction: dropped."""
    # rows [va, vb] of unit vectors
    u = np.array((va, vb))
    u = (u / np.linalg.norm(u, axis=2)[:, :, None]).transpose(1, 0, 2)
    _, keep = pairing(u[:, 0], u[:, 1])
    rows = u[keep]
    rhs = rows * np.array((la, lb)).T[keep, :, None]
    return np.linalg.solve(rows, rhs).transpose(0, 2, 1).reshape(-1, 4)


def minimize(*args, **kwargs):
    """Placeholder: only the benchmark tracer binds this name.  ROADMAP
    item 5 deletes it together with that binding."""
    raise NotImplementedError("verify.minimize")


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


def _scalar_candidates(eq: MatrixEquation, lams: np.ndarray) -> np.ndarray:
    """Candidates lam I + c K(k), K(k) = k k_perp^T a rank-one nilpotent, for
    every critical value lam of the array ``lams``, packed in three groups
    chosen by masks: each lam I that passes the residual test, the members
    of the family lines through them, and the offsets.  The order is
    irrelevant, since the scan sorts its survivors before the dedupe.

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
    base = lams[:, None, None] * np.eye(2)
    scalars = base.reshape(-1, 4)
    scalar_ok = accepted(eq, scalars, residuals(eq, scalars))
    mval, mder = (pack([_matrix_at(eq, order, lam)[0]
                        for lam in lams.tolist()]).reshape(-1, 2, 2)
                  for order in (0, 1))
    tiny = 1e-24 * np.maximum(1.0, np.abs(mder).max(axis=(1, 2))) ** 2
    # a larger offset cannot be residual-verified
    cap = 1e4 * (1.0 + np.abs(lams))

    kmat, degenerate, c = _offsets(mval, mder, tiny,
                                   _least_right_singular(mval))
    offset_ok = ~scalar_ok & ~degenerate & (np.abs(c) <= cap)
    line, flat, _ = _offsets(mval, mder, tiny, _least_right_singular(mder))
    line_ok = scalar_ok & flat
    steps = np.arange(1.0, solution_bound(eq.n) + 2)[:, None, None]
    members = base[line_ok, None] + steps * line[line_ok, None]
    offsets = base[offset_ok] + c[offset_ok, None, None] * kmat[offset_ok]
    return np.concatenate([scalars[scalar_ok], members.reshape(-1, 4),
                           offsets.reshape(-1, 4)])
