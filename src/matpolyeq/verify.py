"""Independent checks on solution sets: residuals, bounds, cross-backend
agreement, and a candidate-space scan for small degrees."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .mat2 import (Mat2, MatrixEquation, Vec2, close_pairs, det2,
                   eigenvalues2, greedy_unique, match_in_order, outer, pack)
from .poly import CLUSTER_TOL, Poly
from .solver import (INDEPENDENCE_TOL, SolutionSet, accepted, critical_data,
                     dedupe_tol, residual_ok, residual_tols, residuals,
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
    values are the equation's own, shared with an earlier solve).  The
    solutions' residuals come from one call of the batch kernel
    ``mat2.eval_batch``, the certificate samples' from another; the pairwise
    distinctness check and ``min_pair_distance`` come from the pairwise
    kernel (``mat2.close_pairs``); eigenvalues come from
    ``mat2.eigenvalues2``, without eigenvectors.  Failures are reported, not
    raised.
    """
    reasons = []
    data = critical_data(eq)
    values = [d.value for d in data]
    max_lam = max((abs(v) for v in values), default=0.0)
    det = eq.det_poly
    det_der = det.derivative()
    bound = solution_bound(eq.n)

    mats = [s.matrix for s in sset.solutions]
    x = pack(mats)
    res = residuals(eq, x)
    ok = accepted(eq, x, res)
    residuals_ok = bool(ok.all())
    if not residuals_ok:
        first = int(np.argmin(ok))
        reasons.append(f"residual {res[first]:.3e} exceeds "
                       f"{residual_tols(eq, x[first:first + 1])[0]:.3e}")
    # the checks below need finite numbers; the other matrices failed above
    finite = np.isfinite(res)

    dedupe = dedupe_tol(data)
    duplicates, min_dist = close_pairs(x[finite], dedupe)
    duplicates_ok = not duplicates
    if not duplicates_ok:
        reasons.append(f"duplicate solutions within {dedupe:.3e}")

    bound_ok = sset.certificate is not None or len(mats) <= bound
    if not bound_ok:
        reasons.append(f"{len(mats)} solutions exceed the C(2n,2) bound {bound}")

    eig_tol = CLUSTER_TOL * max(1.0, max_lam)
    eigenvalues_ok = True
    char_divisor_ok = True
    for m, keep in zip(mats, finite.tolist()):
        if not keep:
            continue
        lam1, lam2 = eigenvalues2(m)
        for lam in (lam1, lam2):
            if not any(abs(lam - v) <= eig_tol for v in values):
                eigenvalues_ok = False
        # the characteristic polynomial divides det M(t) exactly when det
        # vanishes at both eigenvalues, or at a repeated one together with
        # its derivative
        zeros = (((det, lam1), (det, lam2)) if lam1 != lam2
                 else ((det, lam1), (det_der, lam1)))
        if not all(_relative_value(p, lam) <= _CHAR_DIVISOR_TOL
                   for p, lam in zeros):
            char_divisor_ok = False
    if not eigenvalues_ok:
        reasons.append("an eigenvalue strays from every critical value")
    if not char_divisor_ok:
        reasons.append("det M(t) is not a multiple of some characteristic")

    certificate_ok = None
    if sset.certificate is not None:
        cert = sset.certificate
        sample_ok = _passes(eq, [cert.member(mu) for mu in cert.samples])
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


def _relative_value(p: Poly, t: complex) -> float:
    """|p(t)| over the term bound sum_k |c_k| max(1, |t|)^k, which the
    rounding error of evaluating p at t follows."""
    r, terms = max(1.0, abs(t)), 0.0
    for c in reversed(p.coeffs):
        terms = terms * r + abs(c)
    return abs(p(t)) / terms


@dataclass(frozen=True)
class CrossCheck:
    set_a: SolutionSet
    set_b: SolutionSet
    count_a: Optional[int]
    count_b: Optional[int]
    agree: bool


def count_cross_check(eq: MatrixEquation) -> CrossCheck:
    """Solve with both root backends and compare the outcomes.

    Agreement means identical classification and, for finite sets, solution
    lists that match one to one within ten times the dedupe tolerance.
    """
    set_a = solve_equation(eq, backend="aberth")
    set_b = solve_equation(eq, backend="companion")
    agree = set_a.is_finite == set_b.is_finite
    if agree and set_a.is_finite:
        tol = 10 * dedupe_tol(set_a.critical_data)
        agree = match_in_order([s.matrix for s in set_a.solutions],
                               [s.matrix for s in set_b.solutions], tol)
    return CrossCheck(set_a, set_b, set_a.count, set_b.count, agree)


def brute_force_scan(eq: MatrixEquation) -> list[Mat2]:
    """Independent enumeration of solution candidates for degree <= 3.

    Candidates are reassembled from critical data through a separate code
    path (least-squares eigenpair fitting, a direction grid with closed-form
    offset scaling for the nilpotent search) on top of the companion root
    backend, then filtered by residual.  Every actual solution arises from
    critical pairs, scalar matrices, or nilpotent offsets, so this candidate
    space is exhaustive; more distinct survivors than C(2n,2) signals an
    infinite family.
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
    found = _passing(eq, fits)
    scalars = [Mat2.identity().scale(d.value) for d in data]
    for d, x, ok in zip(data, scalars, _passes(eq, scalars)):
        if ok:
            found.append(x)
        found.extend(_scan_nilpotent_offsets(eq, d.value))

    found.sort(key=_mat_key)
    return [found[i] for i in greedy_unique(pack(found), keep_tol)]


def _passes(eq: MatrixEquation, mats: list[Mat2]) -> list[bool]:
    """Whether each matrix passes the residual acceptance test, from one
    call of the batch kernel."""
    x = pack(mats)
    return accepted(eq, x, residuals(eq, x)).tolist()


def _passing(eq: MatrixEquation, mats: list[Mat2]) -> list[Mat2]:
    return [m for m, ok in zip(mats, _passes(eq, mats)) if ok]


def _mat_key(m: Mat2):
    return (m.m11.real, m.m11.imag, m.m12.real, m.m12.imag,
            m.m21.real, m.m21.imag, m.m22.real, m.m22.imag)


def _directions() -> list[Vec2]:
    out = [Vec2(1, 0), Vec2(0, 1)]
    for theta in np.linspace(0.0, np.pi / 2, 9):
        if theta in (0.0, np.pi / 2):
            continue
        for phi in np.linspace(0.0, 2 * np.pi, 12, endpoint=False):
            out.append(Vec2(np.cos(theta), np.sin(theta) * np.exp(1j * phi)))
    return out


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


def _scan_nilpotent_offsets(eq: MatrixEquation, lam: complex) -> list[Mat2]:
    """Grid-plus-refinement search for solutions lam*I + c*K with K a
    rank-one nilpotent built from a column direction."""
    mval = eq.matrix.eval(lam)
    mder = eq.matrix_derivative.eval(lam)
    base = Mat2.identity().scale(lam)
    out = []
    candidates = []
    for k in _directions():
        kmat = outer(k, Vec2(k.y, -k.x))
        c, degenerate = _best_offset(mval, mder, kmat)
        if degenerate:
            # f(lam I) = M(lam)
            if residual_ok(eq, base, mval.max_norm()):
                # flat residual along this offset direction: emit several
                # family members so distinct-solution counts pass any bound
                out.extend(base + kmat.scale(s) for s in (1.0, 2.0, 3.0))
            continue
        if abs(c) > 1e4 * (1.0 + abs(lam)):
            # an offset this size cannot be residual-verified in doubles
            continue
        gap = (mval + (mder @ kmat).scale(c)).max_norm()
        candidates.append((gap, k.x.real, k.x.imag, k.y.real, k.y.imag, k))
    candidates.sort(key=lambda t: t[:5])
    # refinement only chases the lowest-residual grid directions; a finite
    # equation has at most one admissible offset per critical value
    refined = []
    for *_, k in candidates[:6]:
        k = _refine_direction(mval, mder, k)
        kmat = outer(k, Vec2(k.y, -k.x))
        c, degenerate = _best_offset(mval, mder, kmat)
        if degenerate or abs(c) > 1e4 * (1.0 + abs(lam)):
            continue
        refined.append(base + kmat.scale(c))
    return out + _passing(eq, refined)


def _best_offset(mval: Mat2, mder: Mat2, kmat: Mat2):
    g = mder @ kmat
    gnorm2 = sum(abs(e) ** 2 for e in
                 (g.m11, g.m12, g.m21, g.m22))
    if gnorm2 <= 1e-24 * max(1.0, mder.max_norm()) ** 2:
        return 0j, True
    inner = (g.m11.conjugate() * mval.m11 + g.m12.conjugate() * mval.m12 +
             g.m21.conjugate() * mval.m21 + g.m22.conjugate() * mval.m22)
    return -inner / gnorm2, False


def _refine_direction(mval: Mat2, mder: Mat2, k: Vec2) -> Vec2:
    theta0 = math.atan2(abs(k.y), abs(k.x))
    phi0 = math.atan2(k.y.imag, k.y.real) if abs(k.y) > 1e-12 else 0.0

    def cost(params):
        theta, phi = params
        cand = Vec2(math.cos(theta), math.sin(theta) * complex(math.cos(phi),
                                                               math.sin(phi)))
        kmat = outer(cand, Vec2(cand.y, -cand.x))
        c, degenerate = _best_offset(mval, mder, kmat)
        if degenerate:
            return 0.0
        r = mval + (mder @ kmat).scale(c)
        return sum(abs(e) ** 2 for e in (r.m11, r.m12, r.m21, r.m22))

    res = minimize(cost, [theta0, phi0], method="Nelder-Mead",
                   options={"xatol": 1e-13, "fatol": 1e-28, "maxiter": 300})
    theta, phi = res.x
    return Vec2(math.cos(theta),
                math.sin(theta) * complex(math.cos(phi), math.sin(phi)))
