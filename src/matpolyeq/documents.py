"""JSON documents for equations, solution sets, plans, and reports.

Every number is a [re, im] pair of doubles; serialization goes through the
shortest representation that round-trips IEEE-754, so documents are
byte-stable across runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .construct import ConstructionResult
from .mat2 import Mat2, MatrixEquation
from .solver import (KINDS, REASONS, CriticalDatum, InfiniteCertificate,
                     Solution, SolutionSet)
from .verify import VerificationReport

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    """Malformed or out-of-contract document content."""


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _is_number(v) -> bool:
    """A JSON number that a double holds: no bool, no integer beyond the
    double range."""
    if isinstance(v, float):
        return True
    if isinstance(v, bool) or not isinstance(v, int):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _is_residual(v) -> bool:
    """A finite, non-negative JSON number: the parser also reads NaN and
    Infinity, which JSON does not have."""
    return _is_number(v) and math.isfinite(v) and v >= 0


def _unpair(v, what: str) -> complex:
    if not (isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))):
        raise DocumentError(f"{what} must be a [re, im] number pair")
    z = complex(v[0], v[1])
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DocumentError(f"{what} must be finite")
    return z


def _mat(m: Mat2) -> list:
    return [[_pair(m.m11), _pair(m.m12)], [_pair(m.m21), _pair(m.m22)]]


def _unmat(v, what: str) -> Mat2:
    if not (isinstance(v, list) and len(v) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in v)):
        raise DocumentError(f"{what} must be a 2x2 array")
    return Mat2(_unpair(v[0][0], what), _unpair(v[0][1], what),
                _unpair(v[1][0], what), _unpair(v[1][1], what))


def _expect_version(doc) -> None:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported format_version {doc.get('format_version')!r}")


def equation_to_doc(eq: MatrixEquation) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": eq.n,
        "coefficients": [_mat(a) for a in eq.coeffs],
    }


def equation_from_doc(doc) -> MatrixEquation:
    _expect_version(doc)
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError("n must be a positive integer")
    coeffs = doc.get("coefficients")
    if not isinstance(coeffs, list) or len(coeffs) != n:
        raise DocumentError("coefficients must list exactly n matrices, A0 first")
    try:
        return MatrixEquation(tuple(_unmat(c, f"coefficient {i}")
                                    for i, c in enumerate(coeffs)))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def solution_set_to_doc(sset: SolutionSet) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "classification": "finite" if sset.is_finite else "infinite",
        "solutions": [
            {"matrix": _mat(s.matrix), "kind": s.kind,
             "residual": float(s.residual)}
            for s in sset.solutions
        ],
        "metadata": {
            "critical_values": [
                {"value": _pair(d.value), "multiplicity": d.multiplicity,
                 "space_dim": d.space_dim}
                for d in sset.critical_data
            ],
        },
    }
    if sset.certificate is not None:
        cert = sset.certificate
        doc["certificate"] = {
            "reason": cert.reason,
            "base": _mat(cert.base),
            "direction": _mat(cert.direction),
            "samples": [_pair(mu) for mu in cert.samples],
            "sample_residuals": [float(r) for r in cert.sample_residuals],
        }
    return doc


def solution_set_from_doc(doc) -> SolutionSet:
    _expect_version(doc)
    classification = doc.get("classification")
    if classification not in ("finite", "infinite"):
        raise DocumentError("classification must be 'finite' or 'infinite'")
    raw_solutions = doc.get("solutions")
    if not isinstance(raw_solutions, list):
        raise DocumentError("solutions must be a list")
    solutions = []
    for i, entry in enumerate(raw_solutions):
        if not isinstance(entry, dict):
            raise DocumentError(f"solution {i} must be an object")
        kind = entry.get("kind")
        # KINDS and REASONS are tuples: an unhashable value fails the test
        if kind not in KINDS:
            raise DocumentError(f"solution {i} has unknown kind {kind!r}")
        residual = entry.get("residual")
        if not _is_residual(residual):
            raise DocumentError(
                f"solution {i} needs a finite, non-negative residual")
        solutions.append(Solution(_unmat(entry.get("matrix"), f"solution {i}"),
                                  kind, None, float(residual)))

    certificate = None
    if classification == "infinite":
        raw = doc.get("certificate")
        if not isinstance(raw, dict):
            raise DocumentError("infinite classification needs a certificate")
        if raw.get("reason") not in REASONS:
            raise DocumentError(f"unknown certificate reason {raw.get('reason')!r}")
        samples = raw.get("samples")
        residuals = raw.get("sample_residuals")
        if not (isinstance(samples, list) and len(samples) >= 3
                and isinstance(residuals, list)
                and len(residuals) == len(samples)
                and all(map(_is_residual, residuals))):
            raise DocumentError("certificate needs >= 3 samples with finite, "
                                "non-negative residuals")
        certificate = InfiniteCertificate(
            raw["reason"],
            _unmat(raw.get("base"), "certificate base"),
            _unmat(raw.get("direction"), "certificate direction"),
            tuple(_unpair(s, "certificate sample") for s in samples),
            tuple(float(r) for r in residuals),
        )
    elif "certificate" in doc:
        raise DocumentError("finite classification cannot carry a certificate")

    metadata = doc.get("metadata")
    if not isinstance(metadata, dict) or \
            not isinstance(metadata.get("critical_values"), list):
        raise DocumentError("metadata.critical_values must be a list")
    data = []
    for i, entry in enumerate(metadata["critical_values"]):
        if not isinstance(entry, dict):
            raise DocumentError(f"critical value {i} must be an object")
        mult = entry.get("multiplicity")
        dim = entry.get("space_dim")
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1 \
                or isinstance(dim, bool) or dim not in (1, 2):
            raise DocumentError(f"critical value {i} has bad multiplicity/dim")
        data.append(CriticalDatum(_unpair(entry.get("value"),
                                          f"critical value {i}"),
                                  mult, dim, ()))
    return SolutionSet(tuple(solutions), certificate, tuple(data))


def plan_to_doc(result: ConstructionResult) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "n": result.equation.n,
        "m": result.expected_count,
    }
    if result.special_case is not None:
        doc["special_case"] = result.special_case
        return doc
    plan = result.plan
    doc.update({
        "p": plan.p,
        "pbar": plan.pbar,
        "partition": [list(block) for block in plan.partition],
        "lambdas": [_pair(lam) for lam in plan.lambdas],
        "ys": [_pair(y) for y in plan.ys],
        "vectors": [[_pair(v.x), _pair(v.y)] for v in plan.vectors],
    })
    return doc


def report_to_doc(report: VerificationReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": report.n,
        "classification": report.classification,
        "claimed_count": report.claimed_count,
        "bound": report.bound,
        "max_residual": _finite_or_null(report.max_residual),
        "residuals": [_finite_or_null(r) for r in report.residuals],
        "min_pair_distance": _finite_or_null(report.min_pair_distance),
        "checks": {
            "residuals": report.residuals_ok,
            "duplicates": report.duplicates_ok,
            "bound": report.bound_ok,
            "eigenvalue_containment": report.eigenvalues_ok,
            "characteristic_divisor": report.char_divisor_ok,
            "certificate": report.certificate_ok,
            "backend_agreement": report.backend_agreement,
        },
        "verdict": report.verdict,
        "reasons": list(report.reasons),
    }


def _finite_or_null(v):  # JSON has no NaN or Infinity
    return v if v is not None and math.isfinite(v) else None


def save_doc(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n",
                          encoding="utf-8")


def load_doc(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    # RecursionError: nesting deeper than the parser's recursion limit
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc
