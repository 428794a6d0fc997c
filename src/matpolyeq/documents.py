"""JSON documents for equations, solution sets, plans, and reports.

Every number is a [re, im] pair of doubles; serialization goes through the
shortest representation that round-trips IEEE-754, so documents are
byte-stable across runs.  A solution set's matrices are written straight
from its packed batch (``SolutionSet.batch``) and read back into one,
checked per array; no Mat2 or Solution object is built on either way.
Every number a document holds is checked by one function, ``_floats``.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .construct import ConstructionResult
from .mat2 import Mat2, MatrixEquation, unpack
from .solver import (KINDS, REASONS, Candidates, CriticalDatum,
                     InfiniteCertificate, SolutionSet)
from .verify import CHECKS, VerificationReport

FORMAT_VERSION = "1"
# the rules of a matrix, one per level of lists of two (matrix, row,
# [re, im] pair), then one for its parts and one for their finiteness
_MATRIX_RULES = ("must be a 2x2 array", "must be a 2x2 array",
                 "must be a [re, im] number pair",
                 "must be a [re, im] number pair", "must be finite")
_PAIR_RULES = _MATRIX_RULES[2:]
_RESIDUAL_RULE = "needs a finite, non-negative residual"


class DocumentError(ValueError):
    """Malformed or out-of-contract document content."""


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _floats(values: list, rules: tuple):
    """The values, nested in lists of two one level per rule but the last
    two, as one flat float array; or the first rule they break, checked a
    level at a time: lists of two, then numbers a double holds (no bool, no
    integer beyond the double range), then finite numbers (the parser also
    reads NaN and Infinity, which JSON does not have)."""
    *levels, number, finite = rules
    for rule in levels:
        if not (_all_subclass(values, list) and set(map(len, values)) <= {2}):
            return rule
        values = list(chain.from_iterable(values))
    if not all(issubclass(t, (float, int)) and t is not bool
               for t in set(map(type, values))):
        return number
    try:
        parts = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the double range
        return number
    return parts if np.isfinite(parts).all() else finite


def _all_subclass(values: list, cls) -> bool:
    return all(issubclass(t, cls) for t in set(map(type, values)))


def _residuals(values: list):
    """The values as a float array, or None unless each is a finite,
    non-negative number."""
    residuals = _floats(values, (_RESIDUAL_RULE, _RESIDUAL_RULE))
    return None if isinstance(residuals, str) or (residuals < 0).any() \
        else residuals


def _complexes(values: list, rules: tuple, what: str) -> list[complex]:
    parts = _floats(values, rules)
    if isinstance(parts, str):
        raise DocumentError(f"{what} {parts}")
    return parts.view(complex).tolist()


def _unpair(v, what: str) -> complex:
    return _complexes([v], _PAIR_RULES, what)[0]


def _mat(m: Mat2) -> list:
    return [[_pair(m.m11), _pair(m.m12)], [_pair(m.m21), _pair(m.m22)]]


def _unmat(v, what: str) -> Mat2:
    return Mat2(*_complexes([v], _MATRIX_RULES, what))


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
    if not _is_int(n) or n < 1:
        raise DocumentError("n must be a positive integer")
    coeffs = doc.get("coefficients")
    if not isinstance(coeffs, list) or len(coeffs) != n:
        raise DocumentError("coefficients must list exactly n matrices, A0 first")
    parts = _each(partial(_floats, rules=_MATRIX_RULES), coeffs, "coefficient")
    try:
        return MatrixEquation(tuple(unpack(parts.view(complex).reshape(-1, 4))))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def solution_set_to_doc(sset: SolutionSet) -> dict:
    """The document of a solution set, written from its batch: the packed
    (re, im) doubles of m11, m12, m21, m22 are the nested matrix lists."""
    batch = sset.batch
    doc = {
        "format_version": FORMAT_VERSION,
        "classification": "finite" if sset.is_finite else "infinite",
        "solutions": [
            {"matrix": m, "kind": kind, "residual": r}
            for m, kind, r in zip(
                batch.matrices.view(float).reshape(-1, 2, 2, 2).tolist(),
                batch.kinds, batch.residuals.tolist())
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
    kinds, matrices, residuals = _each(_solution_arrays, raw_solutions,
                                       "solution")

    certificate = None
    if classification == "infinite":
        if raw_solutions:
            raise DocumentError("infinite classification cannot carry "
                                "solutions")
        raw = doc.get("certificate")
        if not isinstance(raw, dict):
            raise DocumentError("infinite classification needs a certificate")
        if raw.get("reason") not in REASONS:
            raise DocumentError(f"unknown certificate reason {raw.get('reason')!r}")
        samples = raw.get("samples")
        sample_residuals = raw.get("sample_residuals")
        if isinstance(sample_residuals, list):
            sample_residuals = _residuals(sample_residuals)
        if not (isinstance(samples, list) and len(samples) >= 3
                and isinstance(sample_residuals, np.ndarray)
                and len(sample_residuals) == len(samples)):
            raise DocumentError("certificate needs >= 3 samples with finite, "
                                "non-negative residuals")
        certificate = InfiniteCertificate(
            raw["reason"],
            _unmat(raw.get("base"), "certificate base"),
            _unmat(raw.get("direction"), "certificate direction"),
            tuple(_unpair(s, "certificate sample") for s in samples),
            tuple(sample_residuals.tolist()),
        )
    elif "certificate" in doc:
        raise DocumentError("finite classification cannot carry a certificate")

    metadata = doc.get("metadata")
    if not isinstance(metadata, dict) or \
            not isinstance(metadata.get("critical_values"), list):
        raise DocumentError("metadata.critical_values must be a list")
    values, mults, dims = _each(_critical_arrays, metadata["critical_values"],
                                "critical value")
    return SolutionSet(
        Candidates(matrices, residuals, tuple(kinds)),
        certificate, tuple(map(CriticalDatum, values, mults, dims, repeat(()))))


def _each(check, entries: list, what: str):
    """check(entries), whose rules hold entry by entry; when they fail, the
    DocumentError of the first entry that check refuses alone."""
    checked = check(entries)
    if isinstance(checked, str):
        for i, entry in enumerate(entries):
            rule = check([entry])
            if isinstance(rule, str):
                raise DocumentError(f"{what} {i} {rule}")
    return checked


def _solution_arrays(entries: list):
    """The kinds, the matrices packed (k, 4) and the residuals of the
    solution entries, or the first rule they break: objects, known kinds,
    residuals, matrices."""
    if not _all_subclass(entries, dict):
        return "must be an object"
    kinds = list(map(dict.get, entries, repeat("kind")))
    # KINDS is a tuple: an unhashable kind fails the test
    unknown = [kind for kind in kinds if kind not in KINDS]
    if unknown:
        return f"has unknown kind {unknown[0]!r}"
    residuals = _residuals(list(map(dict.get, entries, repeat("residual"))))
    if residuals is None:
        return _RESIDUAL_RULE
    parts = _floats(list(map(dict.get, entries, repeat("matrix"))),
                    _MATRIX_RULES)
    if isinstance(parts, str):
        return parts
    # the (re, im) doubles of m11, m12, m21, m22 are pack's layout
    return kinds, parts.view(complex).reshape(-1, 4), residuals


def _critical_arrays(entries: list):
    """The values, multiplicities and space dimensions of the critical
    value entries, or the first rule they break: objects, multiplicities
    and dimensions, values."""
    if not _all_subclass(entries, dict):
        return "must be an object"
    mults = list(map(dict.get, entries, repeat("multiplicity")))
    dims = list(map(dict.get, entries, repeat("space_dim")))
    if not all(_is_int(mult) and mult >= 1 and _is_int(dim) and dim in (1, 2)
               for mult, dim in zip(mults, dims)):
        return "has bad multiplicity/dim"
    values = _floats(list(map(dict.get, entries, repeat("value"))),
                     _PAIR_RULES)
    if isinstance(values, str):
        return values
    return values.view(complex).tolist(), mults, dims


def plan_to_doc(result: ConstructionResult) -> dict:
    plan = result.plan
    return {
        "format_version": FORMAT_VERSION,
        "n": result.equation.n,
        "m": plan.m,
        "p": plan.p,
        "pbar": plan.pbar,
        "partition": [list(block) for block in plan.partition],
        "doubled": list(plan.doubled),
        "lambdas": [_pair(lam) for lam in plan.lambdas],
        "ys": [_pair(y) for y in plan.ys],
        "vectors": [[_pair(v.x), _pair(v.y)] for v in plan.vectors],
    }


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
        "checks": {key: getattr(report, field) for field, key, _ in CHECKS},
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
    # ValueError: JSONDecodeError, or an integer literal longer than
    # CPython's integer-string limit; RecursionError: nesting deeper than
    # the parser's recursion limit
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc
