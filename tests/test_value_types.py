"""The package's 14 value types: none can be changed after construction,
each survives pickle and deepcopy, and their reprs and hashes are those of
a record of their fields (the hand-written classes keep the form of the
records, and Mat2 and Vec2 stay unequal to plain tuples)."""

import copy
import pickle

import numpy as np
import pytest

from matpolyeq.construct import ConstructionPlan, ConstructionResult
from matpolyeq.mat2 import Mat2, MatrixEquation, PolyMat2, Vec2, pack
from matpolyeq.poly import Poly, Root
from matpolyeq.solver import (SECOND_VALUE_FAMILY, Candidates, CriticalDatum,
                              InfiniteCertificate, Solution, SolutionSet)
from matpolyeq.verify import CrossCheck, VerificationReport


def _instances():
    """name -> (one instance, its field names)."""
    eq = MatrixEquation((Mat2.diag(-1, -4), Mat2.zero()))
    cert = InfiniteCertificate(SECOND_VALUE_FAMILY, Mat2.identity(),
                               Mat2(0, 1, 0, 0), (0.25, 0.5, 0.75),
                               (0.0, 0.0, 0.0))
    batch = Candidates(pack([Mat2.diag(1, 2)]), np.array([0.5]),
                       ("diagonalizable_distinct",), np.array([[0, 1]]))
    datum = CriticalDatum(1 + 0j, 1, 1, (Vec2(1, 0),))
    sset = SolutionSet(batch, None, (datum, CriticalDatum(2j, 1, 1,
                                                          (Vec2(0, 1),))))
    plan = ConstructionPlan(2, 1, 2, 0, ((0,), (1,)), (), (0j, 1 + 0j),
                            (0j, 1 + 0j), (Vec2(1, 0), Vec2(1, 1)))
    report = VerificationReport(
        1, 1.0, 1, (0.0,), None, True, True, True, True, True, None, False,
        None, ("backends disagree",))
    values = {
        "Root": (Root(2j, 3), ("value", "multiplicity")),
        "Vec2": (Vec2(1, 2j), ("x", "y")),
        "Mat2": (Mat2(1, 2.5, -3j, 4 + 1j), ("m11", "m12", "m21", "m22")),
        "PolyMat2": (PolyMat2(Poly([1, 2]), Poly([]), Poly([0, 1j]),
                              Poly([1])), ("e11", "e12", "e21", "e22")),
        "MatrixEquation": (eq, ("coeffs",)),
        "CriticalDatum": (datum,
                          ("value", "multiplicity", "space_dim", "basis")),
        "Solution": (Solution(Mat2.diag(1, 2), "diagonalizable_distinct",
                              ((1 + 0j, Vec2(1, 0)), (2 + 0j, Vec2(0, 1))),
                              0.5),
                     ("matrix", "kind", "eigen_data", "residual")),
        "Candidates": (batch, ("matrices", "residuals", "kinds", "pairs")),
        "InfiniteCertificate": (cert, ("reason", "base", "direction",
                                       "samples", "sample_residuals")),
        "SolutionSet": (sset, ("batch", "certificate", "critical_data")),
        "VerificationReport": (report, (
            "n", "coeff_scale", "claimed_count", "residuals",
            "min_pair_distance", "residuals_ok", "duplicates_ok", "bound_ok",
            "eigenvalues_ok", "char_divisor_ok", "certificate_ok",
            "backend_agreement", "solve_agreement", "reasons")),
        "CrossCheck": (CrossCheck(sset, sset, 1, 1, True),
                       ("set_a", "set_b", "count_a", "count_b", "agree")),
        "ConstructionPlan": (plan, ("n", "m", "p", "pbar", "partition",
                                    "doubled", "lambdas", "ys", "vectors")),
        "ConstructionResult": (ConstructionResult(eq, plan),
                               ("equation", "plan")),
    }
    return values


NAMES = sorted(_instances())
# compared by identity, as arrays of solutions; the rest by their fields
IDENTITY = {"Candidates", "SolutionSet"}

_EQ = ("MatrixEquation(coeffs=(Mat2(m11=(-1+0j), m12=0j, m21=0j, "
       "m22=(-4+0j)), Mat2(m11=0j, m12=0j, m21=0j, m22=0j)))")
_PLAN = ("ConstructionPlan(n=2, m=1, p=2, pbar=0, partition=((0,), (1,)), "
         "doubled=(), lambdas=(0j, (1+0j)), ys=(0j, (1+0j)), "
         "vectors=(Vec2(x=(1+0j), y=0j), Vec2(x=(1+0j), y=(1+0j))))")
_BATCH = ("Candidates(matrices=array([[1.+0.j, 0.+0.j, 0.+0.j, 2.+0.j]]), "
          "residuals=array([0.5]), kinds=('diagonalizable_distinct',), "
          "pairs=array([[0, 1]]))")
_SSET = (f"SolutionSet(batch={_BATCH}, certificate=None, critical_data=("
         "CriticalDatum(value=(1+0j), multiplicity=1, space_dim=1, "
         "basis=(Vec2(x=(1+0j), y=0j),)), CriticalDatum(value=2j, "
         "multiplicity=1, space_dim=1, basis=(Vec2(x=0j, y=(1+0j)),))))")
# captured from the frozen dataclasses the types replaced
REPRS = {
    "Root": "Root(value=2j, multiplicity=3)",
    "Vec2": "Vec2(x=(1+0j), y=2j)",
    "Mat2": "Mat2(m11=(1+0j), m12=(2.5+0j), m21=(-0-3j), m22=(4+1j))",
    "PolyMat2": ("PolyMat2(e11=Poly([(1+0j), (2+0j)]), e12=Poly([0j]), "
                 "e21=Poly([0j, 1j]), e22=Poly([(1+0j)]))"),
    "MatrixEquation": _EQ,
    "CriticalDatum": ("CriticalDatum(value=(1+0j), multiplicity=1, "
                      "space_dim=1, basis=(Vec2(x=(1+0j), y=0j),))"),
    "Solution": ("Solution(matrix=Mat2(m11=(1+0j), m12=0j, m21=0j, "
                 "m22=(2+0j)), kind='diagonalizable_distinct', "
                 "eigen_data=(((1+0j), Vec2(x=(1+0j), y=0j)), ((2+0j), "
                 "Vec2(x=0j, y=(1+0j)))), residual=0.5)"),
    "Candidates": _BATCH,
    "InfiniteCertificate": (
        "InfiniteCertificate(reason='two_dim_space_with_second_value', "
        "base=Mat2(m11=(1+0j), m12=0j, m21=0j, m22=(1+0j)), "
        "direction=Mat2(m11=0j, m12=(1+0j), m21=0j, m22=0j), "
        "samples=(0.25, 0.5, 0.75), sample_residuals=(0.0, 0.0, 0.0))"),
    "SolutionSet": _SSET,
    "VerificationReport": (
        "VerificationReport(n=1, coeff_scale=1.0, claimed_count=1, "
        "residuals=(0.0,), min_pair_distance=None, residuals_ok=True, "
        "duplicates_ok=True, bound_ok=True, eigenvalues_ok=True, "
        "char_divisor_ok=True, certificate_ok=None, backend_agreement=False, "
        "solve_agreement=None, reasons=('backends disagree',))"),
    "CrossCheck": (f"CrossCheck(set_a={_SSET}, set_b={_SSET}, count_a=1, "
                   "count_b=1, agree=True)"),
    "ConstructionPlan": _PLAN,
    "ConstructionResult": f"ConstructionResult(equation={_EQ}, plan={_PLAN})",
}


def test_the_table_names_every_type():
    assert len(NAMES) == 14 and sorted(REPRS) == NAMES
    for name, (value, _) in _instances().items():
        assert type(value).__name__ == name


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value, fields = _instances()[name]
    if name == "MatrixEquation":
        fields += ("norm_poly", "_derived")
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def _same(a, b):
    """Equal values, arrays equal in dtype and entries, and the identity
    types (and records holding them) equal field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (Candidates, SolutionSet, CrossCheck)):
        fields = _instances()[type(a).__name__][1]
        return all(_same(getattr(a, f), getattr(b, f)) for f in fields)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_copies_round_trip(name, how):
    value, _ = _instances()[name]
    twin = (pickle.loads(pickle.dumps(value)) if how == "pickle"
            else copy.deepcopy(value))
    assert twin is not value
    assert _same(twin, value)
    if name not in IDENTITY | {"CrossCheck"}:
        assert twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("name", NAMES)
def test_repr_and_hash_are_those_of_the_fields(name):
    value, fields = _instances()[name]
    assert repr(value) == REPRS[name]
    if name in IDENTITY:
        assert value == value and copy.copy(value) != value
        assert hash(value) == object.__hash__(value)
    else:
        assert hash(value) == hash(tuple(getattr(value, f) for f in fields))


def test_matrices_and_vectors_are_no_tuples():
    m, v = Mat2(1, 2, 3, 4), Vec2(1, 2)
    for tup in [(1, 2, 3, 4), (1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)]:
        assert m != tup and tup != m
    for tup in [(1, 2), (1 + 0j, 2 + 0j)]:
        assert v != tup and tup != v
    assert m == Mat2(1.0, 2.0, 3.0, 4.0) and v == Vec2(1.0, 2.0)
    assert m != Mat2(1, 2, 3, 5) and v != Vec2(1, 3)
