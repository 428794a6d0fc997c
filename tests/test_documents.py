import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from matpolyeq.construct import construct
from matpolyeq.documents import (DocumentError, equation_from_doc,
                                 equation_to_doc, load_doc, plan_to_doc,
                                 report_to_doc, save_doc,
                                 solution_set_from_doc, solution_set_to_doc)
from matpolyeq.mat2 import Mat2, MatrixEquation
from matpolyeq.solver import Solution, SolutionSet, solve_equation
from matpolyeq.verify import verify_solution_set

from helpers import ref_solution_set_to_doc

# sha256 of the solution documents of random n = 16 equations, committed
# with the benchmark (perfbench/make_digests.py writes it); read only here
REFERENCE_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench"
     / "reference_digests.json").read_text(encoding="utf-8"))


class TestEquationDocuments:
    def test_round_trip_bytes(self, eq_four_solutions, tmp_path):
        doc = equation_to_doc(eq_four_solutions)
        path = tmp_path / "eq.json"
        save_doc(doc, path)
        reparsed = equation_from_doc(load_doc(path))
        assert reparsed == eq_four_solutions
        save_doc(equation_to_doc(reparsed), tmp_path / "eq2.json")
        assert (tmp_path / "eq.json").read_bytes() == \
            (tmp_path / "eq2.json").read_bytes()

    def test_round_trip_sweep_values(self):
        # values with long binary expansions survive exactly
        for (n, m) in [(2, 5), (3, 9), (4, 20), (5, 33)]:
            eq = construct(n, m, validate=False).equation
            again = equation_from_doc(json.loads(json.dumps(equation_to_doc(eq))))
            assert again == eq

    def test_coefficients_listed_low_power_first(self, eq_four_solutions):
        doc = equation_to_doc(eq_four_solutions)
        assert doc["coefficients"][0][0][0] == [-1.0, 0.0]
        assert doc["coefficients"][1][0][0] == [0.0, 0.0]

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(format_version="2"),
        lambda d: d.update(n="2"),
        lambda d: d.update(n=0),
        lambda d: d.update(coefficients=d["coefficients"][:1]),
        lambda d: d.update(coefficients="nope"),
        lambda d: d["coefficients"][0][0].__setitem__(0, [1.0]),
        lambda d: d["coefficients"][0][0].__setitem__(0, [1.0, "x"]),
        lambda d: d.update(n=17,
                           coefficients=d["coefficients"] * 17),
    ])
    def test_malformed_rejected(self, eq_four_solutions, mutate):
        doc = equation_to_doc(eq_four_solutions)
        mutate(doc)
        with pytest.raises(DocumentError):
            equation_from_doc(doc)

    def test_nan_rejected(self):
        text = ('{"format_version": "1", "n": 1, '
                '"coefficients": [[[[NaN, 0.0], [0.0, 0.0]],'
                ' [[0.0, 0.0], [0.0, 0.0]]]]}')
        with pytest.raises(DocumentError):
            equation_from_doc(json.loads(text))

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(DocumentError):
            load_doc(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError):
            load_doc(tmp_path / "absent.json")


class TestSolutionDocuments:
    def test_finite_round_trip(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        doc = solution_set_to_doc(ss)
        back = solution_set_from_doc(json.loads(json.dumps(doc)))
        assert back.is_finite
        assert back.count == 4
        assert [s.matrix for s in back.solutions] == \
            [s.matrix for s in ss.solutions]
        assert [d.value for d in back.critical_data] == \
            [d.value for d in ss.critical_data]

    def test_infinite_round_trip(self, eq_x_squared_identity):
        ss = solve_equation(eq_x_squared_identity)
        doc = solution_set_to_doc(ss)
        assert doc["classification"] == "infinite"
        back = solution_set_from_doc(json.loads(json.dumps(doc)))
        assert not back.is_finite
        assert back.certificate.reason == ss.certificate.reason
        assert back.certificate.base == ss.certificate.base

    def test_classification_consistency_enforced(self, eq_four_solutions,
                                                 eq_x_squared_identity):
        finite = solution_set_to_doc(solve_equation(eq_four_solutions))
        infinite = solution_set_to_doc(solve_equation(eq_x_squared_identity))
        finite["certificate"] = infinite["certificate"]
        with pytest.raises(DocumentError):
            solution_set_from_doc(finite)
        del infinite["certificate"]
        with pytest.raises(DocumentError):
            solution_set_from_doc(infinite)

    def test_unknown_kind_rejected(self, eq_four_solutions):
        doc = solution_set_to_doc(solve_equation(eq_four_solutions))
        for kind in ("mystery", [], {}):  # unhashable ones too
            doc["solutions"][0]["kind"] = kind
            with pytest.raises(DocumentError):
                solution_set_from_doc(doc)

    @pytest.mark.parametrize("field", ["multiplicity", "space_dim"])
    def test_boolean_critical_datum_rejected(self, eq_four_solutions, field):
        # JSON true passes isinstance(_, int) and equals 1
        doc = solution_set_to_doc(solve_equation(eq_four_solutions))
        doc["metadata"]["critical_values"][0][field] = True
        with pytest.raises(DocumentError):
            solution_set_from_doc(doc)

    @pytest.mark.parametrize("field", ["multiplicity", "space_dim"])
    @pytest.mark.parametrize("value", [1.0, 2.0])
    def test_float_critical_datum_rejected(self, eq_four_solutions, field,
                                           value):
        # 1.0 == 1 would pass a membership test and store a float
        doc = solution_set_to_doc(solve_equation(eq_four_solutions))
        doc["metadata"]["critical_values"][0][field] = value
        with pytest.raises(DocumentError) as raised:
            solution_set_from_doc(doc)
        assert str(raised.value) == "critical value 0 has bad multiplicity/dim"

    @pytest.mark.parametrize("reason", ["scalar_plus_two_dim", "mystery",
                                        pytest.param([], id="list"),
                                        pytest.param({}, id="object")])
    def test_unknown_certificate_reason_rejected(self, eq_x_squared_identity,
                                                 reason):
        doc = solution_set_to_doc(solve_equation(eq_x_squared_identity))
        doc["certificate"]["reason"] = reason
        with pytest.raises(DocumentError):
            solution_set_from_doc(doc)

    def test_verifier_accepts_parsed_set(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        back = solution_set_from_doc(json.loads(
            json.dumps(solution_set_to_doc(ss))))
        report = verify_solution_set(eq_four_solutions, back)
        assert report.verdict == "pass"


def _set_part(value):
    def mutate(entry):
        entry["matrix"][1][0][1] = value
    return mutate


def _set(key, value):
    def mutate(entry):
        entry[key] = value
    return mutate


# a malformed solution entry and the error text it must raise
MALFORMED_SOLUTIONS = [
    ("bool part", _set_part(True), "must be a [re, im] number pair"),
    ("huge int part", _set_part(10 ** 400), "must be a [re, im] number pair"),
    ("nan part", _set_part(math.nan), "must be finite"),
    ("infinite part", _set_part(-math.inf), "must be finite"),
    ("string part", _set_part("1.0"), "must be a [re, im] number pair"),
    ("short pair", lambda e: e["matrix"][0][1].pop(),
     "must be a [re, im] number pair"),
    ("long pair", lambda e: e["matrix"][1][1].append(0.0),
     "must be a [re, im] number pair"),
    ("tuple pair", lambda e: e["matrix"][0].__setitem__(0, (1.0, 0.0)),
     "must be a [re, im] number pair"),
    ("one row", lambda e: e["matrix"].pop(), "must be a 2x2 array"),
    ("three columns", lambda e: e["matrix"][1].append([0.0, 0.0]),
     "must be a 2x2 array"),
    ("no matrix", lambda e: e.pop("matrix"), "must be a 2x2 array"),
    ("unknown kind", _set("kind", "mystery"), "has unknown kind 'mystery'"),
    ("list kind", _set("kind", ["scalar"]), "has unknown kind ['scalar']"),
    ("negative residual", _set("residual", -1e-300),
     "needs a finite, non-negative residual"),
    ("nan residual", _set("residual", math.nan),
     "needs a finite, non-negative residual"),
    ("infinite residual", _set("residual", math.inf),
     "needs a finite, non-negative residual"),
    ("bool residual", _set("residual", False),
     "needs a finite, non-negative residual"),
]


class TestSolutionReader:
    """solution_set_from_doc checks all solution entries per array; a bad
    entry still gets the message the per-entry checks give it."""

    @pytest.fixture(scope="class")
    def solved(self):
        rng = np.random.default_rng(1)
        eq = MatrixEquation(tuple(
            Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
            for _ in range(16)))
        sset = solve_equation(eq)
        assert sset.count == 496
        return sset, json.dumps(solution_set_to_doc(sset))

    def test_valid_document_rereads_bit_for_bit(self, solved):
        sset, text = solved
        back = solution_set_from_doc(json.loads(text))

        def bits(s):
            m = s.matrix
            return (s.kind, s.residual.hex(),
                    [(type(z), z.real.hex(), z.imag.hex())
                     for z in (m.m11, m.m12, m.m21, m.m22)])
        assert [bits(s) for s in back.solutions] == \
            [bits(s) for s in sset.solutions]
        assert all(type(s.residual) is float and s.eigen_data is None
                   for s in back.solutions)

    @pytest.mark.parametrize("index", [0, 300])
    @pytest.mark.parametrize("case, mutate, message", MALFORMED_SOLUTIONS,
                             ids=[c[0] for c in MALFORMED_SOLUTIONS])
    def test_malformed_entry_message(self, solved, index, case, mutate,
                                     message):
        doc = json.loads(solved[1])
        mutate(doc["solutions"][index])
        with pytest.raises(DocumentError) as raised:
            solution_set_from_doc(doc)
        assert str(raised.value) == f"solution {index} {message}"

    @pytest.mark.parametrize("index", [0, 300])
    def test_entry_not_an_object(self, solved, index):
        doc = json.loads(solved[1])
        doc["solutions"][index] = [doc["solutions"][index]]
        with pytest.raises(DocumentError) as raised:
            solution_set_from_doc(doc)
        assert str(raised.value) == f"solution {index} must be an object"

    def test_first_bad_entry_is_reported(self, solved):
        doc = json.loads(solved[1])
        _set("residual", -1.0)(doc["solutions"][300])
        _set_part(math.inf)(doc["solutions"][7])
        with pytest.raises(DocumentError,
                           match=r"^solution 7 must be finite$"):
            solution_set_from_doc(doc)

    def test_integer_numbers_read_as_doubles(self, solved):
        doc = json.loads(solved[1])
        entry = doc["solutions"][300]
        entry["residual"] = 0
        entry["matrix"] = [[[1, 0], [2 ** 53 + 1, -3]], [[0, 0], [1, 1]]]
        got = solution_set_from_doc(doc).solutions[300]
        assert got.residual == 0.0 and type(got.residual) is float
        assert got.matrix == Mat2(1, float(2 ** 53 + 1) - 3j, 0, 1 + 1j)


def _edge_set(certificate=None):
    """Hand-built solutions whose parts and residuals are signed zeros, the
    least subnormal and near the largest double."""
    parts = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -2.5)
    sols = [Solution(Mat2(*(complex(parts[(i + k) % 8],
                                    parts[(i + 3 * k) % 8])
                            for k in range(4))),
                     "diagonalizable_distinct", None, r)
            for i, r in enumerate((0.0, 5e-324, 1e308, 2.5e-17))]
    return SolutionSet.of(sols, certificate, ())


def _bits(sset):
    return [(s.kind, s.residual.hex(),
             [(z.real.hex(), z.imag.hex())
              for z in (s.matrix.m11, s.matrix.m12, s.matrix.m21,
                        s.matrix.m22)])
            for s in sset.solutions]


class TestBatchDocuments:
    """The writer's and reader's packed batch against the per-solution
    writer it replaced (``helpers.ref_solution_set_to_doc``)."""

    @pytest.mark.parametrize("fixture", [
        "eq_four_solutions", "eq_x_squared_jordan", "eq_degree_one",
        # infinite, with a certificate
        "eq_x_squared_identity", "eq_shifted_square", "eq_nilpotent_family",
        # finite and empty
        "eq_x_squared_nilpotent"])
    def test_writer_bytes_match_reference(self, request, fixture):
        sset = solve_equation(request.getfixturevalue(fixture))
        assert json.dumps(solution_set_to_doc(sset), indent=2) == \
            json.dumps(ref_solution_set_to_doc(sset), indent=2)

    def test_writer_bytes_on_edge_entries(self, eq_x_squared_identity):
        cert = solve_equation(eq_x_squared_identity).certificate
        for sset in (_edge_set(), _edge_set(cert),
                     SolutionSet.of((), None, ())):
            text = json.dumps(solution_set_to_doc(sset), indent=2)
            assert text == json.dumps(ref_solution_set_to_doc(sset), indent=2)
        text = json.dumps(solution_set_to_doc(_edge_set()))
        assert all(s in text for s in ("-0.0", "5e-324", "1e+308"))

    def test_reader_keeps_every_bit(self):
        sset = _edge_set()
        back = solution_set_from_doc(json.loads(json.dumps(
            solution_set_to_doc(sset))))
        assert _bits(back) == _bits(sset)
        assert all(s.eigen_data is None and type(s.residual) is float
                   for s in back.solutions)

    def test_solution_objects_stay_unbuilt(self):
        # solve, write, reread and verify an n = 16 set from its batch alone
        rng = np.random.default_rng(1)
        eq = MatrixEquation(tuple(
            Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
            for _ in range(16)))
        sset = solve_equation(eq)
        back = solution_set_from_doc(json.loads(json.dumps(
            solution_set_to_doc(sset), indent=2)))
        report = verify_solution_set(eq, back)
        assert report.claimed_count == back.count == sset.count == 496
        assert "solutions" not in vars(sset)
        assert "solutions" not in vars(back)


class TestDocumentByteStability:
    @staticmethod
    def _random_n16(seed, count):
        # entries complex(U(-1,1), U(-1,1)) from one default_rng(seed)
        # stream, as the benchmark's random_n16 workload draws them
        rng = np.random.default_rng(seed)
        return [MatrixEquation(tuple(
            Mat2(*(complex(a, b) for a, b in rng.uniform(-1, 1, (4, 2))))
            for _ in range(16))) for _ in range(count)]

    # every seed in the file, each with all its equations
    @pytest.mark.parametrize("seed", sorted(map(int, REFERENCE_DIGESTS)))
    def test_random_n16_documents_match_committed_digests(self, seed,
                                                          tmp_path):
        digests = REFERENCE_DIGESTS[str(seed)]
        for i, eq in enumerate(self._random_n16(seed, len(digests))):
            path = tmp_path / f"sol{i}.json"
            save_doc(solution_set_to_doc(solve_equation(eq)), path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == \
                digests[str(i)], (seed, i)

    # the digests cover documents, not reports: pin the verifier's pairwise
    # check on the same equations against the all-pairs Mat2.dist minimum
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_n16_report_least_distance(self, seed):
        eq = self._random_n16(seed, 1)[0]
        sset = solve_equation(eq)
        report = verify_solution_set(eq, sset)
        mats = [s.matrix for s in sset.solutions]
        assert len(mats) == 496
        assert report.min_pair_distance == min(
            mats[i].dist(mats[j]) for i in range(len(mats))
            for j in range(i + 1, len(mats)))
        assert report.duplicates_ok


class TestPlanAndReportDocuments:
    def test_plan_document(self):
        result = construct(2, 5, validate=False)
        doc = plan_to_doc(result)
        assert doc["p"] == 4
        assert doc["pbar"] == 1
        assert doc["partition"] == [[0], [1, 2], [3]]
        assert len(doc["lambdas"]) == 4

    def test_special_plan_document(self):
        doc = plan_to_doc(construct(2, 4, validate=False))
        assert doc["special_case"] == 4
        assert "partition" not in doc

    def test_report_document(self, eq_four_solutions):
        ss = solve_equation(eq_four_solutions)
        report = verify_solution_set(eq_four_solutions, ss,
                                     backend_agreement=True)
        doc = report_to_doc(report)
        assert doc["verdict"] == "pass"
        assert doc["checks"]["backend_agreement"] is True
        assert doc["claimed_count"] == 4

    def test_non_finite_report_numbers_are_null(self, tmp_path,
                                                eq_four_solutions):
        report = verify_solution_set(eq_four_solutions,
                                     solve_equation(eq_four_solutions))
        report = replace(report, max_residual=math.inf,
                         residuals=(0.5, math.nan, -math.inf),
                         min_pair_distance=math.inf)
        path = tmp_path / "report.json"
        save_doc(report_to_doc(report), path)
        doc = json.loads(path.read_text())
        assert (doc["max_residual"], doc["residuals"],
                doc["min_pair_distance"]) == (None, [0.5, None, None], None)

    def test_writer_refuses_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError):
            save_doc({"residual": math.nan}, tmp_path / "doc.json")
        assert not (tmp_path / "doc.json").exists()
