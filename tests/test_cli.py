import json
import math
import os
import subprocess
import sys

from pathlib import Path

import pytest

import matpolyeq
from matpolyeq import cli
from matpolyeq.cli import main
from matpolyeq.construct import ValidationFailure, construct
from matpolyeq.documents import (equation_from_doc, equation_to_doc,
                                 load_doc, save_doc, solution_set_from_doc)
from matpolyeq.mat2 import MAX_DEGREE, Mat2, MatrixEquation
from matpolyeq.poly import BACKENDS, NonConvergence
from matpolyeq.solver import InternalInconsistency

from helpers import diagonal_equation, diagonally_similar, rescaled


def run(*args):
    return main([str(a) for a in args])


def ledger_rows(name):
    """The n, m, count and error columns of a committed sweep ledger."""
    text = Path(__file__).with_name(name).read_text()
    return [line.split() for line in text.splitlines()]


def transformed_construct(monkeypatch, transform):
    """Make the sweep solve transform(eq) for each constructed eq."""
    real = cli.construct

    def construct_transformed(n, m, **kwargs):
        result = real(n, m, **kwargs)
        return result._replace(equation=transform(result.equation))

    monkeypatch.setattr(cli, "construct", construct_transformed)


def strict_json(path):
    """The document at path, read by a parser that refuses NaN and
    Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestConstructCommand:
    def test_four_solution_document(self, tmp_path):
        out = tmp_path / "eq.json"
        assert run("construct", "--n", 2, "--m", 4, "--out", out) == 0
        doc = load_doc(out)
        # A_0 = [[0, -1], [0, 1 - 2i]]: det M(t) = t (t - 1)^2 (t + i)
        top, bottom = doc["coefficients"][0]
        assert top == [[0.0, 0.0], [-1.0, 0.0]]
        assert bottom[0] == [0.0, 0.0]
        assert bottom[1] == pytest.approx([1.0, -2.0], abs=1e-15)

    def test_degree_one_document(self, tmp_path):
        out = tmp_path / "eq.json"
        assert run("construct", "--n", 1, "--m", 1, "--out", out) == 0
        doc = load_doc(out)
        assert doc["coefficients"][0] == [[[0.0, 0.0], [-1.0, 0.0]],
                                          [[0.0, 0.0], [-1.0, 0.0]]]

    def test_out_of_range_exits_2(self, tmp_path):
        assert run("construct", "--n", 2, "--m", 7,
                   "--out", tmp_path / "x.json") == 2
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("args", [("--n", 2), ("--n", "x", "--m", 2)])
    def test_usage_error_exits_2_with_one_line(self, tmp_path, capsys, args):
        # a missing --m, a non-integer --n: one line, not argparse's usage
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exit_:
            run("construct", *args, "--out", out)
        assert exit_.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: "), err
        assert not out.exists()

    def test_plan_written(self, tmp_path):
        out, plan = tmp_path / "eq.json", tmp_path / "plan.json"
        assert run("construct", "--n", 2, "--m", 5, "--out", out,
                   "--plan", plan) == 0
        assert load_doc(plan)["p"] == 4

    def test_deterministic_documents(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("construct", "--n", 3, "--m", 11, "--out", a)
        run("construct", "--n", 3, "--m", 11, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_degree_seven_full_count_round_trips(self, tmp_path):
        # 66 = C(12, 2): eleven nonzero singleton blocks next to 0
        eq_path, sol = tmp_path / "eq.json", tmp_path / "sol.json"
        assert run("construct", "--n", 7, "--m", 66, "--out", eq_path) == 0
        assert run("solve", "--in", eq_path, "--out", sol) == 0
        doc = load_doc(sol)
        assert doc["classification"] == "finite"
        assert len(doc["solutions"]) == 66

    def test_polish_that_leaves_its_bunch_exits_4(self, tmp_path, capsys,
                                                  monkeypatch):
        # built as the diagonal equation of (7, 4), where the polish of a
        # simple root leaves its bunch, the self-validating solve raises
        # NonConvergence before any count
        monkeypatch.setattr(sys.modules["matpolyeq.construct"],
                            "solve_coefficients",
                            lambda plan: diagonal_equation(plan.m, plan.n))
        out = tmp_path / "eq.json"
        assert run("construct", "--n", 7, "--m", 4, "--out", out) == 4
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("exc,code", [
        (ValidationFailure("construction yielded 3 solutions, wanted 5"), 3),
        (NonConvergence("no convergence"), 4),
        (InternalInconsistency("residual too large"), 6),
    ])
    def test_construct_failures_map_to_exit_codes(self, tmp_path, capsys,
                                                  monkeypatch, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "construct", fail)
        assert run("construct", "--n", 2, "--m", 5,
                   "--out", tmp_path / "eq.json") == code
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestSolveCommand:
    def test_four_solutions(self, tmp_path, eq_four_solutions):
        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(equation_to_doc(eq_four_solutions), eq_path)
        assert run("solve", "--in", eq_path, "--out", out) == 0
        doc = load_doc(out)
        assert doc["classification"] == "finite"
        assert len(doc["solutions"]) == 4

    def test_infinite_classification(self, tmp_path, eq_x_squared_identity):
        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(equation_to_doc(eq_x_squared_identity), eq_path)
        assert run("solve", "--in", eq_path, "--out", out) == 0
        doc = load_doc(out)
        assert doc["classification"] == "infinite"
        assert doc["certificate"]["reason"] == "two_dim_space_with_second_value"

    def test_empty_finite(self, tmp_path, eq_x_squared_nilpotent):
        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(equation_to_doc(eq_x_squared_nilpotent), eq_path)
        assert run("solve", "--in", eq_path, "--out", out) == 0
        doc = load_doc(out)
        assert doc["classification"] == "finite"
        assert doc["solutions"] == []

    @pytest.mark.parametrize("backend", ["a", "b"])
    def test_polish_that_leaves_its_bunch_exits_4(self, tmp_path, capsys,
                                                  backend):
        # on both backends the polish of a simple root of the diagonal
        # (7, 4) equation leaves its bunch; keeping its start gives 49
        # solutions
        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        eq = diagonal_equation(4, 7)
        save_doc(equation_to_doc(eq), eq_path)
        assert run("solve", "--in", eq_path, "--out", out,
                   "--backend", backend) == 4
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_backend_choices_follow_the_table(self):
        # --backend takes the table's names, and a and b for its first and
        # second entries
        assert sorted(set(cli._BACKENDS.values())) == sorted(BACKENDS)
        assert [cli._BACKENDS[alias] for alias in "ab"] == list(BACKENDS)
        assert all(cli._BACKENDS[name] == name for name in BACKENDS)
        assert sorted(cli._BACKENDS) == sorted(["a", "b", *BACKENDS])

    def test_backend_selection(self, tmp_path, eq_four_solutions):
        eq_path = tmp_path / "eq.json"
        save_doc(equation_to_doc(eq_four_solutions), eq_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("solve", "--in", eq_path, "--out", out_a,
                   "--backend", "a") == 0
        assert run("solve", "--in", eq_path, "--out", out_b,
                   "--backend", "companion") == 0
        a = solution_set_from_doc(load_doc(out_a))
        b = solution_set_from_doc(load_doc(out_b))
        assert len(a.solutions) == len(b.solutions) == 4

    def test_internal_inconsistency_exits_6(self, tmp_path, capsys,
                                            monkeypatch, eq_four_solutions):
        def fail(*args, **kwargs):
            raise InternalInconsistency("candidate residual exceeds its bound")

        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(equation_to_doc(eq_four_solutions), eq_path)
        monkeypatch.setattr(cli, "solve_equation", fail)
        assert run("solve", "--in", eq_path, "--out", out) == 6
        assert capsys.readouterr().err == \
            "internal inconsistency: candidate residual exceeds its bound\n"
        assert not out.exists()

    def test_malformed_input_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": "1"', encoding="utf-8")
        assert run("solve", "--in", bad, "--out", tmp_path / "o.json") == 1

    def test_integer_beyond_double_range_exits_1(self, tmp_path, capsys,
                                                  eq_four_solutions):
        # JSON reads 10**400 as an int, which no double can hold
        doc = equation_to_doc(eq_four_solutions)
        doc["coefficients"][0][0][0][0] = 10 ** 400
        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(doc, eq_path)
        capsys.readouterr()
        assert run("solve", "--in", eq_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("bad input: ")
        assert not out.exists()

    @pytest.mark.parametrize("scale,code,err", [
        (1e40, 4, "non-convergence: "),
        (1e200, 1, "bad input: "),
    ])
    def test_huge_coefficients_exit_with_one_line(self, tmp_path,
                                                  scaled_random_equation,
                                                  scale, code, err):
        # a fresh interpreter, so numpy's warnings reach stderr as they
        # would for a user; at 1e200 the document is refused before solving
        doc = equation_to_doc(scaled_random_equation(5, 2, 1.0))
        for coef in doc["coefficients"]:
            for row in coef:
                for pair in row:
                    pair[:] = [scale * part for part in pair]
        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(doc, eq_path)
        proc = subprocess.run(
            [sys.executable, "-m", "matpolyeq", "solve",
             "--in", str(eq_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(err)
        assert not out.exists()

    @pytest.mark.parametrize("n, entry, err", [
        (17, 0.0, "bad input: degree must be in 1..16"),
        (2, 1e160, "bad input: coefficient scale 1e+160 overflows det M(t)"),
    ])
    def test_equation_refused_by_its_type_exits_1(self, tmp_path, capsys, n,
                                                  entry, err):
        # a well-formed document that MatrixEquation refuses
        doc = {"format_version": "1", "n": n, "coefficients": [
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
            for _ in range(n)]}
        doc["coefficients"][0][0][0][0] = entry
        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(doc, eq_path)
        capsys.readouterr()
        assert run("solve", "--in", eq_path, "--out", out) == 1
        assert capsys.readouterr().err == err + "\n"
        assert not out.exists()

    def test_tiny_coefficients_exit_4_with_one_line(self, tmp_path):
        # X + 1e-200 I = 0: the kernel vector of M(t) underflows, a typed
        # non-convergence, not a traceback; a fresh interpreter, so a
        # traceback or a numpy warning would reach stderr
        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(equation_to_doc(MatrixEquation(
            (Mat2.diag(1e-200, 1e-200),))), eq_path)
        proc = subprocess.run(
            [sys.executable, "-m", "matpolyeq", "solve",
             "--in", str(eq_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [
            "non-convergence: the kernel vector underflows at critical "
            "value -2e-200+0j"]
        assert not out.exists()

    @pytest.mark.parametrize("a1", [
        Mat2.diag(1e77, 2e77), Mat2.diag(1e100, 2e100),
        Mat2.diag(1e150, 2e150), Mat2(-2e76, -1.2e77, 0, 1e77)],
        ids=["1e77", "1e100", "1e150", "triangular"])
    def test_large_coefficients_exit_4_with_one_line(self, tmp_path, a1):
        # X^2 + A X = 0, far inside the coefficient cap: the kernel vector
        # of M(t) overflows, a typed non-convergence, not a traceback
        eq_path, out = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(equation_to_doc(MatrixEquation((Mat2.zero(), a1))), eq_path)
        proc = subprocess.run(
            [sys.executable, "-m", "matpolyeq", "solve",
             "--in", str(eq_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 4
        [line] = proc.stderr.splitlines()
        assert line.startswith("non-convergence: the kernel vector "
                               "overflows at critical value ")
        assert not out.exists()


class TestVerifyCommand:
    def _pipeline(self, tmp_path, eq):
        eq_path, sol = tmp_path / "eq.json", tmp_path / "sol.json"
        save_doc(equation_to_doc(eq), eq_path)
        assert run("solve", "--in", eq_path, "--out", sol) == 0
        return eq_path, sol

    def test_matching_pair_passes(self, tmp_path, eq_four_solutions):
        eq_path, sol = self._pipeline(tmp_path, eq_four_solutions)
        report = tmp_path / "report.json"
        assert run("verify", "--equation", eq_path, "--solutions", sol,
                   "--report", report) == 0
        assert load_doc(report)["verdict"] == "pass"

    def test_perturbed_solution_exits_5(self, tmp_path, eq_four_solutions):
        eq_path, sol = self._pipeline(tmp_path, eq_four_solutions)
        doc = load_doc(sol)
        doc["solutions"][0]["matrix"][0][0][0] += 1e-2
        save_doc(doc, sol)
        assert run("verify", "--equation", eq_path, "--solutions", sol) == 5

    def test_overflowing_entry_exits_5(self, tmp_path, capsys, eq_degree_one):
        # a finite entry whose modulus exceeds the largest double: the
        # residual is inf and the set fails, with no traceback
        eq_path, sol = self._pipeline(tmp_path, eq_degree_one)
        doc = load_doc(sol)
        doc["solutions"][0]["matrix"][0][0] = [1.5e308, 1.5e308]
        save_doc(doc, sol)
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run("verify", "--equation", eq_path, "--solutions", sol,
                   "--report", report) == 5
        assert "Traceback" not in capsys.readouterr().err
        doc = strict_json(report)
        assert doc["verdict"] == "fail"
        assert doc["max_residual"] is None

    def test_infinite_residual_report_is_strict_json(self, tmp_path):
        eq_path, sol = tmp_path / "eq.json", tmp_path / "sol.json"
        assert run("construct", "--n", 2, "--m", 4, "--out", eq_path) == 0
        assert run("solve", "--in", eq_path, "--out", sol) == 0
        doc = load_doc(sol)
        doc["solutions"][0]["matrix"][0][0] = [1e200, 0.0]
        save_doc(doc, sol)
        report = tmp_path / "report.json"
        assert run("verify", "--equation", eq_path, "--solutions", sol,
                   "--report", report) == 5
        doc = strict_json(report)
        # X^2 overflows at the 1e200 entry: its residual is written as null
        assert doc["max_residual"] is None
        assert doc["residuals"][0] is None
        assert all(isinstance(r, float) for r in doc["residuals"][1:])
        assert isinstance(doc["min_pair_distance"], float)
        assert doc["checks"]["residuals"] is False

    def test_infinite_document_passes(self, tmp_path,
                                      eq_x_squared_identity):
        # X^2 = I is infinite; its untouched document verifies, the
        # certificate and the claim against a fresh solve both passing
        eq_path, sol = self._pipeline(tmp_path, eq_x_squared_identity)
        report = tmp_path / "report.json"
        assert run("verify", "--equation", eq_path, "--solutions", sol,
                   "--report", report) == 0
        doc = load_doc(report)
        assert doc["verdict"] == "pass"
        assert doc["checks"]["certificate"] is True
        assert doc["checks"]["solve_agreement"] is True

    def test_infinite_set_with_a_solution_exits_1(self, tmp_path, capsys,
                                                   eq_x_squared_identity):
        # X^2 = I is infinite; one appended row must not pass as a count
        eq_path, sol = self._pipeline(tmp_path, eq_x_squared_identity)
        doc = load_doc(sol)
        doc["solutions"].append({"matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                            [[0.0, 0.0], [1.0, 0.0]]],
                                 "kind": "scalar", "residual": 0.0})
        save_doc(doc, sol)
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run("verify", "--equation", eq_path, "--solutions", sol,
                   "--report", report) == 1
        assert capsys.readouterr().err == \
            "bad input: infinite classification cannot carry solutions\n"
        assert not report.exists()

    def test_moved_certificate_direction_exits_5(self, tmp_path, capsys,
                                                 eq_x_squared_identity):
        # X^2 = I is infinite; its family with one direction entry moved
        # leaves the solution set at every sample parameter
        eq_path, sol = self._pipeline(tmp_path, eq_x_squared_identity)
        doc = load_doc(sol)
        doc["certificate"]["direction"][0][0][0] += 0.5
        save_doc(doc, sol)
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run("verify", "--equation", eq_path, "--solutions", sol,
                   "--report", report) == 5
        err = capsys.readouterr().err
        assert "certificate samples: FAIL" in err
        assert "backend agreement: ok" in err
        assert "  - certificate sample mu=1.0 fails its residual\n" in err
        doc = load_doc(report)
        assert doc["verdict"] == "fail"
        assert doc["checks"]["certificate"] is False

    def _claim_fails(self, capsys, eq_path, sol, reason):
        """verify exits 5 on the claimed set with one reason, the claim's
        own, on its own row: the backends agree with each other."""
        report = sol.parent / "report.json"
        capsys.readouterr()
        assert run("verify", "--equation", eq_path, "--solutions", sol,
                   "--report", report) == 5
        err = capsys.readouterr().err.splitlines()
        assert "backend agreement: ok" in err
        assert err[-3:] == ["solve agreement: FAIL", "verdict: fail",
                            f"  - {reason}"]
        doc = load_doc(report)
        assert doc["checks"]["backend_agreement"] is True
        assert doc["checks"]["solve_agreement"] is False
        assert doc["reasons"] == [reason]

    def test_finite_claim_of_an_infinite_set_exits_5(
            self, tmp_path, capsys, eq_x_squared_identity):
        # X^2 = I is infinite; I and -I alone pass every other check
        eq_path, sol = self._pipeline(tmp_path, eq_x_squared_identity)
        doc = load_doc(sol)
        del doc["certificate"]
        doc["classification"] = "finite"
        doc["solutions"] = [
            {"matrix": [[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [s, 0.0]]],
             "kind": "scalar", "residual": 0.0} for s in (1.0, -1.0)]
        save_doc(doc, sol)
        self._claim_fails(capsys, eq_path, sol, "the claimed set does not "
                          "match the solve (2 claimed, infinite solved)")

    def test_truncated_claim_exits_5(self, tmp_path, capsys):
        eq_path, sol = tmp_path / "eq.json", tmp_path / "sol.json"
        assert run("construct", "--n", 3, "--m", 11, "--out", eq_path) == 0
        assert run("solve", "--in", eq_path, "--out", sol) == 0
        doc = load_doc(sol)
        del doc["solutions"][-3:]
        save_doc(doc, sol)
        self._claim_fails(capsys, eq_path, sol, "the claimed set does not "
                          "match the solve (8 claimed, 11 solved)")

    def test_companion_backend_document_passes(self, tmp_path):
        eq_path, sol = tmp_path / "eq.json", tmp_path / "sol.json"
        assert run("construct", "--n", 3, "--m", 11, "--out", eq_path) == 0
        assert run("solve", "--in", eq_path, "--out", sol,
                   "--backend", "b") == 0
        report = tmp_path / "report.json"
        assert run("verify", "--equation", eq_path, "--solutions", sol,
                   "--report", report) == 0
        checks = load_doc(report)["checks"]
        assert checks["backend_agreement"] is checks["solve_agreement"] is True

    def test_internal_inconsistency_exits_6(self, tmp_path, capsys,
                                            monkeypatch, eq_four_solutions):
        eq_path, sol = self._pipeline(tmp_path, eq_four_solutions)
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise InternalInconsistency("no critical space at critical value 1")

        monkeypatch.setattr(cli, "count_cross_check", fail)
        assert run("verify", "--equation", eq_path, "--solutions", sol) == 6
        assert capsys.readouterr().err == \
            "internal inconsistency: no critical space at critical value 1\n"

    def test_truncated_document_exits_1(self, tmp_path, eq_four_solutions):
        eq_path, sol = self._pipeline(tmp_path, eq_four_solutions)
        sol.write_text(sol.read_text()[:40], encoding="utf-8")
        assert run("verify", "--equation", eq_path, "--solutions", sol) == 1

    def test_residual_beyond_double_range_exits_1(self, tmp_path, capsys,
                                                   eq_four_solutions):
        eq_path, sol = self._pipeline(tmp_path, eq_four_solutions)
        doc = load_doc(sol)
        doc["solutions"][0]["residual"] = 10 ** 400
        save_doc(doc, sol)
        capsys.readouterr()
        assert run("verify", "--equation", eq_path, "--solutions", sol) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("bad input: ")

    # save_doc refuses NaN and Infinity, so the documents below are written
    # with the json module's default, which spells them out
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0],
                             ids=["NaN", "Infinity", "negative"])
    def test_nonfinite_or_negative_residual_exits_1(self, tmp_path, capsys,
                                                    eq_four_solutions, bad):
        eq_path, sol = self._pipeline(tmp_path, eq_four_solutions)
        doc = load_doc(sol)
        doc["solutions"][0]["residual"] = bad
        sol.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run("verify", "--equation", eq_path, "--solutions", sol) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("bad input: solution 0 needs a finite")

    @pytest.mark.parametrize("bad", ["x", [1], True, "nan", None, {},
                                     pytest.param(10 ** 400, id="10**400"),
                                     pytest.param(math.nan, id="NaN"),
                                     pytest.param(math.inf, id="Infinity"),
                                     pytest.param(-5.0, id="negative")])
    def test_bad_sample_residual_exits_1(self, tmp_path, capsys,
                                         eq_x_squared_identity, bad):
        eq_path, sol = self._pipeline(tmp_path, eq_x_squared_identity)
        doc = load_doc(sol)
        doc["certificate"]["sample_residuals"][1] = bad
        sol.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run("verify", "--equation", eq_path, "--solutions", sol) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("bad input: ")


class TestSweepCommand:
    def test_small_sweep_passes(self, tmp_path):
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 2, "--report", report) == 0
        text = report.read_text()
        assert "cells: 7, failures: 0" in text
        # one data row per cell plus header and summary
        assert len(text.strip().splitlines()) == 9

    def test_zero_n_max_exits_2(self, tmp_path):
        assert run("sweep", "--n-max", 0, "--report", tmp_path / "t.txt") == 2

    def test_n_max_beyond_the_cap_exits_2(self, tmp_path, capsys,
                                          monkeypatch):
        # refused before any cell runs: each would fail in construct
        def no_cell(cell):
            raise AssertionError(f"cell {cell} ran")

        monkeypatch.setattr(cli, "_sweep_cell", no_cell)
        report = tmp_path / "t.txt"
        assert run("sweep", "--n-max", MAX_DEGREE + 1, "--report", report) == 2
        assert capsys.readouterr().err == \
            f"domain error: --n-max is capped at {MAX_DEGREE}\n"
        assert not report.exists()

    @pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
    def test_unwritable_report_is_refused_before_any_cell(
            self, tmp_path, capsys, monkeypatch, where):
        def no_cell(cell):
            raise AssertionError(f"cell {cell} ran")

        monkeypatch.setattr(cli, "_sweep_cell", no_cell)
        report = {"missing_directory": tmp_path / "missing" / "t.txt",
                  "a_directory": tmp_path}[where]
        before = sorted(tmp_path.rglob("*"))
        assert run("sweep", "--n-max", 2, "--report", report) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("i/o error: ") and str(report) in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("old", [None, "an older table\n"])
    def test_report_is_written_when_the_sweep_ends(self, tmp_path,
                                                   monkeypatch, old):
        # the probe of the path leaves a new report absent and an old one
        # as it was until every cell has run
        report = tmp_path / "table.txt"
        if old is not None:
            report.write_text(old)
        real = cli._sweep_cell

        def cell(c):
            assert (report.read_text() if report.exists() else None) == old
            return real(c)

        monkeypatch.setattr(cli, "_sweep_cell", cell)
        assert run("sweep", "--n-max", 2, "--report", report) == 0
        assert "cells: 7, failures: 0" in report.read_text()

    def test_full_sweep_to_degree_five(self, tmp_path):
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 5, "--report", report) == 0
        assert "cells: 95, failures: 0" in report.read_text()

    def test_small_cells_match_the_ledger(self):
        # sweep_ledger.txt holds the n, m, count and error columns of
        # `matpolyeq sweep --n-max 16`, one row per cell; CI compares the
        # full sweep with it, and this the 161 cells with n <= 6
        ledger = Path(__file__).with_name("sweep_ledger.txt")
        header, *rows = [line.split()
                         for line in ledger.read_text().splitlines()]
        assert header == ["n", "m", "count", "error"]
        assert len(rows) == 2856
        small = [r for r in rows if int(r[0]) <= 6]
        assert len(small) == 161
        got = []
        for n, m, _, _ in small:
            row = cli._sweep_cell((int(n), int(m)))
            got.append([n, m, str(row["count"]), row["error"] or "-"])
        assert got == small

    def test_rescaled_ledger_keeps_the_cells_it_does_not_fail(
            self, monkeypatch):
        # sweep_ledger_j4.txt holds the same columns of the sweep at
        # X = 16 Y (tests/rescaled_sweep.py j=4): every cell keeps its j = 0
        # row but 304 loud ones at n = 13..16, where the companion polish
        # leaves its bunch (294) or both backends fail and aberth raises
        # first (10); CI compares the full sweep with it, and this the
        # first failing cell of each kind
        plain, rescaled_rows = ledger_rows("sweep_ledger.txt"), \
            ledger_rows("sweep_ledger_j4.txt")
        assert [r[:2] for r in rescaled_rows] == [r[:2] for r in plain]
        loud = [r for r, want in zip(rescaled_rows, plain) if r != want]
        assert {(r[2], r[3]) for r in loud} == {
            ("-", "aberth:NonConvergence"), ("-", "companion:NonConvergence")}
        assert len(loud) == 304
        assert min(int(r[0]) for r in loud) == 13
        transformed_construct(monkeypatch, lambda eq: rescaled(eq, 4))
        first_aberth = next(r for r in loud if r[3].startswith("aberth"))
        for n, m, _, error in (loud[0], first_aberth):
            assert cli._sweep_cell((int(n), int(m)))["error"] == error

    @pytest.mark.parametrize("s", [18, -18])
    def test_similar_ledger_keeps_the_cells_it_does_not_fail(
            self, monkeypatch, s):
        # sweep_ledger_s18.txt holds the same columns of the sweep under
        # the similarity by diag(1, 2^s) (tests/rescaled_sweep.py s=18 and
        # s=-18 write the same table): every cell keeps its j = 0 row but
        # 90 at n = 13..16 whose count is wrong, with both backends agreeing
        # and verify passing; CI compares both full sweeps with it, and
        # this the first and the last of them
        plain, similar_rows = ledger_rows("sweep_ledger.txt"), \
            ledger_rows("sweep_ledger_s18.txt")
        assert [r[:2] for r in similar_rows] == [r[:2] for r in plain]
        wrong = [r for r, want in zip(similar_rows, plain) if r != want]
        assert all(r[3] == f"count:{r[2]}!={r[1]}" for r in wrong)
        assert len(wrong) == 90
        assert min(int(r[0]) for r in wrong) == 13
        transformed_construct(monkeypatch,
                              lambda eq: diagonally_similar(eq, 2.0 ** s))
        for n, m, count, error in (wrong[0], wrong[-1]):
            row = cli._sweep_cell((int(n), int(m)))
            assert (str(row["count"]), row["error"]) == (count, error)

    def test_sixteen_at_degree_nine_fails_on_the_companion_polish(
            self, monkeypatch):
        # the constructed cell counts 16; its diagonal equation counts 16
        # with aberth, but on the companion backend the polish of a simple
        # root leaves its bunch, and the error names the stage
        assert cli._sweep_cell((9, 16))["error"] is None
        real = cli.construct
        monkeypatch.setattr(cli, "construct", lambda n, m, **kwargs:
            real(n, m, **kwargs)._replace(equation=diagonal_equation(m, n)))
        assert cli._sweep_cell((9, 16))["error"] == \
            "companion:NonConvergence"

    def test_crashed_cell_shows_error_type(self, tmp_path, monkeypatch):
        real_construct = cli.construct

        class Collapse(RuntimeError):
            pass

        def construct(n, m, **kwargs):
            if (n, m) == (2, 5):
                raise Collapse("pivot 1e-15 in column 3")
            return real_construct(n, m, **kwargs)

        monkeypatch.setattr(cli, "construct", construct)
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 2, "--report", report) == 5
        lines = report.read_text().splitlines()
        assert lines[0].split()[-1] == "error"
        rows = {tuple(line.split()[:2]): line.split() for line in lines[1:8]}
        # n, m, p, pbar, count, max_residual, ms, status, error
        crashed = rows[("2", "5")]
        assert crashed[4] == "-"
        assert crashed[7:] == ["FAIL", "construct:Collapse"]
        assert rows[("2", "6")][4] == "6"
        assert rows[("2", "6")][7:] == ["pass", "-"]
        assert "failing cells: (2, 5)" in lines[-1]

    def test_crashed_check_is_named_check(self, monkeypatch):
        # a crash after both backends' roots is the check's; verify: only
        # ever lists failed rows
        def count_cross_check(eq):
            raise InternalInconsistency("candidate residual exceeds its bound")

        monkeypatch.setattr(sys.modules["matpolyeq.construct"],
                            "count_cross_check", count_cross_check)
        row = cli._sweep_cell((2, 5))
        assert (row["count"], row["error"]) == \
            ("-", "check:InternalInconsistency")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crashed_backend_is_named_by_the_table(self, tmp_path,
                                                   monkeypatch, backend):
        # a cell whose backend kernel raises is labelled by that backend's
        # table name; every det M(t) at n <= 2 has a nonzero root, so every
        # cell runs each kernel
        def spent(c):
            raise NonConvergence(f"no convergence at degree {len(c) - 1}")

        monkeypatch.setitem(BACKENDS, backend, spent)
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 2, "--report", report) == 5
        rows = [line.split() for line in report.read_text().splitlines()[1:8]]
        assert [row[7:] for row in rows] == \
            [["FAIL", f"{backend}:NonConvergence"]] * 7

    def test_failed_cell_names_its_cause(self, tmp_path, monkeypatch):
        real_construct = cli.construct

        def construct(n, m, **kwargs):
            # cell (2, 5) gets the equation of (2, 6): a wrong count only
            return real_construct(n, 6 if (n, m) == (2, 5) else m, **kwargs)

        monkeypatch.setattr(cli, "construct", construct)
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 2, "--report", report) == 5
        lines = report.read_text().splitlines()
        rows = {tuple(line.split()[:2]): line.split() for line in lines[1:8]}
        assert rows[("2", "5")][4] == "6"
        assert rows[("2", "5")][7:] == ["FAIL", "count:6!=5"]
        for key, row in rows.items():
            if key != ("2", "5"):
                assert row[7:] == ["pass", "-"], key
        assert "failing cells: (2, 5)" in lines[-1]

    def test_failed_cell_names_backends_and_checks(self, tmp_path,
                                                   monkeypatch):
        # the sweep's verdict is construct.check, which looks both up in
        # the construct module (matpolyeq.construct is the function)
        module = sys.modules["matpolyeq.construct"]
        real_cross, real_verify = \
            module.count_cross_check, module.verify_solution_set

        # at n = 1 the backends disagree and two report checks fail: three
        # failed rows of one report, in table order
        def count_cross_check(eq):
            cross = real_cross(eq)
            return cross._replace(agree=cross.agree and eq.n != 1)

        def verify_solution_set(eq, sset, backend_agreement=None):
            report = real_verify(eq, sset, backend_agreement=backend_agreement)
            return report if eq.n != 1 else report._replace(
                eigenvalues_ok=False, char_divisor_ok=False)

        monkeypatch.setattr(module, "count_cross_check", count_cross_check)
        monkeypatch.setattr(module, "verify_solution_set", verify_solution_set)
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 2, "--report", report) == 5
        lines = report.read_text().splitlines()
        rows = {tuple(line.split()[:2]): line.split() for line in lines[1:8]}
        assert rows[("1", "1")][4] == "1"
        assert rows[("1", "1")][7:] == \
            ["FAIL", "verify:eigenvalues+char_divisor+backend_agreement"]
        assert all(row[7:] == ["pass", "-"] for key, row in rows.items()
                   if key != ("1", "1"))

    def test_parallel_jobs(self, tmp_path):
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 2, "--report", report, "--jobs", 2) == 0
        assert "cells: 7, failures: 0" in report.read_text()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        capsys.readouterr()
        assert run("sweep", "--n-max", 1, "--report", tmp_path / "t.txt",
                   "--jobs", jobs) == 2
        assert capsys.readouterr().err == "domain error: --jobs must be >= 1\n"
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (5000, 64, 7),     # no more workers than the 7 cells
        (5000, 3, 3),      # nor than the CPUs
        (2, 64, 2),
        (5000, 1, None),   # one worker: serial, no pool
        (5000, None, None),
    ])
    def test_pool_size(self, tmp_path, monkeypatch, jobs, cpus, workers):
        pools = []

        class FakePool:
            # records its size and runs the cells here, starting nothing
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # the sweep imports the pool only where it runs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 2, "--report", report,
                   "--jobs", jobs) == 0
        assert "cells: 7, failures: 0" in report.read_text()
        assert pools == ([] if workers is None else [workers])


@pytest.mark.parametrize("command", ["construct", "plan", "solve", "verify",
                                     "sweep"])
def test_unwritable_output_exits_1(tmp_path, capsys, eq_four_solutions,
                                   command):
    eq_path, sol = tmp_path / "eq.json", tmp_path / "sol.json"
    save_doc(equation_to_doc(eq_four_solutions), eq_path)
    assert run("solve", "--in", eq_path, "--out", sol) == 0
    capsys.readouterr()
    missing = tmp_path / "missing" / "out.json"
    args = {
        "construct": ("construct", "--n", 2, "--m", 4, "--out", missing),
        "plan": ("construct", "--n", 2, "--m", 4, "--out", tmp_path / "e.json",
                 "--plan", missing),
        "solve": ("solve", "--in", eq_path, "--out", missing),
        "verify": ("verify", "--equation", eq_path, "--solutions", sol,
                   "--report", missing),
        "sweep": ("sweep", "--n-max", 1, "--report", missing),
    }[command]
    assert run(*args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("i/o error: ")
    assert str(missing) in err
    if command == "plan":
        assert not (tmp_path / "e.json").exists()


def _refused(capsys, args, inputs, flag):
    """The command exits 1 with one stderr line naming flag, before it
    changes any of the input files."""
    before = {path: path.read_bytes() for path in inputs}
    capsys.readouterr()
    assert run(*args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"bad input: {flag} ")
    assert "refusing to overwrite" in captured.err
    assert {path: path.read_bytes() for path in inputs} == before


@pytest.mark.parametrize("spelling", ["same", "dotdot", "hard_link"])
def test_solve_refuses_to_overwrite_its_input(tmp_path, capsys,
                                              eq_four_solutions, spelling):
    eq_path = tmp_path / "eq.json"
    save_doc(equation_to_doc(eq_four_solutions), eq_path)
    (tmp_path / "sub").mkdir()
    out = {"same": eq_path,
           "dotdot": tmp_path / "sub" / ".." / "eq.json",
           "hard_link": tmp_path / "link.json"}[spelling]
    if spelling == "hard_link":
        os.link(eq_path, out)
    _refused(capsys, ("solve", "--in", eq_path, "--out", out), [eq_path],
             "--out")


@pytest.mark.parametrize("exists", [True, False])
def test_construct_refuses_one_path_for_both_outputs(tmp_path, capsys,
                                                     exists):
    doc = tmp_path / "x.json"
    if exists:
        assert run("construct", "--n", 2, "--m", 4, "--out", doc) == 0
    (tmp_path / "sub").mkdir()
    _refused(capsys, ("construct", "--n", 2, "--m", 5, "--out", doc,
                      "--plan", tmp_path / "sub" / ".." / "x.json"),
             [doc] if exists else [], "--plan")
    assert doc.exists() == exists


def test_verify_refuses_to_overwrite_its_solutions(tmp_path, capsys,
                                                   eq_four_solutions):
    eq_path, sol = tmp_path / "eq.json", tmp_path / "sol.json"
    save_doc(equation_to_doc(eq_four_solutions), eq_path)
    assert run("solve", "--in", eq_path, "--out", sol) == 0
    _refused(capsys, ("verify", "--equation", eq_path, "--solutions", sol,
                      "--report", sol), [eq_path, sol], "--report")


# documents that are no JSON object: bytes that are no UTF-8, nesting
# deeper than the parser's recursion limit, nothing, and a JSON array
MALFORMED = {
    "invalid_utf8": b"\xff\xfe{}",
    "deep_nesting": b"[" * 100_000,
    "empty": b"",
    "array": b"[]",
    # past CPython's 4,300-digit integer-string limit
    "huge_integer": b'{"n": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("slot", ["solve_in", "verify_equation",
                                  "verify_solutions"])
def test_malformed_document_exits_1_without_traceback(tmp_path, capsys,
                                                      eq_four_solutions,
                                                      slot, name):
    eq_path, sol = tmp_path / "eq.json", tmp_path / "sol.json"
    save_doc(equation_to_doc(eq_four_solutions), eq_path)
    assert run("solve", "--in", eq_path, "--out", sol) == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED[name])
    args = {
        "solve_in": ("solve", "--in", bad, "--out", tmp_path / "out.json"),
        "verify_equation": ("verify", "--equation", bad, "--solutions", sol),
        "verify_solutions": ("verify", "--equation", eq_path,
                             "--solutions", bad),
    }[slot]
    capsys.readouterr()
    assert run(*args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("bad input: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_cli_import_leaves_the_pool_out():
    # only sweep --jobs > 1 runs a pool; every other command starts
    # without concurrent.futures and multiprocessing
    src = str(Path(matpolyeq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, matpolyeq.cli; "
         "assert 'concurrent.futures' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path):
    # python -m matpolyeq runs __main__.py on the package imported here
    out = tmp_path / "eq.json"
    src = str(Path(matpolyeq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "matpolyeq", "construct",
         "--n", "2", "--m", "3", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(out)
    assert equation_from_doc(load_doc(out)) == construct(2, 3).equation
