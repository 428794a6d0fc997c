import json
import subprocess
import sys

import pytest

from matpolyeq import cli
from matpolyeq.cli import main
from matpolyeq.construct import UnreachableCase
from matpolyeq.documents import (equation_to_doc, load_doc, save_doc,
                                 solution_set_from_doc)
from matpolyeq.poly import NonConvergence, SingularSystem
from matpolyeq.solver import InternalInconsistency


def run(*args):
    return main([str(a) for a in args])


class TestConstructCommand:
    def test_four_solution_document(self, tmp_path):
        out = tmp_path / "eq.json"
        assert run("construct", "--n", 2, "--m", 4, "--out", out) == 0
        doc = load_doc(out)
        assert doc["coefficients"][0] == [[[-1.0, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [-4.0, 0.0]]]

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

    def test_singular_system_exits_3(self, tmp_path, capsys):
        # the n = 7, m = 66 Vandermonde solve hits a pivot below its floor
        out = tmp_path / "eq.json"
        assert run("construct", "--n", 7, "--m", 66, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation failure (SingularSystem)")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("exc,code", [
        (UnreachableCase("reduces to m = 4"), 3),
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

    def test_seeded_targets(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
        assert run("construct", "--n", 2, "--m", 5, "--out", a,
                   "--seed-values", 7) == 0
        assert run("construct", "--n", 2, "--m", 5, "--out", b,
                   "--seed-values", 7) == 0
        assert run("construct", "--n", 2, "--m", 5, "--out", c,
                   "--seed-values", 8) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


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

    def test_full_sweep_to_degree_five(self, tmp_path):
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 5, "--report", report) == 0
        assert "cells: 95, failures: 0" in report.read_text()

    def test_crashed_cell_shows_error_type(self, tmp_path, monkeypatch):
        real_construct = cli.construct

        def construct(n, m, **kwargs):
            if (n, m) == (2, 5):
                raise SingularSystem("pivot 1e-15 in column 3")
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
        assert crashed[7:] == ["FAIL", "SingularSystem"]
        assert rows[("2", "6")][4] == "6"
        assert rows[("2", "6")][7:] == ["pass", "-"]
        assert "failing cells: (2, 5)" in lines[-1]

    def test_parallel_jobs(self, tmp_path):
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 1, "--report", report, "--jobs", 2) == 0
        assert "failures: 0" in report.read_text()


def test_module_entry_point(tmp_path):
    out = tmp_path / "eq.json"
    proc = subprocess.run(
        [sys.executable, "-m", "matpolyeq", "construct",
         "--n", "1", "--m", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == str(out)
    assert json.loads(out.read_text())["n"] == 1
