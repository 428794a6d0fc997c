import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from matpolyeq import cli
from matpolyeq.cli import main
from matpolyeq.construct import ValidationFailure
from matpolyeq.documents import (equation_to_doc, load_doc, save_doc,
                                 solution_set_from_doc)
from matpolyeq.mat2 import MAX_DEGREE
from matpolyeq.poly import NonConvergence, SingularSystem
from matpolyeq.solver import InternalInconsistency


def run(*args):
    return main([str(a) for a in args])


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

    def test_degree_seven_full_count_round_trips(self, tmp_path):
        # 66 = C(12, 2): eleven nonzero singleton blocks next to 0
        eq_path, sol = tmp_path / "eq.json", tmp_path / "sol.json"
        assert run("construct", "--n", 7, "--m", 66, "--out", eq_path) == 0
        assert run("solve", "--in", eq_path, "--out", sol) == 0
        doc = load_doc(sol)
        assert doc["classification"] == "finite"
        assert len(doc["solutions"]) == 66

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
        real_cross, real_verify = cli.count_cross_check, cli.verify_solution_set

        # at n = 1 the backends disagree and two report checks fail
        def count_cross_check(eq):
            cross = real_cross(eq)
            return replace(cross, agree=cross.agree and eq.n != 1)

        def verify_solution_set(eq, sset, backend_agreement=None):
            report = real_verify(eq, sset, backend_agreement=backend_agreement)
            return report if eq.n != 1 else replace(
                report, eigenvalues_ok=False, char_divisor_ok=False)

        monkeypatch.setattr(cli, "count_cross_check", count_cross_check)
        monkeypatch.setattr(cli, "verify_solution_set", verify_solution_set)
        report = tmp_path / "table.txt"
        assert run("sweep", "--n-max", 2, "--report", report) == 5
        lines = report.read_text().splitlines()
        rows = {tuple(line.split()[:2]): line.split() for line in lines[1:8]}
        assert rows[("1", "1")][4] == "1"
        assert rows[("1", "1")][7:] == \
            ["FAIL", "backends,verify:eigenvalues+char_divisor"]
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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
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


def test_module_entry_point(tmp_path):
    out = tmp_path / "eq.json"
    proc = subprocess.run(
        [sys.executable, "-m", "matpolyeq", "construct",
         "--n", "1", "--m", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == str(out)
    assert json.loads(out.read_text())["n"] == 1
