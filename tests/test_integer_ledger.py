"""The solver against tests/integer_ledger.txt: the exact solution counts,
from Groebner bases modulo two primes (tests/make_integer_ledger.py), of
seeded equations with Gaussian-integer coefficients
(``helpers.integer_equation``).  Their doubles are exact, so the exact count
of the stored equation is the right answer, whatever the convention for
rounded inputs."""

from pathlib import Path

import pytest

from matpolyeq.verify import count_cross_check, verify_solution_set

from helpers import integer_equation, integer_ledger_rows


def _ledger_rows():
    lines = Path(__file__).with_name("integer_ledger.txt").read_text()
    header, *rows = [line.split() for line in lines.splitlines()]
    assert header[:3] == ["parts", "n", "seed"] and len(header) == 5
    return [((parts, int(n), int(seed)), counts)
            for parts, n, seed, *counts in rows]


LEDGER = dict(_ledger_rows())


def test_ledger_holds_every_seeded_equation_once():
    keys = [key for key, _ in _ledger_rows()]
    assert keys == integer_ledger_rows()
    assert len(keys) == 300


@pytest.mark.parametrize("parts, n, seed", integer_ledger_rows())
def test_solver_gives_the_exact_count(parts, n, seed):
    first, second = LEDGER[parts, n, seed]
    assert first == second  # the two primes agree
    eq = integer_equation(parts, n, seed)
    cross = count_cross_check(eq)
    assert cross.agree
    report = verify_solution_set(eq, cross.set_a,
                                 backend_agreement=cross.agree)
    assert report.verdict == "pass", report.failed
    assert cross.count_a == (None if first == "inf" else int(first))
