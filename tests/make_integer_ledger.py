"""Write tests/integer_ledger.txt: the exact solution count of every seeded
Gaussian-integer equation ``helpers.integer_equation`` builds for the
ledger, from Groebner bases modulo two primes.  It imports sympy, which the
package does not depend on, and is run by hand, in neither tier-1 nor CI:

    PYTHONPATH=src python tests/make_integer_ledger.py

The equations are fixed before anything is solved
(``helpers.integer_ledger_rows``).  For each prime P (both are 1 mod 4,
so i maps to a square root of -1 mod P), f(X) = 0 is reduced mod P entry by
entry, the four unknowns go through a seeded random linear change of
coordinates, and the grevlex basis (``modulus=P``) is converted to lex by
FGLM.  The count is the degree of the squarefree part of the eliminant in
the last unknown: in generic coordinates distinct solutions project to
distinct roots.  A positive-dimensional ideal counts as inf, and an ideal
that holds 1 as 0.
"""

import random
import sys
import time
from pathlib import Path

from sympy import Matrix, Poly, expand, groebner, symbols

from helpers import integer_equation, integer_ledger_rows

PRIMES = (998244353, 1000000009)
LEDGER = Path(__file__).with_name("integer_ledger.txt")
HEADER = "parts n seed " + " ".join(f"count_{p}" for p in PRIMES)


def sqrt_minus_one(p: int) -> int:
    for g in range(2, p):
        r = pow(g, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ValueError(f"{p} is not 1 mod 4")


def exact_count(eq, p: int, rng: random.Random):
    """The number of solutions of eq over the algebraic closure of GF(p),
    or inf for a positive-dimensional solution set."""
    i = sqrt_minus_one(p)
    y = symbols("y1:5")
    while True:
        t = Matrix(4, 4, lambda *_: rng.randrange(p))
        if t.det() % p:
            break
    x = t * Matrix(y)
    xm = Matrix([[x[0], x[1]], [x[2], x[3]]])

    def reduced(a):
        return Matrix([[(int(z.real) + int(z.imag) * i) % p for z in row]
                       for row in ((a.m11, a.m12), (a.m21, a.m22))])

    acc = xm + reduced(eq.coeffs[-1])
    for a in eq.coeffs[-2::-1]:
        acc = (acc * xm).applyfunc(expand) + reduced(a)
    basis = groebner(list(acc), *y, order="grevlex", modulus=p)
    if basis.exprs == [1]:
        return 0
    if not basis.is_zero_dimensional:
        return float("inf")
    eliminant, = [g for g in basis.fglm("lex").exprs
                  if g.free_symbols <= {y[-1]}]
    return Poly(eliminant, y[-1], modulus=p).sqf_part().degree()


def main() -> int:
    rows = [HEADER]
    start = time.perf_counter()
    for parts, n, seed in integer_ledger_rows():
        eq = integer_equation(parts, n, seed)
        counts = [exact_count(eq, p, random.Random(f"{parts} {n} {seed} {p}"))
                  for p in PRIMES]
        rows.append(" ".join(map(str, (parts, n, seed, *counts))))
        print(rows[-1], f"{time.perf_counter() - start:.0f} s",
              file=sys.stderr)
    LEDGER.write_text("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
