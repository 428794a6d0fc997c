"""The sweep of every (n, m) cell at X = 2^j Y: each constructed equation
is replaced by its rescaled one (``helpers.rescaled``), whose solutions
are 2^-j times the original's, so its table must match the j = 0 ledger.

    python tests/rescaled_sweep.py J --n-max 16 --jobs 2 --report table.txt

The arguments after J are those of ``matpolyeq sweep``; the exit code is
the sweep's.  The sweep's workers are forked, so they inherit the patched
``construct``.
"""

import multiprocessing
import sys
from dataclasses import replace

from matpolyeq import cli

from helpers import rescaled


def main(argv) -> int:
    j, sweep_args = int(argv[0]), argv[1:]
    construct = cli.construct

    def construct_rescaled(n, m, **kwargs):
        result = construct(n, m, **kwargs)
        return replace(result, equation=rescaled(result.equation, j))

    cli.construct = construct_rescaled
    multiprocessing.set_start_method("fork")
    return cli.main(["sweep", *sweep_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
