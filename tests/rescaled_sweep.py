"""The sweep of every (n, m) cell with each constructed equation replaced by
a transform of it.  The first two are exact in doubles, and their solutions
map one to one onto the original's, so their tables must match the j = 0
ledger where they do not fail; the third is rounded, and its table is a
ledger of what the count means for a rounded input:

    j=J     the rescaled equation of X = 2^j Y (``helpers.rescaled``)
    s=S     the similarity by diag(1, 2^S) (``helpers.diagonally_similar``)
    q=SEED  the unitary similarity by ``helpers.seeded_unitary(SEED)``,
            rounded to doubles (``helpers.similar``)

    python tests/rescaled_sweep.py j=J --n-max 16 --jobs 2 --report table.txt

The arguments after the transform are those of ``matpolyeq sweep``; the
exit code is the sweep's.  The sweep's workers are forked, so they inherit
the patched ``construct``.
"""

import multiprocessing
import sys

from matpolyeq import cli

from helpers import diagonally_similar, rescaled, seeded_unitary, similar

TRANSFORMS = {"j": rescaled,
              "s": lambda eq, s: diagonally_similar(eq, 2.0 ** s),
              "q": lambda eq, seed: similar(eq, seeded_unitary(seed))}


def main(argv) -> int:
    name, _, k = argv[0].partition("=")
    if name not in TRANSFORMS:
        sys.exit(f"usage: rescaled_sweep.py j=J|s=S|q=SEED [sweep options], "
                 f"not {argv[0]!r}")
    transform, k, sweep_args = TRANSFORMS[name], int(k), argv[1:]
    construct = cli.construct

    def construct_transformed(n, m, **kwargs):
        result = construct(n, m, **kwargs)
        return result._replace(equation=transform(result.equation, k))

    cli.construct = construct_transformed
    multiprocessing.set_start_method("fork")
    return cli.main(["sweep", *sweep_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
