"""Write reference_digests.json, the committed document digests of random_n16.

    PYTHONPATH=src python3 perfbench/make_digests.py

For each seed in SEEDS it solves the first EQUATIONS random n = 16
equations of that seed and records the sha256 of each solution document.
Solution documents must stay byte-identical, so rerun this only when a
change to the documents is meant, and say so where the change is recorded.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import matpolyeq as mp
from workloads import (REFERENCE_DIGESTS, REFERENCE_SEED, RandomN16,
                       document_text, random_equation)

SEEDS = sorted({REFERENCE_SEED, *range(1, 11)})
# the equations of a trace pass and the first ones of an untraced run
EQUATIONS = 3


def main() -> None:
    doc = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        doc[str(seed)] = {}
        for i in range(EQUATIONS):
            eq = random_equation(rng, RandomN16.N)
            text = document_text(mp.solve_equation(eq))
            doc[str(seed)][str(i)] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
    REFERENCE_DIGESTS.write_text(json.dumps(doc, indent=1) + "\n",
                                 encoding="utf-8")


if __name__ == "__main__":
    main()
