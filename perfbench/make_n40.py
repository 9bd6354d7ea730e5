"""Regenerate the two n = 40 systems of the stationary-n40 workload.

    PYTHONPATH=src python3 perfbench/make_n40.py 7

The argument seeds `numpy.random.default_rng`; both systems are drawn from a
fresh generator with that seed by `lqbundle.sampling.random_passing_instance`
(n = 40, one input), one with j = 0 unstable directions and one with j = 1.
The committed files were made with seed 7.  The "seed" field of each file is
the pipeline seed of `verify` (its random trajectories and samples), kept at
42, the CLI default.
"""

import json
import sys
from pathlib import Path

import numpy as np

from lqbundle.sampling import random_passing_instance

OUT = Path(__file__).resolve().parent / "scenarios"


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: make_n40.py SEED")
    seed = int(argv[0])
    for j in (0, 1):
        a, b, form, margin = random_passing_instance(np.random.default_rng(seed), 40, j=j)
        doc = {
            "name": f"n40-j{j}",
            "mode": "stationary",
            "seed": 42,
            "A": a.tolist(),
            "B": b.tolist(),
            "F1": form.f1.tolist(),
            "F2": form.f2.tolist(),
            "F3": form.f3.tolist(),
        }
        path = OUT / f"n40_j{j}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        print(f"{path.name}: j = {j}, sampled margin {margin:.6g}")


if __name__ == "__main__":
    main(sys.argv[1:])
