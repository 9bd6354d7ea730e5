"""Before/after timing and memory of the stationary Lyapunov-Perron solve.

Runs the two grid solves of `stable_lagrange_lp` (the fine grid and the
Richardson grid with twice the step) with either collocation system, each
factored by SuperLU in one of two column orderings (COLAMD or NATURAL):

- `lean`: the library's `_StationaryLP.assemble`, the system in the
  recursion states and the control xi at every node, its CSR arrays written
  from per-family row templates;
- `coo`: `coo_collocation_system` from tests/lp_oracles.py, the system in
  the recursion states alone with the product R (dv, deta) in every row,
  assembled from triplet lists as the library once did.

Each run is a fresh single-threaded process, so its `ru_maxrss` rise is the
LP's own.  Assembly, `splu` factor and solve are timed separately and summed
over both grids; the matrix and LU nonzeros are listed per grid.  Systems:
the benchmark's n40_j0 and n40_j1 scenarios and the stiff
A = diag(-1, -10, -100, -1000), B = 0.5 (1, 1, 1, 1)^T, F1 = -0.1 I,
F2 = 0, F3 = 1, at the default grid and, for the stiff system's `coo` run,
at the previous flat cap of 6000 steps.  The n40 `coo` runs peak near
3.3 GB, so they are left out.

    python bench/lp_assembly.py --out BENCH_lp_assembly.json

About a minute on a 2-core host; no run peaks above 1.2 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: (system, assembly, SuperLU column ordering, steps or None for the default grid)
RUNS = (
    ("n40_j0", "lean", "COLAMD", None),
    ("n40_j0", "lean", "NATURAL", None),
    ("n40_j1", "lean", "COLAMD", None),
    ("n40_j1", "lean", "NATURAL", None),
    ("stiff", "coo", "COLAMD", 6000),
    ("stiff", "coo", "COLAMD", None),
    ("stiff", "lean", "COLAMD", None),
    ("stiff", "lean", "NATURAL", None),
)


def _system(name):
    import numpy as np

    from lqbundle.frequency import QuadraticFormTriple

    if name == "stiff":
        form = QuadraticFormTriple(f1=-0.1 * np.eye(4), f2=np.zeros((1, 4)), f3=[[1.0]])
        return np.diag([-1.0, -10.0, -100.0, -1000.0]), 0.5 * np.ones((4, 1)), form
    doc = json.loads((ROOT / "perfbench" / "scenarios" / f"{name}.json").read_text())
    form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
    return doc["A"], doc["B"], form


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, assembly: str, ordering: str, steps: int | None) -> dict:
    """One LP solve on both grids, in this process."""
    import numpy as np
    import scipy.sparse.linalg as spla

    import lqbundle.stationary as st
    from lqbundle.symplectic import LagrangeSubspace, grassmann_distance

    sys.path.insert(0, str(ROOT / "tests"))
    from lp_oracles import coo_collocation_system, paired_state_maps

    reg = st.Regulator(*_system(name))
    ham, split_a, split_m = reg.ham, reg.split_a, reg.split_m
    ham.eigenvalues  # noqa: B018  (cached before the measured region)
    times = st._grid_parameters(split_a, ham, steps)
    coarse = np.linspace(times[0], times[-1], (times.size - 1) // 2 + 1)
    stage = dict.fromkeys(("forcing_s", "assembly_s", "factor_s", "solve_s"), 0.0)
    rows, nnz, lu_nnz = [], [], []
    rss0 = _peak_mb()
    start = time.perf_counter()

    def solve_on(grid):
        t0 = time.perf_counter()
        lp = st._StationaryLP(reg.a, reg.b, reg.form, split_a, split_m, grid, reg.r)
        forcing = lp.sharp_forcing()
        t1 = time.perf_counter()
        if assembly == "lean":
            mat, rhs = lp.assemble(*forcing)
            dv_map, de_map = lp.dv_map, lp.de_map
        else:
            mat, rhs = coo_collocation_system(lp, reg.r, *forcing)
            dv_map, de_map = paired_state_maps(lp)
        t2 = time.perf_counter()
        lu = spla.splu(mat, permc_spec=ordering)
        t3 = time.perf_counter()
        sol = lu.solve(rhs)
        t4 = time.perf_counter()
        for key, dt in zip(stage, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            stage[key] += dt
        rows.append(int(mat.shape[0]))
        nnz.append(int(mat.nnz))
        lu_nnz.append(int(lu.nnz))
        s0 = sol.reshape(grid.size, dv_map.shape[1], -1)[0]
        return np.vstack([dv_map @ s0, de_map @ s0])

    dz0 = (16.0 * solve_on(times) - solve_on(coarse)) / 15.0
    lp_s = time.perf_counter() - start
    peak = _peak_mb()
    sharp, _ = st.breve_bases(split_a, split_m)
    l_plus = LagrangeSubspace(sharp.basis + dz0)
    hb = ham.matrix @ l_plus.basis
    invariance = np.linalg.norm(hb - l_plus.basis @ (l_plus.basis.T @ hb), 2) / max(
        1.0, np.linalg.norm(ham.matrix, 2)
    )
    oracle = grassmann_distance(l_plus, st.stable_lagrange_schur(ham))
    return {
        "system": name,
        "assembly": assembly,
        "ordering": ordering,
        "steps": int(times.size - 1),
        "coarse_steps": int(coarse.size - 1),
        "matrix_rows": rows,
        "nnz": nnz,
        "lu_nnz": lu_nnz,
        "lp_s": round(lp_s, 3),
        **{key: round(val, 3) for key, val in stage.items()},
        "rss_before_mb": round(rss0, 1),
        "peak_rss_mb": round(peak, 1),
        "rss_rise_mb": round(peak - rss0, 1),
        "bytes_per_fine_nnz": round((peak - rss0) * 2**20 / nnz[0], 1),
        "invariance_defect": float(invariance),
        "oracle_distance": float(oracle),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_lp_assembly.json"))
    parser.add_argument("--child", nargs=4,
                        metavar=("SYSTEM", "ASSEMBLY", "ORDERING", "STEPS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        name, assembly, ordering, steps = args.child
        steps = None if steps == "default" else int(steps)
        print(json.dumps(measure(name, assembly, ordering, steps)))
        return 0
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    runs = []
    for name, assembly, ordering, steps in RUNS:
        cmd = [sys.executable, __file__, "--child", name, assembly, ordering,
               "default" if steps is None else str(steps)]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(json.dumps(runs[-1]), file=sys.stderr)
    import numpy
    import scipy

    doc = {
        "what": "stable_lagrange_lp's two grid solves: the library's system in the "
                "states and the control xi (lean) in both SuperLU column orderings, "
                "and the stiff system's state-only COO triplet system (coo)",
        "command": "python bench/lp_assembly.py --out BENCH_lp_assembly.json",
        "threads": THREAD_ENV,
        "host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
