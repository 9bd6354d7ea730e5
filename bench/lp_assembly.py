"""Before/after timing and memory of the stationary Lyapunov-Perron solve.

Runs the two grid solves of `stable_lagrange_lp` (the fine grid and the
Richardson grid with twice the step) with either collocation system:

- `lean`: the library's own, the system in the recursion states and the
  control xi at every node, run through the library's phases in the
  library's order.  A tree with `_StationaryLP.matrix` builds the matrix,
  factors it, drops it, then builds the forcing and the right-hand side
  (`rhs`) and solves; an older tree with `_StationaryLP.assemble` builds the
  forcing, then matrix and right-hand side together, factors, drops the
  matrix and solves;
- `coo`: `coo_collocation_system` from tests/lp_oracles.py, the system in
  the recursion states alone with the product R (dv, deta) in every row,
  assembled from triplet lists.  It reads only the library's grid operators
  and forcing, so on two trees it is a control for the host's drift.

Each run is a fresh single-threaded process.  Per grid it records the
stored entries, the stored zeros and the LU nonzeros of the matrix, and each
phase's time and the process's `ru_maxrss` after it.  Systems: the
benchmark's n40_j0 and n40_j1 scenarios and the stiff system
A = diag(-1, -10, -100, -1000), B = 0.5 (1, 1, 1, 1)^T, F1 = -0.1 I, F2 = 0,
F3 = 1, at the default grid and, for its `coo` run, also at 6000 steps.

    python bench/lp_assembly.py --before OLD/src --out BENCH_lp_assembly.json

runs every system on the `src/` of an older checkout (say, one unpacked by
`git archive`) and on this one, REPEATS times, alternating the trees; the
summary holds the medians.  Without `--before` only this tree runs.  About
a minute and a half on a 2-core host; no run peaks above 1.2 GB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
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
    ("n40_j0", "lean", "NATURAL", None),
    ("n40_j1", "lean", "NATURAL", None),
    ("stiff", "lean", "NATURAL", None),
    ("stiff", "coo", "COLAMD", 6000),
    ("stiff", "coo", "COLAMD", None),
)
REPEATS = 3


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


def _phases(lp, assembly, ordering, r, record):
    """Solve `lp`'s system phase by phase, calling `record(phase, matrix)`
    after each phase.  Returns (LU, node states, dv_map, de_map)."""
    import scipy.sparse.linalg as spla
    from lp_oracles import coo_collocation_system, paired_state_maps

    if assembly == "lean" and hasattr(lp, "matrix"):  # factored before the forcing exists
        mat = lp.matrix()
        record("matrix", mat)
        lu = spla.splu(mat, permc_spec=ordering)
        del mat
        record("factor")
        rhs = lp.rhs(*lp.sharp_forcing())
        record("forcing with rhs")
    else:
        forcing = lp.sharp_forcing()
        record("forcing")
        build = lp.assemble if assembly == "lean" else (
            lambda *g: coo_collocation_system(lp, r, *g))
        mat, rhs = build(*forcing)
        record("matrix with rhs", mat)
        lu = spla.splu(mat, permc_spec=ordering)
        del mat
        record("factor")
    sol = lu.solve(rhs)
    record("solve")
    maps = paired_state_maps(lp) if assembly == "coo" else (lp.dv_map, lp.de_map)
    return lu, sol, *maps


def measure(name: str, assembly: str, ordering: str, steps: int | None) -> dict:
    """One LP solve on both grids, in this process."""
    import numpy as np

    import lqbundle.stationary as st
    from lqbundle.symplectic import LagrangeSubspace, grassmann_distance

    sys.path.insert(0, str(ROOT / "tests"))
    reg = st.Regulator(*_system(name))
    ham, split_a, split_m = reg.ham, reg.split_a, reg.split_m
    ham.eigenvalues  # noqa: B018  (cached before the measured region)
    times = st._grid_parameters(split_a, ham)
    if steps is not None:
        times = np.linspace(0.0, times[-1], steps + 1)
    coarse = np.linspace(times[0], times[-1], (times.size - 1) // 2 + 1)
    grids = []
    rss0 = _peak_mb()
    start = time.perf_counter()

    def solve_on(grid):
        info = {"steps": int(grid.size - 1), "phases": []}
        clock = [time.perf_counter()]

        def record(phase, mat=None):
            now = time.perf_counter()
            info["phases"].append([phase, round(now - clock[0], 3), round(_peak_mb(), 1)])
            clock[0] = now
            if mat is not None:
                info.update(rows=int(mat.shape[0]), nnz=int(mat.nnz),
                            stored_zeros=int(np.count_nonzero(mat.data == 0)))

        lp = st._StationaryLP(reg.b, reg.form, split_a, split_m, reg.r, grid)
        lu, sol, dv_map, de_map = _phases(lp, assembly, ordering, reg.r, record)
        info["lu_nnz"] = int(lu.nnz)
        grids.append(info)
        s0 = sol.reshape(grid.size, dv_map.shape[1], -1)[0]
        return np.vstack([dv_map @ s0, de_map @ s0])

    dz0 = (16.0 * solve_on(times) - solve_on(coarse)) / 15.0
    lp_s = time.perf_counter() - start
    peak = _peak_mb()
    l_plus = LagrangeSubspace(st.sharp_basis(split_a, split_m).basis + dz0)
    hb = ham.matrix @ l_plus.basis
    invariance = np.linalg.norm(hb - l_plus.basis @ (l_plus.basis.T @ hb), 2) / max(
        1.0, np.linalg.norm(ham.matrix, 2)
    )
    oracle = grassmann_distance(l_plus, st.stable_lagrange_schur(ham))
    return {
        "system": name,
        "assembly": assembly,
        "ordering": ordering,
        "grids": grids,
        "lp_s": round(lp_s, 3),
        "rss_before_mb": round(rss0, 1),
        "peak_rss_mb": round(peak, 1),
        "rss_rise_mb": round(peak - rss0, 1),
        "invariance_defect": float(invariance),
        "oracle_distance": float(oracle),
        "dz0_sha256": hashlib.sha256(dz0.tobytes()).hexdigest()[:16],
    }


def _summary(runs):
    out = []
    for name, assembly, ordering, steps in RUNS:
        row = {"system": name, "assembly": assembly, "ordering": ordering,
               "steps": steps or "default"}
        for tree in ("before", "after"):
            mine = [r for r in runs if r["tree"] == tree and r["system"] == name
                    and r["assembly"] == assembly and r["ordering"] == ordering
                    and r["steps"] == row["steps"]]
            if not mine:
                continue
            fine = mine[0]["grids"][0]
            row[tree] = {
                "lp_s": statistics.median(r["lp_s"] for r in mine),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in mine),
                "rss_rise_mb": statistics.median(r["rss_rise_mb"] for r in mine),
                "fine_nnz": fine["nnz"],
                "fine_stored_zeros": fine["stored_zeros"],
                "fine_lu_nnz": fine["lu_nnz"],
                "fine_rss_after_phase_mb": {
                    phase: statistics.median(
                        dict((p, mb) for p, _, mb in r["grids"][0]["phases"])[phase]
                        for r in mine)
                    for phase, _, _ in fine["phases"]
                },
                "dz0_sha256": sorted({r["dz0_sha256"] for r in mine}),
            }
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_lp_assembly.json"))
    parser.add_argument("--before", default=None,
                        help="the src/ directory of the tree to compare against")
    parser.add_argument("--child", nargs=4,
                        metavar=("SYSTEM", "ASSEMBLY", "ORDERING", "STEPS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        name, assembly, ordering, steps = args.child
        steps = None if steps == "default" else int(steps)
        print(json.dumps(measure(name, assembly, ordering, steps)))
        return 0
    trees = {"after": ROOT / "src"}
    if args.before:
        trees = {"before": Path(args.before).resolve(), **trees}
    runs = []
    for repeat in range(REPEATS):
        for name, assembly, ordering, steps in RUNS:
            for tree, src in (trees.items() if repeat % 2 == 0 else reversed(trees.items())):
                env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src),
                           PYTHONDONTWRITEBYTECODE="1")
                cmd = [sys.executable, __file__, "--child", name, assembly, ordering,
                       "default" if steps is None else str(steps)]
                out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                     check=True)
                run = json.loads(out.stdout.strip().splitlines()[-1])
                runs.append({"tree": tree, "repeat": repeat,
                             "steps": steps or "default", **run})
                print(json.dumps(runs[-1]), file=sys.stderr)
    import numpy
    import scipy

    doc = {
        "what": "stable_lagrange_lp's two grid solves with the library's system "
                "(lean) and the stiff system's state-only COO triplet system (coo), "
                "on an older tree (before) and this one (after); ru_maxrss after "
                "each phase, stored entries and stored zeros per grid",
        "command": "python bench/lp_assembly.py --before OLD/src --out BENCH_lp_assembly.json",
        "threads": THREAD_ENV,
        "host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "summary": _summary(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
