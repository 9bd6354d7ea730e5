"""Before/after timing and memory of the stationary Lyapunov-Perron solve.

Runs the two grid solves of `stable_lagrange_lp` (the fine graded grid and
the Richardson grid, its every other node) through the library's phases in
the library's order and reads L+ from the extrapolated node-0 states.  On a
tree with `_StationaryLP.eliminate` the phases are the row table
(`row_table`) and the frontal elimination to node 0; on an older tree they
are building the matrix, factoring it by SuperLU, building the right-hand
side and the solve, whose node states come in time order from
`node_states` where the tree has it, else in time order already.

Each run is a fresh single-threaded process.  Per grid it records the nodes,
the steps of each segment (one on a uniform grid), how the system is
eliminated (`elimination`: "frontal", else the direction of SuperLU's
column blocks, "backward" with `node_states` and "forward" without), the
stored entries, the widest front's rows (`front_rows`) or the LU's nonzeros
(`lu_nnz`), and each phase's time and the process's `ru_maxrss` after it.
`lp_s` is that first solve of both grids; `warm_lp_s` is the fastest of
WARM_REPEATS more in the same process.  Systems: S1, the benchmark's n40_j0
and n40_j1 scenarios and the stiff system A = diag(-1, -10, -100, -1000),
B = 0.5 (1, 1, 1, 1)^T, F1 = -0.1 I, F2 = 0, F3 = 1, each on its default
grid.

    python bench/lp_assembly.py --before OLD/src --out lp_assembly.json

runs every system on the `src/` of an older checkout (say, one unpacked by
`git archive`) and on this one, REPEATS times, alternating the trees; the
summary holds the medians.  Without `--before` only this tree runs.  A few
minutes on a 2-core host; in `BENCH_lp_frontal.json` no run peaked above
155 MB, and none of the frontal elimination above 74 MB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
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
SYSTEMS = ("s1", "n40_j0", "n40_j1", "stiff")
REPEATS = 3
WARM_REPEATS = 5


def _system(name):
    import numpy as np

    from lqbundle.frequency import QuadraticFormTriple

    if name == "stiff":
        form = QuadraticFormTriple(f1=-0.1 * np.eye(4), f2=np.zeros((1, 4)), f3=[[1.0]])
        return np.diag([-1.0, -10.0, -100.0, -1000.0]), 0.5 * np.ones((4, 1)), form
    if name == "s1":
        return [[-2.0]], [[1.0]], QuadraticFormTriple(f1=[[-1.0]], f2=[[0.0]], f3=[[1.0]])
    doc = json.loads((ROOT / "perfbench" / "scenarios" / f"{name}.json").read_text())
    form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
    return doc["A"], doc["B"], form


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str) -> dict:
    """One LP solve on both grids, in this process."""
    import numpy as np

    import lqbundle.stationary as st
    from lqbundle.symplectic import LagrangeSubspace, grassmann_distance

    if not hasattr(st._StationaryLP, "eliminate"):  # imported by an older tree anyway
        import scipy.sparse.linalg as spla
    reg = st.Regulator(*_system(name))
    ham, split_a, split_m = reg.ham, reg.split_a, reg.split_m
    ham.eigenvalues  # noqa: B018  (cached before the measured region)
    times = st._grid_parameters(split_a, ham)
    sharp = st.sharp_basis(split_a, split_m)
    grids = []
    rss0 = _peak_mb()
    start = time.perf_counter()

    def solve_on(grid, grids):
        info = {"nodes": int(grid.size), "phases": [],
                "segment_steps": [int(hi - lo) for lo, hi in st._segments(grid)]}
        clock = [time.perf_counter()]

        def record(phase):
            now = time.perf_counter()
            info["phases"].append([phase, round(now - clock[0], 4), round(_peak_mb(), 1)])
            clock[0] = now

        lp = st._StationaryLP(reg.b, reg.form, split_a, split_m, sharp, grid)
        if hasattr(lp, "eliminate"):  # frontal elimination to node 0
            table = lp.row_table()
            info["nnz"] = int(sum(np.count_nonzero(tmpl) * copies for tmpl, _, copies in table))
            record("rows")
            s0, info["front_rows"] = lp.eliminate(table)
            info["elimination"] = "frontal"
            record("elimination")
        else:  # an older tree: one SuperLU solve of the whole grid
            mat = lp.matrix()
            info["nnz"] = int(mat.nnz)
            record("matrix")
            lu = spla.splu(mat, permc_spec="NATURAL")
            del mat
            record("factor")
            rhs = lp.rhs()
            record("rhs")
            x = lu.solve(rhs)
            if hasattr(lp, "node_states"):  # column blocks from the horizon back
                info["elimination"], s0 = "backward", lp.node_states(x)[0]
            else:  # column blocks in time order
                info["elimination"], s0 = "forward", x.reshape(grid.size, lp.stride, -1)[0]
            record("solve")
            info["lu_nnz"] = int(lu.nnz)
        grids.append(info)
        return np.vstack([lp.dv_map @ s0, lp.de_map @ s0])

    y0 = (16.0 * solve_on(times, grids) - solve_on(times[::2], grids)) / 15.0
    lp_s = time.perf_counter() - start
    peak = _peak_mb()
    l_plus = LagrangeSubspace(y0)
    hb = ham.matrix @ l_plus.basis
    invariance = np.linalg.norm(hb - l_plus.basis @ (l_plus.basis.T @ hb), 2) / max(
        1.0, np.linalg.norm(ham.matrix, 2)
    )
    oracle = grassmann_distance(l_plus, st.stable_lagrange_schur(ham))
    warm = []
    for _ in range(WARM_REPEATS):
        clock = time.perf_counter()
        for grid in (times, times[::2]):
            solve_on(grid, [])
        warm.append(time.perf_counter() - clock)
    return {
        "system": name,
        "grids": grids,
        "lp_s": round(lp_s, 4),
        "rss_before_mb": round(rss0, 1),
        "peak_rss_mb": round(peak, 1),
        "rss_rise_mb": round(peak - rss0, 1),
        "warm_lp_s": round(min(warm), 4),
        "invariance_defect": float(invariance),
        "oracle_distance": float(oracle),
        "l_plus_sha256": hashlib.sha256(l_plus.basis.tobytes()).hexdigest()[:16],
    }


def _summary(runs):
    out = []
    for name in SYSTEMS:
        row = {"system": name}
        for tree in ("before", "after"):
            mine = [r for r in runs if r["tree"] == tree and r["system"] == name]
            if not mine:
                continue
            row[tree] = {
                "lp_s": statistics.median(r["lp_s"] for r in mine),
                "warm_lp_s": statistics.median(r["warm_lp_s"] for r in mine),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in mine),
                "rss_rise_mb": statistics.median(r["rss_rise_mb"] for r in mine),
                "invariance_defect": mine[0]["invariance_defect"],
                "oracle_distance": mine[0]["oracle_distance"],
                "grids": [
                    {key: grid[key] for key in ("nodes", "segment_steps", "elimination",
                                                "nnz", "front_rows", "lu_nnz") if key in grid}
                    | {"phase_s": {phase: statistics.median(
                        dict((p, s) for p, s, _ in r["grids"][k]["phases"])[phase]
                        for r in mine) for phase, _, _ in grid["phases"]}}
                    for k, grid in enumerate(mine[0]["grids"])
                ],
                "l_plus_sha256": sorted({r["l_plus_sha256"] for r in mine}),
            }
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="lp_assembly.json")
    parser.add_argument("--before", default=None,
                        help="the src/ directory of the tree to compare against")
    parser.add_argument("--child", metavar="SYSTEM", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child)))
        return 0
    trees = {"after": ROOT / "src"}
    if args.before:
        trees = {"before": Path(args.before).resolve(), **trees}
    runs = []
    for repeat in range(REPEATS):
        for name in SYSTEMS:
            for tree, src in (trees.items() if repeat % 2 == 0 else reversed(trees.items())):
                env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src),
                           PYTHONDONTWRITEBYTECODE="1")
                cmd = [sys.executable, __file__, "--child", name]
                out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                     check=True)
                run = json.loads(out.stdout.strip().splitlines()[-1])
                runs.append({"tree": tree, "repeat": repeat, **run})
                print(json.dumps(runs[-1]), file=sys.stderr)
    import numpy
    import scipy

    doc = {
        "what": "stable_lagrange_lp's two grid solves on an older tree (before) "
                "and this one (after); per grid the nodes, segment steps, stored "
                "entries, elimination, widest front or LU nonzeros and phase "
                "times, and ru_maxrss after each phase; the first and the "
                "fastest warm solve of both grids",
        "command": shlex.join(["python", "bench/lp_assembly.py",
                               *(["--before", args.before] if args.before else []),
                               "--out", args.out]),
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
