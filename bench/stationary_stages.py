"""Before/after stage times and certificate moves of the stationary route.

Runs `run_pipeline` on the benchmark's stationary scenarios (S1, n40_j0 and
n40_j1) twice in one fresh single-threaded process per system: a first run,
which pays the process's first-call costs, and a warm one.  Per run it
records the wall time of every stage of the route (`dichotomy`,
`frequency`, `lagrange`, `oracle`, `riccati`, `decay`, `coercivity`) and
the process's `ru_maxrss` after the run, the eigensolves of the eps0
bisection (`eps0_eigensolves`: its calls of the shifted level test, by
whichever name `lqbundle.stationary` binds it, `level_set` or the older
`level_crossings`) and the LP elimination's wall time per grid node
(`lp_us_per_node`, over both grids); per system, the sha256 of the
certificate's JSON, which two trees that agree byte for byte share, and its
records' values and bounds.

    python bench/stationary_stages.py --before OLD/src --out stages.json

runs every system on the `src/` of an older checkout (say, one made by
`git clone`) and on this one, REPEATS times, alternating the trees; the
summary holds the medians, and `moves` each record's largest relative move
of its value or bound between the trees, with the verdicts and the record
order of both.  Without `--before` only this tree runs.  About half a
minute on a 2-core host; no run peaks above 110 MB.
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
SCENARIOS = ROOT / "perfbench" / "scenarios"
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SYSTEMS = ("s1", "n40_j0", "n40_j1")
REPEATS = 3


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_hot_loops(stationary, tally: dict) -> None:
    """Count the eps0 bisection's shifted level tests and time the LP
    elimination per node into `tally`, by wrapping what `stationary` binds."""
    level_test = "level_set" if hasattr(stationary, "level_set") else "level_crossings"
    test = getattr(stationary, level_test)

    def counted(*args):
        tally["eps0_eigensolves"] += args[-1] != 0.0  # the Lyapunov check's test is unshifted
        return test(*args)

    eliminate = stationary._StationaryLP.eliminate

    def timed(lp, table):
        start = time.perf_counter()
        try:
            return eliminate(lp, table)
        finally:
            tally["lp_s"] += time.perf_counter() - start
            tally["lp_nodes"] += lp.times.size

    setattr(stationary, level_test, counted)
    stationary._StationaryLP.eliminate = timed


def measure(name: str) -> dict:
    """A first and a warm pipeline run of one scenario in this process."""
    from lqbundle import certify, stationary

    scenario = certify.load_scenario(str(SCENARIOS / f"{name}.json"))
    route = certify._ROUTES[scenario.mode][1]
    stages = {}
    tally = {}
    _count_hot_loops(stationary, tally)

    def timed(stage_name, stage):
        def run(*args):
            start = time.perf_counter()
            try:
                return stage(*args)
            finally:
                stages[stage_name] = round(time.perf_counter() - start, 6)
        return run

    for stage_name, stage in list(route.items()):
        route[stage_name] = timed(stage_name, stage)
    runs = []
    for _ in range(2):
        stages = {}
        tally.update(eps0_eigensolves=0, lp_s=0.0, lp_nodes=0)
        start = time.perf_counter()
        cert = certify.run_pipeline(scenario)
        runs.append({"pipeline_s": round(time.perf_counter() - start, 6),
                     "stages": stages, "rss_after_mb": round(_peak_mb(), 1),
                     "eps0_eigensolves": tally["eps0_eigensolves"],
                     "lp_us_per_node": round(1e6 * tally["lp_s"] / tally["lp_nodes"], 1)})
    text = cert.to_json()
    return {
        "system": name,
        "passed": cert.passed,
        "certificate_sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
        "records": [[r["name"], r["value"], r["bound"], r["pass"]]
                    for r in json.loads(text)["checks"]],
        "first": runs[0],
        "warm": runs[1],
    }


def _relative(old, new) -> float:
    """|new - old| / |old|, 0 for equal values (strings included), and inf
    for a move away from 0 or between non-numbers."""
    if old == new:
        return 0.0
    if isinstance(old, str) or isinstance(new, str) or old == 0:
        return float("inf")
    return abs(new - old) / abs(old)


def _moves(runs, trees):
    """Per system, every record's largest relative move of its value or bound
    from the first tree to the last, over all pairs of their runs."""
    first, last = trees[0], trees[-1]
    out = []
    for name in SYSTEMS:
        old = [r for r in runs if r["tree"] == first and r["system"] == name]
        new = [r for r in runs if r["tree"] == last and r["system"] == name]
        records = []
        for idx, (rec, value, bound, passed) in enumerate(old[0]["records"]):
            move = max(max(_relative(o["records"][idx][1], n["records"][idx][1]),
                           _relative(o["records"][idx][2], n["records"][idx][2]))
                       for o in old for n in new)
            records.append({"record": rec, "value": value, "passed": passed,
                            "relative_move": move})
        out.append({
            "system": name,
            "same_names_order_and_verdicts": all(
                [(r[0], r[3]) for r in o["records"]] == [(r[0], r[3]) for r in n["records"]]
                for o in old for n in new),
            "records": records,
        })
    return out


def _summary(runs, trees):
    def median(tree, name, key):
        return statistics.median(key(r) for r in runs
                                 if r["tree"] == tree and r["system"] == name)

    summary = []
    for name in SYSTEMS:
        stage_names = next(r for r in runs if r["system"] == name)["warm"]["stages"]
        row = {"system": name}
        for tree in trees:
            row[tree] = {
                "certificate_sha256": sorted({r["certificate_sha256"] for r in runs
                                              if r["tree"] == tree and r["system"] == name}),
                "first_pipeline_s": median(tree, name, lambda r: r["first"]["pipeline_s"]),
                "warm_pipeline_s": median(tree, name, lambda r: r["warm"]["pipeline_s"]),
                "peak_rss_mb": median(tree, name, lambda r: r["warm"]["rss_after_mb"]),
                "eps0_eigensolves": median(tree, name, lambda r: r["warm"]["eps0_eigensolves"]),
                "warm_lp_us_per_node": median(tree, name,
                                              lambda r: r["warm"]["lp_us_per_node"]),
                "warm_stages_s": {s: median(tree, name, lambda r, s=s: r["warm"]["stages"][s])
                                  for s in stage_names},
                "first_stages_s": {s: median(tree, name, lambda r, s=s: r["first"]["stages"][s])
                                   for s in stage_names},
            }
        summary.append(row)
    return summary


def _revision(src: Path) -> str:
    """The checkout's commit, with "-dirty" if its files differ from it."""
    out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="stationary_stages.json")
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
        order = list(trees.items())
        for tree, src in order if repeat % 2 == 0 else order[::-1]:
            env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src),
                       PYTHONDONTWRITEBYTECODE="1")
            for name in SYSTEMS:
                cmd = [sys.executable, __file__, "--child", name]
                out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                     check=True)
                runs.append({"tree": tree, "repeat": repeat,
                             **json.loads(out.stdout.strip().splitlines()[-1])})
                print(json.dumps({k: v for k, v in runs[-1].items() if k != "records"}),
                      file=sys.stderr)
    import numpy
    import scipy

    doc = {
        "what": "run_pipeline on the stationary scenarios, a first and a warm run "
                "per process: wall time of the pipeline and of each stage, "
                "ru_maxrss after it, the eps0 bisection's eigensolves, the LP "
                "elimination's microseconds per grid node, the certificate's "
                "sha256 and each record's largest relative move, on an older "
                "tree (before) and this one (after)",
        "command": shlex.join(["python", "bench/stationary_stages.py",
                               *(["--before", args.before] if args.before else []),
                               "--out", args.out]),
        "trees": {tree: _revision(src) for tree, src in trees.items()},
        "threads": THREAD_ENV,
        "host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "summary": _summary(runs, list(trees)),
        "moves": _moves(runs, list(trees)),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
