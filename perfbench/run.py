"""Benchmark of `lqbundle verify`; run from the root of a checkout.

    python3 perfbench/run.py --workload stationary-s1 --seed 1 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics: `setup_s` (median over
fresh interpreters), `verify_s` (median over warm timed rounds) and
`peak_rss_mb`.  With --trace 1 it runs one traced round in a fresh process and
reports the per-layer metrics.  Every verify output is checked against
independent computations (checks.py).  The last line of standard output is
the JSON result.  See README.md for the workloads and the settings.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 3
# The measured processes use one BLAS/OpenMP thread: with the default
# threads, S1 used 4.2 s of CPU per 3.6 s of wall time on a 1 x 1 system.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Every worker is killed by this many seconds after the start, so that a run
# ends within 180 s.
DEADLINE_S = 170

sys.path.insert(0, str(HERE))
from worker import WORKLOADS  # noqa: E402


def _worker(env, deadline, *args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lqbundle" / "__init__.py").is_file():
        print(f"error: no lqbundle sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **THREAD_ENV, PERFBENCH_SRC=str(SRC))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs = ROOT / ".perfbench"
    workdir = runs / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            res = _worker(env, deadline, "trace", workdir, args.workload)
            os.replace(workdir / "spans.json",
                       runs / f"spans-{args.workload}-seed{args.seed}.json")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in res["metrics"].items()}
            print(f"traced verify round: {res['verify_s']:.4f} s", file=sys.stderr)
        else:
            setup = [_worker(env, deadline, "setup", workdir, args.workload)["setup_s"]
                     for _ in range(SETUP_PROCESSES)]
            res = _worker(env, deadline, "time", workdir, args.workload, args.seconds)
            metrics = {
                "verify_s": {"value": statistics.median(res["round_s"]), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
            print(f"warm-up {res['warmup_s']:.4f} s, rounds {res['round_s']}, "
                  f"set-ups {setup}", file=sys.stderr)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in res["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
