"""Time and memory of the spatial-averaging pipeline as the truncation grows.

Runs `run_pipeline` (every stage of `verify`) on the benchmark's sa-standard
scenario with `eigenvalues.n` set to each of N_VALUES, one fresh
single-threaded process per run.  Per run it records the wall time of the
pipeline and of its two spatial stages, `contraction_certificate` and
`build_fibers` (the pipeline runs them in that order), the process's
`ru_maxrss` before the pipeline and after each stage, the SVDs the
contraction takes (numpy spectral norms), and the sha256 of the
certificate's JSON, which two trees that agree byte for byte share.

    python bench/sa_scale.py --before OLD/src --out sa_scale.json

runs every n on the `src/` of an older checkout (say, one made by
`git clone`) and on this one, REPEATS times, alternating the trees; the
summary holds the medians.  Without `--before` only this tree runs.  About
three and a half minutes on a 2-core host; no run peaks above 130 MB.
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
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "perfbench" / "scenarios" / "sa_standard.json"
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
N_VALUES = (8, 16, 32, 64, 128, 256)
REPEATS = 3
METRICS = ("pipeline_s", "peak_rss_mb", "contraction_s", "contraction_svds",
           "contraction_rss_after_mb", "fibers_s", "fibers_rss_after_mb")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(n: int) -> dict:
    """One pipeline run of sa-standard at truncation n in this process."""
    import numpy as np

    import lqbundle.spatial as sa
    from lqbundle.certify import load_scenario, run_pipeline

    doc = json.loads(SCENARIO.read_text())
    doc["eigenvalues"]["n"] = n
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sa.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenario(str(path))
    svds = []
    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            svds.append(None)
        return norm(x, ord, *args, **kwargs)

    np.linalg.norm = counted_norm
    stages = {}

    def staged(name, fn):
        def run(*args, **kwargs):
            first, start = len(svds), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stages[f"{name}_s"] = round(time.perf_counter() - start, 3)
                stages[f"{name}_svds"] = len(svds) - first
                stages[f"{name}_rss_after_mb"] = round(_peak_mb(), 1)
        return run

    sa.contraction_certificate = staged("contraction", sa.contraction_certificate)
    sa.build_fibers = staged("fibers", sa.build_fibers)
    rss0 = _peak_mb()
    start = time.perf_counter()
    cert = run_pipeline(scenario)
    pipeline_s = time.perf_counter() - start
    return {
        "n": n,
        "passed": cert.passed,
        "certificate_sha256": hashlib.sha256(cert.to_json().encode()).hexdigest()[:16],
        "pipeline_s": round(pipeline_s, 3),
        "rss_before_mb": round(rss0, 1),
        "peak_rss_mb": round(_peak_mb(), 1),
        **stages,
    }


def _summary(runs, trees):
    return [
        {"n": n, **{
            tree: {key: statistics.median(r[key] for r in runs
                                          if r["tree"] == tree and r["n"] == n)
                   for key in METRICS}
            for tree in trees
        }}
        for n in N_VALUES
    ]


def _revision(src: Path) -> str:
    """The checkout's commit, with "-dirty" if its files differ from it."""
    out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="sa_scale.json")
    parser.add_argument("--before", default=None,
                        help="the src/ directory of the tree to compare against")
    parser.add_argument("--child", type=int, metavar="N", help=argparse.SUPPRESS)
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
            for n in N_VALUES:
                cmd = [sys.executable, __file__, "--child", str(n)]
                out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                     check=True)
                runs.append({"tree": tree, "repeat": repeat,
                             **json.loads(out.stdout.strip().splitlines()[-1])})
                print(json.dumps(runs[-1]), file=sys.stderr)
    import numpy
    import scipy

    doc = {
        "what": "run_pipeline on sa-standard at truncation n: wall time of the "
                "pipeline, of contraction_certificate and of build_fibers, the "
                "contraction's SVD count and ru_maxrss after each stage, on an "
                "older tree (before) and this one (after)",
        "command": shlex.join(["python", "bench/sa_scale.py",
                               *(["--before", args.before] if args.before else []),
                               "--out", args.out]),
        "trees": {tree: _revision(src) for tree, src in trees.items()},
        "threads": THREAD_ENV,
        "host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "summary": _summary(runs, trees),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
