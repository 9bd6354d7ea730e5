"""Wall time and peak memory of a fresh `lqbundle verify` process.

Each measurement is one child process with one BLAS thread: either
`python -m lqbundle.cli verify` on one of the benchmark's scenarios (S1,
n40_j0, n40_j1 and sa-standard), writing its certificate and tables to a
temporary directory, or `python -c "import lqbundle, lqbundle.cli"` alone
(system "import"), the cold start every command pays.  Per child it records
the wall time from its start to its exit, the child's own peak resident set
(`ru_maxrss` from `os.wait4`; `RUSAGE_CHILDREN` would give the largest over
every child so far), its exit code, and for a `verify` the sha256 of its
certificate.json, which two trees that agree byte for byte share.  A fresh
process pays every import and first-call cost, so this is what a single
`verify` costs from the shell.

    python bench/process_footprint.py --before OLD/src --out process_footprint.json

runs every scenario on the `src/` of an older checkout (say, one made by
`git clone`) and on this one, REPEATS times, alternating the trees; the
summary holds the medians.  Without `--before` only this tree runs.  About
half a minute on a 2-core host; no child peaks above 110 MB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "perfbench" / "scenarios"
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: the import-only child, measured next to the `verify` children
IMPORT = "import"
SYSTEMS = (IMPORT, "s1", "n40_j0", "n40_j1", "sa_standard")
REPEATS = 5


def measure(name: str, src: Path) -> dict:
    """One fresh process on the library in `src`: a `verify` of scenario
    `name`, or the import alone for IMPORT (no certificate, sha256 None)."""
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as out:
        if name == IMPORT:
            cmd = [sys.executable, "-c", "import lqbundle, lqbundle.cli"]
        else:
            cmd = [sys.executable, "-m", "lqbundle.cli", "verify",
                   "--scenario", str(SCENARIOS / f"{name}.json"), "--out", out]
        start = time.perf_counter()
        child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        sha = (None if name == IMPORT else
               hashlib.sha256(Path(out, "certificate.json").read_bytes()).hexdigest()[:16])
    return {
        "system": name,
        "exit_code": child.returncode,
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "certificate_sha256": sha,
    }


def _summary(runs, trees):
    summary = []
    for name in SYSTEMS:
        row = {"system": name}
        for tree in trees:
            mine = [r for r in runs if r["tree"] == tree and r["system"] == name]
            row[tree] = {
                "certificate_sha256": sorted({r["certificate_sha256"] for r in mine}),
                "exit_codes": sorted({r["exit_code"] for r in mine}),
                "wall_s": statistics.median(r["wall_s"] for r in mine),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in mine),
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
    parser.add_argument("--out", default="process_footprint.json")
    parser.add_argument("--before", default=None,
                        help="the src/ directory of the tree to compare against")
    args = parser.parse_args(argv)
    trees = {"after": ROOT / "src"}
    if args.before:
        trees = {"before": Path(args.before).resolve(), **trees}
    runs = []
    for repeat in range(REPEATS):
        order = list(trees.items())
        for tree, src in order if repeat % 2 == 0 else order[::-1]:
            for name in SYSTEMS:
                runs.append({"tree": tree, "repeat": repeat, **measure(name, src)})
                print(json.dumps(runs[-1]), file=sys.stderr)
    import numpy
    import scipy

    doc = {
        "what": "a fresh `python -m lqbundle.cli verify` process per scenario, and "
                "one `python -c 'import lqbundle, lqbundle.cli'` (system import): its "
                "wall time, its own ru_maxrss (os.wait4), its exit code and the "
                "sha256 of its certificate.json, on an older tree (before) and this "
                "one (after)",
        "command": shlex.join(["python", "bench/process_footprint.py",
                               *(["--before", args.before] if args.before else []),
                               "--out", args.out]),
        "trees": {tree: _revision(src) for tree, src in trees.items()},
        "threads": THREAD_ENV,
        "host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "summary": _summary(runs, list(trees)),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
