"""Before/after timing and memory of the spatial-averaging fiber solve.

Solves the fibers of one `verify` (the 16 grid phases, the 6 continuity
steps and the frozen driver: 23 columns of one `build_fibers` call) in one
of two ways:

- `two_channel` (before): the Picard loop of tests/spatial_oracles.py,
  `two_channel_fibers`, on the all-mode frame of the same module
  (`AllModeFrame`, the library's frame before it went per mode) over the
  doubled set of (mode, channel) pairs with rate shifts (0, mu_j);
- `direct` (after): the library's `build_fibers`, one banded solve per
  (mode, column) block and one check sweep.

Each run is a fresh single-threaded process, so its `ru_maxrss` rise over
the solve is its own.  Frame setup is the time spent constructing the
frames.  The summary holds each metric's median over the repeats and, per
system, the largest |m_j| difference between the two variants' fibers.
Systems: sa-standard (lambda_j = j^2, n = 8, Lambda = delta = 1, k = 3,
N = 2, driver 1.5 + 0.5 sin t) and its n = 16 truncation.

    python bench/sa_fibers.py --out BENCH_sa_fibers.json

Each of the four runs is repeated three times, interleaved.  About one
minute on a 2-core host.
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
RUNS = tuple((n, variant) for n in (8, 16) for variant in ("two_channel", "direct"))
#: rounds over RUNS; the summary holds each metric's median over them
REPEATS = 3
SUMMARY = ("build_fibers_s", "frame_setup_s", "picard_sweeps", "fibers_rss_rise_mb")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(n: int, variant: str) -> dict:
    """The verify fiber solve in this process, with its fibers' m entries."""
    import numpy as np

    import lqbundle.spatial as sa
    from lqbundle.spectral import make_spectral_model

    sys.path.insert(0, str(ROOT / "tests"))
    from spatial_oracles import AllModeFrame, two_channel_fibers

    setup = {"s": 0.0}

    def timed(frame_class):
        class Timed(frame_class):
            def __init__(self, *args):
                start = time.perf_counter()
                super().__init__(*args)
                setup["s"] += time.perf_counter() - start

        return Timed

    class DoubledFrame:
        """A two-channel frame as the one-channel library frame over the
        (mode, channel) pairs, shifted by (0, mu_j)."""

        def __init__(self, times, s_base, chi, sign, mu, forward_modes, a_mean, c_int):
            self.m = times.size
            rho = np.stack([np.zeros_like(mu), mu], axis=1).ravel()
            self.frame = timed(AllModeFrame)(
                times, np.repeat(s_base, 2), np.repeat(chi, 2), sign, rho,
                np.repeat(forward_modes, 2), a_mean, c_int,
            )

        def solve(self, fvals):
            m, modes, _, cols = fvals.shape
            return self.frame.solve(fvals.reshape(m, 2 * modes, cols)).reshape(fvals.shape)

    model = make_spectral_model([float(j * j) for j in range(1, n + 1)])
    cfg = sa.SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=2)
    driver = sa.Driver(c0=1.5, amplitudes=np.array([0.5]), omegas=np.array([1.0]))
    columns = (
        [(driver, q) for q in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)]
        + [(driver, 2.0 ** (-k)) for k in range(1, 7)]
        + [(sa.constant_driver(driver.value(0.0)), 0.0)]
    )
    rss0 = _peak_mb()
    start = time.perf_counter()
    if variant == "direct":
        sa._ScalarFrame = timed(sa._ScalarFrame)
        fibers = sa.build_fibers(cfg, columns)
    else:
        fibers = two_channel_fibers(cfg, columns, frame=DoubledFrame)
    fibers_s = time.perf_counter() - start
    rss1 = _peak_mb()
    return {
        "n": n,
        "variant": variant,
        "columns": len(columns),
        "grid_nodes": int(sa._fiber_grid(cfg, None, None).size),
        "build_fibers_s": round(fibers_s, 3),
        "frame_setup_s": round(setup["s"], 3),
        "picard_sweeps": fibers[0].n_iterations,
        "fibers_rss_rise_mb": round(rss1 - rss0, 1),
        "rss_before_mb": round(rss0, 1),
        "peak_rss_mb": round(rss1, 1),
        "m": [f.m.tolist() for f in fibers],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_sa_fibers.json"))
    parser.add_argument("--child", nargs=2, metavar=("N", "VARIANT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(int(args.child[0]), args.child[1])))
        return 0
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    runs = []
    for _ in range(REPEATS):
        for n, variant in RUNS:
            cmd = [sys.executable, __file__, "--child", str(n), variant]
            out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(json.dumps({k: v for k, v in runs[-1].items() if k != "m"}),
                  file=sys.stderr)
    import numpy
    import scipy

    summary = [
        {"n": n, "variant": variant, **{
            key: float(numpy.median([r[key] for r in runs
                                     if (r["n"], r["variant"]) == (n, variant)]))
            for key in SUMMARY
        }}
        for n, variant in RUNS
    ]
    fibers_m = {}
    for r in runs:
        fibers_m.setdefault((r["n"], r["variant"]), []).append(numpy.array(r.pop("m")))
    agreement = {
        str(n): {
            "max_abs_dm": float(max(
                numpy.abs(a - b).max()
                for a in fibers_m[n, "direct"] for b in fibers_m[n, "two_channel"]
            )),
            "max_abs_m": float(numpy.abs(fibers_m[n, "direct"][0]).max()),
        }
        for n in sorted({n for n, _ in RUNS})
    }

    doc = {
        "what": "the verify fiber solve (23 columns): the Picard loop on the "
                "library frame over (mode, channel) pairs (two_channel, before) "
                "against the banded direct solve of the library (direct, after)",
        "command": "python bench/sa_fibers.py --out BENCH_sa_fibers.json",
        "threads": THREAD_ENV,
        "host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "agreement": agreement,
        "median": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
