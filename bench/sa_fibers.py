"""Before/after timing and memory of the spatial-averaging fiber solve.

Runs the fiber Picard iteration of one `verify` (the 16 grid phases, the 6
continuity steps and the frozen driver: 23 columns of one `build_fibers`
call) and the contraction certificate's impulse-response matrices in one
of three ways:

- `oracle`: the two-channel Picard and impulse loops of
  tests/spatial_oracles.py on `ScalarFrameOracle` frames, which integrate
  every mode in both directions;
- `two_channel`: the same loops on the library's `_ScalarFrame` over the
  doubled set of (mode, channel) pairs with rate shifts (0, mu_j), which is
  the library's work before each solver kept one channel, array for array;
- `one_channel`: the library, `build_fibers` and `_mode_operator_matrices`.

Each run is a fresh single-threaded process, so its `ru_maxrss` rises are
its own.  The contraction matrices are built first, then the fibers.  Frame
setup is the time spent constructing the frames; ms per sweep is the rest
of the fiber solve over the sweep count.  The fibers and the matrices are
hashed, so the runs of one system show whether they agree bit for bit
(up to the sign of an exact zero).
Systems: sa-standard (lambda_j = j^2, n = 8, Lambda = delta = 1, k = 3,
N = 2, driver 1.5 + 0.5 sin t) and its n = 16 truncation.

    python bench/sa_fibers.py --out BENCH_sa_fibers.json

Each of the six runs is repeated three times, interleaved, and the
summary holds the medians.  About three minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import hashlib
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
RUNS = tuple(
    (n, variant) for n in (8, 16) for variant in ("oracle", "two_channel", "one_channel")
)
#: rounds over RUNS; the summary holds each metric's median over them
REPEATS = 3
SUMMARY = ("build_fibers_s", "frame_setup_s", "picard_sweeps", "ms_per_sweep",
           "impulse_matrices_s", "fibers_rss_rise_mb", "impulse_rss_rise_mb")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(*arrays) -> str:
    """Hash of the arrays' bytes, with -0.0 read as +0.0: the two-channel
    response ch0 + ch1 adds a signed zero, so its exact zeros are +0.0."""
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update((arr + 0.0).tobytes())
    return sha.hexdigest()[:16]


def measure(n: int, variant: str) -> dict:
    """The contraction matrices, then the verify fiber solve, in this process."""
    import numpy as np

    import lqbundle.spatial as sa
    from lqbundle.spectral import make_spectral_model

    sys.path.insert(0, str(ROOT / "tests"))
    from spatial_oracles import (
        ScalarFrameOracle,
        oracle_frames,
        two_channel_fibers,
        two_channel_operator_matrices,
    )

    class DoubledFrame:
        """A two-channel frame as the one-channel library frame over the
        (mode, channel) pairs, shifted by (0, mu_j)."""

        def __init__(self, times, s_base, chi, sign, mu, forward_modes, a_mean, c_int):
            self.m = times.size
            rho = np.stack([np.zeros_like(mu), mu], axis=1).ravel()
            self.frame = sa._ScalarFrame(
                times, np.repeat(s_base, 2), np.repeat(chi, 2), sign, rho,
                np.repeat(forward_modes, 2), a_mean, c_int,
            )

        def solve(self, fvals):
            m, modes, _, cols = fvals.shape
            return self.frame.solve(fvals.reshape(m, 2 * modes, cols)).reshape(fvals.shape)

    setup = {"s": 0.0}

    def timed(cls):
        class Timed(cls):
            def __init__(self, *args):
                start = time.perf_counter()
                super().__init__(*args)
                setup["s"] += time.perf_counter() - start

        return Timed

    model = make_spectral_model([float(j * j) for j in range(1, n + 1)])
    cfg = sa.SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=2)
    driver = sa.driver_make("periodic", {"c0": 1.5, "c1": 0.5, "omega": 1.0},
                            a_bound=cfg.a_bound)
    columns = (
        [(driver, q) for q in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)]
        + [(driver, 2.0 ** (-k)) for k in range(1, 7)]
        + [(sa.constant_driver(driver.value(0.0)), 0.0)]
    )
    frame = {"oracle": ScalarFrameOracle, "two_channel": DoubledFrame}.get(variant)
    rss0 = _peak_mb()

    # contraction certificate's impulse responses, T and L_A
    times = sa._fiber_grid(cfg, None, sa.CONTRACTION_STEPS)
    impulse_columns = [(sa.constant_driver(cfg.a_bound), 0.0)]
    if frame is None:
        sa._ScalarFrame = timed(sa._ScalarFrame)
        solver = sa._ModeSolver(cfg, impulse_columns, times, shifted=False)
        start = time.perf_counter()
        mats = [sa._mode_operator_matrices(solver, c) for c in (True, False)]
    else:
        frames = oracle_frames(cfg, impulse_columns, times, timed(frame))
        start = time.perf_counter()
        mats = [two_channel_operator_matrices(cfg, frames, c) for c in (True, False)]
    impulse_s = time.perf_counter() - start
    impulse_setup_s, setup["s"] = setup["s"], 0.0
    rss1 = _peak_mb()

    # the fibers of one verify
    start = time.perf_counter()
    if frame is None:
        fibers = sa.build_fibers(cfg, columns)
    else:
        fibers = two_channel_fibers(cfg, columns, frame=timed(frame))
    fibers_s = time.perf_counter() - start
    rss2 = _peak_mb()
    sweeps = fibers[0].n_iterations
    return {
        "n": n,
        "variant": variant,
        "columns": len(columns),
        "grid_nodes": int(sa._fiber_grid(cfg, None, None).size),
        "build_fibers_s": round(fibers_s, 3),
        "frame_setup_s": round(setup["s"], 3),
        "picard_sweeps": sweeps,
        "ms_per_sweep": round((fibers_s - setup["s"]) / sweeps * 1e3, 2),
        "fibers_rss_rise_mb": round(rss2 - rss1, 1),
        "impulse_matrices_s": round(impulse_s, 3),
        "impulse_frame_setup_s": round(impulse_setup_s, 3),
        "impulse_rss_rise_mb": round(rss1 - rss0, 1),
        "rss_before_mb": round(rss0, 1),
        "peak_rss_mb": round(rss2, 1),
        "fibers_sha": _digest(*(np.diag(f.m_plus_q.matrix) for f in fibers),
                              *(f.p_q for f in fibers if f.p_q is not None)),
        "impulse_sha": _digest(*mats),
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
            print(json.dumps(runs[-1]), file=sys.stderr)
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

    doc = {
        "what": "the verify fiber solve (23 columns) and the contraction impulse "
                "matrices: two-channel loops on the oracle frames (oracle) and on "
                "the library frame over (mode, channel) pairs (two_channel, before), "
                "against the one-channel library (one_channel, after)",
        "command": "python bench/sa_fibers.py --out BENCH_sa_fibers.json",
        "threads": THREAD_ENV,
        "host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "identical": {
            str(n): len({(r["fibers_sha"], r["impulse_sha"]) for r in runs if r["n"] == n})
            == 1
            for n in sorted({r["n"] for r in runs})
        },
        "median": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
