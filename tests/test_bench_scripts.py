"""The before/after scripts of bench/ against the library they measure.

`bench/lp_assembly.py`, `bench/sa_scale.py` and `bench/stationary_stages.py`
run each measurement in a fresh single-threaded child process (`--child`)
that reaches into the library: `_StationaryLP` (its row table and
elimination), `_segments`, `run_pipeline` and the stationary route's
stages.  `bench/process_footprint.py` measures a fresh `verify` process
from the command line.
Each test here runs one child as the scripts do and checks that its result
agrees with the library, so a library change that breaks a script fails
here first.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lqbundle.stationary as st
from lqbundle.certify import STAGES, load_scenario, run_pipeline

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_child(script: str, arg: str) -> dict:
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(BENCH / script), "--child", arg], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_lp_assembly_child(monkeypatch):
    result = run_child("lp_assembly.py", "stiff")
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    reg = st.Regulator(*importlib.import_module("lp_assembly")._system("stiff"))
    times = st._grid_parameters(reg.split_a, reg.ham)
    sharp = st.sharp_basis(reg.split_a, reg.split_m)
    assert result["system"] == "stiff"
    # the fine grid, 501 nodes in 14 segments, then the Richardson grid
    grids = result["grids"]
    assert [grid["nodes"] for grid in grids] == [times.size, times[::2].size] == [501, 251]
    for grid, nodes in zip(grids, (times, times[::2])):
        assert grid["segment_steps"] == [hi - lo for lo, hi in st._segments(nodes)]
        lp = st._StationaryLP(reg.b, reg.form, reg.split_a, reg.split_m, sharp, nodes)
        table = lp.row_table()
        assert grid["nnz"] == sum(np.count_nonzero(tmpl) * copies for tmpl, _, copies in table)
        assert grid["elimination"] == "frontal"
        assert grid["front_rows"] == lp.eliminate(table)[1] == 92
        assert [phase for phase, _, _ in grid["phases"]] == ["rows", "elimination"]
    assert 0.0 < result["warm_lp_s"] and 0.0 < result["lp_s"]
    assert result["oracle_distance"] <= 1e-6 and result["invariance_defect"] <= 1e-8


def test_sa_scale_child():
    result = run_child("sa_scale.py", "8")
    # sa-standard at its own truncation passes every record; the gap,
    # contraction, fibers and frozen-oracle stages were all timed, in that order
    assert result["n"] == 8 and result["passed"] is True
    assert result["contraction_s"] > 0.0 and result["fibers_s"] > 0.0
    assert result["gap_s"] >= 0.0 and result["frozen_oracle_s"] >= 0.0
    assert (result["rss_before_mb"] <= result["gap_rss_after_mb"]
            <= result["contraction_rss_after_mb"] <= result["fibers_rss_after_mb"]
            <= result["frozen_oracle_rss_after_mb"] <= result["peak_rss_mb"])


def test_stationary_stages_child():
    result = run_child("stationary_stages.py", "s1")
    # every stage of the route timed, in route order, in both runs; the
    # certificate is the one this process computes
    cert = run_pipeline(load_scenario(str(ROOT / "perfbench" / "scenarios" / "s1.json")))
    assert result["system"] == "s1" and result["passed"] is cert.passed is True
    assert result["certificate_sha256"] == hashlib.sha256(cert.to_json().encode()).hexdigest()[:16]
    assert [r[0] for r in result["records"]] == [r.name for r in cert.records]
    for run in (result["first"], result["warm"]):
        assert list(run["stages"]) == list(STAGES["stationary"])
        assert 0.0 < sum(run["stages"].values()) <= run["pipeline_s"]
        assert run["rss_after_mb"] > 0.0
        # S1 passes the eps0 test at its cap, and its LP eliminates both grids
        assert run["eps0_eigensolves"] == 1 and run["lp_us_per_node"] > 0.0


def test_process_footprint_child(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    footprint = importlib.import_module("process_footprint")
    result = footprint.measure("s1", ROOT / "src")
    # the child wrote the certificate this process computes, and passed
    cert = run_pipeline(load_scenario(str(ROOT / "perfbench" / "scenarios" / "s1.json")))
    text = (cert.to_json() + "\n").encode()
    assert result["system"] == "s1" and result["exit_code"] == 0
    assert result["certificate_sha256"] == hashlib.sha256(text).hexdigest()[:16]
    assert result["wall_s"] > 0.0 and result["peak_rss_mb"] > 0.0
    # the import-only child writes no certificate
    result = footprint.measure(footprint.IMPORT, ROOT / "src")
    assert result["system"] == "import" and result["exit_code"] == 0
    assert result["certificate_sha256"] is None
    assert result["wall_s"] > 0.0 and result["peak_rss_mb"] > 0.0
