"""The benchmark harness against the library it measures.

perfbench/ reaches into the library from outside: the tracer counts
`_StationaryLP` grid nodes through `__init__`'s `times` argument (args[6])
and `TransferEvaluator.margin_at` calls, and the worker checks P from the
four-argument `extract_nonoscillation` against scipy's CARE solver.  A
library change that breaks one of these breaks the benchmark; these tests
fail first.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src"
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def test_traced_s1_round(tmp_path):
    env = dict(os.environ, **THREAD_ENV, PERFBENCH_SRC=str(SRC), PYTHONPATH=str(SRC),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "trace", str(tmp_path),
         "stationary-s1"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert result["attempted"] == 1 and result["failed"] == 0
    metrics = {name: value for name, (value, _unit) in result["metrics"].items()}
    # the fine (162 graded steps) and the coarse Richardson grid of the S1
    # LP solve
    assert metrics["stationary.lp_grid_nodes"] == 163 + 82
    assert metrics["frequency.margin_evals"] > 0


def test_riccati_check_of_n40(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    worker = importlib.import_module("worker")
    scenario = str(PERFBENCH / "scenarios" / "n40_j0.json")
    assert worker._riccati_problems("stationary-n40", [scenario]) == []
