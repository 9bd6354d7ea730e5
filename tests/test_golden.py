"""Certificates of the perfbench scenarios against committed goldens.

tests/golden holds `certificate.json` of `verify` on S1, sa-standard and the
j = 0 n = 40 system, and of `check-freq` on the two n = 40 systems.  Pass
flags, record names and their order must match exactly; values and bounds to
the tolerances below, at the suite's own BLAS thread count and, for `verify`
on S1 and sa-standard, at two threads in a subprocess (sa-standard's
`lp-norm-pq` reads 2 ulp higher there than at one thread).
Regenerate a golden only for a change that moves a value on purpose, and
justify the move against an oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lqbundle.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = ROOT / "perfbench" / "scenarios"

#: relative tolerance on values and bounds
RTOL = 1e-9
#: discretisation errors of the LP grid solve: deterministic, but their last
#: digits follow the sparse LU's rounding
DISCRETISATION_RTOL = {"lp-invariance": 1e-6, "oracle-equivalence": 1e-6}
#: values that are floating-point noise: compared to 1% of their bound
ROUNDOFF = {"transfer-selfadjoint-defect", "lp-isotropy", "symplectic-defect",
            "riccati-residual", "p-symmetry-defect", "pairing-drift"}


def assert_matches_golden(checks, golden):
    assert [c["name"] for c in checks] == [g["name"] for g in golden]
    for c, g in zip(checks, golden):
        name = c["name"]
        assert c["pass"] == g["pass"], name
        assert c["bound"] == pytest.approx(g["bound"], rel=RTOL, abs=1e-300), name
        if name in ROUNDOFF:
            assert abs(c["value"] - g["value"]) <= 0.01 * g["bound"], name
        else:
            rtol = DISCRETISATION_RTOL.get(name, RTOL)
            assert c["value"] == pytest.approx(g["value"], rel=rtol, abs=1e-300), name


@pytest.mark.parametrize(
    "command, scenario",
    [("verify", "s1"), ("verify", "sa_standard"), ("verify", "n40_j0"),
     ("check-freq", "n40_j0"), ("check-freq", "n40_j1")],
)
def test_certificate_matches_golden(tmp_path, command, scenario):
    golden = json.loads((GOLDEN / f"{scenario}.{command}.json").read_text())
    out = tmp_path / "o"
    code = main([command, "--scenario", str(SCENARIOS / f"{scenario}.json"),
                 "--out", str(out)])
    cert = json.loads((out / "certificate.json").read_text())
    assert code == (0 if golden["pass"] else 1)
    assert cert["pass"] == golden["pass"]
    assert_matches_golden(cert["checks"], golden["checks"])


@pytest.mark.parametrize("scenario", ["s1", "sa_standard"])
def test_verify_matches_golden_at_two_blas_threads(tmp_path, scenario):
    golden = json.loads((GOLDEN / f"{scenario}.verify.json").read_text())
    out = tmp_path / "o"
    threads = {key: "2" for key in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, **threads, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "lqbundle.cli", "verify", "--scenario",
           str(SCENARIOS / f"{scenario}.json"), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == (0 if golden["pass"] else 1), proc.stderr
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["pass"] == golden["pass"]
    assert_matches_golden(cert["checks"], golden["checks"])
