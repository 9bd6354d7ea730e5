"""Each output check of the benchmark accepts the real output and rejects a
perturbed one.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 -m pytest perfbench/test_checks.py

The module runs `lqbundle verify` once on S1, the j = 0 system of
stationary-n40 and sa-standard (about a minute; the n = 40 LP solve peaks at
about 3.3 GB), then perturbs one output value per case.
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from lqbundle.cli import main as lqbundle_main  # noqa: E402


def _verify(name):
    path = HERE / "scenarios" / name
    with tempfile.TemporaryDirectory() as out:
        lqbundle_main(["verify", "--scenario", str(path), "--out", out])
        cert, tables = checks.read_outputs(out)
    return json.loads(path.read_text(encoding="utf-8")), cert, tables


@pytest.fixture(scope="module")
def s1():
    return _verify("s1.json")


@pytest.fixture(scope="module")
def n40():
    return _verify("n40_j0.json")


@pytest.fixture(scope="module")
def sa():
    return _verify("sa_standard.json")


def _record(cert, name):
    return next(rec for rec in cert["checks"] if rec["name"] == name)


def _set(name, key, value):
    def edit(cert, tables):
        _record(cert, name)[key] = value(_record(cert, name)[key])
    return edit


def _row(table, index, key, value):
    def edit(cert, tables):
        tables[table][index][key] = value(tables[table][index][key])
    return edit


def _drop(table, keep):
    def edit(cert, tables):
        tables[table] = [r for r in tables[table] if keep(r)]
    return edit


def _p_above_bound(cert, tables):
    tables["fibers"][3]["norm_Pq"] = 1.001 / _record(cert, "delta-v")["value"]


def _perturbed(output, edit):
    doc, cert, tables = copy.deepcopy(output)
    edit(cert, tables)
    return doc, cert, tables


S1_EDITS = {
    "min_eig row": _row("freq_margin", 100, "min_eig", lambda v: v + 1e-9),
    "inv_norm row": _row("freq_margin", -1, "inv_norm", lambda v: v * (1 + 1e-9)),
    "margin above 0.75": _set("frequency-margin", "value", lambda v: v + 1e-12),
    "margin below 0.75": _set("frequency-margin", "value", lambda v: v - 1e-9),
    "inverse norm": _set("inverse-norm-bound", "value", lambda v: v * 1.001),
    "eps0 at the gap": _set("eps0", "value", lambda v: 3.0**0.5),
    "decay rate": _set("decay-rate", "value", lambda v: 1.7),
}

N40_EDITS = {
    "min_eig row": _row("freq_margin", 10, "min_eig", lambda v: v + 1e-6),
    "margin not the row minimum": _set("frequency-margin", "value", lambda v: v - 1e-9),
    "dichotomy gap": _set("dichotomy-gap", "value", lambda v: v * 1.001),
    "dichotomy rank": _set("dichotomy-gap", "detail", lambda v: v.replace("j = 0", "j = 1")),
    "eps0 at the gap": _set("eps0", "value", lambda v: 10.0),
}

SA_EDITS = {
    "contraction-mid bound": _set("contraction-mid", "bound", lambda v: v + 1e-4),
    "contraction-pq measured": _set("contraction-pq", "value", lambda v: 0.2),
    "lp-norm-all bound": _set("lp-norm-all", "bound", lambda v: 0.5),
    "lp-norm-pq bound": _set("lp-norm-pq", "bound", lambda v: v * 1.01),
    "bracket-mid": _set("bracket-mid", "value", lambda v: v + 1e-9),
    "bracket-pq": _set("bracket-pq", "value", lambda v: v - 1e-9),
    "gap margin row": _row("gap_margins", 0, "margin1", lambda v: v + 1e-9),
    "gap row for (3, 2) missing": _drop("gap_margins", lambda r: (r["k"], r["N"]) != (3, 2)),
    "isotropy": _set("fiber-isotropy", "value", lambda v: 2e-8),
    "frozen oracle": _set("frozen-oracle", "value", lambda v: 2e-6),
    "picard iterations": _set("picard-iterations", "value", lambda v: 201.0),
    "P above 1/delta_V": _p_above_bound,
    "fiber row missing": _drop("fibers", lambda r: r["phase"] != 0.0),
}


def test_s1_accepts_real_output(s1):
    doc, cert, tables = s1
    assert checks.check_s1(cert, tables) == []


@pytest.mark.parametrize("case", sorted(S1_EDITS))
def test_s1_rejects(s1, case):
    doc, cert, tables = _perturbed(s1, S1_EDITS[case])
    assert checks.check_s1(cert, tables)


def test_n40_accepts_real_output(n40):
    doc, cert, tables = n40
    assert checks.check_n40(cert, tables, doc) == []


@pytest.mark.parametrize("case", sorted(N40_EDITS))
def test_n40_rejects(n40, case):
    doc, cert, tables = _perturbed(n40, N40_EDITS[case])
    assert checks.check_n40(cert, tables, doc)


def test_riccati_check(n40):
    from lqbundle.frequency import QuadraticFormTriple
    from lqbundle.stationary import (
        assemble_hamiltonian, extract_nonoscillation, stable_lagrange_schur)

    doc = n40[0]
    a, b, f1, f2, f3 = checks.system_matrices(doc)
    form = QuadraticFormTriple(f1=f1, f2=f2, f3=f3)
    p = extract_nonoscillation(stable_lagrange_schur(assemble_hamiltonian(a, b, form))).p
    assert checks.check_riccati(p, doc) == []
    bumped = p.copy()
    bumped[0, 0] += 1e-7 * abs(p).max()
    assert checks.check_riccati(bumped, doc)


def test_sa_accepts_real_output(sa):
    doc, cert, tables = sa
    assert checks.check_sa(cert, tables, doc) == []


@pytest.mark.parametrize("case", sorted(SA_EDITS))
def test_sa_rejects(sa, case):
    doc, cert, tables = _perturbed(sa, SA_EDITS[case])
    assert checks.check_sa(cert, tables, doc)
