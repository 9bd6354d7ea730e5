import json
import os
import sys

import numpy as np
import pytest
import scipy.linalg

import lqbundle.dichotomy
import lqbundle.spatial
import lqbundle.stationary
from lqbundle.certify import (
    DEFAULT_TOLERANCES,
    Certificate,
    export_plots,
    load_scenario,
    run_pipeline,
    with_overrides,
    write_certificate,
)
from lqbundle.cli import main
from lqbundle.errors import MissingField, ParseError, ValidationError
from lqbundle.frequency import TransferEvaluator
from lqbundle.sampling import random_passing_instance


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


S1_DOC = {
    "name": "S1",
    "mode": "stationary",
    "A": [[-2.0]],
    "B": [[1.0]],
    "F1": [[-1.0]],
    "F2": [[0.0]],
    "F3": [[1.0]],
}

SA_DOC = {
    "name": "sa-standard",
    "mode": "spatial-averaging",
    "eigenvalues": {"generator": "power", "p": 2, "n": 8},
    "Lambda": 1.0,
    "delta": 1.0,
    "k": 3,
    "N": 2,
    "driver": {"kind": "periodic", "c0": 1.5, "c1": 0.5, "omega": 1.0},
    "phase_samples": 8,
}


class TestLoadScenario:
    def test_minimal_stationary(self, tmp_path):
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        assert scn.name == "S1" and scn.mode == "stationary" and scn.seed == 42

    def test_search_mode_enabled(self, tmp_path):
        doc = dict(SA_DOC)
        doc["N"] = "search"
        doc["k"] = "search"
        scn = load_scenario(write_json(tmp_path, "sa.json", doc))
        assert scn.averaging["N"] == "search"

    def test_asymmetric_f3_rejected(self, tmp_path):
        doc = dict(S1_DOC)
        doc["F3"] = [[1.0, 0.5], [0.0, 1.0]]
        doc["F2"] = [[0.0], [0.0]]
        with pytest.raises(ValidationError):
            load_scenario(write_json(tmp_path, "bad.json", doc))

    def test_missing_field(self, tmp_path):
        doc = {k: v for k, v in S1_DOC.items() if k != "B"}
        with pytest.raises(MissingField):
            load_scenario(write_json(tmp_path, "missing.json", doc))

    def test_b_shape_rejected(self, tmp_path):
        doc = dict(S1_DOC, B=[[1.0, 0.0]])
        with pytest.raises(MissingField, match=r"B must be 1 x 1, got \(1, 2\)"):
            load_scenario(write_json(tmp_path, "bad_b.json", doc))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(str(path))


@pytest.fixture(scope="module")
def sa_route(tmp_path_factory):
    """The whole spatial-averaging route on SA_DOC with 4 phases, as `verify`
    runs it: (certificate, {function: its calls during the run})."""
    path = write_json(tmp_path_factory.mktemp("sa"), "sa.json",
                      dict(SA_DOC, phase_samples=4))
    scenario = load_scenario(path)
    with pytest.MonkeyPatch.context() as mp:
        calls = {
            name: count_calls(mp, owner, name)
            for owner, name in (
                (lqbundle.spatial, "build_fibers"),
                (lqbundle.spatial, "_sweep"),
            )
        }
        cert = run_pipeline(scenario)
    return cert, calls


@pytest.fixture(scope="module")
def sa_standard_cert(sa_route):
    return sa_route[0]


# The records each stage emits, in route order.
STAGE_RECORDS = {
    "dichotomy": ("dichotomy-gap",),
    "frequency": ("frequency-margin", "transfer-selfadjoint-defect",
                  "inverse-norm-bound"),
    "lagrange": ("lp-isotropy", "lp-invariance"),
    "oracle": ("symplectic-defect", "oracle-equivalence"),
    "riccati": ("vertical-intersection", "riccati-residual", "p-symmetry-defect",
                "l2-controllability"),
    "decay": ("eps0", "decay-rate", "pairing-drift"),
    "gap": ("gap-margin-1", "gap-margin-2"),
}


def stage_records(checks, stages):
    """The records of `checks` that the given stages emit, in order."""
    names = {name for stage in stages for name in STAGE_RECORDS[stage]}
    picked = [c for c in checks if c["name"] in names]
    assert {c["name"] for c in picked} == names
    return picked


def certificate_checks(out_dir):
    return json.loads((out_dir / "certificate.json").read_text())["checks"]


def count_calls(monkeypatch, owner, name):
    """A list that grows by one per call of `owner.name`, wrapped in `owner`
    and in every lqbundle module that binds the same function."""
    fn = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or (
            mod_name.split(".")[0] == "lqbundle" and vars(mod).get(name) is fn
        ):
            monkeypatch.setattr(mod, name, counted)
    return calls


def run_command(tmp_path, command, doc):
    """(exit code, certificate records) of `command --out` on `doc`."""
    out = tmp_path / command
    code = main([command, "--scenario", write_json(tmp_path, "in.json", doc),
                 "--out", str(out)])
    return code, certificate_checks(out)


class TestPipeline:
    def test_s1_certificate(self, tmp_path):
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        cert = run_pipeline(scn)
        assert cert.passed
        by_name = {r.name: r for r in cert.records}
        assert by_name["riccati-residual"].value <= 1e-8
        p_entries = {row["entry"]: row["value"] for row in cert.tables["riccati"]}
        assert p_entries["P[0][0]"] == pytest.approx(-0.2679, abs=1e-4)

    def test_s1_derives_each_piece_once(self, tmp_path, monkeypatch):
        # one R (read by H), one split each of A and -A^T and one F3 factor
        # for the system, plus the eps-shifted H, its R and its F3 factor of
        # the Lyapunov check
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        calls = {
            name: count_calls(monkeypatch, owner, name)
            for owner, name in (
                (lqbundle.stationary, "perturbation_matrix"),
                (lqbundle.stationary, "assemble_hamiltonian"),
                (lqbundle.dichotomy, "dichotomy_split"),
                (scipy.linalg, "cho_factor"),
            )
        }
        assert run_pipeline(scn).passed
        assert {name: len(c) for name, c in calls.items()} == {
            "perturbation_matrix": 2, "assemble_hamiltonian": 1,
            "dichotomy_split": 2, "cho_factor": 2,
        }

    def test_s1_fits_no_unread_dichotomy_constant(self, tmp_path):
        # only A's split has its M read (LP tail bound, dichotomy-gap)
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        assert run_pipeline(scn).passed
        assert "m_const" in vars(scn.regulator.split_a)
        assert "m_const" not in vars(scn.regulator.split_m)

    def test_s1_margin_evaluations_within_budget(self, tmp_path, monkeypatch):
        # every evaluated row, batched or single (`margin_at` is one row of
        # `rows`): the 1,024 grid rows of the plot table in one batched call
        # plus the level-set samples; the refined scans of the frequency,
        # eps0 and Lyapunov stages took 16,888
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        rows = TransferEvaluator.rows
        evaluated = []

        def counted(self, omegas):
            evaluated.extend(np.atleast_1d(omegas))
            return rows(self, omegas)

        monkeypatch.setattr(TransferEvaluator, "rows", counted)
        assert run_pipeline(scn).passed
        assert 1024 < len(evaluated) <= 1200

    def test_riccati_bound_scales_with_p(self, tmp_path):
        # ||P|| = 1.6e4: the residual of the exact P is 1.1e-7 in absolute
        # terms, 9e-16 relative to the backward-error scale
        a, b, form, _ = random_passing_instance(np.random.default_rng(0), 20, j=1)
        doc = {"name": "n20-j1", "mode": "stationary", "A": a.tolist(),
               "B": b.tolist(), "F1": form.f1.tolist(), "F2": form.f2.tolist(),
               "F3": form.f3.tolist()}
        scn = load_scenario(write_json(tmp_path, "n20.json", doc))
        cert = run_pipeline(scn, ("dichotomy", "oracle", "riccati"))
        rec = {r.name: r for r in cert.records}["riccati-residual"]
        assert rec.passed and rec.value > 1e-8
        # the same check rejects P moved by 1e-6 ||P|| in one entry
        ham = scn.regulator.ham
        p = np.array([[row["value"] for row in cert.tables["riccati"]]]).reshape(20, 20)
        p[0, 0] += 1e-6 * np.linalg.norm(p, 2)
        resid, scale = lqbundle.stationary.riccati_residual(p, ham)
        assert resid > DEFAULT_TOLERANCES["riccati"] * scale

    def test_p_symmetry_bound_scales_with_p(self, tmp_path):
        # j = n: ||P|| = 3.5e6, and max|P - P^T| = 4.2e-8 failed the absolute
        # bound 1e-8 while every other record, Riccati included, passed
        a, b, form, _ = random_passing_instance(np.random.default_rng(7), 3, j=3)
        doc = {"name": "n3-j3", "mode": "stationary", "A": a.tolist(),
               "B": b.tolist(), "F1": form.f1.tolist(), "F2": form.f2.tolist(),
               "F3": form.f3.tolist()}
        code, checks = run_command(tmp_path, "verify", doc)
        assert code == 0 and all(c["pass"] for c in checks)
        rec = {c["name"]: c for c in checks}["p-symmetry-defect"]
        assert rec["value"] <= 1e-13 and "||P|| = 3.4" in rec["detail"]

    def test_sa_standard_certificate(self, sa_standard_cert):
        cert = sa_standard_cert
        assert cert.passed
        by_name = {r.name: r for r in cert.records}
        assert by_name["delta-v"].value > 0.0
        assert by_name["uniform-p-bound"].value <= 1.0 / by_name["delta-v"].value + 1e-6
        assert len(cert.tables["fibers"]) == 4

    def test_sa_solves_each_fiber_once(self, sa_route):
        # one fiber solve holds the phase grid, the continuity steps and the
        # frozen column, and sweeps all of them once on the step and once on
        # twice the step
        cert, calls = sa_route
        assert {name: len(c) for name, c in calls.items()} == {
            "build_fibers": 1, "_sweep": 2,
        }
        assert len(cert.tables["fibers"]) == 4
        assert len(cert.tables["continuity"]) == 6

    def test_sa_stages_without_fibers_emit_nothing(self, tmp_path, monkeypatch):
        # frozen-oracle and continuity read the columns of the fibers stage
        scn = load_scenario(write_json(tmp_path, "sa.json", SA_DOC))
        calls = count_calls(monkeypatch, lqbundle.spatial, "build_fibers")
        cert = run_pipeline(scn, ("gap", "frozen-oracle", "continuity"))
        assert [r.name for r in cert.records] == ["gap-margin-1", "gap-margin-2"]
        assert "continuity" not in cert.tables and calls == []

    def test_freq_margin_starts_at_positive_zero(self, tmp_path):
        # a grid mirrored to +-w and filtered back started at w = -0.0
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        omega = run_pipeline(scn, ("frequency",)).tables["freq_margin"][0]["omega"]
        assert omega == 0.0 and not np.signbit(omega)

    def test_s1_inverse_norm_bound_has_room(self, tmp_path):
        # S1 is the Lax-Milgram equality case: ||F3|| / margin equals the
        # sampled inverse norm, so only the certified lower end of the
        # margin leaves the record a positive margin
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        cert = run_pipeline(scn, ("frequency",))
        rec = {r.name: r for r in cert.records}["inverse-norm-bound"]
        assert rec.passed and rec.margin > 0.0

    def test_stiff_spectrum_passes_every_record(self, tmp_path):
        # rho(H) ~ 1000: the pairing trajectories over [0, 5] overflowed and
        # read NaN; they now stop at 12 / 1000 (RuntimeWarnings are errors)
        doc = dict(S1_DOC, name="stiff", B=[[0.5]] * 4, F2=[[0.0] * 4],
                   A=np.diag([-1.0, -10.0, -100.0, -1000.0]).tolist(),
                   F1=(-0.1 * np.eye(4)).tolist())
        cert = run_pipeline(load_scenario(write_json(tmp_path, "stiff.json", doc)))
        assert [r.name for r in cert.records if not r.passed] == []
        drift = {r.name: r for r in cert.records}["pairing-drift"]
        assert drift.value <= 1e-20 and "over [0, 0.012]" in drift.detail

    def test_failing_k1_sa(self, tmp_path):
        doc = dict(SA_DOC)
        doc["k"] = 1
        doc["phase_samples"] = 4
        scn = load_scenario(write_json(tmp_path, "sa1.json", doc))
        cert = run_pipeline(scn)
        assert not cert.passed
        details = " ".join(r.detail for r in cert.records if not r.passed)
        assert "NotPositive" in details

    def test_determinism_byte_identical(self, tmp_path):
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        out1 = run_pipeline(scn).to_json()
        out2 = run_pipeline(scn).to_json()
        assert out1 == out2


class TestExports:
    def test_stationary_schema(self, tmp_path):
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        cert = run_pipeline(scn)
        files = export_plots(cert, str(tmp_path / "out"))
        names = {os.path.basename(f) for f in files}
        assert "freq_margin.csv" in names
        header = open(os.path.join(tmp_path, "out", "freq_margin.csv")).readline()
        assert header.strip() == "omega,min_eig,inv_norm"
        body = open(os.path.join(tmp_path, "out", "freq_margin.csv")).readlines()
        assert len(body) > 10

    def test_empty_certificate_schema_valid(self, tmp_path):
        cert = Certificate(name="empty", mode="stationary", seed=0)
        files = export_plots(cert, str(tmp_path / "empty"))
        assert len(files) == 6
        for f in files:
            lines = open(f).readlines()
            assert len(lines) == 1 and "," in lines[0]

    def test_certificate_json_round_trip(self, tmp_path):
        cert = Certificate(name="x", mode="stationary", seed=7)
        cert.add_upper("alpha", 0.5, 1.0, detail="demo")
        path = write_certificate(cert, str(tmp_path / "o"))
        doc = json.loads(open(path).read())
        assert doc["schema"] == 1
        assert doc["checks"][0]["name"] == "alpha"
        assert doc["pass"] is True


# Malformed documents: each once crashed with a traceback and exit code 1,
# or (nested eigenvalues) was silently flattened.
MALFORMED = {
    "k-auto": ("verify", dict(SA_DOC, k="auto")),
    "phase-samples-zero": ("verify", dict(SA_DOC, phase_samples=0)),
    "phase-samples-text": ("verify", dict(SA_DOC, phase_samples="x")),
    "quasiperiodic-without-amplitudes": ("verify", dict(
        SA_DOC, driver={"kind": "quasiperiodic", "c0": 1.5, "omegas": [1.0, 1.414]})),
    "driver-list": ("verify", dict(SA_DOC, driver=[1.5, 0.5, 1.0])),
    "top-level-list": ("verify", [S1_DOC]),
    "generator-p-text": ("verify", dict(
        SA_DOC, eigenvalues={"generator": "power", "p": "two", "n": 8})),
    "generator-n-text": ("verify", dict(
        SA_DOC, eigenvalues={"generator": "power", "p": 2, "n": "eight"})),
    "nested-eigenvalues": ("verify", dict(SA_DOC, eigenvalues=[[1, 2], [3, 4]])),
    "lambda-text": ("verify", dict(SA_DOC, Lambda="one")),
    # the fiber horizon option is gone: 10,000 crashed with LinAlgError
    "horizon-unknown": ("verify", dict(SA_DOC, horizon=10000)),
    "seed-text": ("verify", dict(S1_DOC, seed="x")),
    # numpy's default_rng raised an untyped ValueError, even for check-freq
    "seed-negative": ("verify", dict(S1_DOC, seed=-3)),
    "seed-negative-check-freq": ("check-freq", dict(S1_DOC, seed=-3)),
    "tolerance-text": ("verify", dict(S1_DOC, tolerances={"oracle": "x"})),
    "nan-in-a": ("verify", dict(S1_DOC, A=[[float("nan")]])),
    # misspelt fields ran with their defaults (omega = 1, p = 2, 16 phases)
    "driver-field-misspelt": ("verify", dict(
        SA_DOC, driver=dict(SA_DOC["driver"], omgea=2.0))),
    "generator-field-misspelt": ("verify", dict(
        SA_DOC, eigenvalues={"generator": "power", "pp": 3, "n": 8})),
    "scenario-field-misspelt": ("verify", dict(SA_DOC, phase_sample=4)),
    "stationary-field-unknown": ("check-freq", dict(S1_DOC, Foo=1)),
    # drivers of mismatched or nested terms: a gap-search failure, or a pass
    "quasiperiodic-lengths": ("verify", dict(SA_DOC, driver={
        "kind": "quasiperiodic", "c0": 1.5, "amplitudes": [0.25, 0.25],
        "omegas": [1.0]})),
    "periodic-lengths": ("verify", dict(
        SA_DOC, driver=dict(SA_DOC["driver"], c1=[0.25, 0.25]))),
    "periodic-nested": ("verify", dict(
        SA_DOC, driver=dict(SA_DOC["driver"], c1=[[0.5]], omega=[[1.0]]))),
    "report-record-without-value": ("report", {
        "name": "S1", "mode": "stationary", "seed": 42,
        "checks": [{"name": "eps0", "bound": 0.0, "margin": 1.0, "pass": True}],
    }),
}


@pytest.fixture(scope="module")
def s1_seed7_run(tmp_path_factory):
    """`verify --seed 42 --out DIR` on S1 with the scenario seed 7."""
    tmp = tmp_path_factory.mktemp("seed7")
    path = write_json(tmp, "s1.json", dict(S1_DOC, seed=7))
    out = tmp / "o"
    assert main(["verify", "--scenario", path, "--seed", "42", "--out", str(out)]) == 0
    return out


class TestCli:
    def test_seed_flag_overrides_scenario_seed(self, s1_seed7_run):
        doc = json.loads((s1_seed7_run / "certificate.json").read_text())
        assert doc["seed"] == 42

    def test_riccati_table_exported(self, s1_seed7_run):
        lines = (s1_seed7_run / "riccati.csv").read_text().splitlines()
        assert lines[0] == "entry,value"
        assert lines[1].startswith("P[0][0],")
        assert float(lines[1].split(",")[1]) == pytest.approx(3.0**0.5 - 2.0)

    def test_report_keeps_exported_tables(self, s1_seed7_run, capsys):
        before = {p.name: p.read_text() for p in s1_seed7_run.glob("*.csv")}
        assert len(before["freq_margin.csv"].splitlines()) > 10
        code = main(["report", "--scenario", str(s1_seed7_run / "certificate.json"),
                     "--out", str(s1_seed7_run)])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out
        after = {p.name: p.read_text() for p in s1_seed7_run.glob("*.csv")}
        assert after == before

    def test_verify_s1_exit_zero(self, tmp_path, capsys):
        path = write_json(tmp_path, "s1.json", S1_DOC)
        code = main(["verify", "--scenario", path, "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert (tmp_path / "o" / "certificate.json").exists()
        assert (tmp_path / "o" / "fibers.csv").exists()

    def test_input_error_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["verify", "--scenario", str(path)]) == 2

    def test_check_freq(self, tmp_path, capsys, s1_seed7_run):
        code, checks = run_command(tmp_path, "check-freq", S1_DOC)
        assert code == 0
        assert "frequency-margin" in capsys.readouterr().out
        assert checks == stage_records(certificate_checks(s1_seed7_run), ["frequency"])

    @pytest.mark.parametrize("command", ["check-freq", "verify"])
    def test_zero_frequency_margin_fails(self, tmp_path, command):
        # F1 = -4 puts the margin of S1 exactly at 0, at w = 0: the frequency
        # condition is strict, so its record fails under both commands
        code, checks = run_command(tmp_path, command, dict(S1_DOC, F1=[[-4.0]]))
        rec = {c["name"]: c for c in checks}["frequency-margin"]
        assert code == 1
        assert rec["value"] == 0.0 and rec["margin"] == 0.0 and not rec["pass"]

    @pytest.mark.parametrize("command", ["check-freq", "verify"])
    @pytest.mark.filterwarnings("ignore:frequency margin 2.500e-06 is tiny")
    def test_frequency_margins_beside_zero_keep_their_verdicts(self, tmp_path, command):
        # margin -0.025 fails the record (and verify's schur-oracle); margin
        # 2.5e-6 passes every record, where verify's LP warns of the margin
        code, checks = run_command(tmp_path, command, dict(S1_DOC, F1=[[-4.1]]))
        assert code == 1
        failed = ["frequency-margin"] + (["schur-oracle"] if command == "verify" else [])
        assert [c["name"] for c in checks if not c["pass"]] == failed
        code, checks = run_command(tmp_path, command, dict(S1_DOC, F1=[[-3.99999]]))
        rec = {c["name"]: c for c in checks}["frequency-margin"]
        assert code == 0 and all(c["pass"] for c in checks)
        assert rec["value"] == pytest.approx(2.5e-6, rel=1e-6)

    def test_nonfinite_contraction_matrix_is_a_contraction_failure(self, tmp_path,
                                                                   monkeypatch):
        # one mode's impulse response turns NaN: a typed ContractionFailed,
        # not an eigensolver's LinAlgError
        real = lqbundle.spatial._mode_operators
        calls = []

        def nan_first_mode(*args):
            for mat in real(*args):
                if not calls:
                    mat[:, 0] = np.nan
                calls.append(None)
                yield mat

        monkeypatch.setattr(lqbundle.spatial, "_mode_operators", nan_first_mode)
        code, checks = run_command(tmp_path, "verify", SA_DOC)
        assert code == 1
        assert [c["name"] for c in checks if not c["pass"]] == ["contraction-certificate"]
        (rec,) = [c for c in checks if c["name"] == "contraction-certificate"]
        assert rec["detail"].startswith("ContractionFailed: operator norm bound nan")

    def test_check_freq_fails_between_grid_samples(self, tmp_path):
        # a resonance of width 1e-3 at w = 3.3137: the refined scan passed it
        # with margin 0.699, the exact margin is -1.0
        doc = dict(S1_DOC, A=[[-1e-3, 3.3137], [-3.3137, -1e-3]], B=[[0.0], [1.0]],
                   F1=[[-4e-6, 0.0], [0.0, -4e-6]], F2=[[0.0, 0.0]])
        code, checks = run_command(tmp_path, "check-freq", doc)
        assert code == 1
        rec = {c["name"]: c for c in checks}["frequency-margin"]
        assert not rec["pass"] and rec["value"] == pytest.approx(-1.0, abs=1e-6)

    def test_riccati_subcommand(self, tmp_path, s1_seed7_run):
        code, checks = run_command(tmp_path, "riccati", S1_DOC)
        assert code == 0
        expected = stage_records(
            certificate_checks(s1_seed7_run), ["dichotomy", "oracle", "riccati"]
        )
        # oracle-equivalence needs the lagrange stage, which riccati does not run
        assert checks == [c for c in expected if c["name"] != "oracle-equivalence"]

    def test_build_lagrange_subcommand(self, tmp_path, s1_seed7_run):
        code, checks = run_command(tmp_path, "build-lagrange", S1_DOC)
        assert code == 0
        assert checks == stage_records(
            certificate_checks(s1_seed7_run),
            ["dichotomy", "frequency", "lagrange", "oracle", "decay"],
        )

    def test_build_lagrange_impossible_tol(self, tmp_path):
        path = write_json(tmp_path, "s1.json", S1_DOC)
        assert main(["build-lagrange", "--scenario", path, "--tol", "1e-16"]) == 1

    def test_sa_search(self, tmp_path, capsys, sa_standard_cert):
        code, checks = run_command(tmp_path, "sa-search", SA_DOC)
        assert code == 0
        assert "k=3, N=2" in capsys.readouterr().out
        verify = [r.as_dict() for r in sa_standard_cert.records]
        assert checks == stage_records(verify, ["gap"])

    @pytest.mark.parametrize("k, n_split", [(3, 1), ("search", "search")])
    def test_zero_spectral_gap_is_one_gap_search_failure(self, tmp_path, k, n_split):
        # sum-of-squares-2d starts 1, 1, 2: at N = 1 the gap half-width is 0
        doc = dict(SA_DOC, eigenvalues={"generator": "sum-of-squares-2d", "n": 8},
                   k=k, N=n_split)
        code, checks = run_command(tmp_path, "verify", doc)
        assert code == 1
        assert [(c["name"], c["pass"]) for c in checks] == [("gap-search", False)]
        assert "NoCandidate" in checks[0]["detail"]

    @pytest.mark.parametrize(
        "k, n_split, picked", [(5, "search", "k=5, N=2"), ("search", 3, "k=3, N=3")]
    )
    def test_half_fixed_gap_search_keeps_the_fixed_value(self, tmp_path, k, n_split,
                                                          picked):
        # the minimal pair overall is (3, 2); a fixed k or N must stay fixed
        code, checks = run_command(tmp_path, "sa-search", dict(SA_DOC, k=k, N=n_split))
        assert code == 0
        assert [c["name"] for c in checks] == ["gap-margin-1", "gap-margin-2"]
        assert all(c["detail"].startswith(f"set=bundle, {picked},") for c in checks)

    def test_driver_beyond_the_amplitude_bound_fails_the_gap_stage(self, tmp_path):
        # sup |a| = |-1| + 2.9 exceeds Lambda + delta = 2; the bound used to
        # read c0 + |c1| = 1.9, and every record passed
        doc = dict(SA_DOC, driver=dict(SA_DOC["driver"], c0=-1.0, c1=2.9))
        code, checks = run_command(tmp_path, "verify", doc)
        assert code == 1
        assert [(c["name"], c["pass"]) for c in checks] == [("gap-search", False)]
        assert checks[0]["detail"] == (
            "AmplitudeTooLarge: sup |a| = 3.9 exceeds allowed 2.0")

    def test_failed_fiber_check_sweep_is_one_fibers_failure(self, tmp_path, monkeypatch):
        # no step-doubling estimate is below a negative tolerance
        monkeypatch.setattr(lqbundle.spatial, "FIBER_TOL", -1.0)
        code, checks = run_command(tmp_path, "verify", SA_DOC)
        assert code == 1
        assert [c["name"] for c in checks if not c["pass"]] == ["fibers"]
        (fibers,) = [c for c in checks if c["name"] == "fibers"]
        assert fibers["detail"].startswith("ContractionFailed: step-doubling estimate")

    def test_half_fixed_gap_search_without_a_match(self, tmp_path):
        # the search tries k <= 50 only, so no searched pair has k = 60
        code, checks = run_command(tmp_path, "sa-search", dict(SA_DOC, k=60, N="search"))
        assert code == 1
        assert [(c["name"], c["pass"]) for c in checks] == [("gap-search", False)]
        assert "NoCandidate" in checks[0]["detail"]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_input_error(self, tmp_path, capsys, case):
        command, doc = MALFORMED[case]
        path = write_json(tmp_path, "bad.json", doc)
        assert main([command, "--scenario", path]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--seed", "-1"), ("--tol", "nan"), ("--tol", "inf")],
                             ids=["seed-negative", "tol-nan", "tol-inf"])
    def test_flags_are_checked_as_scenario_fields(self, tmp_path, capsys, flag):
        # --seed -1 crashed in default_rng, --tol nan ended in a FAIL record
        # and --tol inf made the tolerance vacuous; in the scenario file each
        # is a ParseError
        path = write_json(tmp_path, "s1.json", S1_DOC)
        assert main(["check-freq", "--scenario", path, *flag]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and flag[0] in err

    def test_flags_leave_the_loaded_scenario_alone(self, tmp_path):
        scn = load_scenario(write_json(tmp_path, "s1.json", S1_DOC))
        moved = with_overrides(scn, 7, "margin", 0.5)
        assert (moved.seed, moved.tolerances["margin"]) == (7, 0.5)
        assert (scn.seed, scn.tolerances) == (42, DEFAULT_TOLERANCES)
        assert with_overrides(scn, None, "margin", None) is scn

    def test_unknown_tolerance_key_is_parse_error(self, tmp_path, capsys):
        # a typo of `oracle`: the run used to pass under the default 1e-6
        path = write_json(tmp_path, "s1.json", dict(S1_DOC, tolerances={"oracel": 1e-30}))
        with pytest.raises(ParseError, match="oracel"):
            load_scenario(path)
        assert main(["verify", "--scenario", path]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, match", [
        (dict(SA_DOC, condition_set="bundel"), "got 'bundel'"),
        (dict(SA_DOC, driver=dict(SA_DOC["driver"], kind="periodc")), "got 'periodc'"),
        (MALFORMED["driver-field-misspelt"][1],
         "unknown periodic driver field 'omgea'; known: kind, c0, c1, omega"),
        (MALFORMED["generator-field-misspelt"][1],
         "unknown power generator field 'pp'; known: generator, n, p"),
        (MALFORMED["scenario-field-misspelt"][1],
         "unknown spatial-averaging scenario field 'phase_sample'; known: name, "),
        (MALFORMED["stationary-field-unknown"][1],
         "unknown stationary scenario field 'Foo'; known: name, mode, seed, "
         "tolerances, A, B, F1, F2, F3"),
        (MALFORMED["horizon-unknown"][1],
         "unknown spatial-averaging scenario field 'horizon'"),
    ], ids=["condition-set", "driver-kind", "driver-field", "generator-field",
            "scenario-field", "stationary-field", "horizon"])
    def test_misspelt_name_is_parse_error(self, tmp_path, capsys, doc, match):
        # a misspelt name exited 1 (no certificate, or a gap-search failure),
        # and a misspelt field ran with its default and passed
        path = write_json(tmp_path, "sa.json", doc)
        with pytest.raises(ParseError, match=match):
            load_scenario(path)
        assert main(["verify", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "o" / "certificate.json").exists()

    @pytest.mark.parametrize(
        "command, doc", [("check-freq", SA_DOC), ("sa-search", S1_DOC)]
    )
    def test_wrong_mode_is_input_error(self, tmp_path, capsys, command, doc):
        path = write_json(tmp_path, "other.json", doc)
        assert main([command, "--scenario", path]) == 2
        assert "input error" in capsys.readouterr().err

    def test_report_round_trip(self, tmp_path, capsys):
        path = write_json(tmp_path, "s1.json", S1_DOC)
        out = tmp_path / "o"
        assert main(["check-freq", "--scenario", path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--scenario", str(out / "certificate.json")]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [("--tol", "nan"), ("--seed", "-5")],
                             ids=["tol", "seed"])
    def test_report_takes_no_tol_or_seed(self, s1_seed7_run, capsys, flag):
        # report ignored both: it printed `overall: PASS` and exited 0
        path = str(s1_seed7_run / "certificate.json")
        with pytest.raises(SystemExit) as exc:
            main(["report", "--scenario", path, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_report_rejects_non_certificate(self, tmp_path):
        path = write_json(tmp_path, "s1.json", S1_DOC)
        assert main(["report", "--scenario", path]) == 2
