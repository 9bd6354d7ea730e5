"""Scenario ingestion, pipeline orchestration and certificate emission.

A scenario file describes either a stationary system (matrices) or a
spatial-averaging configuration, which `load_scenario` alone parses; the
pipeline runs the named stages of the corresponding route (all of them, or a
selection) on the parsed values and emits a deterministic certificate with
one record per check (pass iff margin >= 0), plus CSV tables for plotting.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import spatial as sa
from .errors import (
    DimensionMismatch,
    LqBundleError,
    MissingField,
    NoCandidate,
    Oscillating,
    ParseError,
    ValidationError,
)
from .frequency import (
    QuadraticFormTriple,
    frequency_condition_margin,
    inverse_norm_bound,
)
from .sampling import bump_control, m0_control
from .spectral import eigenvalue_generator, make_spectral_model
from .stationary import (
    Regulator,
    coercivity_check,
    estimate_eps0,
    extract_nonoscillation,
    l2_controllability,
    lyapunov_inequality_check,
    pairing_drift,
    restricted_decay,
    riccati_residual,
    stable_lagrange_lp,
    stable_lagrange_schur,
)
from .symplectic import (
    grassmann_distance,
    intersection_dimension,
    isotropy_defect,
    vertical_subspace,
)

SCHEMA_VERSION = 1
#: the pairing trajectories stop once roundoff off L+, which grows at rate
#: max |Re lambda(H)|, may have grown by e^PAIRING_GROWTH (~1.6e5)
PAIRING_GROWTH = 12.0

DEFAULT_TOLERANCES = {
    "oracle": 1e-6,
    "isotropy": 1e-8,
    "riccati": 1e-12,
    "margin": 0.0,
    "invariance": 1e-8,
}


@dataclass(frozen=True)
class Scenario:
    """Validated scenario description: `regulator` holds a stationary system,
    `averaging` the parsed inputs of a spatial-averaging one by name."""

    name: str
    mode: str
    seed: int
    tolerances: dict
    regulator: Regulator | None = field(repr=False)
    averaging: dict | None = field(repr=False)


@dataclass
class CheckRecord:
    name: str
    value: float
    bound: float
    margin: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": _jsonable(self.value),
            "bound": _jsonable(self.bound),
            "margin": _jsonable(self.margin),
            "pass": bool(self.passed),
            "detail": self.detail,
        }


@dataclass
class Certificate:
    name: str
    mode: str
    seed: int
    records: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add_upper(self, name, value, bound, detail=""):
        """Record a check of the form value <= bound."""
        value = float(value)
        bound = float(bound)
        margin = bound - value
        self.records.append(
            CheckRecord(name, value, bound, margin, bool(margin >= 0.0), detail)
        )

    def add_lower(self, name, value, bound, detail=""):
        """Record a check of the form value >= bound."""
        value = float(value)
        bound = float(bound)
        margin = value - bound
        self.records.append(
            CheckRecord(name, value, bound, margin, bool(margin >= 0.0), detail)
        )

    def add_flag(self, name, passed, detail=""):
        val = 1.0 if passed else 0.0
        self.records.append(
            CheckRecord(name, val, 1.0, val - 1.0, bool(passed), detail)
        )

    def add_failure(self, name, exc):
        self.records.append(
            CheckRecord(name, float("nan"), 0.0, -1.0, False, f"{type(exc).__name__}: {exc}")
        )

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "mode": self.mode,
            "seed": self.seed,
            "pass": self.passed,
            "checks": [r.as_dict() for r in self.records],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _jsonable(x):
    x = float(x)
    if np.isnan(x):
        return "nan"
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _require(doc: dict, key: str):
    if key not in doc:
        raise MissingField(f"missing required field {key!r}")
    return doc[key]


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the file at `path`, else ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


def _number(value, what: str) -> float:
    """A finite JSON number, else ParseError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ParseError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """A JSON integer, else ParseError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _seed(value, what: str) -> int:
    """A nonnegative JSON integer, as numpy's generators take, else ParseError."""
    seed = _integer(value, what)
    if seed < 0:
        raise ParseError(f"{what} must be nonnegative, got {seed}")
    return seed


def _array(value, what: str) -> np.ndarray:
    """A finite numeric JSON array (or number) as floats, else ParseError."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be a numeric array") from exc
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{what} has a non-finite entry")
    return arr


def _choice(value, choices, what: str) -> str:
    """`value` if it is one of the names in `choices`, else ParseError."""
    if not (isinstance(value, str) and value in choices):
        raise ParseError(f"{what} must be one of {tuple(choices)}, got {value!r}")
    return value


def _known(doc: dict, fields, what: str) -> None:
    """ParseError naming the first key of `doc` outside `fields`."""
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ParseError(f"unknown {what} {unknown[0]!r}; known: {', '.join(fields)}")


#: the known fields of a scenario document by mode (besides "name", "mode",
#: "seed" and "tolerances"), of a driver by kind and of an eigenvalue generator
_MODE_FIELDS = {
    "stationary": ("A", "B", "F1", "F2", "F3"),
    "spatial-averaging": ("eigenvalues", "Lambda", "delta", "k", "N", "driver",
                          "condition_set", "phase_samples"),
}
_DRIVER_FIELDS = {
    "periodic": ("kind", "c0", "c1", "omega"),
    "quasiperiodic": ("kind", "c0", "amplitudes", "omegas"),
}
_GENERATOR_FIELDS = {"power": ("generator", "n", "p"),
                     "sum-of-squares-2d": ("generator", "n")}


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario JSON file, the one reader of its format.

    Field names and types, matrix shapes, the form triple, the spectral
    model and the driver are checked here, so malformed input raises a
    ValidationError before anything runs.
    """
    doc = _read_json(path, "scenario")
    name = str(doc.get("name", os.path.basename(path)))
    mode = _choice(_require(doc, "mode"), _MODE_FIELDS, "mode")
    _known(doc, ("name", "mode", "seed", "tolerances") + _MODE_FIELDS[mode],
           f"{mode} scenario field")
    seed = _seed(doc.get("seed", 42), "seed")
    overrides = doc.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise ParseError("tolerances must be an object")
    _known(overrides, DEFAULT_TOLERANCES, "tolerance")
    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(
        {key: _number(val, f"tolerance {key!r}") for key, val in overrides.items()}
    )
    regulator = averaging = None
    if mode == "stationary":
        a, b, f1, f2, f3 = (
            _array(_require(doc, key), key) for key in ("A", "B", "F1", "F2", "F3")
        )
        # eager validation of shapes and symmetry
        form = QuadraticFormTriple(f1=f1, f2=f2, f3=f3)
        try:
            regulator = Regulator(a, b, form)
        except DimensionMismatch as exc:
            raise MissingField(str(exc)) from exc
    else:
        k, n_split = doc.get("k", "search"), doc.get("N", "search")
        n_phases = _integer(doc.get("phase_samples", 16), "phase_samples")
        if n_phases < 1:
            raise ParseError("phase_samples must be at least 1")
        averaging = dict(
            model=_sa_model(_require(doc, "eigenvalues")),
            lam=_number(_require(doc, "Lambda"), "Lambda"),
            delta=_number(_require(doc, "delta"), "delta"),
            k=k if k == "search" else _integer(k, "k"),
            N=n_split if n_split == "search" else _integer(n_split, "N"),
            condition_set=_choice(doc.get("condition_set", "bundle"),
                                  sa.CONDITION_SETS, "condition_set"),
            driver=_driver(_require(doc, "driver")),
            phases=np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False),
        )
    return Scenario(name=name, mode=mode, seed=seed, tolerances=tolerances,
                    regulator=regulator, averaging=averaging)


def with_overrides(scenario: Scenario, seed, tol_key: str, tol) -> Scenario:
    """The scenario with a command line's seed and `tol_key` tolerance (None
    keeps the scenario's own), checked as the file's own fields are."""
    if seed is not None:
        scenario = replace(scenario, seed=_seed(seed, "--seed"))
    if tol is not None:
        tolerances = dict(scenario.tolerances, **{tol_key: _number(tol, "--tol")})
        scenario = replace(scenario, tolerances=tolerances)
    return scenario


def _sa_model(ev_doc):
    """The spectral model of a scenario's "eigenvalues": a generator object
    or a flat list."""
    if isinstance(ev_doc, dict):
        kind = _choice(_require(ev_doc, "generator"), _GENERATOR_FIELDS,
                       "eigenvalue generator")
        _known(ev_doc, _GENERATOR_FIELDS[kind], f"{kind} generator field")
        n = _integer(_require(ev_doc, "n"), "eigenvalue count n")
        params = {
            k: _number(v, f"eigenvalue parameter {k!r}")
            for k, v in ev_doc.items() if k not in ("generator", "n")
        }
        return make_spectral_model(eigenvalue_generator(kind, n, **params))
    values = _array(ev_doc, "eigenvalues")
    if values.ndim != 1:
        raise ParseError("eigenvalues must be a flat list")
    return make_spectral_model(values)


def _driver(drv_doc) -> sa.Driver:
    """The driving flow of a scenario's periodic or quasiperiodic driver."""
    if not isinstance(drv_doc, dict):
        raise ParseError(f"driver must be an object, not {type(drv_doc).__name__}")
    kind = _choice(drv_doc.get("kind", "periodic"), _DRIVER_FIELDS, "driver kind")
    _known(drv_doc, _DRIVER_FIELDS[kind], f"{kind} driver field")
    if kind == "periodic":
        terms = {"c1": drv_doc.get("c1", 0.0), "omega": drv_doc.get("omega", 1.0)}
    else:
        terms = {key: _require(drv_doc, key) for key in ("amplitudes", "omegas")}
    amplitudes, omegas = (
        np.atleast_1d(_array(val, f"driver {key}")) for key, val in terms.items()
    )
    return sa.Driver(c0=_number(drv_doc.get("c0", 0.0), "driver c0"),
                     amplitudes=amplitudes, omegas=omegas)


# -- pipeline stages -----------------------------------------------------------
#
# Each route is an ordered table of named stages.  A stage reads and extends
# the run state, appends its records and tables to the certificate, emits
# nothing when its inputs are missing, and returns True when its failure ends
# the route.


def _stationary_run(scenario: Scenario) -> SimpleNamespace:
    # `split` is set only by a dichotomy stage that ran and succeeded
    return SimpleNamespace(
        reg=scenario.regulator,
        tol=scenario.tolerances,
        rng=np.random.default_rng(scenario.seed),
        split=None, scan=None, lp_res=None, schur_sub=None, no=None,
    )


def _st_dichotomy(run, cert):
    try:
        run.split = run.reg.split_a
    except LqBundleError as exc:
        cert.add_failure("dichotomy-gap", exc)
        return True
    cert.add_lower(
        "dichotomy-gap", run.split.eps_rate, 1e-10,
        detail=f"rank j = {run.split.rank_j}, fitted M = {run.split.m_const:.6g}",
    )


def _st_frequency(run, cert):
    reg = run.reg
    try:
        run.scan = scan = frequency_condition_margin(reg.a, reg.b, reg.form,
                                                     full_scan=True)
        cert.add_lower(
            "frequency-margin", scan.margin, run.tol["margin"],
            detail="exact inf_w eig(sym(F3(I - M(w)))) by Hamiltonian level "
            f"sets, at w = {scan.omega_star:.6g}",
        )
        # the frequency condition is strict, so a zero margin fails
        freq = cert.records[-1]
        freq.passed = freq.margin > 0.0
        cert.add_upper("transfer-selfadjoint-defect", scan.skew_defect, 1e-10,
                       detail="||F3 M - (F3 M)*||, sampled on the freq_margin rows")
        cert.tables["freq_margin"] = [
            {"omega": float(w), "min_eig": float(mg), "inv_norm": float(iv)}
            for w, mg, iv in zip(scan.omegas, scan.margins, scan.inverse_norms)
        ]
        if scan.margin > 0:
            cert.add_upper(
                "inverse-norm-bound", float(np.max(scan.inverse_norms)),
                inverse_norm_bound(reg.form, scan.margin),
                detail="||(I - M(w))^-1|| <= ||F3|| / (margin - LEVEL_RTOL |margin|), "
                "sampled on the freq_margin rows",
            )
    except LqBundleError as exc:
        cert.add_failure("frequency-margin", exc)


def _st_lagrange(run, cert):
    if run.split is None or run.scan is None or not run.scan.margin > 0:
        return
    try:
        run.lp_res = lp_res = stable_lagrange_lp(run.reg, run.scan.margin)
        cert.add_upper("lp-isotropy", isotropy_defect(lp_res.l_plus),
                       run.tol["isotropy"])
        cert.add_upper("lp-invariance",
                       lp_res.diagnostics["invariance_defect"], run.tol["invariance"],
                       detail="relative H-invariance; LP tail bound "
                       f"{lp_res.diagnostics['tail_bound']:.3e}")
    except LqBundleError as exc:
        cert.add_failure("lp-construction", exc)


def _st_oracle(run, cert):
    try:
        ham = run.reg.ham
        cert.add_upper("symplectic-defect", ham.symplectic_defect(), 1e-10,
                       detail="||J H + H^T J||")
        run.schur_sub = stable_lagrange_schur(ham)
        if run.lp_res is not None:
            cert.add_upper(
                "oracle-equivalence",
                grassmann_distance(run.lp_res.l_plus, run.schur_sub),
                run.tol["oracle"],
                detail="grassmann distance LP construction vs ordered-Schur oracle",
            )
    except LqBundleError as exc:
        cert.add_failure("schur-oracle", exc)


def _st_riccati(run, cert):
    if run.split is None or run.schur_sub is None:
        return
    reg = run.reg
    n = reg.a.shape[0]
    vert_dim = intersection_dimension(run.schur_sub, vertical_subspace(n))
    cert.add_upper("vertical-intersection", vert_dim, run.split.rank_j,
                   detail="dim(L+ cap vertical) <= j")
    try:
        run.no = no = extract_nonoscillation(run.schur_sub)
    except Oscillating as exc:
        cert.add_failure("nonoscillation", exc)
    else:
        resid, scale = riccati_residual(no.p, reg.ham)
        cert.add_upper("riccati-residual", resid, run.tol["riccati"] * scale,
                       detail="||-P H3 P + P H1 + H1^T P + H2|| <= tol x "
                       f"(||P||^2 ||H3|| + 2 ||P|| ||H1|| + ||H2|| = {scale:.6g})")
        p_norm = np.linalg.norm(no.p, 2)
        cert.add_upper("p-symmetry-defect", no.symmetry_defect / max(1.0, p_norm), 1e-8,
                       detail=f"max|P - P^T| / max(1, ||P||), ||P|| = {p_norm:.6g}")
        cert.tables["riccati"] = [
            {"entry": f"P[{i}][{j}]", "value": float(no.p[i, j])}
            for i in range(n)
            for j in range(n)
        ]
    cert.add_flag("l2-controllability", l2_controllability(reg),
                  detail="Hautus rank test on nonstable modes")


def _st_decay(run, cert):
    if run.schur_sub is None or run.lp_res is None:
        return
    lp_res, ham = run.lp_res, run.reg.ham
    eps0 = estimate_eps0(run.reg)
    rate, m_eps = restricted_decay(ham, lp_res.l_plus, eps0)
    cert.add_lower("eps0", eps0, 0.0,
                   detail=f"proven M_eps = sqrt(cond X) = {m_eps:.6g}")
    cert.add_lower("decay-rate", rate, eps0 - 1e-3,
                   detail="-max Re eig(L+^T H L+) >= eps0 - 1e-3")
    cert.tables["decay"] = [
        {"label": "stationary", "rate": rate, "prefactor": m_eps}
    ]
    horizon = min(5.0, PAIRING_GROWTH / np.max(np.abs(ham.eigenvalues.real)))
    drift, pair0 = pairing_drift(
        ham, lp_res.l_plus.basis[:, 0], lp_res.l_plus.basis[:, -1],
        np.linspace(0.0, horizon, 200),
    )
    cert.add_upper("pairing-drift", drift, 1e-10,
                   detail=f"initial pairing {pair0:.3e} over [0, {horizon:.3g}]")


def _st_coercivity(run, cert):
    if run.no is None or run.split.rank_j != 0 or run.scan is None:
        return
    reg, rng = run.reg, run.rng
    times = np.linspace(0.0, 18.0 / run.split.eps_rate, 1500)
    m = reg.form.control_dim
    controls = [m0_control(rng, times, m) for _ in range(4)]
    try:
        worst = coercivity_check(reg, controls, run.scan.margin)
        cert.add_lower("coercivity-ratio", worst, 1.0 - 1e-6,
                       detail="J_F / coercive lower bound over M0 samples")
    except ValidationError as exc:
        cert.add_failure("coercivity-ratio", exc)
    eps_try = min(0.05, 0.25 * run.scan.margin)
    samples = [(bump_control(rng, times, m), rng.standard_normal(reg.a.shape[0]))
               for _ in range(3)]
    try:
        ok = lyapunov_inequality_check(reg, eps_try, *zip(*samples))
    except LqBundleError as exc:
        cert.add_failure("lyapunov-inequality", exc)
    else:
        cert.add_flag("lyapunov-inequality", ok, detail=f"eps = {eps_try:.3g}")


def _sa_run(scenario: Scenario) -> SimpleNamespace:
    return SimpleNamespace(
        **scenario.averaging, tol=scenario.tolerances,
        cfg=None, fibers=None, step_fibers=None, frozen_fiber=None, vres=None,
    )


def _sa_gap(run, cert):
    """One gap search: it picks (k, N) when they are "search" and fills the
    table; a failed search ends the route only when (k, N) needed it."""
    k, n_split = run.k, run.N
    searched = k == "search" or n_split == "search"
    try:
        try:
            pairs, margins = sa.gap_search(run.model, run.lam, run.delta,
                                           run.condition_set)
        except LqBundleError:
            if searched:
                raise
            pairs, margins = np.zeros((0, 2), dtype=int), np.zeros((0, 2))
        if searched:
            # the pairs run by N and then k, so the first that keeps a fixed
            # k or N is the minimal one
            fits = np.ones(len(pairs), dtype=bool)
            for col, fixed in enumerate((k, n_split)):
                if fixed != "search":
                    fits &= pairs[:, col] == fixed
            if not fits.any():
                raise NoCandidate(f"no searched (k, N) has k = {k} and N = {n_split}")
            k, n_split = pairs[np.argmax(fits)].tolist()
        cfg = sa.SAConfig(model=run.model, lam=run.lam, delta=run.delta, k=k, N=n_split)
        cfg.check_driver(run.driver)
    except LqBundleError as exc:
        cert.add_failure("gap-search", exc)
        return True
    run.cfg = cfg
    m1, m2 = sa.condition_margins(run.condition_set, run.lam, run.delta,
                                  cfg.mu_bar, cfg.k)
    detail = f"set={run.condition_set}, k={cfg.k}, N={cfg.N}, mu_bar={cfg.mu_bar:.6g}"
    if searched:
        detail += " (searched)"
    cert.add_lower("gap-margin-1", m1, run.tol["margin"], detail=detail)
    cert.add_lower("gap-margin-2", m2, run.tol["margin"], detail=detail)
    cert.tables["gap_margins"] = {"k": pairs[:, 0], "N": pairs[:, 1],
                                  "margin1": margins[:, 0], "margin2": margins[:, 1]}


def _sa_contraction(run, cert):
    if run.cfg is None:
        return
    try:
        con = sa.contraction_certificate(run.cfg)
        cert.add_upper("contraction-mid", con["measured_mid"],
                       con["bound_mid"] + 1e-6,
                       detail="discretized ||I T|| vs 1/2 + 2 delta^2/mu^2")
        cert.add_upper("contraction-pq", con["measured_pq"],
                       con["bound_pq"] + 1e-6,
                       detail="discretized ||(P+Q) T|| vs analytic bound")
        cert.add_upper("lp-norm-all", con["lp_measured_all"],
                       con["lp_bound_all"] + 1e-6, detail="||L_A|| <= 1/mu_bar")
        cert.add_upper("lp-norm-pq", con["lp_measured_pq"],
                       con["lp_bound_pq"] + 1e-6,
                       detail="||(P+Q) L_A|| <= 1/(mu_bar + k)")
    except LqBundleError as exc:
        cert.add_failure("contraction-certificate", exc)
        return True


def _sa_fibers(run, cert):
    """The run's one fiber solve: the phase grid, the continuity steps
    q0 + 2^-m (m = 1..6) and the frozen driver a = a(q0), as its columns."""
    if run.cfg is None:
        return
    q0 = run.phases[0]
    columns = (
        [(run.driver, q) for q in run.phases]
        + [(run.driver, q0 + 2.0 ** (-m)) for m in range(1, 7)]
        + [(sa.constant_driver(run.driver.value(q0)), 0.0)]
    )
    try:
        built = sa.build_fibers(run.cfg, columns)
    except LqBundleError as exc:
        cert.add_failure("fibers", exc)
        return True
    n_grid = len(run.phases)
    run.fibers = fibers = built[:n_grid]
    run.step_fibers, run.frozen_fiber = built[n_grid:-1], built[-1]
    cert.add_upper("fiber-isotropy", 0.0, run.tol["isotropy"],
                   detail="exact: one line per (v_j, eta_j) plane")
    cert.add_upper("picard-iterations", fibers[0].n_iterations, 200,
                   detail="backward Magnus sweep, checked on twice the step: "
                   f"step-doubling estimate {fibers[0].residual:.2e}")
    cert.add_upper("fiber-vertical-intersection",
                   max(f.vertical_dimension() for f in fibers), run.cfg.N,
                   detail="dim(L+(q) cap vertical) <= N")


def _sa_frozen_oracle(run, cert):
    if run.frozen_fiber is None:
        return
    frozen_val = run.driver.value(run.phases[0])
    cert.add_upper("frozen-oracle",
                   sa.frozen_oracle_gap(run.cfg, frozen_val, run.frozen_fiber),
                   run.tol["oracle"],
                   detail=f"constant driver a = {frozen_val:.6g} vs per-mode eig")


def _sa_continuity(run, cert):
    if run.step_fibers is None:
        return
    rows = sa.fiber_continuity(run.driver, run.fibers[0], run.step_fibers)
    cert.tables["continuity"] = rows
    mono = all(
        rows[i + 1]["grassmann"] <= 1.1 * rows[i]["grassmann"] + 1e-14
        for i in range(len(rows) - 1)
    )
    cert.add_flag("continuity-monotone", mono,
                  detail="grassmann moduli decreasing (10% jitter allowed)")


def _sa_v_form(run, cert):
    if run.cfg is None:
        return
    try:
        run.vres = vres = sa.v_form_certificate(run.cfg)
        cert.add_lower("delta-v", vres["delta_v"], 0.0)
        cert.add_lower("bracket-mid", vres["brackets"][0], 0.0)
        cert.add_lower("bracket-pq", vres["brackets"][1], 0.0)
    except LqBundleError as exc:
        cert.add_failure("delta-v", exc)
        return True


def _sa_nonoscillation(run, cert):
    if run.fibers is None or run.vres is None:
        return
    fibers = run.fibers
    nonosc = [f.vertical_dimension() == 0 for f in fibers]
    cert.add_flag("nonoscillation-all-phases", all(nonosc),
                  detail=f"{nonosc.count(False)} oscillating fibers")
    p_norms = [float(np.abs(f.p).max()) if ok else float("nan")
               for f, ok in zip(fibers, nonosc)]
    cert.tables["fibers"] = [
        {"phase": float(np.atleast_1d(f.q)[0]), "grassmann_to_ref": f.gap(fibers[0]),
         "norm_Pq": p_norm}
        for f, p_norm in zip(fibers, p_norms)
    ]
    if all(nonosc):
        cert.add_upper("uniform-p-bound", max(p_norms), 1.0 / run.vres["delta_v"] + 1e-6,
                       detail="max ||P(q)|| <= 1/delta_V + 1e-6")
        p0, low = fibers[0].p, fibers[0].unstable
        cert.add_lower("p-sign-low-block", float(p0[low].min()), 0.0,
                       detail="min eig of P(q0) on modes 1..N, read at phase q0")
        cert.add_upper("p-sign-high-block", float(p0[~low].max()), 0.0,
                       detail="max eig of P(q0) on modes N+1..n, read at phase q0")


def _sa_decay(run, cert):
    if run.fibers is None:
        return
    growth, weights = sa.fiber_growth(run.cfg, run.driver, run.fibers)
    # ||z(t)|| e^{rate t} / ||z(0)|| <= max_j weight_j(q') / weight_j(q)
    # along a trajectory from phase q to phase q'
    spreads = weights / weights.min(axis=0)
    eps0 = sa.sa_eps0_estimate(run.cfg)
    cert.tables["decay"] = [
        {"label": f"phase={float(np.atleast_1d(f.q)[0]):.4f}",
         "rate": -float(g.max()), "prefactor": float(sp.max())}
        for f, g, sp in zip(run.fibers, growth, spreads)
    ]
    cert.add_lower("decay-rate", -float(growth.max()), eps0 - 1e-3,
                   detail="-max mode growth rate, sampled over the grid phases; "
                   f"shifted-construction eps0 estimate {eps0:.6g}")
    cert.add_upper("decay-prefactor-spread", float(spreads.max()), 2.0,
                   detail="max_j of max/min sqrt(1 + m_j^2), sampled over the "
                   "grid phases")


# mode -> (run-state factory, ordered {stage name: stage})
_ROUTES = {
    "stationary": (_stationary_run, {
        "dichotomy": _st_dichotomy,
        "frequency": _st_frequency,
        "lagrange": _st_lagrange,
        "oracle": _st_oracle,
        "riccati": _st_riccati,
        "decay": _st_decay,
        "coercivity": _st_coercivity,
    }),
    "spatial-averaging": (_sa_run, {
        "gap": _sa_gap,
        "contraction": _sa_contraction,
        "fibers": _sa_fibers,
        "frozen-oracle": _sa_frozen_oracle,
        "continuity": _sa_continuity,
        "v-form": _sa_v_form,
        "nonoscillation": _sa_nonoscillation,
        "decay": _sa_decay,
    }),
}

STAGES = {mode: tuple(route) for mode, (_, route) in _ROUTES.items()}


def run_pipeline(scenario: Scenario, stages=None) -> Certificate:
    """Run the selected stages of the scenario's route in route order (the
    whole route when `stages` is None); records check failures instead of
    raising.  A selected stage outside the route raises MissingField."""
    make_run, route = _ROUTES[scenario.mode]
    if stages is not None:
        foreign = [s for s in stages if s not in route]
        if foreign:
            raise MissingField(
                f"stage(s) {', '.join(foreign)} not in the {scenario.mode} route "
                f"({', '.join(route)})"
            )
    cert = Certificate(name=scenario.name, mode=scenario.mode, seed=scenario.seed)
    run = make_run(scenario)
    for name, stage in route.items():
        if (stages is None or name in stages) and stage(run, cert):
            break
    return cert


# -- exports -------------------------------------------------------------------

_CSV_SCHEMAS = {
    "freq_margin": ("omega", "min_eig", "inv_norm"),
    "fibers": ("phase", "grassmann_to_ref", "norm_Pq"),
    "decay": ("label", "rate", "prefactor"),
    "gap_margins": ("k", "N", "margin1", "margin2"),
    "continuity": ("phase_distance", "m_norm", "grassmann"),
    "riccati": ("entry", "value"),
}


def export_plots(cert: Certificate, out_dir: str) -> list[str]:
    """Write the certificate's plot tables as CSV files; always emits every
    schema (empty tables produce header-only files).  A table is a list of
    row dicts or, for the long gap table, a dict of array columns."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for table, columns in _CSV_SCHEMAS.items():
        path = os.path.join(out_dir, f"{table}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            rows = cert.tables.get(table, [])
            if isinstance(rows, dict):  # a table of array columns
                writer.writerows(zip(*(rows[c].tolist() for c in columns)))
            else:
                writer.writerows([row.get(c, "") for c in columns] for row in rows)
        written.append(path)
    return written


def _from_jsonable(value, what: str) -> float:
    """Inverse of `_jsonable`: a finite number, "nan", "inf" or "-inf"."""
    return float(value) if value in ("nan", "inf", "-inf") else _number(value, what)


def load_certificate(path: str) -> Certificate:
    """The records of a certificate JSON file, validated.  The file stores
    no plot tables, so the certificate has none."""
    doc = _read_json(path, "certificate")
    checks = _require(doc, "checks")
    if not isinstance(checks, list):
        raise ParseError("certificate 'checks' must be a list")
    cert = Certificate(name=str(doc.get("name", "?")), mode=str(doc.get("mode", "?")),
                       seed=_integer(doc.get("seed", 0), "seed"))
    for rec in checks:
        if not isinstance(rec, dict):
            raise ParseError(f"a check must be an object, got {rec!r}")
        name = str(_require(rec, "name"))
        value, bound, margin = (
            _from_jsonable(_require(rec, key), f"check {name!r} {key}")
            for key in ("value", "bound", "margin")
        )
        passed = _require(rec, "pass")
        if not isinstance(passed, bool):
            raise ParseError(f"check {name!r} pass must be true or false")
        cert.records.append(
            CheckRecord(name, value, bound, margin, passed, str(rec.get("detail", "")))
        )
    return cert


def write_certificate(cert: Certificate, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "certificate.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cert.to_json())
        fh.write("\n")
    return path
