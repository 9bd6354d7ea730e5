"""Decay records read from the constructed subspaces.

The stationary stage reads its rate from the spectrum of H restricted to the
LP basis and its constant M_eps from one Lyapunov solve; the
spatial-averaging stage reads both from the growth of each mode line of the
built fibers.  They are checked against closed forms, numpy's spectrum and
the trajectory oracles of tests/decay_oracles.py.
"""

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from decay_oracles import exp_decay_fit, fit_decay_rate

from lqbundle import certify
from lqbundle.certify import Certificate, load_scenario
from lqbundle.spatial import (
    Driver,
    FiberResult,
    build_fibers,
    fiber_growth,
)
from lqbundle.stationary import (
    assemble_hamiltonian,
    hamiltonian_trajectory,
    restricted_decay,
    stable_lagrange_schur,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
#: pipeline seeds; a fitted random trajectory failed decay-rate on n40_j0
#: for 11, 1234 and 99999
SEEDS = (1, 3, 11, 29, 42, 77, 314, 1234, 2024, 99999)
#: the frozen rate of the mid modes of sa-standard, whose blocks
#: [[2.5, 2], [-2.5625, -2.5]] do not see the driver
SA_MID_RATE = math.sqrt(2.5**2 - 2.0 * 2.5625)


def record(cert, name):
    return {r.name: r for r in cert.records}[name]


def stages_run(scenario_file, stages):
    """(scenario, run state, certificate) after the named stages."""
    scenario = load_scenario(str(SCENARIOS / scenario_file))
    make_run, route = certify._ROUTES[scenario.mode]
    run = make_run(scenario)
    cert = Certificate(scenario.name, scenario.mode, scenario.seed)
    for name in stages:
        route[name](run, cert)
    return scenario, run, cert


@pytest.fixture(scope="module")
def n40_before_decay():
    """n40_j0 after the stages whose results the decay stage reads."""
    scenario, run, _ = stages_run(
        "n40_j0.json", ("dichotomy", "frequency", "lagrange", "oracle")
    )
    assert run.lp_res is not None and run.schur_sub is not None
    return scenario, run


def decay_stage(scenario, run, seed):
    """The certificate of the stationary decay stage under pipeline seed `seed`."""
    seeded = SimpleNamespace(**vars(run))
    seeded.rng = np.random.default_rng(seed)
    cert = Certificate(scenario.name, scenario.mode, seed)
    certify._st_decay(seeded, cert)
    return cert


class TestStationaryDecay:
    def test_s1_rate_is_sqrt3(self):
        _, _, cert = stages_run(
            "s1.json", ("dichotomy", "frequency", "lagrange", "oracle", "decay")
        )
        rec = record(cert, "decay-rate")
        assert rec.passed
        assert rec.value == pytest.approx(math.sqrt(3.0), abs=1e-8)
        # a scalar K: X = 1 / (2 (sqrt 3 - eps0)) has condition number 1
        assert cert.tables["decay"][0]["prefactor"] == pytest.approx(1.0, abs=1e-12)

    def test_s1_rate_matches_trajectory_oracle(self, s1):
        ham = assemble_hamiltonian(*s1)
        l_plus = stable_lagrange_schur(ham)
        rate, _ = restricted_decay(ham, l_plus, 1.0)
        traj = hamiltonian_trajectory(
            ham, l_plus.basis[:, 0], np.linspace(0.0, 6.0, 500)
        )
        fitted, _ = fit_decay_rate(traj)
        assert rate == pytest.approx(fitted, abs=1e-6)

    def test_n40_rate_does_not_depend_on_seed(self, n40_before_decay):
        seen = set()
        for seed in SEEDS:
            rec = record(decay_stage(*n40_before_decay, seed), "decay-rate")
            seen.add((rec.value, rec.passed))
        assert len(seen) == 1
        ((value, passed),) = seen
        assert passed

    def test_n40_rate_is_the_gap_of_h(self, n40_before_decay):
        scenario, run = n40_before_decay
        gap = np.min(np.abs(np.linalg.eigvals(scenario.regulator.ham.matrix).real))
        rec = record(decay_stage(scenario, run, scenario.seed), "decay-rate")
        assert rec.value == pytest.approx(gap, rel=1e-8)

    def test_n40_m_eps_is_finite(self, n40_before_decay):
        # ||e^{tH} L+|| sampled to t = 10 / gap read 5.1e16: the off-subspace
        # error of the LP basis grows at the antistable rate
        cert = decay_stage(*n40_before_decay, 42)
        m_eps = cert.tables["decay"][0]["prefactor"]
        assert 1.0 <= m_eps < 1e3

    def test_m_eps_bounds_the_restricted_flow(self, n40_before_decay):
        scenario, run = n40_before_decay
        ham, basis = scenario.regulator.ham, run.lp_res.l_plus.basis
        eps0 = 0.4
        _, m_eps = restricted_decay(ham, run.lp_res.l_plus, eps0)
        k = basis.T @ ham.matrix @ basis
        worst = max(
            np.linalg.norm(sla.expm(t * k), 2) * np.exp(eps0 * t)
            for t in np.linspace(0.0, 40.0, 81)
        )
        assert 1.0 <= worst <= m_eps * (1.0 + 1e-9)

    def test_m_eps_infinite_without_margin(self, s1):
        ham = assemble_hamiltonian(*s1)
        rate, m_eps = restricted_decay(ham, stable_lagrange_schur(ham), 1.8)
        assert rate == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert m_eps == math.inf


def sharp_flat(cfg):
    """The sharp and flat pairing bases of the doubled SA system, by mode:
    sharp column j is e_j in the eta half for j < N and in the v half
    otherwise; flat column j is e_j in the other half."""
    n, modes = cfg.n, np.arange(cfg.n)
    sharp, flat = np.zeros((2 * n, n)), np.zeros((2 * n, n))
    sharp[np.where(cfg.unstable, n + modes, modes), modes] = 1.0
    flat[np.where(cfg.unstable, modes, n + modes), modes] = 1.0
    return sharp, flat


def mode_diagonal_fiber(cfg, q, m):
    """The fiber with M+(q) = diag(m)."""
    return FiberResult(q=q, m=m, unstable=cfg.unstable, n_iterations=0, residual=0.0)


@pytest.fixture(scope="module")
def sa_fibers():
    """sa-standard over its 16 grid phases, through the gap and fibers stages."""
    _, run, _ = stages_run("sa_standard.json", ("gap", "fibers"))
    assert run.fibers is not None
    return run


class TestSpatialDecay:
    def test_sa_standard_rate_is_the_mid_mode_rate(self, sa_fibers):
        cert = Certificate("sa-standard", "spatial-averaging", 0)
        certify._sa_decay(sa_fibers, cert)
        rate = record(cert, "decay-rate")
        assert rate.passed
        assert rate.value == pytest.approx(SA_MID_RATE, abs=1e-8)
        spread = record(cert, "decay-prefactor-spread")
        assert spread.passed and 1.0 < spread.value < 1.01
        assert len(cert.tables["decay"]) == 16

    def test_quasiperiodic_driver_gives_the_same_rate(self, sa_standard):
        drv = Driver(c0=1.5, amplitudes=np.array([0.3, 0.2]),
                     omegas=np.array([1.0, np.sqrt(2.0)]))
        columns = [(drv, np.array([q, 2.0 * q])) for q in (0.0, 1.1, 4.0)]
        growth, _ = fiber_growth(sa_standard, drv, build_fibers(sa_standard, columns))
        assert -growth.max() == pytest.approx(SA_MID_RATE, abs=1e-8)

    def test_mode_lines_match_trajectory_oracle(self, sa_fibers):
        # the fitted rate of each mode line's trajectory lies between the
        # least and the largest growth the mode shows over the grid phases,
        # up to the fit's own error: its window ends at the norm minimum,
        # where the growing off-fiber roundoff bends the curve (0.2 % on
        # mode 0, whose growth is -5.0125 at every phase)
        cfg, fib = sa_fibers.cfg, sa_fibers.fibers[0]
        growth, _ = fiber_growth(cfg, sa_fibers.driver, sa_fibers.fibers)
        sharp, flat = sharp_flat(cfg)
        for j in range(cfg.n):
            z0 = sharp[:, j] + fib.m[j] * flat[:, j]
            fitted, _ = exp_decay_fit(cfg, sa_fibers.driver, fib.q, z0, fiber=fib)
            lo, hi = -growth[:, j].max(), -growth[:, j].min()
            assert lo * (1.0 - 1e-2) <= fitted <= hi * (1.0 + 1e-2), j

    def test_prefactor_spread_fails_on_varying_fibers(self, sa_standard, sa_driver):
        # mode N's weight sqrt(1 + m^2) is 1 at q = 0 and sqrt(1 + m_far^2)
        # at q = pi: a spread of sqrt(2) passes, sqrt(5) fails
        verdicts = []
        for m_far in (1.0, 2.0):
            m_q = np.zeros(sa_standard.n)
            m_q[sa_standard.N] = m_far
            fibers = [
                mode_diagonal_fiber(sa_standard, 0.0, np.zeros(sa_standard.n)),
                mode_diagonal_fiber(sa_standard, np.pi, m_q),
            ]
            run = SimpleNamespace(cfg=sa_standard, driver=sa_driver, fibers=fibers)
            cert = Certificate("synthetic", "spatial-averaging", 0)
            certify._sa_decay(run, cert)
            rec = record(cert, "decay-prefactor-spread")
            assert rec.value == pytest.approx(math.sqrt(1.0 + m_far**2), rel=1e-12)
            verdicts.append(rec.passed)
        assert verdicts == [True, False]

