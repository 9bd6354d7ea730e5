import numpy as np
import pytest
from decay_oracles import exp_decay_fit, fit_decay_rate
from spatial_oracles import (
    oracle_frames,
    trajectory_oracle,
    two_channel_fibers,
    two_channel_operator_matrices,
)

from lqbundle.dichotomy import GridFunction
from lqbundle.errors import (
    AmplitudeTooLarge,
    AValueOutOfRange,
    HorizonTooShort,
    NoCandidate,
    NotPositive,
)
from lqbundle.spatial import (
    CONTRACTION_STEPS,
    TRAJECTORY_CHUNK,
    SAConfig,
    _fiber_grid,
    _mode_operator_matrices,
    _ModeSolver,
    assemble_forms,
    assemble_nonaut_hamiltonian,
    build_fibers,
    condition_holds,
    condition_margins,
    constant_driver,
    contraction_bounds,
    contraction_certificate,
    driver_make,
    fiber_continuity,
    gap_search,
    implication_sweep,
    mode_coefficients,
    p_sign_structure,
    sa_eps0_estimate,
    sa_pairing_drift,
    sa_trajectory,
    spatial_avg_condition,
    v_form_brackets,
    v_form_certificate,
)
from lqbundle.spectral import make_spectral_model
from lqbundle.stationary import assemble_hamiltonian, stable_lagrange_schur
from lqbundle.symplectic import (
    grassmann_distance,
    intersection_dimension,
    isotropy_defect,
    vertical_subspace,
)


class TestGapSearch:
    def test_minimal_bundle_pair(self):
        model = make_spectral_model([float(j * j) for j in range(1, 9)])
        rows = gap_search(model, 1.0, 1.0, "bundle")
        best = min(rows, key=lambda r: (r["N"], r["k"]))
        assert (best["k"], best["N"]) == (3, 2)
        assert best["margins"][0] == pytest.approx(2.5 / np.sqrt(5) - 1.0)
        assert best["margins"][1] == pytest.approx(2.36)

    def test_nonosc_margins_at_3_2(self):
        m1, m2 = condition_margins("nonosc", 1.0, 1.0, 2.5, 3)
        assert m1 == pytest.approx(0.25)
        assert m2 == pytest.approx(0.0, abs=1e-14)
        assert condition_holds("nonosc", 1.0, 1.0, 2.5, 3)

    def test_no_candidate(self):
        # the first margin mu_bar / sqrt(5) - delta < 0 does not depend on k
        model = make_spectral_model([1.0, 2.0, 3.0])
        with pytest.raises(NoCandidate):
            gap_search(model, 1.0, 10.0, "bundle")


class TestImplicationSweep:
    def test_logspace_grid(self):
        lams = np.geomspace(0.05, 8.0, 10)
        deltas = np.geomspace(0.01, 4.0, 10)
        mus = np.geomspace(0.1, 40.0, 10)
        ks = np.geomspace(1.0, 200.0, 10)
        assert implication_sweep(lams, deltas, mus, ks) is None

    def test_single_point(self):
        # zelik holds here, so both other sets must hold
        assert condition_holds("zelik", 1.0, 0.9, 4.0, 33)
        assert condition_holds("bundle", 1.0, 0.9, 4.0, 33)
        assert condition_holds("nonosc", 1.0, 0.9, 4.0, 33)

    def test_strictness_demo(self):
        # the standard (3, 2) instance passes bundle but not zelik:
        # the implication is strict, not an equivalence
        assert condition_holds("bundle", 1.0, 1.0, 2.5, 3)
        assert not condition_holds("zelik", 1.0, 1.0, 2.5, 3)


class TestForms:
    def test_two_route_evaluation(self, sa_standard, rng):
        cfg = sa_standard
        proj = cfg.projectors
        i_mid = proj.I_mid
        pq = proj.P_low + proj.Q_high
        t1, t2, t3 = cfg.taus
        for a_val in (0.0, 1.3, -1.9):
            form = assemble_forms(cfg, a_val)
            for _ in range(5):
                v = rng.standard_normal(cfg.n)
                xi_i = rng.standard_normal(cfg.n)
                xi_c = rng.standard_normal(cfg.n)
                direct = (
                    t1
                    * (
                        np.sum((i_mid @ xi_i - a_val * (i_mid @ v)) ** 2)
                        - cfg.delta**2 * np.sum((i_mid @ v) ** 2)
                    )
                    + t2
                    * (
                        np.sum((pq @ xi_i) ** 2)
                        - cfg.lam**2 * np.sum((i_mid @ v) ** 2)
                    )
                    + t3
                    * (np.sum(xi_c**2) - cfg.lam**2 * np.sum((pq @ v) ** 2))
                )
                via_form = form.evaluate(v, np.concatenate([xi_i, xi_c]))
                assert via_form == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_zero_a_kills_cross_term(self, sa_standard):
        form = assemble_forms(sa_standard, 0.0)
        assert np.abs(form.f2).max() == 0.0

    def test_f3_floor_small_tau2(self):
        model = make_spectral_model([float(j * j) for j in range(1, 9)])
        cfg = SAConfig(model=model, lam=3.0, delta=1.0, k=3, N=2)
        t2 = cfg.taus[1]
        assert t2 < 1.0
        form = assemble_forms(cfg, 0.5)
        assert np.linalg.eigvalsh(form.f3).min() == pytest.approx(t2)

    def test_a_out_of_range(self, sa_standard):
        with pytest.raises(AValueOutOfRange):
            assemble_forms(sa_standard, 2.5)


class TestSpatialAvgCondition:
    def test_scalar_operator(self, sa_standard):
        a_val = 1.2
        defect, ok = spatial_avg_condition(
            a_val * np.eye(sa_standard.n), sa_standard, a_val
        )
        assert defect == 0.0 and ok

    def test_rank_one_within_delta(self, sa_standard):
        cfg = sa_standard
        proj = cfg.projectors
        mid_idx = np.where(proj.mid_mask)[0]
        e = np.zeros(cfg.n)
        e[mid_idx[0]] = 1.0
        l_q = 1.0 * np.eye(cfg.n) + (cfg.delta / 2.0) * np.outer(e, e)
        defect, ok = spatial_avg_condition(l_q, cfg, 1.0)
        assert defect == pytest.approx(cfg.delta / 2.0) and ok

    def test_outer_blocks_ignored(self, sa_standard):
        cfg = sa_standard
        proj = cfg.projectors
        huge = 100.0 * (proj.P_low + proj.Q_high)
        defect, ok = spatial_avg_condition(1.0 * np.eye(cfg.n) + huge, cfg, 1.0)
        assert defect == 0.0 and ok


class TestNonautHamiltonian:
    def test_two_routes_agree(self, sa_standard):
        for a_val in (0.0, 1.5, -2.0):
            h1 = assemble_nonaut_hamiltonian(sa_standard, a_val)
            h2 = assemble_hamiltonian(
                sa_standard.a_matrix(a_val),
                sa_standard.b_matrix(),
                assemble_forms(sa_standard, a_val),
            )
            assert np.abs(h1.matrix - h2.matrix).max() <= 1e-12

    def test_zero_a_decouples_band_coupling(self, sa_standard):
        ham = assemble_nonaut_hamiltonian(sa_standard, 0.0)
        a_diag, chi, _, _ = mode_coefficients(sa_standard)
        n = sa_standard.n
        np.testing.assert_allclose(np.diag(ham.matrix[:n, :n]), a_diag)

    def test_symplectic_defect(self, sa_standard):
        for a_val in (0.7, -1.1):
            ham = assemble_nonaut_hamiltonian(sa_standard, a_val)
            assert ham.symplectic_defect() <= 1e-12 * np.linalg.norm(ham.matrix, 2)


class TestContraction:
    def test_plugin_bounds(self, sa_standard):
        cb = contraction_bounds(sa_standard)
        assert cb["bound_mid"] == pytest.approx(0.82)
        assert cb["bound_pq"] == pytest.approx(1.64 / 12.25)

    def test_delta_zero_limit(self):
        model = make_spectral_model([float(j * j) for j in range(1, 9)])
        cfg = SAConfig(model=model, lam=1.0, delta=1e-9, k=3, N=2)
        assert contraction_bounds(cfg)["bound_mid"] == pytest.approx(0.5)

    def test_measured_below_analytic(self, sa_standard):
        cert = contraction_certificate(sa_standard)
        assert cert["measured_mid"] <= cert["bound_mid"] + 1e-6
        assert cert["measured_pq"] <= cert["bound_pq"] + 1e-6
        assert cert["lp_measured_all"] <= cert["lp_bound_all"] + 1e-6
        assert cert["lp_measured_pq"] <= cert["lp_bound_pq"] + 1e-6
        assert cert["measured_pass"]


class TestDrivers:
    def test_flow_property_exact(self):
        drv = driver_make("periodic", {"c0": 1.5, "c1": 0.5, "omega": 1.3})
        q = 0.7
        assert drv.shift(drv.shift(q, 0.9), 1.7) == pytest.approx(
            drv.shift(q, 2.6)
        )

    def test_amplitude_bound_example(self, sa_standard):
        drv = driver_make(
            "periodic", {"c0": 1.5, "c1": 0.5, "omega": 1.0},
            a_bound=sa_standard.a_bound,
        )
        assert drv.amplitude_bound == pytest.approx(2.0)

    def test_amplitude_too_large(self):
        with pytest.raises(AmplitudeTooLarge):
            driver_make("periodic", {"c0": 2.0, "c1": 1.0, "omega": 1.0}, a_bound=2.0)

    def test_constant_driver_frozen(self):
        drv = constant_driver(1.5)
        t = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(drv.values(0.3, t), 1.5)
        np.testing.assert_allclose(drv.integral(0.3, t), 1.5 * t)

    def test_quasiperiodic_scalar_phase(self):
        drv = driver_make(
            "quasiperiodic",
            {"c0": 1.2, "amplitudes": [0.4, 0.3], "omegas": [1.0, 1.414]},
        )
        t = np.linspace(0.0, 3.0, 3001)
        got = drv.integral(0.7, t)
        np.testing.assert_array_equal(got, drv.integral([0.7, 0.7], t))
        vals = drv.values(0.7, t)
        steps = 0.5 * (vals[1:] + vals[:-1]) * np.diff(t)
        np.testing.assert_allclose(got, np.concatenate([[0.0], np.cumsum(steps)]), atol=1e-6)

    def test_quasiperiodic_integral(self):
        drv = driver_make(
            "quasiperiodic",
            {"c0": 1.0, "amplitudes": [0.3, 0.2], "omegas": [1.0, np.sqrt(2.0)]},
        )
        q = np.array([0.4, 1.1])
        t = np.linspace(0.0, 3.0, 7)
        from scipy.integrate import quad

        for tv in t[1:]:
            ref, _ = quad(lambda s: drv.value(drv.shift(q, s)), 0.0, tv,
                          epsabs=1e-12, epsrel=1e-12)
            assert drv.integral(q, [tv])[0] == pytest.approx(ref, abs=1e-10)


class TestFibers:
    def test_frozen_matches_schur(self, sa_standard):
        a_vals = (0.0, 1.5)
        fibers = build_fibers(
            sa_standard, [(constant_driver(a_val), 0.0) for a_val in a_vals]
        )
        for a_val, fib in zip(a_vals, fibers):
            oracle = stable_lagrange_schur(
                assemble_nonaut_hamiltonian(sa_standard, a_val)
            )
            assert grassmann_distance(fib.l_plus_q, oracle) <= 1e-6

    def test_mixed_columns_match_single_columns(self, sa_standard, sa_driver):
        # every column of one mixed call is the fiber of its own call
        columns = [(sa_driver, 0.0), (sa_driver, 2.5), (constant_driver(1.5), 0.0)]
        mixed = build_fibers(sa_standard, columns)
        for column, fib in zip(columns, mixed):
            (alone,) = build_fibers(sa_standard, [column])
            assert fib.q == alone.q
            assert grassmann_distance(fib.l_plus_q, alone.l_plus_q) <= 1e-9
            assert fib.n_iterations == alone.n_iterations

    def test_amplitude_guard_on_every_column(self, sa_standard, sa_driver):
        too_large = constant_driver(sa_standard.a_bound + 0.1)
        with pytest.raises(AmplitudeTooLarge):
            build_fibers(sa_standard, [(sa_driver, 0.0), (too_large, 0.0)])

    def test_periodic_phases(self, sa_standard, sa_driver):
        fibers = build_fibers(
            sa_standard,
            [(sa_driver, q) for q in np.linspace(0, 2 * np.pi, 16, endpoint=False)],
        )
        assert all(f.n_iterations <= 200 for f in fibers)
        assert max(isotropy_defect(f.l_plus_q) for f in fibers) <= 1e-8
        assert all(not f.oscillating for f in fibers)
        assert max(
            intersection_dimension(f.l_plus_q, vertical_subspace(sa_standard.n))
            for f in fibers
        ) <= sa_standard.N

    def test_horizon_guard(self, sa_standard, sa_driver):
        with pytest.raises(HorizonTooShort):
            build_fibers(sa_standard, [(sa_driver, 0.0)], horizon=1.0)

    def test_failing_k1_not_a_contraction(self):
        model = make_spectral_model([float(j * j) for j in range(1, 9)])
        # k = 1 with full amplitude: mu + k - a_b = 1.5, bound_pq > 1
        cfg = SAConfig(model=model, lam=1.0, delta=1.0, k=1, N=2)
        assert contraction_bounds(cfg)["bound_pq"] > 0.7
        with pytest.raises(NotPositive):
            v_form_certificate(cfg)

    def test_continuity_table(self, sa_standard, sa_driver):
        phases = [1.0] + [1.0 + 2.0**-m for m in range(1, 7)]
        fibers = build_fibers(sa_standard, [(sa_driver, q) for q in phases])
        rows = fiber_continuity(sa_driver, fibers[0], fibers[1:])
        gr = [r["grassmann"] for r in rows]
        mn = [r["m_norm"] for r in rows]
        # decreasing up to 10% jitter, roughly geometric
        for i in range(len(gr) - 1):
            assert gr[i + 1] <= 1.1 * gr[i]
            assert mn[i + 1] <= 1.1 * mn[i]
        # two moduli equivalent on the sample
        for g, m in zip(gr, mn):
            assert g <= 10.0 * m and m <= 10.0 * g

    def test_constant_driver_continuity_zero(self, sa_standard):
        drv = constant_driver(1.2)
        fibers = build_fibers(sa_standard, [(drv, q) for q in (0.0, 0.5, 0.25)])
        rows = fiber_continuity(drv, fibers[0], fibers[1:])
        assert max(r["grassmann"] for r in rows) <= 1e-12


class TestVForm:
    def test_brackets_plugin(self, sa_standard):
        b1, b2 = v_form_brackets(sa_standard)
        assert b1 == pytest.approx(0.5625)
        assert b2 == pytest.approx(2.1875)

    def test_delta_v_positive(self, sa_standard):
        out = v_form_certificate(sa_standard)
        assert out["delta_v"] > 0.0
        assert out["delta_v"] >= out["affine_floor"] - 1e-9

    def test_small_lambda_delta_limit(self):
        model = make_spectral_model([float(j * j) for j in range(1, 9)])
        cfg = SAConfig(model=model, lam=1e-3, delta=1e-3, k=3, N=2)
        out = v_form_certificate(cfg)
        # decoupled positive-definite case: the certificate is order one,
        # set by the control blocks against the mu_bar-scale couplings
        assert out["delta_v"] >= 0.25

    def test_p_bound_and_signs(self, sa_standard, sa_driver):
        out = v_form_certificate(sa_standard)
        fibers = build_fibers(
            sa_standard,
            [(sa_driver, q) for q in np.linspace(0, 2 * np.pi, 8, endpoint=False)],
        )
        p_max = max(np.linalg.norm(f.p_q, 2) for f in fibers)
        assert p_max <= 1.0 / out["delta_v"] + 1e-6
        for f in fibers:
            lo, hi = p_sign_structure(f.p_q, sa_standard)
            assert lo > 0.0 and hi < 0.0


class TestDecay:
    def test_zero_state(self, sa_standard, sa_driver):
        rate, pref = exp_decay_fit(sa_standard, sa_driver, 0.0, np.zeros(16))
        assert rate == np.inf and pref == 0.0

    def test_frozen_rate_meets_spectrum(self, sa_standard):
        drv = constant_driver(0.0)
        (fib,) = build_fibers(sa_standard, [(drv, 0.0)])
        ham = assemble_nonaut_hamiltonian(sa_standard, 0.0)
        gap = np.min(np.abs(np.linalg.eigvals(ham.matrix).real))
        z0 = fib.l_plus_q.basis @ np.ones(sa_standard.n)
        rate, _ = exp_decay_fit(sa_standard, drv, 0.0, z0, fiber=fib)
        assert rate >= gap - 1e-3

    def test_not_in_fiber(self, sa_standard, sa_driver):
        (fib,) = build_fibers(sa_standard, [(sa_driver, 0.0)])
        bad = np.ones(2 * sa_standard.n)
        with pytest.raises(ValueError, match="off the fiber"):
            exp_decay_fit(sa_standard, sa_driver, 0.0, bad, fiber=fib)

    def test_uniform_prefactor(self, sa_standard, sa_driver):
        phases = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        fibers = build_fibers(sa_standard, [(sa_driver, q) for q in phases])
        eps0 = sa_eps0_estimate(sa_standard)
        rates, prefs = [], []
        for f in fibers:
            z0 = f.l_plus_q.basis @ np.ones(sa_standard.n)
            r, p = exp_decay_fit(sa_standard, sa_driver, f.q, z0, fiber=f)
            rates.append(r)
            prefs.append(p)
        assert min(rates) >= eps0 - 1e-3
        assert max(prefs) / min(prefs) < 2.0

    def test_pairing_preserved(self, sa_standard, sa_driver):
        (fib,) = build_fibers(sa_standard, [(sa_driver, 0.4)])
        drift, pair0 = sa_pairing_drift(
            sa_standard, sa_driver, 0.4,
            fib.l_plus_q.basis[:, 0], fib.l_plus_q.basis[:, 5], 3.0,
        )
        assert drift <= 1e-12
        assert abs(pair0) <= 1e-12


class TestNonfiniteTrajectory:
    def test_fit_stops_at_first_nonfinite_norm(self):
        # decay at rate 2, growth to overflow, then inf - inf = nan
        times = np.linspace(0.0, 3.0, 31)
        norms = np.exp(-2.0 * times)
        norms[20:26] = 10.0 ** np.arange(150, 300, 25)
        norms[26:28] = np.inf
        norms[28:] = np.nan
        traj = GridFunction(times=times, values=np.outer(norms, [0.6, 0.8]))
        rate, pref = fit_decay_rate(traj)
        assert rate == pytest.approx(2.0, rel=1e-12)
        assert pref == pytest.approx(1.0, rel=1e-12)

    def test_n16_fiber_decay_fit_is_finite(self):
        # the trajectory from an n = 16 fiber overflows well after its norm
        # minimum; the fit over the decaying window stays finite
        model = make_spectral_model([float(j * j) for j in range(1, 17)])
        cfg = SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=2)
        drv = driver_make("periodic", {"c0": 1.5, "c1": 0.5, "omega": 1.0},
                          a_bound=cfg.a_bound)
        (fib,) = build_fibers(cfg, [(drv, 0.0)])
        z0 = fib.l_plus_q.basis @ np.ones(cfg.n)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = sa_trajectory(cfg, drv, 0.0, z0, 8.0 / cfg.mu_bar)
        assert not np.all(np.isfinite(traj.values))
        rate, pref = exp_decay_fit(cfg, drv, 0.0, z0, fiber=fib)
        assert np.isfinite(rate) and np.isfinite(pref)
        assert rate >= sa_eps0_estimate(cfg) - 1e-3


def assert_frames_match_oracles(solver, channel, rng):
    """Both one-channel frame solves of `solver` equal the given channel of
    the two-direction, two-channel reference loops exactly, on random
    forcing in every mode, channel and column."""
    oracles = oracle_frames(solver.config, solver.columns, solver.times)
    for frame, oracle in zip((solver.frame_v, solver.frame_e), oracles):
        shape = (solver.m, solver.a_diag.size, 2, len(solver.columns))
        fvals = rng.standard_normal(shape)
        assert np.array_equal(
            frame.solve(fvals[:, :, channel]), oracle.solve(fvals)[:, :, channel]
        )


def assert_fibers_match_two_channel(config, columns):
    """`build_fibers` equals the two-channel Picard loop on the oracle frames
    exactly, fiber by fiber, and takes as many sweeps."""
    fibers = build_fibers(config, columns)
    for fib, ref in zip(fibers, two_channel_fibers(config, columns), strict=True):
        assert np.array_equal(fib.m_plus_q.matrix, ref.m_plus_q.matrix)
        assert np.array_equal(fib.p_q, ref.p_q)
        assert fib.n_iterations == ref.n_iterations


def verify_columns(driver):
    """The 16 phases, 6 continuity steps and frozen driver of one verify."""
    phases = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    return (
        [(driver, q) for q in phases]
        + [(driver, 2.0 ** (-m)) for m in range(1, 7)]
        + [(constant_driver(driver.value(0.0)), 0.0)]
    )


def quasiperiodic_columns(config):
    drv = driver_make(
        "quasiperiodic",
        {"c0": 1.5, "amplitudes": [0.3, 0.2], "omegas": [1.0, np.sqrt(2.0)]},
        a_bound=config.a_bound,
    )
    return [(drv, np.array([q, 2.0 * q])) for q in (0.0, 1.1, 4.0)]


class TestOracles:
    # the fiber solver is shifted by mu (channel 1), the contraction's is not
    # (channel 0)
    def test_frames_on_verify_columns(self, sa_standard, sa_driver, rng):
        times = _fiber_grid(sa_standard, None, None)
        for shifted in (True, False):
            solver = _ModeSolver(sa_standard, verify_columns(sa_driver), times, shifted)
            assert_frames_match_oracles(solver, int(shifted), rng)

    def test_frames_on_quasiperiodic_driver(self, sa_standard, rng):
        times = _fiber_grid(sa_standard, None, None)
        for shifted in (True, False):
            solver = _ModeSolver(sa_standard, quasiperiodic_columns(sa_standard), times,
                                 shifted)
            assert_frames_match_oracles(solver, int(shifted), rng)

    def test_fibers_on_verify_columns(self, sa_standard, sa_driver):
        assert_fibers_match_two_channel(sa_standard, verify_columns(sa_driver))

    def test_fibers_on_quasiperiodic_driver(self, sa_standard):
        assert_fibers_match_two_channel(sa_standard, quasiperiodic_columns(sa_standard))

    def test_contraction_impulse_columns(self, sa_standard):
        times = _fiber_grid(sa_standard, None, CONTRACTION_STEPS)
        columns = [(constant_driver(sa_standard.a_bound), 0.0)]
        solver = _ModeSolver(sa_standard, columns, times, shifted=False)
        frames = oracle_frames(sa_standard, columns, times)
        for coupling in (True, False):
            assert np.array_equal(
                _mode_operator_matrices(solver, coupling),
                two_channel_operator_matrices(sa_standard, frames, coupling),
            )

    def test_trajectory_over_several_chunks(self, sa_standard, sa_driver, rng):
        z0 = rng.standard_normal(2 * sa_standard.n)
        horizon = 8.0 / sa_standard.mu_bar
        traj = sa_trajectory(sa_standard, sa_driver, 0.7, z0, horizon)
        assert traj.times.size > 3 * TRAJECTORY_CHUNK
        ref = trajectory_oracle(sa_standard, sa_driver, 0.7, z0, horizon)
        assert np.array_equal(traj.times, ref.times)
        assert np.array_equal(traj.values, ref.values)


class TestEps0Estimate:
    def test_standard_value(self, sa_standard):
        eps0 = sa_eps0_estimate(sa_standard)
        assert eps0 == pytest.approx(2.5 - np.sqrt(2.0 + 3.125), abs=1e-12)
