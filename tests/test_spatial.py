import numpy as np
import pytest
from decay_oracles import exp_decay_fit, fit_decay_rate
from spatial_oracles import (
    TRAJECTORY_CHUNK,
    AllModeFrame,
    a_matrix,
    assemble_forms,
    b_matrix,
    band_projectors,
    implication_sweep,
    oracle_frames,
    sa_pairing_drift,
    sa_trajectory,
    spatial_avg_condition,
    trajectory_oracle,
    two_channel_fibers,
    two_channel_operator_matrices,
)

import lqbundle.spatial
from lqbundle.dichotomy import GridFunction
from lqbundle.errors import (
    AmplitudeTooLarge,
    AValueOutOfRange,
    ContractionFailed,
    HorizonTooShort,
    NoCandidate,
    NotPositive,
)
from lqbundle.spatial import (
    CONTRACTION_STEPS,
    PICARD_TOL,
    Driver,
    SAConfig,
    _drive,
    _fiber_grid,
    _frames,
    _mode_operator_matrix,
    _norm_bound,
    _pruned_max,
    assemble_nonaut_hamiltonian,
    build_fibers,
    condition_holds,
    condition_margins,
    constant_driver,
    contraction_bounds,
    contraction_certificate,
    fiber_continuity,
    gap_search,
    p_sign_structure,
    sa_eps0_estimate,
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


    def test_zero_gap_config_is_no_candidate(self):
        # lambda_1 = lambda_2: no gap at N = 1, where mu_bar = 0
        model = make_spectral_model([1.0, 1.0, 2.0, 4.0])
        with pytest.raises(NoCandidate, match="no spectral gap at N=1"):
            SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=1)


class TestModeData:
    def test_unstable_mask_is_the_positive_a_diag(self, sa_standard):
        a_diag, _, _, _ = sa_standard.mode_coefficients
        np.testing.assert_array_equal(sa_standard.unstable, a_diag > 0)
        assert sa_standard.unstable.sum() == sa_standard.N

    def test_derived_once_per_config(self, sa_standard):
        assert sa_standard.mode_coefficients is sa_standard.mode_coefficients
        assert sa_standard.unstable is sa_standard.unstable


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
        p_low, i_mid, q_high = band_projectors(cfg)
        pq = p_low + q_high
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
                xi = np.concatenate([xi_i, xi_c])
                via_form = v @ form.f1 @ v + 2.0 * xi @ (form.f2 @ v) + xi @ form.f3 @ xi
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
        mid_idx = np.where(cfg.mid_mask)[0]
        e = np.zeros(cfg.n)
        e[mid_idx[0]] = 1.0
        l_q = 1.0 * np.eye(cfg.n) + (cfg.delta / 2.0) * np.outer(e, e)
        defect, ok = spatial_avg_condition(l_q, cfg, 1.0)
        assert defect == pytest.approx(cfg.delta / 2.0) and ok

    def test_outer_blocks_ignored(self, sa_standard):
        cfg = sa_standard
        p_low, _, q_high = band_projectors(cfg)
        huge = 100.0 * (p_low + q_high)
        defect, ok = spatial_avg_condition(1.0 * np.eye(cfg.n) + huge, cfg, 1.0)
        assert defect == 0.0 and ok


class TestNonautHamiltonian:
    def test_two_routes_agree(self, sa_standard):
        for a_val in (0.0, 1.5, -2.0):
            h1 = assemble_nonaut_hamiltonian(sa_standard, a_val)
            h2 = assemble_hamiltonian(
                a_matrix(sa_standard, a_val),
                b_matrix(sa_standard),
                assemble_forms(sa_standard, a_val),
            )
            assert np.abs(h1.matrix - h2.matrix).max() <= 1e-12

    def test_zero_a_decouples_band_coupling(self, sa_standard):
        ham = assemble_nonaut_hamiltonian(sa_standard, 0.0)
        a_diag, chi, _, _ = sa_standard.mode_coefficients
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


#: the band maxima of `contraction_certificate`
BAND_MAXIMA = ("measured_mid", "measured_pq", "lp_measured_all", "lp_measured_pq")


def full_and_pruned_maxima(config, columns):
    """({band: max over the band's modes of every SVD}, {band: `_pruned_max`
    with `_norm_bound`}) of the scaled (T, L_A) matrices of the two-channel
    impulse loop on the contraction grid, over one (driver, phase) column."""
    times = _fiber_grid(config, None, CONTRACTION_STEPS)
    h = times[1] - times[0]
    w = np.full(times.size, h)
    w[0] = w[-1] = h / 2
    d_sq = np.sqrt(w)
    oracles = oracle_frames(config, columns, times)
    t_mats, l_mats = (
        (two_channel_operator_matrices(config, oracles, coupling) * d_sq[:, None])
        / d_sq[None, :]
        for coupling in (True, False)
    )
    bounds_t, bounds_l = (np.array([_norm_bound(mat) for mat in mats])
                          for mats in (t_mats, l_mats))
    modes, mid = np.arange(config.n), config.mid_mask
    bands = zip(BAND_MAXIMA, ((t_mats, bounds_t), (t_mats, bounds_t),
                              (l_mats, bounds_l), (l_mats, bounds_l)),
                (modes[mid], modes[~mid], modes, modes[~mid]))
    full, pruned = {}, {}
    for name, (mats, bounds), sel in bands:
        def svd_norm(j, mats=mats):
            return float(np.linalg.norm(mats[j], 2))

        full[name] = max((svd_norm(j) for j in sel), default=0.0)
        pruned[name] = _pruned_max(bounds, svd_norm, sel)
    return full, pruned


class TestPrunedNorms:
    """The contraction's band maxima take an SVD only where a norm bound
    cannot rule the mode out, and equal the maxima over every SVD bit for
    bit."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_certificate_equals_full_svd_maxima(self, n):
        model = make_spectral_model([float(j * j) for j in range(1, n + 1)])
        cfg = SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=2)
        full, _ = full_and_pruned_maxima(cfg, [(constant_driver(cfg.a_bound), 0.0)])
        cert = contraction_certificate(cfg)
        assert {name: cert[name] for name in BAND_MAXIMA} == full

    def test_quasiperiodic_driver(self, sa_standard):
        drv = Driver(c0=1.5, amplitudes=np.array([0.3, 0.2]),
                     omegas=np.array([1.0, np.sqrt(2.0)]))
        full, pruned = full_and_pruned_maxima(sa_standard, [(drv, np.array([0.0, 1.1]))])
        assert pruned == full

    def test_svd_count_on_sa_standard(self, sa_standard, monkeypatch):
        # 6 of the 16 SVDs of the unpruned maxima; one per band is the least
        real, calls = np.linalg.norm, []

        def counted(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append(None)
            return real(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        contraction_certificate(sa_standard)
        assert len(calls) <= 8

    def test_padded_bound_keeps_a_rank_one_winner(self):
        # y is rank one, so ||y||_2 = ||y||_F, but its SVD rounds 2 ulp or
        # more above its Frobenius norm; x = [[s]] has every norm s, exactly,
        # with ||y||_F < s < SVD(y).  Unpadded, x's bound comes first and
        # its SVD s rules y out: the maximum would read s
        rng = np.random.default_rng(0)
        for _ in range(2000):
            y = np.outer(rng.standard_normal(40), rng.standard_normal(40))
            fro, svd = np.linalg.norm(y), np.linalg.norm(y, 2)
            if svd > np.nextafter(fro, np.inf):
                break
        else:
            pytest.fail("no rank-one matrix whose SVD rounds 2 ulp above its norm")
        s = np.nextafter(svd, 0.0)
        mats = [np.array([[s]]), y]

        def svd_norm(j):
            return float(np.linalg.norm(mats[j], 2))

        assert svd_norm(0) == s and _norm_bound(y) >= svd
        modes = np.arange(2)
        assert _pruned_max(np.array([s, fro]), svd_norm, modes) == s
        bounds = np.array([_norm_bound(mat) for mat in mats])
        assert _pruned_max(bounds, svd_norm, modes) == svd

    def test_empty_band_reads_zero(self):
        assert _pruned_max(np.array([1.0]), lambda j: 1.0, np.arange(0)) == 0.0

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_nonfinite_matrix_is_a_contraction_failure(self, sa_standard, monkeypatch,
                                                       entry):
        real = lqbundle.spatial._mode_operator_matrix

        def spoilt(*args):
            mat = real(*args)
            mat[3, 2] = entry
            return mat

        monkeypatch.setattr(lqbundle.spatial, "_mode_operator_matrix", spoilt)
        with pytest.raises(ContractionFailed, match="operator norm bound"):
            contraction_certificate(sa_standard)


class TestDrivers:
    def test_amplitude_bound_example(self, sa_driver):
        assert sa_driver.amplitude_bound == pytest.approx(2.0)

    def test_amplitude_too_large(self, sa_standard):
        # a_bound = Lambda + delta = 2, and sup |a| = |c0| + |c1| whatever c0's sign
        for c0 in (2.0, -2.0):
            drv = Driver(c0=c0, amplitudes=np.array([1.0]), omegas=np.array([1.0]))
            with pytest.raises(AmplitudeTooLarge, match=r"sup \|a\| = 3.0 exceeds"):
                sa_standard.check_driver(drv)

    @pytest.mark.parametrize("amplitudes, omegas", [
        ([0.25, 0.25], [1.0]), ([[0.5]], [[1.0]]), (0.5, 1.0),
    ], ids=["lengths", "nested", "scalars"])
    def test_amplitudes_and_omegas_are_flat_of_one_length(self, amplitudes, omegas):
        with pytest.raises(AValueOutOfRange, match="flat arrays of one length"):
            Driver(c0=1.0, amplitudes=np.array(amplitudes), omegas=np.array(omegas))

    def test_constant_driver_frozen(self):
        drv = constant_driver(1.5)
        t = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(drv.values(0.3, t), 1.5)
        np.testing.assert_allclose(drv.integral(0.3, t), 1.5 * t)

    def test_quasiperiodic_scalar_phase(self):
        drv = Driver(c0=1.2, amplitudes=np.array([0.4, 0.3]),
                     omegas=np.array([1.0, 1.414]))
        t = np.linspace(0.0, 3.0, 3001)
        got = drv.integral(0.7, t)
        np.testing.assert_array_equal(got, drv.integral([0.7, 0.7], t))
        vals = drv.values(0.7, t)
        steps = 0.5 * (vals[1:] + vals[:-1]) * np.diff(t)
        np.testing.assert_allclose(got, np.concatenate([[0.0], np.cumsum(steps)]), atol=1e-6)

    def test_quasiperiodic_integral(self):
        drv = Driver(c0=1.0, amplitudes=np.array([0.3, 0.2]),
                     omegas=np.array([1.0, np.sqrt(2.0)]))
        q = np.array([0.4, 1.1])
        t = np.linspace(0.0, 3.0, 7)
        from scipy.integrate import quad

        for tv in t[1:]:
            ref, _ = quad(lambda s: drv.value(q + drv.omegas * s), 0.0, tv,
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
            # one check sweep per solve, however many columns it holds
            assert fib.n_iterations == alone.n_iterations == 1

    def test_amplitude_guard_on_every_column(self, sa_standard, sa_driver):
        too_large = constant_driver(sa_standard.a_bound + 0.1)
        with pytest.raises(AmplitudeTooLarge):
            build_fibers(sa_standard, [(sa_driver, 0.0), (too_large, 0.0)])

    def test_periodic_phases(self, sa_standard, sa_driver):
        fibers = build_fibers(
            sa_standard,
            [(sa_driver, q) for q in np.linspace(0, 2 * np.pi, 16, endpoint=False)],
        )
        assert all(f.n_iterations == 1 and f.residual <= PICARD_TOL for f in fibers)
        assert max(isotropy_defect(f.l_plus_q) for f in fibers) <= 1e-8
        assert all(not f.oscillating for f in fibers)
        assert max(
            intersection_dimension(f.l_plus_q, vertical_subspace(sa_standard.n))
            for f in fibers
        ) <= sa_standard.N

    def test_failed_check_sweep_raises(self, sa_standard, sa_driver, monkeypatch):
        # no residual is below a negative tolerance
        monkeypatch.setattr(lqbundle.spatial, "PICARD_TOL", -1.0)
        with pytest.raises(ContractionFailed, match="fixed-point residual"):
            build_fibers(sa_standard, [(sa_driver, 0.0)])

    def test_residual_on_verify_columns(self, sa_standard, sa_driver):
        fibers = build_fibers(sa_standard, verify_columns(sa_driver))
        assert {f.residual for f in fibers} == {fibers[0].residual}
        assert fibers[0].residual < 1e-12

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
        drv = Driver(c0=1.5, amplitudes=np.array([0.5]), omegas=np.array([1.0]))
        (fib,) = build_fibers(cfg, [(drv, 0.0)])
        z0 = fib.l_plus_q.basis @ np.ones(cfg.n)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = sa_trajectory(cfg, drv, 0.0, z0, 8.0 / cfg.mu_bar)
        assert not np.all(np.isfinite(traj.values))
        rate, pref = exp_decay_fit(cfg, drv, 0.0, z0, fiber=fib)
        assert np.isfinite(rate) and np.isfinite(pref)
        assert rate >= sa_eps0_estimate(cfg) - 1e-3


def mode_slices(frame, j):
    """Mode j's steps in time order and weights times folds, (m-1, P) and
    (4, m-1, P), of an `AllModeFrame`."""
    if j in frame.fwd:
        k = int(np.searchsorted(frame.fwd, j))
        return frame.steps[:, k], frame.wf_fwd[:, :, k]
    k = int(np.searchsorted(frame.bwd, j))
    return frame.steps[::-1, frame.fwd.size + k], frame.wf_bwd[:, :, k]


def assert_frames_match_oracles(config, columns, times, shifted, rng):
    """Each mode's one-channel frames, shifted by mu_j (channel 1) or
    unshifted (channel 0), equal the all-mode frame in steps, weights times
    folds and solve, and that channel of the two-direction, two-channel
    reference loops, exactly, on random forcing in every mode, channel and
    column."""
    a_diag = config.mode_coefficients[0]
    rho = -np.abs(a_diag) if shifted else np.zeros_like(a_diag)
    channel = int(shifted)
    drive = _drive(columns, times)
    all_modes = oracle_frames(config, columns, times, AllModeFrame, rho)
    for half, oracle in enumerate(oracle_frames(config, columns, times)):
        fvals = rng.standard_normal((times.size, a_diag.size, 2, len(columns)))
        whole = all_modes[half].solve(fvals[:, :, channel])
        assert np.array_equal(whole, oracle.solve(fvals)[:, :, channel])
        for j in range(a_diag.size):
            frame = _frames(config, times, drive, j, rho[j])[half]
            steps, wf = mode_slices(all_modes[half], j)
            assert np.array_equal(frame.steps, steps)
            assert np.array_equal(frame.wf, wf)
            assert np.array_equal(frame.solve(fvals[:, j, channel]), whole[:, j])


#: agreement of the direct fiber solve with the Picard loop: the loop stops
#: once an update is 1e-10 of its first, and on sa-standard (|m_j| <= 0.72)
#: the two agree to 4.1e-12
FIBER_TOL = 1e-10


def assert_fibers_match_two_channel(config, columns):
    """`build_fibers`, the banded direct solve, agrees with the two-channel
    Picard loop on the oracle frames, fiber by fiber: m to FIBER_TOL, P(q)
    to FIBER_TOL relative to its largest entry."""
    fibers = build_fibers(config, columns)
    for fib, ref in zip(fibers, two_channel_fibers(config, columns), strict=True):
        assert np.abs(fib.m - ref.m).max() <= FIBER_TOL
        assert np.abs(fib.p_q - ref.p_q).max() <= FIBER_TOL * np.abs(ref.p_q).max()


def verify_columns(driver):
    """The 16 phases, 6 continuity steps and frozen driver of one verify."""
    phases = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    return (
        [(driver, q) for q in phases]
        + [(driver, 2.0 ** (-m)) for m in range(1, 7)]
        + [(constant_driver(driver.value(0.0)), 0.0)]
    )


def quasiperiodic_columns(config):
    drv = Driver(c0=1.5, amplitudes=np.array([0.3, 0.2]),
                 omegas=np.array([1.0, np.sqrt(2.0)]))
    return [(drv, np.array([q, 2.0 * q])) for q in (0.0, 1.1, 4.0)]


class TestOracles:
    # the fiber solver is shifted by mu (channel 1), the contraction's is not
    # (channel 0)
    def test_frames_on_verify_columns(self, sa_standard, sa_driver, rng):
        times = _fiber_grid(sa_standard, None, None)
        for shifted in (True, False):
            assert_frames_match_oracles(sa_standard, verify_columns(sa_driver), times,
                                        shifted, rng)

    def test_frames_on_quasiperiodic_driver(self, sa_standard, rng):
        times = _fiber_grid(sa_standard, None, None)
        for shifted in (True, False):
            assert_frames_match_oracles(sa_standard, quasiperiodic_columns(sa_standard),
                                        times, shifted, rng)

    def test_fibers_on_verify_columns(self, sa_standard, sa_driver):
        assert_fibers_match_two_channel(sa_standard, verify_columns(sa_driver))

    def test_fibers_on_quasiperiodic_driver(self, sa_standard):
        assert_fibers_match_two_channel(sa_standard, quasiperiodic_columns(sa_standard))

    def test_contraction_impulse_columns(self, sa_standard):
        # one mode's impulses in one solve equal the two-channel loop's
        # batches of impulses on every mode
        times = _fiber_grid(sa_standard, None, CONTRACTION_STEPS)
        columns = [(constant_driver(sa_standard.a_bound), 0.0)]
        drive = _drive(columns, times)
        oracles = oracle_frames(sa_standard, columns, times)
        _, _, b_coef, c_coef = sa_standard.mode_coefficients
        for coupling in (True, False):
            ref = two_channel_operator_matrices(sa_standard, oracles, coupling)
            for j in range(sa_standard.n):
                frames = _frames(sa_standard, times, drive, j, 0.0)
                assert np.array_equal(
                    _mode_operator_matrix(frames, b_coef[j], c_coef[j], coupling), ref[j]
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
