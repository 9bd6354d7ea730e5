import dataclasses
import math
import re
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from decay_oracles import exp_decay_fit, fit_decay_rate
from spatial_oracles import (
    TRAJECTORY_CHUNK,
    a_matrix,
    assemble_forms,
    assemble_nonaut_hamiltonian,
    b_matrix,
    band_projectors,
    driver_integral,
    fiber_subspace,
    fibers_from,
    gap_search_loop,
    implication_sweep,
    oracle_frames,
    per_step_sweep,
    sa_pairing_drift,
    sa_trajectory,
    spatial_avg_condition,
    trajectory_oracle,
    two_channel_fibers,
    two_channel_operator_matrices,
)

import lqbundle.spatial
from lqbundle import certify
from lqbundle.certify import Certificate
from lqbundle.dichotomy import GridFunction
from lqbundle.errors import (
    AmplitudeTooLarge,
    AValueOutOfRange,
    ContractionFailed,
    NoCandidate,
    NotPositive,
    Oscillating,
    SpectrumOnAxis,
)
from lqbundle.spatial import (
    CONDITION_SETS,
    CONTRACTION_STEPS,
    FIBER_TOL,
    SWEEP_CHUNK,
    Driver,
    SAConfig,
    _ScalarFrame,
    _fiber_grid,
    _frames,
    _majorant_sums,
    _mode_operator_matrix,
    _norm_bound,
    _pruned_max,
    _sweep,
    build_fibers,
    condition_holds,
    condition_margins,
    constant_driver,
    contraction_bounds,
    contraction_certificate,
    fiber_continuity,
    frozen_oracle_gap,
    gap_search,
    sa_eps0_estimate,
    v_form_brackets,
    v_form_certificate,
)
from lqbundle.spectral import eigenvalue_generator, make_spectral_model
from lqbundle.stationary import (
    assemble_hamiltonian,
    extract_nonoscillation,
    stable_lagrange_schur,
)
from lqbundle.symplectic import (
    LagrangeSubspace,
    grassmann_distance,
    intersection_dimension,
    isotropy_defect,
    vertical_subspace,
)


#: name: (generator, parameters) of the spectra, at n = 32, of the gap search
GAP_SPECTRA = {
    "power-1.5": ("power", {"p": 1.5}),
    "power-2": ("power", {"p": 2.0}),
    "power-3": ("power", {"p": 3.0}),
    "sum-of-squares-2d": ("sum-of-squares-2d", {}),
}


def gap_model(spectrum):
    kind, params = GAP_SPECTRA[spectrum]
    return make_spectral_model(eigenvalue_generator(kind, 32, **params))


class TestGapSearch:
    def test_minimal_bundle_pair(self):
        model = make_spectral_model([float(j * j) for j in range(1, 9)])
        # the pairs run by N and then k, so the first is the minimal one
        pairs, margins = gap_search(model, 1.0, 1.0, "bundle")
        assert pairs[0].tolist() == [3, 2]
        assert margins[0, 0] == pytest.approx(2.5 / np.sqrt(5) - 1.0)
        assert margins[0, 1] == pytest.approx(2.36)

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

    @pytest.mark.parametrize("spectrum", GAP_SPECTRA)
    @pytest.mark.parametrize("condition_set", CONDITION_SETS)
    def test_equals_the_loop(self, spectrum, condition_set):
        # the same rows in the same order with the same floats, or the same
        # NoCandidate
        model = gap_model(spectrum)
        for lam, delta in ((1.0, 1.0), (0.5, 0.25)):
            try:
                ref = gap_search_loop(model, lam, delta, condition_set)
            except NoCandidate as exc:
                with pytest.raises(NoCandidate, match=re.escape(str(exc))):
                    gap_search(model, lam, delta, condition_set)
            else:
                pairs, margins = gap_search(model, lam, delta, condition_set)
                rows = [{"k": k, "N": n_split, "margins": tuple(m)}
                        for (k, n_split), m in zip(pairs.tolist(), margins.tolist())]
                assert rows == ref

    def test_zelik_on_sum_of_squares_is_no_candidate(self):
        with pytest.raises(NoCandidate, match="'zelik'"):
            gap_search(gap_model("sum-of-squares-2d"), 1.0, 1.0, "zelik")

    def test_zero_gaps_emit_no_warning(self):
        # sum-of-squares-2d repeats eigenvalues: margins over its zero gaps
        # divide by zero, and the search evaluates none of them
        model = gap_model("sum-of-squares-2d")
        mu_bar = 0.5 * np.diff(model.eigenvalues)
        assert np.count_nonzero(mu_bar == 0.0) > 0
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            condition_margins("bundle", 1.0, 1.0, mu_bar[:, None], np.arange(1, 51))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for condition_set in ("bundle", "nonosc"):
                assert len(gap_search(model, 1.0, 1.0, condition_set)[0])

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


def sum_of_squares_32():
    """sum-of-squares-2d at n = 32 with (k, N) = (3, 21), whose P band (the
    modes below lambda_N - k) holds 16 modes; sa-standard's is empty."""
    model = make_spectral_model(eigenvalue_generator("sum-of-squares-2d", 32))
    return SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=21)


class TestFrozenOracle:
    """`frozen_oracle_gap`, read mode by mode, against the ordered Schur form
    of the dense frozen Hamiltonian."""

    @pytest.mark.parametrize("case", ["n8-periodic", "n8-quasiperiodic", "n64-periodic",
                                      "n64-quasiperiodic", "sum-of-squares-2d"])
    def test_matches_the_dense_schur_route(self, case, sa_standard, sa_driver):
        config = {"n8": sa_standard, "n64": n64_standard(),
                  "sum": sum_of_squares_32()}[case.split("-")[0]]
        if case.endswith("quasiperiodic"):
            a_val = QUASIPERIODIC.value(np.array([0.4, 1.1]))
        else:
            a_val = sa_driver.value(0.7)
        if case.startswith("sum"):
            assert np.count_nonzero(config.mode_coefficients[1] * config.unstable) > 0
        (fib,) = build_fibers(config, [(constant_driver(a_val), 0.0)])
        schur = stable_lagrange_schur(assemble_nonaut_hamiltonian(config, a_val))
        m = fib.m.copy()
        m[config.N] += 1e-3
        for fiber in (fib, dataclasses.replace(fib, m=m)):
            dense = grassmann_distance(fiber_subspace(fiber), schur)
            assert abs(frozen_oracle_gap(config, a_val, fiber) - dense) <= 1e-14

    def test_reads_the_fiber_it_is_given(self, sa_standard):
        # one entry m_j off by 1e-3 turns its line by
        # 1e-3 / sqrt((1 + m_j^2) (1 + (m_j + 1e-3)^2)), about 1e-3
        (fib,) = build_fibers(sa_standard, [(constant_driver(1.5), 0.0)])
        assert frozen_oracle_gap(sa_standard, 1.5, fib) <= 1e-15
        j = sa_standard.N
        m = fib.m.copy()
        m[j] += 1e-3
        got = frozen_oracle_gap(sa_standard, 1.5, dataclasses.replace(fib, m=m))
        turn = 1e-3 / np.sqrt((1.0 + fib.m[j] ** 2) * (1.0 + m[j] ** 2))
        assert got == pytest.approx(turn, rel=1e-9)
        assert 5e-4 < got <= 1e-3

    def test_oscillatory_blocks_are_a_typed_failure(self, sa_standard):
        # delta > mu_bar / 2 gives the mid modes next to the gap
        # top^2 + b c = mu^2 / 2 - 2 delta^2 < 0: no stable line
        config = dataclasses.replace(sa_standard, delta=1.3)
        assert config.delta > config.mu_bar / 2.0
        (fib,) = build_fibers(sa_standard, [(constant_driver(0.0), 0.0)])
        with pytest.raises(SpectrumOnAxis):
            frozen_oracle_gap(config, 0.0, fib)
        with pytest.raises(SpectrumOnAxis):
            stable_lagrange_schur(assemble_nonaut_hamiltonian(config, 0.0))


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


def j_squared(n):
    """lambda_j = j^2 at truncation n, Lambda = delta = 1, k = 3, N = 2:
    sa-standard at n = 8."""
    model = make_spectral_model([float(j * j) for j in range(1, n + 1)])
    return SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=2)


def library_matrices(config, with_coupling):
    """Every mode's T (or L_A) matrix from its `_frames` on the contraction
    grid, as `contraction_certificate` builds it, (n, m, m)."""
    times = _fiber_grid(config, CONTRACTION_STEPS)
    h = times[1] - times[0]
    _, _, b_coef, c_coef = config.mode_coefficients
    return np.array([
        _mode_operator_matrix(_frames(config, h, times.size, j), b_coef[j], c_coef[j],
                              with_coupling)
        for j in range(config.n)
    ])


def oracle_matrices(config, columns, with_coupling):
    """Every mode's T (or L_A) matrix from the two-channel impulse loop on the
    contraction grid over one (driver, phase) column, (n, m, m)."""
    times = _fiber_grid(config, CONTRACTION_STEPS)
    return two_channel_operator_matrices(config, oracle_frames(config, columns, times),
                                         with_coupling)


def dense_bound(mat):
    """`_norm_bound` of a dense matrix, with |mat| as its own majorant."""
    return _norm_bound(np.abs(mat).sum(axis=1), np.abs(mat).sum(axis=0))


def contraction_scaling(config):
    """(step, sqrt of the quadrature weights) of the contraction grid."""
    times = _fiber_grid(config, CONTRACTION_STEPS)
    h = times[1] - times[0]
    w = np.full(times.size, h)
    w[0] = w[-1] = h / 2
    return h, np.sqrt(w)


def full_and_pruned_maxima(config, matrices):
    """({band: max over the band's modes of every SVD}, {band: `_pruned_max`
    with `dense_bound`}) of the scaled (T, L_A) matrices on the contraction
    grid, where matrices(with_coupling) gives them unscaled."""
    _, d_sq = contraction_scaling(config)
    t_mats, l_mats = ((matrices(coupling) * d_sq[:, None]) / d_sq[None, :]
                      for coupling in (True, False))
    bounds_t, bounds_l = (np.array([dense_bound(mat) for mat in mats])
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
        cfg = j_squared(n)
        full, _ = full_and_pruned_maxima(cfg, partial(library_matrices, cfg))
        cert = contraction_certificate(cfg)
        assert {name: cert[name] for name in BAND_MAXIMA} == full

    def test_quasiperiodic_driver(self, sa_standard):
        drv = Driver(c0=1.5, amplitudes=np.array([0.3, 0.2]),
                     omegas=np.array([1.0, np.sqrt(2.0)]))
        columns = [(drv, np.array([0.0, 1.1]))]
        full, pruned = full_and_pruned_maxima(
            sa_standard, partial(oracle_matrices, sa_standard, columns))
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
        # y = c 1 1^T is rank one with ||y||_2 = sqrt(||y||_1 ||y||_inf) = 40 c,
        # but its SVD rounds 2 ulp or more above that product's root;
        # x = [[s]] has every norm s, exactly, with that root < s < SVD(y).
        # Unpadded, x's bound comes first and its SVD s rules y out: the
        # maximum would read s
        rng = np.random.default_rng(0)
        for _ in range(2000):
            y = np.full((40, 40), rng.uniform(0.5, 2.0))
            root = np.sqrt(y.sum(axis=1).max() * y.sum(axis=0).max())
            svd = np.linalg.norm(y, 2)
            if svd > np.nextafter(root, np.inf):
                break
        else:
            pytest.fail("no constant matrix whose SVD rounds 2 ulp above its bound")
        s = np.nextafter(svd, 0.0)
        mats = [np.array([[s]]), y]

        def svd_norm(j):
            return float(np.linalg.norm(mats[j], 2))

        assert svd_norm(0) == s and dense_bound(y) >= svd
        modes = np.arange(2)
        assert _pruned_max(np.array([s, root]), svd_norm, modes) == s
        bounds = np.array([dense_bound(mat) for mat in mats])
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


def dense_majorants(config, j):
    """Mode j's dense majorants |b c| D^1/2 M_eta M_v D^-1/2 of T and
    D^1/2 M_v D^-1/2 of L_A, with M = R |W| for each frame: +-W read off a
    solve of the identity without recurrence (step 0), and R, the powers of
    the step factor in the direction of integration, written out."""
    h, d_sq = contraction_scaling(config)
    m = d_sq.size
    lags = np.subtract.outer(np.arange(m), np.arange(m))

    def majorant(frame):
        step, frame.step = frame.step, 0.0
        stencil = np.abs(frame.solve(np.eye(m)))
        ahead = lags >= 0 if frame.forward else lags <= 0
        return np.where(ahead, step ** np.abs(lags), 0.0) @ stencil

    m_v, m_e = map(majorant, _frames(config, h, m, j))
    _, _, b_coef, c_coef = config.mode_coefficients
    m_t = abs(b_coef[j] * c_coef[j]) * m_e @ m_v
    return tuple((mat * d_sq[:, None]) / d_sq[None, :] for mat in (m_t, m_v))


class TestMajorant:
    """The contraction's O(m) norm bounds: row and column sums of entrywise
    majorants, computed by recurrences batched over modes."""

    @pytest.mark.parametrize("n", [8, 64])
    def test_bound_dominates_every_svd(self, n):
        cfg = j_squared(n)
        h, d_sq = contraction_scaling(cfg)
        rows_t, cols_t, rows_l, cols_l = _majorant_sums(cfg, h, d_sq)
        bounds = {True: _norm_bound(rows_t, cols_t), False: _norm_bound(rows_l, cols_l)}
        for coupling in (True, False):
            mats = library_matrices(cfg, coupling) * d_sq[:, None] / d_sq[None, :]
            svds = np.array([np.linalg.norm(mat, 2) for mat in mats])
            assert np.all(bounds[coupling] >= svds)

    def test_sums_match_the_dense_majorant(self):
        # the batched recurrences against each mode's dense majorant, which
        # dominates the mode's scaled T and L_A entrywise
        cfg = j_squared(8)
        h, d_sq = contraction_scaling(cfg)
        sums = _majorant_sums(cfg, h, d_sq)
        mats = [library_matrices(cfg, coupling) * d_sq[:, None] / d_sq[None, :]
                for coupling in (True, False)]
        for j in range(cfg.n):
            major_t, major_l = dense_majorants(cfg, j)
            assert np.all(np.abs(mats[0][j]) <= major_t)
            assert np.all(np.abs(mats[1][j]) <= major_l)
            dense = (major_t.sum(axis=1), major_t.sum(axis=0),
                     major_l.sum(axis=1), major_l.sum(axis=0))
            for got, ref in zip(sums, dense, strict=True):
                assert np.abs(got[:, j] - ref).max() <= 1e-13 * ref.max()

    def test_transposed_solve_is_the_transpose(self, rng):
        # both directions, batched over the unstable and the stable modes
        cfg = j_squared(8)
        h, d_sq = contraction_scaling(cfg)
        m = d_sq.size
        for modes in np.flatnonzero(cfg.unstable), np.flatnonzero(~cfg.unstable):
            for frame, single in zip(_frames(cfg, h, m, modes),
                                     zip(*(_frames(cfg, h, m, j) for j in modes))):
                g = rng.standard_normal((m, modes.size))
                got = frame.solve_transposed(g)
                for col, one in enumerate(single):
                    ref = one.solve(np.eye(m)).T @ g[:, col]
                    assert np.abs(got[:, col] - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_dense_builds_only_for_svds_on_sa_standard(self, sa_standard, monkeypatch):
        # the bound pass builds no matrix; each SVD'd (mode, operator) pair is
        # built once, and sa-standard takes 6 SVDs
        real_build, real_norm = lqbundle.spatial._mode_operator_matrix, np.linalg.norm
        builds, svds = [], []

        def build(frames, b, c, with_coupling):
            builds.append((frames[0].step, frames[0].forward, b, c, with_coupling))
            return real_build(frames, b, c, with_coupling)

        def counted(x, ord=None, *args, **kwargs):
            if ord == 2:
                svds.append(None)
            return real_norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(lqbundle.spatial, "_mode_operator_matrix", build)
        monkeypatch.setattr(np.linalg, "norm", counted)
        contraction_certificate(sa_standard)
        assert len(builds) == len(set(builds)) == len(svds) == 6

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_nonfinite_majorant_is_a_contraction_failure(self, monkeypatch, rate):
        # a non-finite rate makes a mode's majorant non-finite: a typed
        # ContractionFailed before any matrix is built, not an SVD's
        # LinAlgError (an infinite rate's phi functions warn on the way)
        cfg = j_squared(8)
        a_diag, chi, b_coef, c_coef = cfg.mode_coefficients
        a_diag = a_diag.copy()
        a_diag[5] = rate
        cfg.__dict__["mode_coefficients"] = (a_diag, chi, b_coef, c_coef)
        builds = []
        monkeypatch.setattr(lqbundle.spatial, "_mode_operator_matrix",
                            lambda *args: builds.append(args))
        with (np.errstate(all="ignore"),
              pytest.raises(ContractionFailed, match="operator norm bound")):
            contraction_certificate(cfg)
        assert builds == []


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
        np.testing.assert_allclose(driver_integral(drv, 0.3, t), 1.5 * t)

    def test_quasiperiodic_scalar_phase(self):
        drv = Driver(c0=1.2, amplitudes=np.array([0.4, 0.3]),
                     omegas=np.array([1.0, 1.414]))
        t = np.linspace(0.0, 3.0, 3001)
        got = driver_integral(drv, 0.7, t)
        np.testing.assert_array_equal(got, driver_integral(drv, [0.7, 0.7], t))
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
            assert driver_integral(drv, q, [tv])[0] == pytest.approx(ref, abs=1e-10)


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
            # the sweep starts on the frozen stable line, which every step keeps
            assert grassmann_distance(fiber_subspace(fib), oracle) <= 1e-14

    def test_mixed_columns_match_single_columns(self, sa_standard, sa_driver):
        # every column of one mixed call is the fiber of its own call
        columns = [(sa_driver, 0.0), (sa_driver, 2.5), (constant_driver(1.5), 0.0)]
        mixed = build_fibers(sa_standard, columns)
        for column, fib in zip(columns, mixed):
            (alone,) = build_fibers(sa_standard, [column])
            assert fib.q == alone.q
            assert grassmann_distance(fiber_subspace(fib), fiber_subspace(alone)) <= 1e-9
            # one sweep per solve, however many columns it holds
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
        assert all(f.n_iterations == 1 and f.residual <= FIBER_TOL for f in fibers)
        subspaces = [fiber_subspace(f) for f in fibers]
        assert max(isotropy_defect(sub) for sub in subspaces) <= 1e-8
        for sub in subspaces:
            extract_nonoscillation(sub)  # must not raise Oscillating
        assert max(
            intersection_dimension(sub, vertical_subspace(sa_standard.n))
            for sub in subspaces
        ) <= sa_standard.N

    def test_failed_check_sweep_raises(self, sa_standard, sa_driver, monkeypatch):
        # no step-doubling estimate is below a negative tolerance
        monkeypatch.setattr(lqbundle.spatial, "FIBER_TOL", -1.0)
        with pytest.raises(ContractionFailed, match="step-doubling estimate"):
            build_fibers(sa_standard, [(sa_driver, 0.0)])

    def test_residual_on_verify_columns(self, sa_standard, sa_driver):
        # the residual is the step-doubling estimate: the largest sine
        # between the lines of the sweeps on the step and on twice the step,
        # over every mode and column of the solve
        columns = verify_columns(sa_driver)
        fibers = build_fibers(sa_standard, columns)
        assert {f.residual for f in fibers} == {fibers[0].residual}
        steps = _fiber_grid(sa_standard, None).size - 1
        (x, y), (x2, y2) = (_sweep(sa_standard, columns, _fiber_grid(sa_standard, s))
                            for s in (steps, steps // 2))
        assert fibers[0].residual == np.abs(x * y2 - y * x2).max()
        assert 0.0 < fibers[0].residual <= FIBER_TOL

    @pytest.mark.parametrize("case", ["verify", "quasiperiodic", "omega4"])
    def test_estimate_bounds_the_error(self, case, sa_standard, sa_driver):
        # against a sweep on an eighth of the step, the true sine error of
        # every line is at most the step-doubling estimate
        columns = {
            "verify": verify_columns(sa_driver),
            "quasiperiodic": quasiperiodic_columns(sa_standard),
            "omega4": [(Driver(c0=1.5, amplitudes=np.array([0.5]),
                               omegas=np.array([4.0])), q)
                       for q in np.linspace(0, 2 * np.pi, 8, endpoint=False)],
        }[case]
        fibers = build_fibers(sa_standard, columns)
        steps = _fiber_grid(sa_standard, None).size - 1
        x_ref, y_ref = _sweep(sa_standard, columns, _fiber_grid(sa_standard, 8 * steps))
        x, y = np.array([f._lines() for f in fibers]).transpose(1, 2, 0)
        assert np.abs(x * y_ref - y * x_ref).max() <= fibers[0].residual

    def test_n256_lines_are_finite(self, sa_driver):
        # the check sweep's step at n = 256 makes |d| exceed the log of the
        # largest float, so an unscaled exponential overflows there
        model = make_spectral_model([float(j * j) for j in range(1, 257)])
        cfg = SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=2)
        times = _fiber_grid(cfg, (_fiber_grid(cfg, None).size - 1) // 2)
        a_diag, chi, b_coef, c_coef = cfg.mode_coefficients
        rates = np.sqrt((np.abs(a_diag) + cfg.a_bound * chi) ** 2 + b_coef * c_coef)
        assert (times[1] - times[0]) * rates.max() > np.log(np.finfo(float).max)
        (fib,) = build_fibers(cfg, [(sa_driver, 0.0)])
        assert np.all(np.isfinite(fib.m)) and fib.residual <= FIBER_TOL

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
        ref = fiber_subspace(fibers[0])
        for row, fib in zip(rows, fibers[1:], strict=True):
            dense = grassmann_distance(fiber_subspace(fib), ref)
            assert row["grassmann"] == pytest.approx(dense, rel=1e-12, abs=1e-15)
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


def n64_standard():
    """sa-standard's (Lambda, delta, k, N) at truncation n = 64."""
    model = make_spectral_model([float(j * j) for j in range(1, 65)])
    return SAConfig(model=model, lam=1.0, delta=1.0, k=3, N=2)


QUASIPERIODIC = Driver(c0=1.5, amplitudes=np.array([0.3, 0.2]),
                       omegas=np.array([1.0, np.sqrt(2.0)]))


def fiber_with(config, m):
    """The fiber of the entries m, through `fibers_from` as the Picard loop
    hands them over: m_j in the v half for an unstable mode, in eta
    otherwise."""
    dv0 = np.where(config.unstable, m, 0.0)[:, None]
    de0 = np.where(config.unstable, 0.0, m)[:, None]
    (fib,) = fibers_from(config, [(constant_driver(0.0), 0.0)], dv0, de0, 1, 0.0)
    return fib


def graph_basis(config, m):
    """The graph of diag(m) over the sharp subspace: a 1 in mode j's sharp
    row (the eta half for j < N, the v half otherwise) and m_j in the same
    mode's row of the other half."""
    n, modes = config.n, np.arange(config.n)
    basis = np.zeros((2 * n, n))
    basis[np.where(config.unstable, n + modes, modes), modes] = 1.0
    basis[np.where(config.unstable, modes, n + modes), modes] = m
    return LagrangeSubspace(basis)


class TestFiberClosedForms:
    """Each fiber's closed forms against the dense routines of `symplectic`
    and `extract_nonoscillation` on its dense basis."""

    @pytest.mark.parametrize("case", ["sa-standard", "quasiperiodic", "n64"])
    def test_closed_forms_match_dense_oracles(self, case, sa_standard, sa_driver):
        if case == "quasiperiodic":
            config = sa_standard
            columns = [(QUASIPERIODIC, np.array([q, 2.0 * q])) for q in (0.0, 1.1, 4.0)]
        else:
            config = sa_standard if case == "sa-standard" else n64_standard()
            phases = np.linspace(0, 2 * np.pi, 4, endpoint=False)
            columns = [(sa_driver, q) for q in phases]
        columns.append((constant_driver(1.5), 0.0))
        fibers = build_fibers(config, columns)
        vertical = vertical_subspace(config.n)
        ref = fiber_subspace(fibers[0])
        for fib in fibers:
            sub = fiber_subspace(fib)
            assert grassmann_distance(sub, graph_basis(config, fib.m)) <= 1e-14
            assert isotropy_defect(sub) <= 1e-15
            assert fib.vertical_dimension() == intersection_dimension(sub, vertical) == 0
            dense_p = extract_nonoscillation(sub).p
            np.testing.assert_allclose(np.diag(fib.p), dense_p, rtol=0.0,
                                       atol=1e-14 * np.abs(dense_p).max())
            assert fib.gap(fibers[0]) == pytest.approx(
                grassmann_distance(sub, ref), rel=1e-12, abs=1e-15)

    def test_vertical_rank_rule_matches_the_dense_rule(self, sa_standard):
        # an unstable mode's m_j -> 0 and a stable mode's m_j -> infinity
        # both turn the mode's line vertical; the rank threshold RANK_RTOL
        # falls inside the sweep
        base = np.linspace(-0.5, 0.5, sa_standard.n)
        vertical = vertical_subspace(sa_standard.n)
        counts = []
        for mode, to_m in ((0, lambda t: t), (sa_standard.N, lambda t: 1.0 / t)):
            for t in np.geomspace(1e-10, 1e-6, 502):
                m = base.copy()
                m[mode] = to_m(t)
                fib = fiber_with(sa_standard, m)
                dim = fib.vertical_dimension()
                assert dim == intersection_dimension(fiber_subspace(fib), vertical), (mode, t)
                counts.append(dim)
        assert 0 < sum(counts) < len(counts)

    @pytest.mark.parametrize("m_far, vertical", [(1e7, 0), (2e8, 1), (1e9, 1)])
    def test_huge_stable_entry_is_an_oscillating_fiber(self, sa_standard, m_far,
                                                       vertical):
        # a stable mode's line (1, m_j) turns vertical as m_j grows; its
        # dense basis stays full rank, and the run records a FAIL of
        # nonoscillation-all-phases, not a failure of the fibers stage
        m = np.full(sa_standard.n, 0.1)
        m[sa_standard.N] = m_far
        fib = fiber_with(sa_standard, m)
        dense = intersection_dimension(fiber_subspace(fib), vertical_subspace(sa_standard.n))
        assert fib.vertical_dimension() == dense == vertical
        run = SimpleNamespace(fibers=[fib], vres={"delta_v": 1.0})
        cert = Certificate("synthetic", "spatial-averaging", 0)
        certify._sa_nonoscillation(run, cert)
        (flag,) = (r for r in cert.records if r.name == "nonoscillation-all-phases")
        assert flag.passed == (not vertical)
        if vertical:
            with pytest.raises(Oscillating):
                fib.p
            assert "uniform-p-bound" not in [r.name for r in cert.records]


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
        n_low = sa_standard.N
        p_dense = [extract_nonoscillation(fiber_subspace(f)).p for f in fibers]
        assert max(np.linalg.norm(p, 2) for p in p_dense) <= 1.0 / out["delta_v"] + 1e-6
        for p in p_dense:
            # min eig of P on modes 1..N, max eig on modes N+1..n
            assert np.linalg.eigvalsh(p[:n_low, :n_low]).min() > 0.0
            assert np.linalg.eigvalsh(p[n_low:, n_low:]).max() < 0.0


class TestDecay:
    def test_zero_state(self, sa_standard, sa_driver):
        rate, pref = exp_decay_fit(sa_standard, sa_driver, 0.0, np.zeros(16))
        assert rate == np.inf and pref == 0.0

    def test_frozen_rate_meets_spectrum(self, sa_standard):
        drv = constant_driver(0.0)
        (fib,) = build_fibers(sa_standard, [(drv, 0.0)])
        ham = assemble_nonaut_hamiltonian(sa_standard, 0.0)
        gap = np.min(np.abs(np.linalg.eigvals(ham.matrix).real))
        z0 = fiber_subspace(fib).basis @ np.ones(sa_standard.n)
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
            z0 = fiber_subspace(f).basis @ np.ones(sa_standard.n)
            r, p = exp_decay_fit(sa_standard, sa_driver, f.q, z0, fiber=f)
            rates.append(r)
            prefs.append(p)
        assert min(rates) >= eps0 - 1e-3
        assert max(prefs) / min(prefs) < 2.0

    def test_pairing_preserved(self, sa_standard, sa_driver):
        (fib,) = build_fibers(sa_standard, [(sa_driver, 0.4)])
        basis = fiber_subspace(fib).basis
        drift, pair0 = sa_pairing_drift(
            sa_standard, sa_driver, 0.4, basis[:, 0], basis[:, 5], 3.0,
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
        z0 = fiber_subspace(fib).basis @ np.ones(cfg.n)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = sa_trajectory(cfg, drv, 0.0, z0, 8.0 / cfg.mu_bar)
        assert not np.all(np.isfinite(traj.values))
        rate, pref = exp_decay_fit(cfg, drv, 0.0, z0, fiber=fib)
        assert np.isfinite(rate) and np.isfinite(pref)
        assert rate >= sa_eps0_estimate(cfg) - 1e-3


#: agreement of the fiber sweep with the Picard loop: the loop's own
#: discretisation error (6.95e-10 on sa-standard) plus the sweep's
#: (2.6e-10); the two agree to 1.06e-9
ORACLE_TOL = 2e-9


def assert_fibers_match_two_channel(config, columns):
    """`build_fibers`, the backward sweep, agrees with the two-channel
    Picard loop on the oracle frames, fiber by fiber: m to ORACLE_TOL, P(q)
    to ORACLE_TOL relative to its largest entry."""
    fibers = build_fibers(config, columns)
    for fib, ref in zip(fibers, two_channel_fibers(config, columns), strict=True):
        assert np.abs(fib.m - ref.m).max() <= ORACLE_TOL
        assert np.abs(fib.p - ref.p).max() <= ORACLE_TOL * np.abs(ref.p).max()


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


class TestScalarFrame:
    @pytest.mark.parametrize("rate", [0.5, 200.0], ids=["mild", "stiff"])
    @pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
    def test_cubic_forcing_matches_closed_form(self, rate, forward):
        # x' = r x + p from zero, forward from t = 0 at r = -rate and
        # backward from t = T at r = +rate (the square-integrable branches),
        # for p = 1, t, t^2, t^3: the quadrature is exact on cubics.  With
        # x_p = -sum_k p^(k) / r^(k+1), the solution is
        # x_p(t) - e^{r (t - t0)} x_p(t0) with t0 = 0 or T
        r = -rate if forward else rate
        times = np.linspace(0.0, 6.0, 121)
        frame = _ScalarFrame(times[1] - times[0], times.size, r, forward)
        got = frame.solve(times[:, None] ** np.arange(4))

        def particular(t):
            return np.array([
                -sum(math.perm(d, k) * t ** (d - k) / r ** (k + 1)
                     for k in range(d + 1))
                for d in range(4)
            ])

        t0 = times[0] if forward else times[-1]
        exact = (np.array([particular(t) for t in times])
                 - np.exp(r * (times - t0))[:, None] * particular(t0))
        err = np.abs(got - exact).max(axis=0)
        assert np.all(err <= 1e-12 * np.abs(exact).max(axis=0))


def oscillatory_columns(config):
    """Columns of a driver past a_bound, swinging around the first driven
    mode's a_diag = -9.5 of sa-standard: that mode's plane turns oscillatory
    (d^2 < 0) on part of the grid, and is hyperbolic at the grid's end, where
    the sweep starts from the frozen stable line."""
    t_end = _fiber_grid(config, None)[-1]
    drv = Driver(c0=-9.5, amplitudes=np.array([2.0]), omegas=np.array([1.0]))
    return [(drv, 0.5 * np.pi - t_end), (drv, -0.5 * np.pi - t_end)]


class TestChunkedSweep:
    """`_sweep` computes the Magnus coefficients a chunk of steps at a time
    and equals the step-by-step sweep bit for bit."""

    @pytest.mark.parametrize("case", ["verify", "quasiperiodic", "n64", "remainder",
                                      "oscillatory"])
    def test_equals_the_per_step_sweep(self, case, sa_standard, sa_driver):
        config, columns = {
            "verify": (sa_standard, verify_columns(sa_driver)),
            "quasiperiodic": (sa_standard, quasiperiodic_columns(sa_standard)),
            "n64": (n64_standard(), verify_columns(sa_driver)),
            "remainder": (sa_standard, verify_columns(sa_driver)),
            "oscillatory": (sa_standard, oscillatory_columns(sa_standard)),
        }[case]
        times = _fiber_grid(config, None)
        chunk = SWEEP_CHUNK // (config.n * len(columns))
        if case == "remainder":
            # three whole chunks and one step
            times = _fiber_grid(config, 3 * chunk + 1)
        assert chunk > 1 and (times.size - 1) % chunk
        for got, ref in zip(_sweep(config, columns, times),
                            per_step_sweep(config, columns, times), strict=True):
            assert np.array_equal(got, ref)

    def test_oscillatory_case_reaches_the_trigonometric_branch(self, sa_standard):
        # top^2 + b c < 0 on hundreds of steps of both columns, and the
        # lines stay finite
        times = _fiber_grid(sa_standard, None)
        a_diag, chi, b_coef, c_coef = sa_standard.mode_coefficients
        columns = oscillatory_columns(sa_standard)
        for drv, q in columns:
            top = a_diag[:, None] - chi[:, None] * drv.values(q, times)[None, :]
            assert np.count_nonzero(top**2 + (b_coef * c_coef)[:, None] < 0.0) > 100
        assert all(np.isfinite(v).all() for v in _sweep(sa_standard, columns, times))


class TestOracles:
    def test_fibers_on_verify_columns(self, sa_standard, sa_driver):
        assert_fibers_match_two_channel(sa_standard, verify_columns(sa_driver))

    def test_fibers_on_quasiperiodic_driver(self, sa_standard):
        assert_fibers_match_two_channel(sa_standard, quasiperiodic_columns(sa_standard))

    @pytest.mark.parametrize("n", [8, 16])
    def test_contraction_impulse_columns(self, n):
        # one mode's impulses in one solve at the constant rate agree with the
        # two-channel loop's batches of impulses on every mode, driven by the
        # same constant column, to roundoff: the loop's interval means of
        # a_b t differ from a_b by a few ulp
        cfg = j_squared(n)
        columns = [(constant_driver(cfg.a_bound), 0.0)]
        for coupling in (True, False):
            got = library_matrices(cfg, coupling)
            ref = oracle_matrices(cfg, columns, coupling)
            for mat, ref_mat in zip(got, ref, strict=True):
                assert np.abs(mat - ref_mat).max() <= 1e-14 * np.abs(ref_mat).max()

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
