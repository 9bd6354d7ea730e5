import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from frequency_oracles import SolveTransfer, sampled_margin, tail_m_bound, transfer_m
from lqbundle import frequency
from lqbundle.certify import DEFAULT_TOLERANCES, Scenario, run_pipeline
from lqbundle.errors import (
    ConditionFailed,
    DimensionMismatch,
    SingularF3,
    SingularShift,
)
from lqbundle.frequency import (
    AXIS_DIST_TOL,
    LEVEL_RTOL,
    QuadraticFormTriple,
    TransferEvaluator,
    frequency_condition_margin,
    inverse_norm_bound,
    level_set,
    make_frequency_grid,
    resolvent_sup_norm,
    smith_form_triple,
)
from lqbundle.stationary import Regulator

SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"


def random_system(rng, n=5, m=2):
    a = rng.standard_normal((n, n))
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
    b = rng.standard_normal((n, m))
    f1 = rng.standard_normal((n, n))
    f1 = 0.05 * (f1 + f1.T)
    f2 = 0.1 * rng.standard_normal((m, n))
    g3 = rng.standard_normal((m, m))
    f3 = g3 @ g3.T + np.eye(m)
    return a, b, QuadraticFormTriple(f1=f1, f2=f2, f3=f3)


def resonance(damping, freq, f1_scale):
    """A lightly damped rotation driven through its second state, with
    F1 = -f1_scale I, F2 = 0, F3 = 1: the margin dips at w = freq over a
    width of about `damping`, far narrower than the grid spacing."""
    a = np.array([[-damping, freq], [-freq, -damping]])
    b = np.array([[0.0], [1.0]])
    form = QuadraticFormTriple(f1=-f1_scale * np.eye(2), f2=[[0.0, 0.0]], f3=[[1.0]])
    return a, b, form


def scenario_system(name):
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
    return np.array(doc["A"]), np.array(doc["B"]), form


def sharpest(ev, lo, hi):
    """lambda_min of sym(F3 (I - M)) minimised over [lo, hi] by scipy."""
    res = minimize_scalar(lambda w: ev.margin_at(w)[0], bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12})
    return float(res.fun)


class TestQuadraticFormTriple:
    def test_asymmetric_f3_rejected(self):
        with pytest.raises(DimensionMismatch):
            QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[1.0, 0.3], [0.0, 1.0]][:1])

    def test_indefinite_f3_rejected(self):
        with pytest.raises(SingularF3):
            QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[-1.0]])

    def test_floor_recorded(self):
        form = QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[2.0]])
        assert form.delta_floor == pytest.approx(2.0)


class TestTransferM:
    def test_scalar_value_at_zero(self, s1):
        a, b, form = s1
        m_val = transfer_m(TransferEvaluator(a, b, form), 0.0)
        assert m_val[0, 0] == pytest.approx(0.25)

    def test_vanishing_forms(self, s1):
        a, b, _ = s1
        form0 = QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[1.0]])
        ev = TransferEvaluator(a, b, form0)
        for w in (0.0, 1.0, 5.5):
            assert np.abs(transfer_m(ev, w)).max() == 0.0

    def test_f3m_selfadjoint(self, rng):
        a, b, form = random_system(rng)
        ev = TransferEvaluator(a, b, form)
        for w in (0.0, 0.7, 4.2):
            g = form.f3 @ (np.eye(2) - transfer_m(ev, w))
            assert np.linalg.norm(g - g.conj().T, 2) <= 1e-10

    def test_hermitian_symmetry_in_omega(self, s1):
        a, b, form = s1
        ev = TransferEvaluator(a, b, form)
        for w in (0.4, 2.2):
            assert np.abs(transfer_m(ev, -w) - transfer_m(ev, w).conj()).max() <= 1e-12


class TestRows:
    """`rows` against `margin_at` and the per-point formulas on `transfer_m`."""

    @pytest.mark.parametrize("name", ["s1", "n40_j0"])
    def test_rows_equal_single_points_exactly(self, s1, name):
        a, b, form = s1 if name == "s1" else scenario_system(name)
        ev = TransferEvaluator(a, b, form)
        grid = make_frequency_grid(a, b, form)
        table = ev.rows(grid)
        eye = np.eye(form.control_dim)
        for w, row in zip(grid, table):
            np.testing.assert_array_equal(row, ev.margin_at(w))
            i_m = eye - transfer_m(ev, w)
            g = form.f3 @ i_m
            assert row[0] == np.linalg.eigvalsh(0.5 * (g + g.conj().T)).min()
            assert row[1] == np.linalg.norm(g - g.conj().T, 2)
            assert row[2] == 1.0 / np.linalg.svd(i_m, compute_uv=False)[-1]

    def test_every_row_is_guarded(self):
        # eigenvalues +-2i: M(2) does not exist, in any column
        a, b, form = resonance(0.0, 2.0, 0.01)
        ev = TransferEvaluator(a, b, form)
        assert np.all(np.isfinite(ev.rows([0.0, 1.0, 3.0])))
        with pytest.raises(SingularShift):
            ev.rows([0.0, 1.0, 2.0, 3.0])


def transfer_gaps(ev, ref, omegas):
    """Per frequency, ||M - M_ref||_2 / ||M_ref||_2 of the Schur route against
    the solve oracle."""
    got, want = ev._transfer(omegas), ref._transfer(omegas)
    return np.linalg.norm(got - want, 2, axis=(-2, -1)) / np.linalg.norm(want, 2, axis=(-2, -1))


class TestSchurTransfer:
    """`_transfer` by triangular solves on one Schur form of A against the
    dense solves of `SolveTransfer`."""

    @pytest.mark.parametrize("name", ["s1", "n40_j0", "n40_j1"])
    def test_grid_matches_the_solve_oracle(self, s1, name):
        a, b, form = s1 if name == "s1" else scenario_system(name)
        ev, ref = TransferEvaluator(a, b, form), SolveTransfer(a, b, form)
        grid = make_frequency_grid(a, b, form)
        assert transfer_gaps(ev, ref, grid).max() <= 1e-12
        # the guard's spectrum, T's diagonal, against np.linalg.eigvals: one
        # ill-conditioned eigenvalue of n40_j0 differs by 3.7e-11
        dist = np.abs(ev.eigs[:, None] - ref.eigs[None, :]).min(axis=1)
        assert dist.max() <= 1e-10 * np.linalg.norm(a, 2)

    def test_resonance_just_outside_the_guard(self):
        # poles 2 AXIS_DIST_TOL from the axis at +-2i: every frequency is
        # evaluated, the peak too; off the peak the routes agree to 1e-12,
        # at it to the resolvent's conditioning, u ||A|| / dist = 1.1e-4
        # (the two routes differ by 1.8e-4 there)
        dist = 2.0 * AXIS_DIST_TOL
        a, b, form = resonance(dist, 2.0, 0.01)
        ev, ref = TransferEvaluator(a, b, form), SolveTransfer(a, b, form)
        near = 2.0 + np.array([-1e-2, -1e-3, 1e-3, 1e-2])
        omegas = np.concatenate([make_frequency_grid(a, b, form), near])
        ev._guard(omegas)
        assert transfer_gaps(ev, ref, omegas).max() <= 1e-12
        peak = np.array([2.0])
        ev._guard(peak)
        assert np.all(np.isfinite(ev._transfer(peak)))
        cond = np.finfo(float).eps * np.linalg.norm(a, 2) / dist
        assert transfer_gaps(ev, ref, peak).max() <= 64.0 * cond

    @pytest.mark.parametrize("block", ["real", "rotation"])
    def test_defective_a(self, block):
        # a Jordan block: A has no eigenvector basis, and the triangular
        # solves do not need one
        if block == "real":
            a = -np.eye(3) + np.diag([1.0, 1.0], 1)
        else:
            rot = np.array([[-0.5, 1.0], [-1.0, -0.5]])
            a = np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]])
        n = a.shape[0]
        assert np.linalg.matrix_rank(np.linalg.eig(a)[1], tol=1e-6) < n
        b = np.eye(n, 1, -(n - 1))
        form = QuadraticFormTriple(f1=-0.1 * np.eye(n), f2=0.1 * np.eye(1, n), f3=[[2.0]])
        ev, ref = TransferEvaluator(a, b, form), SolveTransfer(a, b, form)
        omegas = np.linspace(0.0, 10.0, 101)
        assert transfer_gaps(ev, ref, omegas).max() <= 1e-12


class TestFrequencyMargin:
    def test_scalar_closed_form(self, s1):
        a, b, form = s1
        # F(-(A - iw)^-1 B xi, xi) = |xi|^2 (1 - 1/(4 + w^2)), minimum 3/4 at w = 0
        assert frequency_condition_margin(a, b, form) == pytest.approx(0.75, abs=1e-12)

    def test_pure_control_cost(self, s1):
        a, b, _ = s1
        form0 = QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[1.0]])
        assert frequency_condition_margin(a, b, form0) == pytest.approx(1.0)

    def test_smith_boundary_fails(self):
        # A = -a with Lambda >= a: |W(i0)| = 1/a >= 1/Lambda, margin <= 0
        a_val = 2.0
        a = np.array([[-a_val]])
        b = np.array([[1.0]])
        form = smith_form_triple([[1.0]], a_val, 1)
        assert frequency_condition_margin(a, b, form) <= 1e-12

    def test_negative_margin_is_refined(self):
        # a lightly damped resonance near w = 3.3 dips far below the base
        # grid's samples; the level sets find the dip although its margin is < 0
        a, b, form = resonance(0.02, 3.3, 0.01)
        scan = frequency_condition_margin(a, b, form, full_scan=True)
        assert scan.omegas.size > 1024
        ev = TransferEvaluator(a, b, form)
        dense = ev.rows(np.linspace(3.2, 3.4, 2001))[:, 0].min()
        assert dense < -11.0
        # the margin is a sample certified to within LEVEL_RTOL of delta*; the
        # dense grid holds a point 1.5e-9 from the minimiser, 1.8e-14 lower
        assert scan.margin <= dense + LEVEL_RTOL * abs(dense)

    def test_resonance_between_samples_is_not_a_silent_pass(self):
        # the refined scan reads 0.699 here; the true minimum is -1.0 at the
        # resonance w = 3.3137, whose width 1e-3 the scan's spacing misses
        a, b, form = resonance(1e-3, 3.3137, 4e-6)
        _, sampled = sampled_margin(a, b, form)
        assert sampled.min() > 0.69
        ev = TransferEvaluator(a, b, form)
        dense = ev.rows(np.linspace(3.31, 3.32, 2001))[:, 0].min()
        assert dense == pytest.approx(-1.0, abs=1e-6)
        # started from w = 0 and |Im lambda(A)|, and from the grid
        from_grid = frequency_condition_margin(a, b, form, full_scan=True).margin
        for margin in (frequency_condition_margin(a, b, form), from_grid):
            assert margin <= dense and margin < 0.0

    def test_n40_matches_bounded_minimisation(self):
        # the sampled scan read 0.8506650 at w = 0.19582; a bounded 1-D
        # minimisation between the neighbouring samples gives 0.8506548
        a, b, form = scenario_system("n40_j0")
        scan = frequency_condition_margin(a, b, form, full_scan=True)
        assert scan.margin <= 0.8506548 + 1e-9
        sharp = sharpest(TransferEvaluator(a, b, form), 0.185, 0.2)
        assert scan.margin == pytest.approx(sharp, rel=LEVEL_RTOL)
        assert scan.margin == scan.margins.min()

    def test_exact_below_sampled_and_certified(self, rng):
        for _ in range(4):
            a, b, form = random_system(rng)
            margin = frequency_condition_margin(a, b, form)
            _, sampled = sampled_margin(a, b, form)
            assert margin <= sampled.min() + LEVEL_RTOL * abs(sampled.min())
            scan = frequency_condition_margin(a, b, form, full_scan=True)
            assert scan.margin == pytest.approx(margin, rel=1e-9)
            w = scan.omega_star
            if np.isinf(w):  # the infimum is F3's floor, approached as w -> inf
                assert scan.margin == form.delta_floor < scan.margins.min()
                continue
            # nothing lies below the certified level around the minimiser
            sharp = sharpest(TransferEvaluator(a, b, form), max(0.0, w - 0.5), w + 0.5)
            assert sharp >= margin - LEVEL_RTOL * abs(margin)

    @pytest.mark.parametrize("shift", [0.2, -0.3])
    def test_shifted_margin_against_dense_scan(self, rng, shift):
        # the eps0 bisection reads a shifted margin through the level sets of
        # `level_set`: they appear within LEVEL_RTOL of the minimum of
        # the shifted M(w), and at its minimiser
        a, b, form = random_system(rng)
        ev = SolveTransfer(a, b, form, shift)
        omegas = np.linspace(0.0, 20.0, 4001)
        dense = ev.rows(omegas)[:, 0]
        w = omegas[np.argmin(dense)]
        sharp = sharpest(ev, max(0.0, w - 0.01), w + 0.01)
        gap = LEVEL_RTOL * abs(sharp)
        assert level_set(a, b, form, sharp - gap, shift)[0].size == 0
        cross = level_set(a, b, form, sharp + gap, shift)[0]
        assert cross.size > 0 and np.abs(cross - w).max() <= 0.01

    @pytest.mark.parametrize("shift", [0.0, 0.25])
    def test_crossings_are_level_eigenvalues(self, rng, shift):
        a, b, form = random_system(rng)
        ev = SolveTransfer(a, b, form, shift)
        level = ev.rows(np.linspace(0.0, 20.0, 4001))[:, 0].min() + 0.05
        cross = level_set(a, b, form, level, shift)[0]
        assert cross.size >= 1
        for w in cross:
            g = form.f3 @ (np.eye(2) - transfer_m(ev, w))
            eigs = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
            assert np.min(np.abs(eigs - level)) <= 1e-8

    def test_near_zero_margin(self):
        # Smith form just inside the boundary: margin 1 - (lam / 2)^2 ~ 2e-6
        lam = 2.0 * (1.0 - 1e-6)
        form = smith_form_triple([[1.0]], lam, 1)
        margin = frequency_condition_margin(np.array([[-2.0]]), np.array([[1.0]]), form)
        assert margin == pytest.approx(1.0 - (lam / 2.0) ** 2, rel=1e-9)

    def test_unsettled_iteration_is_typed(self, monkeypatch):
        monkeypatch.setattr(frequency, "LEVEL_STEPS", 1)
        with pytest.raises(ConditionFailed, match="unsettled"):
            frequency_condition_margin(*resonance(0.02, 3.3, 0.01), full_scan=True)

    def test_spectrum_on_the_axis_is_typed(self):
        a, b, form = resonance(1e-13, 2.0, 0.01)
        with pytest.raises(SingularShift):
            frequency_condition_margin(a, b, form)

    def test_tail_bound_implication(self, s1):
        a, b, form = s1
        grid = make_frequency_grid(a, b, form)
        bound = tail_m_bound(a, b, form, grid[-1])
        floor = form.delta_floor - np.linalg.norm(form.f3, 2) * bound
        assert floor > 0.0
        # the bound dominates the true transfer norm at the grid's end
        m_val = np.linalg.norm(transfer_m(TransferEvaluator(a, b, form), grid[-1]), 2)
        assert m_val <= bound


class TestSmithCondition:
    # the Smith transfer-norm condition sup_w ||C (A - i w)^-1 B|| < 1/lam
    def test_sup_between_grid_nodes(self):
        # |C (A - i w)^-1 B| = w0 / |w0^2 + d^2 - w^2 + 2 i d w| peaks at 1 / (2 d)
        a, b, _ = resonance(1e-3, 3.3137, 0.0)
        sup = resolvent_sup_norm(a, b, [[1.0, 0.0]])
        assert sup < 600.0 and sup == pytest.approx(500.0, rel=1e-8)
        assert not sup < 400.0

    def test_passing(self, s1):
        a, b, _ = s1
        sup = resolvent_sup_norm(a, b, [[1.0]])
        assert sup < 1.0 / 1.0 and sup == pytest.approx(0.5, abs=1e-9)

    def test_failing(self, s1):
        a, b, _ = s1
        sup = resolvent_sup_norm(a, b, [[1.0]])
        assert not sup < 1.0 / 3.0 and sup == pytest.approx(0.5, abs=1e-9)

    def test_zero_observation(self, s1):
        a, b, _ = s1
        sup = resolvent_sup_norm(a, b, [[0.0]])
        assert sup < 1.0 / 1e6 and sup == 0.0


def inverse_norm_ratio(a, b, form):
    """(worst sampled ||(I - M(w))^-1|| over `inverse_norm_bound`, scan), as
    the certify frequency stage forms its inverse-norm-bound record."""
    scan = frequency_condition_margin(a, b, form, full_scan=True)
    return float(np.max(scan.inverse_norms)) / inverse_norm_bound(form, scan.margin), scan


class TestInverseNormCertificate:
    def test_scalar_equality_case(self, s1):
        a, b, form = s1
        worst, scan = inverse_norm_ratio(a, b, form)
        # ||(I - M)^{-1}|| = (1 - 1/(4+w^2))^{-1} peaks at 4/3 = ||F3||/margin
        assert worst <= 1.0 + 1e-10
        assert worst >= 1.0 - 1e-9
        assert scan.omega_star == 0.0

    def test_trivial_form(self, s1):
        a, b, _ = s1
        form0 = QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[1.0]])
        worst, _ = inverse_norm_ratio(a, b, form0)
        assert worst == pytest.approx(1.0)

    def test_random_sweep(self, rng):
        done = 0
        while done < 5:
            a, b, form = random_system(rng)
            if frequency_condition_margin(a, b, form) < 0.05:
                continue
            worst, _ = inverse_norm_ratio(a, b, form)
            assert worst <= 1.0 + 1e-10
            done += 1

    def test_condition_failed(self):
        # no Lax-Milgram bound without a positive margin (here sup |W| = 1/2
        # = 1/lam, so the margin 1 - lam^2 sup^2 is 0): the frequency stage
        # records the margin and forms no inverse-norm record
        a = np.array([[-2.0]])
        b = np.array([[1.0]])
        form = smith_form_triple([[1.0]], 2.0, 1)
        scenario = Scenario(name="smith-2", mode="stationary", seed=0,
                            tolerances=dict(DEFAULT_TOLERANCES),
                            regulator=Regulator(a, b, form), averaging=None)
        cert = run_pipeline(scenario, ("frequency",))
        records = {r.name: r for r in cert.records}
        assert records["frequency-margin"].value <= 0.0
        assert "inverse-norm-bound" not in records


class TestTimeFrequencyConsistency:
    def test_time_domain_operator_norm_bounded_by_symbol(self, s1):
        # the discretized fixed-point operator never beats the symbol sup
        # by more than the tail/truncation slack
        from lp_oracles import SingleInputLP
        from lqbundle.dichotomy import dichotomy_split

        a, b, form = s1
        split_a = dichotomy_split(a)
        split_m = dichotomy_split(-a.T)
        times = np.linspace(0.0, 9.0, 301)
        tmat = SingleInputLP(a, b, form, split_a, split_m, times).t_matrix()
        h = times[1] - times[0]
        w = np.full(times.size, h)
        w[0] = w[-1] = h / 2
        d = np.sqrt(w)
        sigma = np.linalg.norm((tmat * d[:, None]) / d[None, :], 2)
        ev = TransferEvaluator(a, b, form)
        sup_m = max(
            np.linalg.norm(transfer_m(ev, wv), 2) for wv in np.linspace(0, 40, 400)
        )
        assert sigma <= sup_m + 0.05 * (1.0 + sup_m)
