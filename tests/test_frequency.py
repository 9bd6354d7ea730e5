import numpy as np
import pytest

from lqbundle.errors import ConditionFailed, DimensionMismatch, SingularF3
from lqbundle.frequency import (
    QuadraticFormTriple,
    TransferEvaluator,
    frequency_condition_margin,
    inverse_norm_certificate,
    make_frequency_grid,
    smith_condition,
    smith_form_triple,
    tail_m_bound,
)


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
        assert TransferEvaluator(a, b, form).transfer_m(0.0)[0, 0] == pytest.approx(0.25)

    def test_vanishing_forms(self, s1):
        a, b, _ = s1
        form0 = QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[1.0]])
        ev = TransferEvaluator(a, b, form0)
        for w in (0.0, 1.0, 5.5):
            assert np.abs(ev.transfer_m(w)).max() == 0.0

    def test_f3m_selfadjoint(self, rng):
        a, b, form = random_system(rng)
        ev = TransferEvaluator(a, b, form)
        for w in (0.0, 0.7, 4.2):
            g = form.f3 @ (np.eye(2) - ev.transfer_m(w))
            assert np.linalg.norm(g - g.conj().T, 2) <= 1e-10

    def test_hermitian_symmetry_in_omega(self, s1):
        a, b, form = s1
        ev = TransferEvaluator(a, b, form)
        for w in (0.4, 2.2):
            assert np.abs(ev.transfer_m(-w) - ev.transfer_m(w).conj()).max() <= 1e-12


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
        # grid's samples; the scan must refine it although its margin is < 0
        a = np.array([[-0.02, 3.3], [-3.3, -0.02]])
        b = np.array([[0.0], [1.0]])
        form = QuadraticFormTriple(f1=-0.01 * np.eye(2), f2=[[0.0, 0.0]], f3=[[1.0]])
        scan = frequency_condition_margin(a, b, form, full_scan=True)
        assert scan.omegas.size > 1024
        ev = TransferEvaluator(a, b, form)
        dense = min(ev.margin_at(w)[0] for w in np.linspace(3.2, 3.4, 2001))
        assert dense < -11.0
        assert scan.margin <= dense + 0.5

    def test_tail_bound_implication(self, s1):
        a, b, form = s1
        grid = make_frequency_grid(a, b, form)
        bound = tail_m_bound(a, b, form, grid.omega_max)
        floor = form.delta_floor - np.linalg.norm(form.f3, 2) * bound
        assert floor > 0.0
        # the bound dominates the true transfer norm at omega_max
        m_val = np.linalg.norm(TransferEvaluator(a, b, form).transfer_m(grid.omega_max), 2)
        assert m_val <= bound


class TestSmithCondition:
    def test_passing(self, s1):
        a, b, _ = s1
        ok, sup = smith_condition(a, b, [[1.0]], 1.0)
        assert ok and sup == pytest.approx(0.5, abs=1e-9)

    def test_failing(self, s1):
        a, b, _ = s1
        ok, sup = smith_condition(a, b, [[1.0]], 3.0)
        assert not ok and sup == pytest.approx(0.5, abs=1e-9)

    def test_zero_observation(self, s1):
        a, b, _ = s1
        ok, sup = smith_condition(a, b, [[0.0]], 1e6)
        assert ok and sup == 0.0


class TestInverseNormCertificate:
    def test_scalar_equality_case(self, s1):
        a, b, form = s1
        worst, scan = inverse_norm_certificate(a, b, form)
        # ||(I - M)^{-1}|| = (1 - 1/(4+w^2))^{-1} peaks at 4/3 = ||F3||/margin
        assert worst <= 1.0 + 1e-10
        assert worst >= 1.0 - 1e-9
        assert scan.tail_certified

    def test_trivial_form(self, s1):
        a, b, _ = s1
        form0 = QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[1.0]])
        worst, _ = inverse_norm_certificate(a, b, form0)
        assert worst == pytest.approx(1.0)

    def test_random_sweep(self, rng):
        done = 0
        while done < 5:
            a, b, form = random_system(rng)
            if frequency_condition_margin(a, b, form) < 0.05:
                continue
            worst, _ = inverse_norm_certificate(a, b, form)
            assert worst <= 1.0 + 1e-10
            done += 1

    def test_condition_failed(self):
        a = np.array([[-2.0]])
        b = np.array([[1.0]])
        form = smith_form_triple([[1.0]], 2.0, 1)
        with pytest.raises(ConditionFailed):
            inverse_norm_certificate(a, b, form)


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
            np.linalg.norm(ev.transfer_m(wv), 2) for wv in np.linspace(0, 40, 400)
        )
        assert sigma <= sup_m + 0.05 * (1.0 + sup_m)
