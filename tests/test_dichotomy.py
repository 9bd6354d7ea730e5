import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad
from dichotomy_oracles import (
    adjoint_kernel_defect,
    fourier_resolvent_check,
    green_kernel,
    lyapunov_perron_apply,
    stable_projector,
)

from lqbundle.dichotomy import GridFunction, dichotomy_split
from lqbundle.errors import DimensionMismatch, HorizonTooShort, SpectrumOnAxis
from lqbundle.symplectic import Subspace


def random_dichotomic(rng, n=4, j=0):
    d = np.concatenate([rng.uniform(0.5, 1.5, j), -rng.uniform(0.5, 2.5, n - j)])
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(d) @ q.T + 0.1 * rng.standard_normal((n, n))


class TestSplit:
    def test_stable_diagonal(self):
        s = dichotomy_split(np.diag([-2.0, -3.0]))
        assert s.rank_j == 0
        assert s.eps_rate == pytest.approx(2.0)

    def test_one_unstable_mode(self):
        s = dichotomy_split(np.diag([1.0, -1.0]))
        assert s.rank_j == 1
        assert s.eps_rate == pytest.approx(1.0)

    def test_imaginary_spectrum(self):
        with pytest.raises(SpectrumOnAxis):
            dichotomy_split(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_invariance_of_subspaces(self, rng):
        a = random_dichotomic(rng, 5, 2)
        s = dichotomy_split(a)
        k = s.k_stable
        for sub in (s.stable_basis, Subspace(s.w[:, k:])):
            image = a @ sub.basis
            resid = image - sub.basis @ (sub.basis.T @ image)
            assert np.linalg.norm(resid, 2) <= 1e-10 * np.linalg.norm(a, 2)

    def test_projector_semigroup_commute(self, rng):
        a = random_dichotomic(rng, 4, 1)
        s = dichotomy_split(a)
        p = stable_projector(s)
        for t in (0.3, 1.7):
            prop = s.propagate_stable(t) + s.propagate_unstable(-t) @ np.linalg.inv(
                np.eye(4)
            )
            # spectral calculus: e^{tA} Pi_s must commute with Pi_s
            lhs = p @ s.propagate_stable(t)
            rhs = s.propagate_stable(t) @ p
            assert np.abs(lhs - rhs).max() <= 1e-10


class TestGreenKernel:
    def test_stable_branch_closed_form(self):
        s = dichotomy_split(np.diag([-1.0]))
        assert green_kernel(s, 1.0, 0.0)[0, 0] == pytest.approx(np.exp(-1.0))

    def test_unstable_branch_sign(self):
        s = dichotomy_split(np.diag([1.0]))
        assert green_kernel(s, 0.0, 1.0)[0, 0] == pytest.approx(-np.exp(-1.0))

    def test_diagonal_rejected(self):
        s = dichotomy_split(np.diag([-1.0]))
        with pytest.raises(ValueError, match="jump at t == s"):
            green_kernel(s, 0.5, 0.5)

    def test_decay_bound(self, rng):
        a = random_dichotomic(rng, 4, 1)
        s = dichotomy_split(a)
        for _ in range(200):
            t, u = rng.uniform(-4, 4, 2)
            if abs(t - u) < 1e-6:
                continue
            norm = np.linalg.norm(green_kernel(s, t, u), 2)
            bound = s.m_const * np.exp(-s.eps_rate * abs(t - u))
            assert norm <= bound * (1.0 + 1e-9)


class TestLyapunovPerron:
    def test_zero_forcing_zero_solution(self):
        s = dichotomy_split(np.diag([1.0, -1.0]))
        t = np.arange(-40, 40.001, 0.05)
        z = lyapunov_perron_apply(s, GridFunction(t, np.zeros((t.size, 2))))
        assert np.abs(z.values).max() == 0.0

    def test_constant_forcing_interior_fixed_point(self):
        s = dichotomy_split(np.diag([-1.0]))
        t = np.arange(-35, 35.001, 0.02)
        z = lyapunov_perron_apply(s, GridFunction(t, np.ones((t.size, 1))))
        mid = t.size // 2
        assert z.values[mid, 0] == pytest.approx(1.0, abs=1e-12)

    def test_against_quadrature_oracle(self):
        s = dichotomy_split(np.diag([-1.0]))
        t = np.arange(-32, 32.001, 0.01)
        f = GridFunction(t, np.exp(-(t**2))[:, None])
        z = lyapunov_perron_apply(s, f)
        idx = np.argmin(np.abs(t - 0.37))
        ref, _ = quad(
            lambda u: np.exp(-(t[idx] - u)) * np.exp(-(u**2)),
            -30.0,
            t[idx],
            limit=400,
            epsabs=1e-14,
            epsrel=1e-14,
        )
        assert z.values[idx, 0] == pytest.approx(ref, abs=5e-9)

    def test_l2_bound(self, rng):
        a = random_dichotomic(rng, 4, 2)
        s = dichotomy_split(a)
        t = np.arange(-50, 50.001, 0.02)
        window = np.exp(-((t / 12.0) ** 2))
        vals = window[:, None] * rng.standard_normal((1, 4))
        vals = vals * (1.0 + 0.3 * np.sin(1.3 * t)[:, None])
        f = GridFunction(t, vals)
        z = lyapunov_perron_apply(s, f)
        p = stable_projector(s)
        num = GridFunction(t, z.values @ p.T).l2_norm()
        den = GridFunction(t, f.values @ p.T).l2_norm()
        assert num <= (s.m_const / s.eps_rate) * den * (1.0 + 1e-6)

    def test_interior_ode_residual(self, rng):
        a = random_dichotomic(rng, 3, 1)
        s = dichotomy_split(a)
        h = 0.02
        t = np.arange(-45, 45 + 1e-9, h)
        vals = np.exp(-((t / 10.0) ** 2))[:, None] * rng.standard_normal((1, 3))
        f = GridFunction(t, vals)
        z = lyapunov_perron_apply(s, f)
        zd = (8 * (z.values[3:-1] - z.values[1:-3]) - (z.values[4:] - z.values[:-4])) / (
            12 * h
        )
        resid = zd - z.values[2:-2] @ a.T - f.values[2:-2]
        assert np.abs(resid).max() <= 1e-6

    def test_horizon_guard(self):
        s = dichotomy_split(np.diag([-0.2]))
        t = np.arange(-5, 5.001, 0.1)
        with pytest.raises(HorizonTooShort):
            lyapunov_perron_apply(s, GridFunction(t, np.ones((t.size, 1))))

    def test_paired_consistency(self, rng):
        a = random_dichotomic(rng, 3, 1)
        sa_ = dichotomy_split(a)
        sm = dichotomy_split(-a.T)
        sp = dichotomy_split(sla.block_diag(a, -a.T))
        t = np.arange(-45, 45.001, 0.02)
        w = np.exp(-((t / 10.0) ** 2))
        fg = w[:, None] * rng.standard_normal((1, 6))
        zp = lyapunov_perron_apply(sp, GridFunction(t, fg))
        za = lyapunov_perron_apply(sa_, GridFunction(t, fg[:, :3]))
        zm = lyapunov_perron_apply(sm, GridFunction(t, fg[:, 3:]))
        assert np.abs(zp.values - np.hstack([za.values, zm.values])).max() <= 1e-9


class TestFourierCheck:
    def test_zero_forcing(self):
        s = dichotomy_split(np.diag([-1.0]))
        t = np.arange(-30, 30.001, 0.05)
        assert fourier_resolvent_check(s, GridFunction(t, np.zeros((t.size, 1)))) == 0.0

    def test_single_tone_matches_resolvent(self):
        s = dichotomy_split(np.diag([-1.0]))
        h = 0.04
        t = np.arange(-30, 30 + 1e-9, h)
        w = np.exp(-((t / 6.0) ** 2))
        f = GridFunction(t, (w * np.cos(2.0 * t))[:, None])
        z = lyapunov_perron_apply(s, f)
        fhat = np.fft.fft(f.values, axis=0)
        zhat = np.fft.fft(z.values, axis=0)
        om = 2 * np.pi * np.fft.fftfreq(t.size, h)
        kk = np.argmax(np.abs(fhat[:, 0]))
        pred = -fhat[kk, 0] / (-1.0 - 1j * om[kk])
        # quadrature tolerance at this step: (rate * h)^4-scale
        assert abs(zhat[kk, 0] - pred) / abs(pred) <= 2e-6

    def test_refinement_order_at_least_two(self):
        s = dichotomy_split(np.diag([-1.0]))
        res = []
        for h in (0.16, 0.08, 0.04):
            t = np.arange(-30, 30 + 1e-9, h)
            w = np.exp(-((t / 6.0) ** 2))
            f = GridFunction(t, (w * np.cos(2.0 * t))[:, None])
            res.append(fourier_resolvent_check(s, f))
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        assert min(orders) >= 2.0


class TestAdjointKernel:
    def test_symmetric_generator(self, rng):
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = q @ np.diag([1.0, -1.0, -2.0, 2.0]) @ q.T
        defect = adjoint_kernel_defect(dichotomy_split(a), dichotomy_split(-a.T))
        assert defect <= 1e-12

    def test_random_nonsymmetric(self, rng):
        a = random_dichotomic(rng, 4, 2)
        defect = adjoint_kernel_defect(dichotomy_split(a), dichotomy_split(-a.T))
        assert defect <= 1e-10

    def test_stable_generator_opposite_triangles(self, rng):
        a = random_dichotomic(rng, 3, 0)
        sa_ = dichotomy_split(a)
        sm = dichotomy_split(-a.T)
        # supports: F_A lives on t > s, F_{-A^T} on t < s
        assert np.abs(green_kernel(sa_, 0.0, 1.0)).max() == 0.0
        assert np.abs(green_kernel(sm, 1.0, 0.0)).max() == 0.0
        assert adjoint_kernel_defect(sa_, sm) <= 1e-10

    def test_wrong_pairing_rejected(self, rng):
        a = random_dichotomic(rng, 3, 0)
        with pytest.raises(DimensionMismatch):
            adjoint_kernel_defect(dichotomy_split(a), dichotomy_split(a))


class TestGridFunction:
    def test_nonuniform_rejected(self):
        with pytest.raises(DimensionMismatch):
            GridFunction(np.array([0.0, 1.0, 3.0]), np.zeros((3, 1)))
