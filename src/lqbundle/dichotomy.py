"""Exponential dichotomies, Green kernels and Lyapunov-Perron solves.

A dichotomy split block-diagonalizes the generator by an ordered real Schur
decomposition plus a Sylvester correction; the Lyapunov-Perron operator is
applied on uniform grids by a recursion in the decoupled coordinates, whose
local forcing is the piecewise-cubic exponential quadrature of `_phi`, so the
exponential kernels are integrated exactly against the interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ._phi import (
    backward_moments,
    backward_weights,
    forward_weights,
    local_forcing,
    phi_block,
)
from .errors import (
    DiagonalOfKernel,
    DimensionMismatch,
    HorizonTooShort,
    SpectrumOnAxis,
)
from .symplectic import Subspace

AXIS_TOL = 1e-10
#: truncation target for the infinite-line integral
HORIZON_FACTOR = 1e-12
#: sampled times of the fitted dichotomy constant M
M_CONST_SAMPLES = 80
#: Fourier modes below this fraction of the largest forcing mode are skipped
FOURIER_KEEP_REL = 1e-2
#: sampled (t, s) pairs of the adjoint-kernel check, and their seed
KERNEL_SAMPLES = 60
KERNEL_SEED = 0


@dataclass(frozen=True)
class GridFunction:
    """Vector-valued samples on a uniform, strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).ravel()
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != t.size:
            raise DimensionMismatch("one value row per grid node required")
        dt = np.diff(t)
        if t.size < 2 or np.any(dt <= 0):
            raise DimensionMismatch("grid must be strictly increasing")
        h = dt[0]
        if np.max(np.abs(dt - h)) > 1e-9 * max(h, 1.0):
            raise DimensionMismatch("grid must be uniform")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def l2_norm(self) -> float:
        """Trapezoid L2(time) norm of the vector-valued samples."""
        w = np.full(self.times.size, self.step)
        w[0] = w[-1] = 0.5 * self.step
        return float(np.sqrt(np.sum(w * np.sum(self.values**2, axis=1))))


@dataclass(frozen=True)
class DichotomySplit:
    """Stable/unstable invariant decomposition of a matrix generator."""

    generator: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    stable_basis: Subspace | None
    unstable_basis: Subspace | None
    rank_j: int
    m_const: float
    eps_rate: float
    # block-diagonalizing similarity: generator = W diag(T_s, T_u) W^{-1}
    w: np.ndarray = field(repr=False)
    winv: np.ndarray = field(repr=False)
    t_stable: np.ndarray = field(repr=False)
    t_unstable: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.generator.shape[0]

    @property
    def k_stable(self) -> int:
        return self.n - self.rank_j

    def projector_stable(self) -> np.ndarray:
        k = self.k_stable
        return self.w[:, :k] @ self.winv[:k]

    def projector_unstable(self) -> np.ndarray:
        k = self.k_stable
        return self.w[:, k:] @ self.winv[k:]

    def propagate_stable(self, t: float) -> np.ndarray:
        """exp(t A) Pi_stable for t >= 0 (decaying branch)."""
        k = self.k_stable
        if k == 0:
            return np.zeros_like(self.generator)
        return self.w[:, :k] @ sla.expm(t * self.t_stable) @ self.winv[:k]

    def propagate_unstable(self, t: float) -> np.ndarray:
        """exp(t A) Pi_unstable for t <= 0 (decaying backward branch)."""
        if self.rank_j == 0:
            return np.zeros_like(self.generator)
        k = self.k_stable
        return self.w[:, k:] @ sla.expm(t * self.t_unstable) @ self.winv[k:]


def dichotomy_split(a) -> DichotomySplit:
    """Split a matrix generator along its stable/unstable spectrum.

    Ordered real Schur form puts the stable block first; a Sylvester solve
    decouples the blocks so both semigroup branches are computed with purely
    decaying exponentials.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    eigs = np.linalg.eigvals(a)
    eps_rate = float(np.min(np.abs(eigs.real)))
    if eps_rate <= AXIS_TOL:
        raise SpectrumOnAxis(
            f"eigenvalue with |Re| = {eps_rate:.3e} <= {AXIS_TOL:.1e}"
        )
    t, u, k = sla.schur(a, output="real", sort="lhp")
    j = n - k
    if 0 < k < n:
        x = sla.solve_sylvester(t[:k, :k], -t[k:, k:], -t[:k, k:])
        corr = np.eye(n)
        corr[:k, k:] = x
        corr_inv = np.eye(n)
        corr_inv[:k, k:] = -x
        w = u @ corr
        winv = corr_inv @ u.T
    else:
        w = u
        winv = u.T
    t_s = t[:k, :k]
    t_u = t[k:, k:]
    stable = Subspace(w[:, :k]) if k else None
    unstable = Subspace(w[:, k:]) if j else None
    split = DichotomySplit(
        generator=a,
        eigenvalues=eigs,
        stable_basis=stable,
        unstable_basis=unstable,
        rank_j=j,
        m_const=1.0,
        eps_rate=eps_rate,
        w=w,
        winv=winv,
        t_stable=t_s,
        t_unstable=t_u,
    )
    m_const = _fit_m_const(split)
    object.__setattr__(split, "m_const", m_const)
    return split


def _fit_m_const(split: DichotomySplit) -> float:
    """Sampled sup of the normalized semigroup norms (lower estimate of M)."""
    ts = np.concatenate(
        [[0.0],
         np.geomspace(1e-3 / split.eps_rate, 10.0 / split.eps_rate, M_CONST_SAMPLES)]
    )
    m = 1.0
    for t in ts:
        grow = np.exp(split.eps_rate * t)
        if split.k_stable:
            m = max(m, np.linalg.norm(split.propagate_stable(t), 2) * grow)
        if split.rank_j:
            m = max(m, np.linalg.norm(split.propagate_unstable(-t), 2) * grow)
    return float(m)


def green_kernel(split: DichotomySplit, t: float, s: float) -> np.ndarray:
    """Dichotomy Green kernel: forward stable branch for t > s, negated
    backward unstable branch for t < s."""
    if t == s:
        raise DiagonalOfKernel("kernel has a jump at t == s")
    if t > s:
        return split.propagate_stable(t - s)
    return -split.propagate_unstable(t - s)


def left_multiply(mat: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """mat @ arr along axis 1 of (m, j[, batch]) arrays, via BLAS."""
    if arr.ndim == 2:
        return arr @ mat.T
    m, j, b = arr.shape
    out = mat @ arr.transpose(1, 0, 2).reshape(j, m * b)
    return out.reshape(mat.shape[0], m, b).transpose(1, 0, 2)


class LPGridOperator:
    """Discretized Lyapunov-Perron solve z = int F(t,s) f(s) ds on a grid.

    Forward/backward recursions in the decoupled Schur coordinates with
    exponential weights exact for the piecewise-cubic interpolant of f.
    The integral is truncated at the grid ends (f is treated as zero
    outside), which realizes both the whole-line operator on wide grids and
    the half-line R L P compression on [0, T] grids.
    """

    def __init__(self, split: DichotomySplit, times: np.ndarray):
        times = np.asarray(times, dtype=float)
        if times.size < 4:
            raise HorizonTooShort("need at least 4 grid nodes")
        self.split = split
        self.times = times
        self.h = h = float(times[1] - times[0])
        if split.k_stable:
            self.e_s = sla.expm(h * split.t_stable)
            ph = phi_block(4, h * split.t_stable)
            self.wf = [forward_weights(ph, h, p) for p in range(3)]
        if split.rank_j:
            self.e_u = sla.expm(-h * split.t_unstable)
            jm = backward_moments(phi_block(4, -h * split.t_unstable))
            self.wb = [backward_weights(jm, h, p) for p in range(3)]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply to samples of f; values shaped (m, n) or (m, n, batch)."""
        squeeze = values.ndim == 2
        if squeeze:
            values = values[:, :, None]
        m = self.times.size
        split = self.split
        k = split.k_stable
        out = np.zeros_like(values)
        if k:
            ys = left_multiply(split.winv[:k], values)
            g = local_forcing(self.wf, ys)
            u = np.zeros_like(ys)
            for i in range(m - 1):
                u[i + 1] = self.e_s @ u[i] + g[i]
            out += left_multiply(split.w[:, :k], u)
        if split.rank_j:
            yu = left_multiply(split.winv[k:], values)
            g = local_forcing(self.wb, yu)
            w = np.zeros_like(yu)
            for i in range(m - 2, -1, -1):
                w[i] = self.e_u @ w[i + 1] + g[i]
            out -= left_multiply(split.w[:, k:], w)
        return out[:, :, 0] if squeeze else out


def lyapunov_perron_apply(split: DichotomySplit, f: GridFunction) -> GridFunction:
    """Unique square-integrable solution of z' = A z + f on the grid window.

    The grid must be wide enough that the dropped tails of the whole-line
    integral are below HORIZON_FACTOR relative to the kernel constant.
    """
    if f.dim != split.n:
        raise DimensionMismatch("forcing dimension does not match the generator")
    half_width = 0.5 * (f.times[-1] - f.times[0])
    if np.exp(-split.eps_rate * half_width) >= HORIZON_FACTOR:
        need = -np.log(HORIZON_FACTOR) / split.eps_rate
        raise HorizonTooShort(
            f"grid half-width {half_width:.3g} < required {need:.3g}"
        )
    op = LPGridOperator(split, f.times)
    return GridFunction(times=f.times, values=op.apply(f.values))


def fourier_resolvent_check(split: DichotomySplit, f: GridFunction) -> float:
    """Max relative defect of i w z^(w) = A z^(w) + f^(w) over retained modes.

    z is the Lyapunov-Perron solve of f; both transforms are taken with the
    same discrete convention so the residual measures quadrature error only.
    """
    z = lyapunov_perron_apply(split, f)
    fhat = np.fft.fft(f.values, axis=0)
    zhat = np.fft.fft(z.values, axis=0)
    omega = 2.0 * np.pi * np.fft.fftfreq(f.times.size, f.step)
    fnorm = np.linalg.norm(fhat, axis=1)
    if fnorm.max() == 0.0:
        return 0.0
    keep = fnorm >= FOURIER_KEEP_REL * fnorm.max()
    resid = (
        1j * omega[keep, None] * zhat[keep]
        - zhat[keep] @ split.generator.T
        - fhat[keep]
    )
    return float(np.max(np.linalg.norm(resid, axis=1) / fnorm[keep]))


def adjoint_kernel_defect(
    split_a: DichotomySplit, split_minus_at: DichotomySplit
) -> float:
    """Max over sampled (t, s) of || F_{-A^T}(t, s) + F_A(s, t)^T ||.

    The kernels of the paired forward/backward problems are adjoint up to
    sign; both splits are computed independently, so this is a two-route
    consistency check.
    """
    if not np.allclose(split_minus_at.generator, -split_a.generator.T):
        raise DimensionMismatch("second split must be built from -A^T")
    rng = np.random.default_rng(KERNEL_SEED)
    scale = 1.0 / min(split_a.eps_rate, split_minus_at.eps_rate)
    defect = 0.0
    for _ in range(KERNEL_SAMPLES):
        t, s = rng.uniform(-3.0 * scale, 3.0 * scale, size=2)
        if abs(t - s) < 1e-3 * scale:
            s = t + np.sign(s - t or 1.0) * 1e-2 * scale
        lhs = green_kernel(split_minus_at, t, s)
        rhs = green_kernel(split_a, s, t).T
        defect = max(defect, float(np.linalg.norm(lhs + rhs, 2)))
    return defect

