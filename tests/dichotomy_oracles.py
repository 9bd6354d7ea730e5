"""Green kernels and the grid Lyapunov-Perron operator, kept as oracles.

The library assembles the stationary collocation system straight from the
recursion data of `lqbundle.stationary._StationaryLP.recursions` (step
propagators and cubic-stencil weights) and never applies the operator
itself.  The routes here apply it, and serve as references in the tests:

- `LPGridOracle.apply`: the forward/backward recursions of the operator on
  grid samples, from the same quadrature of `lqbundle._phi` on one uniform
  step, truncated at the grid ends (the forcing is zero outside),
  which realizes both the whole-line operator on wide grids and the
  half-line R L P compression on [0, T] grids;
- `lyapunov_perron_apply`: the whole-line solve of z' = A z + f on a grid
  wide enough for its dropped tails;
- `fourier_resolvent_check`: the frequency-domain residual of that solve;
- `green_kernel` and `adjoint_kernel_defect`: the dichotomy Green kernel and
  the two-route adjoint check of the kernels of A and -A^T;
- `stable_projector`: the spectral projector onto the stable subspace;
- `left_multiply`: a matrix applied along the component axis of grid
  samples, with which these oracles and those of `lp_oracles` apply R, the
  block maps and the coordinate changes node by node.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from lqbundle._phi import (
    backward_moments,
    backward_weights,
    forward_weights,
    local_forcing,
    phi_block,
)
from lqbundle.dichotomy import DichotomySplit, GridFunction
from lqbundle.errors import DimensionMismatch, HorizonTooShort

#: truncation target for the infinite-line integral
HORIZON_FACTOR = 1e-12
#: Fourier modes below this fraction of the largest forcing mode are skipped
FOURIER_KEEP_REL = 1e-2
#: sampled (t, s) pairs of the adjoint-kernel check, and their seed
KERNEL_SAMPLES = 60
KERNEL_SEED = 0


def left_multiply(mat: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """mat @ arr along axis 1 of (m, j[, batch]) arrays, via BLAS."""
    if arr.ndim == 2:
        return arr @ mat.T
    m, j, b = arr.shape
    out = mat @ arr.transpose(1, 0, 2).reshape(j, m * b)
    return out.reshape(mat.shape[0], m, b).transpose(1, 0, 2)


class LPGridOracle:
    """Discretized Lyapunov-Perron solve z = int F(t,s) f(s) ds on a uniform
    grid, in the decoupled coordinates of `split`: forward on the stable
    block with the step propagator `e_s` and weights `wf`, backward on the
    unstable block with `e_u` and `wb`, the weights exact for the
    piecewise-cubic interpolant of the forcing (one list of four per stencil
    pattern)."""

    def __init__(self, split: DichotomySplit, times: np.ndarray):
        times = np.asarray(times, dtype=float)
        if times.size < 4:
            raise HorizonTooShort("need at least 4 grid nodes")
        self.split = split
        h = times[1] - times[0]
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
        m = values.shape[0]
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


def stable_projector(split: DichotomySplit) -> np.ndarray:
    """The spectral projector onto the stable subspace along the unstable one."""
    k = split.k_stable
    return split.w[:, :k] @ split.winv[:k]


def green_kernel(split: DichotomySplit, t: float, s: float) -> np.ndarray:
    """Dichotomy Green kernel: forward stable branch for t > s, negated
    backward unstable branch for t < s."""
    if t == s:
        raise ValueError("kernel has a jump at t == s")
    if t > s:
        return split.propagate_stable(t - s)
    return -split.propagate_unstable(t - s)


def lyapunov_perron_apply(split: DichotomySplit, f: GridFunction) -> GridFunction:
    """Unique square-integrable solution of z' = A z + f on the grid window.

    The grid must be wide enough that the dropped tails of the whole-line
    integral are below HORIZON_FACTOR relative to the kernel constant.
    """
    if f.values.shape[1] != split.n:
        raise DimensionMismatch("forcing dimension does not match the generator")
    half_width = 0.5 * (f.times[-1] - f.times[0])
    if np.exp(-split.eps_rate * half_width) >= HORIZON_FACTOR:
        need = -np.log(HORIZON_FACTOR) / split.eps_rate
        raise HorizonTooShort(
            f"grid half-width {half_width:.3g} < required {need:.3g}"
        )
    op = LPGridOracle(split, f.times)
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
