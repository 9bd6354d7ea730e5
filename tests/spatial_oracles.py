"""Reference loops of the spatial-averaging solves.

The library integrates each mode of a `_ScalarFrame` in its one
square-integrable direction, through a single recurrence over a stacked
buffer, on the one rate shift its solver needs; and it computes the
propagators of `sa_trajectory` vectorised over steps.  The routes here are
the plain loops those replace, with the same elementwise arithmetic, and
serve as exact references in the tests:

- `ScalarFrameOracle`: every mode propagated both ways on all-mode weight,
  fold and step arrays, in two channels, unshifted (0) and shifted by the
  mode's mu_j (1), which never mix; `solve` keeps the square-integrable
  branch;
- `oracle_frames`: the v- and eta-frames of a column set;
- `two_channel_fibers` and `two_channel_operator_matrices`: the fiber
  Picard loop and the contraction's impulse responses on two-channel
  frames, as the library ran them before each solver kept only the channel
  its consumer reads (the fiber forcing fills channel 1 only, the impulses
  channel 0 only);
- `trajectory_oracle`: the exponential midpoint rule, one propagator per
  step.
"""

from __future__ import annotations

import numpy as np

from lqbundle._phi import (
    backward_weights_scalar,
    forward_weights_scalar,
    stencil_layout,
)
from lqbundle.dichotomy import GridFunction
from lqbundle.spatial import (
    IMPULSE_BATCH,
    PICARD_MAX_ITER,
    PICARD_TOL,
    TRAJECTORY_STEP_SCALE,
    _expm2x2_traceless,
    _fiber_grid,
    _fibers_from,
    mode_coefficients,
)


class ScalarFrameOracle:
    """x' = (r(t) - rho_c) x + f on all modes in both directions, in two
    channels c with rho = (0, mu) (see `_ScalarFrame`).

    Array layout: (m nodes, n modes, 2 channels, P columns).
    """

    def __init__(self, times, s_base, chi, sign, mu, forward_modes, a_mean, c_int):
        self.h = float(times[1] - times[0])
        self.m = m = times.size
        n = s_base.size
        p_count = a_mean.shape[1]
        self.forward_modes = forward_modes
        base, _ = stencil_layout(m)
        rbar = (
            s_base[None, :, None, None]
            + sign * chi[None, :, None, None] * a_mean[:, None, None, :]
        )
        rho = np.zeros((1, n, 2, 1))
        rho[0, :, 1, 0] = mu
        z = (rbar - rho) * self.h
        self.step_fwd = np.exp(z)
        self.step_bwd = np.exp(-z)
        spans = ((0, slice(0, 1)), (1, slice(1, m - 2)), (2, slice(m - 2, m - 1)))
        self.w_fwd = [forward_weights_scalar(z[sl], self.h, p) for p, sl in spans]
        self.w_bwd = [backward_weights_scalar(z[sl], self.h, p) for p, sl in spans]
        self.fold_fwd = np.ones((m - 1, 4, n, p_count))
        self.fold_bwd = np.ones((m - 1, 4, n, p_count))
        sc = sign * chi[None, :, None]
        for ell in range(4):
            nodes = base + ell
            dev_f = (c_int[1:] - c_int[nodes]) - a_mean * (
                times[1:, None] - times[nodes, None]
            )
            dev_b = (c_int[nodes] - c_int[:-1]) - a_mean * (
                times[nodes, None] - times[:-1, None]
            )
            self.fold_fwd[:, ell] = np.exp(sc * dev_f[:, None, :])
            self.fold_bwd[:, ell] = np.exp(-sc * dev_b[:, None, :])
        # interior weights times folds, the same on every solve
        self.wf_interior = {
            forward: [w[1][ell] * fold[1 : m - 2, ell, :, None, :] for ell in range(4)]
            for forward, w, fold in (
                (True, self.w_fwd, self.fold_fwd), (False, self.w_bwd, self.fold_bwd)
            )
        }

    def _local(self, fvals, forward):
        m = self.m
        w_first, _, w_last = self.w_fwd if forward else self.w_bwd
        fold = self.fold_fwd if forward else self.fold_bwd
        out = np.zeros((m - 1,) + fvals.shape[1:])
        for ell, w_int in enumerate(self.wf_interior[forward]):
            out[1 : m - 2] += w_int * fvals[ell : m - 3 + ell]
        for ell in range(4):
            out[0] += w_first[ell, 0] * fold[0, ell, :, None, :] * fvals[ell]
            out[m - 2] += (
                w_last[ell, 0] * fold[m - 2, ell, :, None, :] * fvals[m - 4 + ell]
            )
        return out

    def solve(self, fvals):
        m = self.m
        out = np.zeros_like(fvals)
        fsel = self.forward_modes
        bsel = ~fsel
        if np.any(fsel):
            loc = self._local(fvals, forward=True)[:, fsel]
            step = self.step_fwd[:, fsel]
            vals = np.zeros((m,) + loc.shape[1:])
            for i in range(m - 1):
                vals[i + 1] = step[i] * vals[i] + loc[i]
            out[:, fsel] = vals
        if np.any(bsel):
            loc = self._local(fvals, forward=False)[:, bsel]
            step = self.step_bwd[:, bsel]
            vals = np.zeros((m,) + loc.shape[1:])
            for i in range(m - 2, -1, -1):
                vals[i] = step[i] * vals[i + 1] - loc[i]
            out[:, bsel] = vals
        return out


def oracle_frames(config, columns, times, frame=ScalarFrameOracle):
    """(v-frame, eta-frame) two-channel frames of the columns on the grid;
    `frame` is the frame class, called like `ScalarFrameOracle`."""
    c_int = np.stack([drv.integral(q, times) for drv, q in columns], axis=1)
    a_mean = np.diff(c_int, axis=0) / (times[1] - times[0])
    a_diag, chi, _, _ = mode_coefficients(config)
    mu, unstable = -np.abs(a_diag), a_diag > 0
    return (
        frame(times, a_diag, chi, -1.0, mu, ~unstable, a_mean, c_int),
        frame(times, -a_diag, chi, +1.0, mu, unstable, a_mean, c_int),
    )


def two_channel_fibers(config, columns, horizon=None, frame=ScalarFrameOracle):
    """`build_fibers` as a Picard loop on two-channel frames: the forcing
    fills channel 1 and the physical value is channel 0 plus e^{mu t} times
    channel 1."""
    columns = list(columns)
    times = _fiber_grid(config, horizon, None)
    frame_v, frame_e = oracle_frames(config, columns, times, frame)
    a_diag, chi, b_coef, c_coef = mode_coefficients(config)
    mu, unst = -np.abs(a_diag), a_diag > 0
    a_t = np.stack([drv.values(q, times) for drv, q in columns], axis=1)[:, None, :]
    g_v = np.zeros((times.size, a_diag.size, 2, len(columns)))
    g_e = np.zeros_like(g_v)
    g_v[:, unst, 1, :] = b_coef[unst][None, :, None]
    g_e[:, unst, 1, :] = (chi[unst][None, :, None]) * a_t
    g_v[:, ~unst, 1, :] = -(chi[~unst][None, :, None]) * a_t
    g_e[:, ~unst, 1, :] = c_coef[~unst][None, :, None]
    bcf = b_coef[None, :, None, None]
    ccf = c_coef[None, :, None, None]
    decay = np.exp(mu[None, :] * times[:, None])
    l2w = np.full(times.size, times[1] - times[0])
    l2w[0] = l2w[-1] = 0.5 * (times[1] - times[0])
    d_eta = np.zeros_like(g_e)
    ref = None
    for it in range(PICARD_MAX_ITER):
        dv = frame_v.solve(bcf * d_eta + g_v)
        new = frame_e.solve(ccf * dv + g_e)
        diff = new - d_eta
        vals = diff[:, :, 0] + decay[:, :, None] * diff[:, :, 1]
        delta = float(np.sqrt(np.max(np.sum(l2w[:, None, None] * vals**2, axis=(0, 1)))))
        d_eta = new
        if ref is None:
            ref = max(delta, 1e-300)
        if delta <= PICARD_TOL * ref:
            break
    else:
        raise AssertionError("the reference Picard loop did not converge")
    dv = frame_v.solve(bcf * d_eta + g_v)
    dv0 = dv[0, :, 0, :] + dv[0, :, 1, :]
    de0 = d_eta[0, :, 0, :] + d_eta[0, :, 1, :]
    return _fibers_from(config, columns, dv0, de0, it + 1)


def two_channel_operator_matrices(config, frames, with_coupling):
    """`_mode_operator_matrices` on two-channel (v, eta) frames: impulses in
    channel 0 and the channel sum as the response."""
    frame_v, frame_e = frames
    _, _, b_coef, c_coef = mode_coefficients(config)
    m, n = frame_v.m, b_coef.size
    out = np.zeros((n, m, m))
    for lo in range(0, m, IMPULSE_BATCH):
        hi = min(lo + IMPULSE_BATCH, m)
        f = np.zeros((m, n, 2, hi - lo))
        for col in range(lo, hi):
            f[col, :, 0, col - lo] = 1.0
        if with_coupling:
            dv = frame_v.solve(b_coef[None, :, None, None] * f)
            resp = frame_e.solve(c_coef[None, :, None, None] * dv)
        else:
            resp = frame_v.solve(f)
        out[:, :, lo:hi] = np.transpose(resp[:, :, 0] + resp[:, :, 1], (1, 0, 2))
    return out


def trajectory_oracle(config, driver, q, z0, horizon):
    """`sa_trajectory` with one closed-form propagator per step."""
    a_diag, chi, b_coef, c_coef = mode_coefficients(config)
    h_norm = float(
        np.max(np.abs(a_diag) + config.a_bound * chi + np.abs(b_coef) + np.abs(c_coef))
    )
    step = TRAJECTORY_STEP_SCALE / h_norm
    m = int(np.ceil(horizon / step)) + 1
    times = np.linspace(0.0, horizon, m)
    h = times[1] - times[0]
    n = config.n
    z = np.empty((m, 2 * n))
    z[0] = np.asarray(z0, dtype=float)
    a_mid = driver.values(q, times[:-1] + 0.5 * h)
    for i in range(m - 1):
        top = (a_diag - a_mid[i] * chi) * h
        props = _expm2x2_traceless(top, b_coef * h, c_coef * h)
        v, e = z[i, :n], z[i, n:]
        z[i + 1, :n] = props[:, 0, 0] * v + props[:, 0, 1] * e
        z[i + 1, n:] = props[:, 1, 0] * v + props[:, 1, 1] * e
    return GridFunction(times=times, values=z)
