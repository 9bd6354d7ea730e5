"""Reference loops of the spatial-averaging solves.

The library integrates each mode of a `_ScalarFrame` in its one
square-integrable direction, through a single recurrence over a stacked
buffer, and computes the propagators of `sa_trajectory` vectorised over
steps.  The routes here are the plain loops those replace, with the same
elementwise arithmetic, and serve as exact references in the tests:

- `ScalarFrameOracle`: every mode propagated both ways on all-mode weight,
  fold and step arrays; `solve` keeps the square-integrable branch;
- `oracle_frames`: the v- and eta-frames of a `_ScalarChannelSolver`, built
  as oracles from its columns;
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
    TRAJECTORY_STEP_SCALE,
    _expm2x2_traceless,
    mode_coefficients,
)


class ScalarFrameOracle:
    """x' = r(t) x + f on all modes in both directions (see `_ScalarFrame`)."""

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

    def _local(self, fvals, forward):
        m = self.m
        w_first, w_interior, w_last = self.w_fwd if forward else self.w_bwd
        fold = self.fold_fwd if forward else self.fold_bwd
        out = np.zeros((m - 1,) + fvals.shape[1:])
        interior = slice(1, m - 2)
        for ell in range(4):
            w_int = w_interior[ell] * fold[interior, ell, :, None, :]
            out[interior] += w_int * fvals[ell : m - 3 + ell]
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
            loc = self._local(fvals, forward=True)
            acc = np.zeros_like(fvals[0, fsel])
            for i in range(m - 1):
                acc = self.step_fwd[i, fsel] * acc + loc[i, fsel]
                out[i + 1, fsel] = acc
        if np.any(bsel):
            loc = self._local(fvals, forward=False)
            acc = np.zeros_like(fvals[0, bsel])
            for i in range(m - 2, -1, -1):
                acc = self.step_bwd[i, bsel] * acc - loc[i, bsel]
                out[i, bsel] = acc
        return out


def oracle_frames(solver):
    """(v-frame, eta-frame) oracles on the grid and columns of `solver`."""
    times = solver.times
    c_int = np.stack([drv.integral(q, times) for drv, q in solver.columns], axis=1)
    a_mean = np.diff(c_int, axis=0) / (times[1] - times[0])
    a_diag, chi, mu, unstable = solver.a_diag, solver.chi, solver.mu, solver.unstable
    return (
        ScalarFrameOracle(times, a_diag, chi, -1.0, mu, ~unstable, a_mean, c_int),
        ScalarFrameOracle(times, -a_diag, chi, +1.0, mu, unstable, a_mean, c_int),
    )


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
