"""Reference loops of the spatial-averaging solves, and the spatial-averaging
routes that only tests take.

The library builds one mode's `_ScalarFrame` at a time, integrates it in
its one square-integrable direction, on the one rate shift its solver
needs, and drops it.  The routes here are the all-mode arrays and plain
loops those replace, with the same elementwise arithmetic, and serve as
exact references in the tests:

- `AllModeFrame`: the library's frame before it went per mode, every mode
  and column at once in one direction per mode, through a single
  recurrence over a buffer that stacks the forward modes in time order and
  the backward ones reversed;
- `ScalarFrameOracle`: every mode propagated both ways on all-mode weight,
  fold and step arrays, in two channels, unshifted (0) and shifted by the
  mode's mu_j (1), which never mix; `solve` keeps the square-integrable
  branch;
- `oracle_frames`: the v- and eta-frames of a column set;
- `two_channel_fibers` and `two_channel_operator_matrices`: the fiber
  Picard loop and the contraction's impulse responses on two-channel
  frames, as the library ran them before each solver kept only the channel
  its consumer reads (the fiber forcing fills channel 1 only, the impulses
  channel 0 only), the impulses IMPULSE_BATCH columns per solve.

A run reads the frozen Hamiltonian of the mode-wise reduced system
(`assemble_nonaut_hamiltonian`) and integrates no driven trajectory.  The
second routes of the tests live here:

- `assemble_forms`, `a_matrix` and `b_matrix`: the generic
  (A(q), B, F(q)) of the paper's formulation, on the dense band projectors;
- `spatial_avg_condition`: the spatial-averaging condition on an operator;
- `implication_sweep`: zelik => bundle and zelik => nonosc over a grid;
- `sa_trajectory` and `sa_pairing_drift`: driven trajectories by the
  exponential midpoint rule, their propagators vectorised over steps, and
  the symplectic pairing along them; `trajectory_oracle` is the same rule
  with one propagator per step.
"""

from __future__ import annotations

import numpy as np

from lqbundle._phi import (
    backward_moments,
    backward_weights,
    forward_weights,
    phi_scalar,
    stencil_layout,
)
from lqbundle.dichotomy import GridFunction
from lqbundle.errors import AValueOutOfRange
from lqbundle.frequency import QuadraticFormTriple
from lqbundle.spatial import (
    PICARD_TOL,
    _fiber_grid,
    _fibers_from,
    condition_holds,
)

#: sweep cap of the reference Picard loop
PICARD_MAX_ITER = 200
#: impulse columns per solve of `two_channel_operator_matrices`
IMPULSE_BATCH = 64
#: trajectory step relative to 1 / (the largest frozen coefficient sum)
TRAJECTORY_STEP_SCALE = 0.01
#: trajectory steps whose propagators are computed in one vectorised batch
TRAJECTORY_CHUNK = 4096



class AllModeFrame:
    """The library's frame on every mode and column at once:
    x' = (r(t) - rho) x + f with r(t) = s_j + sign * chi_j * a(t) and one
    rate shift rho_j per mode, each mode integrated in the one direction of
    its square-integrable Green branch, forward on `forward_modes`.

    Array layout: (m nodes, n modes, P columns); `steps` holds the forward
    modes in time order, then the backward ones in reversed time order, and
    `wf_fwd`, `wf_bwd` the weights times folds, (4, m-1, modes, P).
    """

    def __init__(self, times, s_base, chi, sign, rho, forward_modes, a_mean, c_int):
        self.h = h = float(times[1] - times[0])
        self.m = m = times.size
        self.fwd = np.flatnonzero(forward_modes)
        self.bwd = np.flatnonzero(~forward_modes)
        base, _ = stencil_layout(m)
        rbar = s_base[None, :, None] + sign * chi[None, :, None] * a_mean[:, None, :]
        z = (rbar - rho[None, :, None]) * h
        self.steps = np.concatenate(
            [np.exp(z[:, self.fwd]), np.exp(-z[::-1, self.bwd])], axis=1
        )
        sc = sign * chi[None, :, None]
        fold_f, fold_b = [], []
        for ell in range(4):
            nodes = base + ell
            dev_f = (c_int[1:] - c_int[nodes]) - a_mean * (
                times[1:, None] - times[nodes, None]
            )
            dev_b = (c_int[nodes] - c_int[:-1]) - a_mean * (
                times[nodes, None] - times[:-1, None]
            )
            fold_f.append(np.exp(sc[:, self.fwd] * dev_f[:, None, :]))
            fold_b.append(np.exp(-sc[:, self.bwd] * dev_b[:, None, :]))
        self.wf_fwd = self._weighted_folds(True, z[:, self.fwd], fold_f)
        self.wf_bwd = self._weighted_folds(False, z[:, self.bwd], fold_b)

    def _weighted_folds(self, forward, z, folds):
        m, h = self.m, self.h
        out = np.empty((4,) + z.shape)
        spans = ((0, slice(0, 1)), (1, slice(1, m - 2)), (2, slice(m - 2, m - 1)))
        for pattern, sl in spans:
            if forward:
                w = forward_weights(phi_scalar(4, z[sl]), h, pattern)
            else:
                w = backward_weights(
                    backward_moments(phi_scalar(4, -z[sl])), h, pattern
                )
            for ell in range(4):
                out[ell, sl] = w[ell] * folds[ell][sl]
        return out

    def _local(self, fvals, wf, out):
        m = self.m
        interior = slice(1, m - 2)
        out_int = out[interior]
        prod = np.empty(out_int.shape)
        for ell in range(4):
            np.multiply(wf[ell, interior], fvals[ell : m - 3 + ell], prod)
            out_int += prod
        for ell in range(4):
            out[0] += wf[ell, 0] * fvals[ell]
            out[m - 2] += wf[ell, m - 2] * fvals[m - 4 + ell]

    def solve(self, fvals):
        m = self.m
        nf = self.fwd.size
        loc = np.zeros((m - 1,) + fvals.shape[1:])
        self._local(fvals[:, self.fwd], self.wf_fwd, loc[:, :nf])
        back = loc[::-1, nf:]
        self._local(fvals[:, self.bwd], self.wf_bwd, back)
        np.negative(back, out=back)
        acc = np.zeros(loc.shape[1:])
        for step, row in zip(self.steps, loc):
            row += step * acc
            acc = row
        out = np.zeros_like(fvals)
        out[1:, self.fwd] = loc[:, :nf]
        out[:-1, self.bwd] = back
        return out


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
        self.w_fwd = [
            forward_weights(phi_scalar(4, z[sl]), self.h, p) for p, sl in spans
        ]
        self.w_bwd = [
            backward_weights(backward_moments(phi_scalar(4, -z[sl])), self.h, p)
            for p, sl in spans
        ]
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
            out[0] += w_first[ell][0] * fold[0, ell, :, None, :] * fvals[ell]
            out[m - 2] += (
                w_last[ell][0] * fold[m - 2, ell, :, None, :] * fvals[m - 4 + ell]
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


def oracle_frames(config, columns, times, frame=ScalarFrameOracle, rho=None):
    """(v-frame, eta-frame) all-mode frames of the columns on the grid:
    two-channel `ScalarFrameOracle` frames, or any frame class called like
    it; `AllModeFrame` takes the per-mode rate shifts rho in place of mu."""
    c_int = np.stack([drv.integral(q, times) for drv, q in columns], axis=1)
    a_mean = np.diff(c_int, axis=0) / (times[1] - times[0])
    a_diag, chi, _, _ = config.mode_coefficients
    mu = -np.abs(a_diag) if rho is None else rho
    unstable = config.unstable
    return (
        frame(times, a_diag, chi, -1.0, mu, ~unstable, a_mean, c_int),
        frame(times, -a_diag, chi, +1.0, mu, unstable, a_mean, c_int),
    )


def two_channel_fibers(config, columns, horizon=None, frame=ScalarFrameOracle):
    """`build_fibers` as a Picard loop on two-channel frames: the forcing
    fills channel 1 and the physical value is channel 0 plus e^{mu t} times
    channel 1.  The fibers' `residual` is the last update over the first."""
    columns = list(columns)
    times = _fiber_grid(config, horizon, None)
    frame_v, frame_e = oracle_frames(config, columns, times, frame)
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
    mu, unst = -np.abs(a_diag), config.unstable
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
    return _fibers_from(config, columns, dv0, de0, it + 1, delta / ref)


def two_channel_operator_matrices(config, frames, with_coupling):
    """`_mode_operator_matrices` on two-channel (v, eta) frames: impulses in
    channel 0 and the channel sum as the response."""
    frame_v, frame_e = frames
    _, _, b_coef, c_coef = config.mode_coefficients
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


# -- the generic formulation --------------------------------------------------


def b_matrix(config) -> np.ndarray:
    """Control operator B (xi_I, xi_c) -> xi_I + xi_c."""
    n = config.n
    return np.hstack([np.eye(n), np.eye(n)])


def a_matrix(config, a_value: float) -> np.ndarray:
    """A(q) = -A0 + (alpha - a(q)) I in the eigenbasis."""
    return np.diag(config.alpha - a_value - config.model.eigenvalues)


def band_projectors(config) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_low, I_mid, Q_high): the diagonal matrices of the band masks, the
    essentially-lower band lambda_j < lambda_N - k and the essentially-higher
    band lambda_j > lambda_{N+1} + k around the library's intermediate band
    `SAConfig.mid_mask`."""
    lam = config.model.eigenvalues
    low = lam < lam[config.N - 1] - config.k
    high = lam > lam[config.N] + config.k
    return tuple(np.diag(mask.astype(float)) for mask in (low, config.mid_mask, high))


def assemble_forms(config, a_value: float) -> QuadraticFormTriple:
    """F1(q), F2(q), F3 on the doubled control space, built from the band
    projectors with the fixed tau coefficients."""
    if abs(a_value) > config.a_bound + 1e-12:
        raise AValueOutOfRange(f"|a| = {abs(a_value)} exceeds a_bound {config.a_bound}")
    t1, t2, t3 = config.taus
    p_low, i_mid, q_high = band_projectors(config)
    pq = p_low + q_high
    lam2 = config.lam**2
    f1 = (t1 * a_value**2 - t1 * config.delta**2 - t2 * lam2) * i_mid - t3 * lam2 * pq
    n = config.n
    f2 = np.vstack([-t1 * a_value * i_mid, np.zeros((n, n))])
    f3 = np.zeros((2 * n, 2 * n))
    f3[:n, :n] = t1 * i_mid + t2 * pq
    f3[n:, n:] = t3 * np.eye(n)
    return QuadraticFormTriple(f1=f1, f2=f2, f3=f3)


def spatial_avg_condition(l_q, config, a_value: float) -> tuple[float, bool]:
    """Defect || I_mid L I_mid - a I_mid || and the pass flag against delta."""
    l_q = np.atleast_2d(np.asarray(l_q, dtype=float))
    _, i_mid, _ = band_projectors(config)
    defect = float(np.linalg.norm(i_mid @ l_q @ i_mid - a_value * i_mid, 2))
    return defect, bool(defect <= config.delta + 1e-12)


def implication_sweep(lams, deltas, mu_bars, ks):
    """Verify zelik => bundle and zelik => nonosc over a parameter grid.

    Returns None on a clean pass or the first counterexample tuple
    (lam, delta, mu_bar, k, failed_set).
    """
    for lam in np.asarray(lams, dtype=float):
        for delta in np.asarray(deltas, dtype=float):
            for mu_bar in np.asarray(mu_bars, dtype=float):
                ks_arr = np.asarray(ks, dtype=float)
                zel = np.array(
                    [condition_holds("zelik", lam, delta, mu_bar, k) for k in ks_arr]
                )
                for target in ("bundle", "nonosc"):
                    tgt = np.array(
                        [
                            condition_holds(target, lam, delta, mu_bar, k)
                            for k in ks_arr
                        ]
                    )
                    bad = zel & ~tgt
                    if np.any(bad):
                        k_bad = float(ks_arr[np.argmax(bad)])
                        return (float(lam), float(delta), float(mu_bar), k_bad, target)
    return None


# -- driven trajectories --------------------------------------------------------


def _expm2x2_traceless(p, q_, r) -> np.ndarray:
    """Batched expm of traceless [[p, q], [r, -p]] blocks (closed form)."""
    d = np.sqrt(np.asarray(p, dtype=complex) ** 2 + q_ * r)
    small = np.abs(d) < 1e-8
    d_safe = np.where(small, 1.0, d)
    sinc = np.where(small, 1.0 + d**2 / 6.0, np.sinh(d_safe) / d_safe)
    cosh = np.cosh(d)
    out = np.empty(np.broadcast(p, q_, r).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cosh + sinc * p
    out[..., 0, 1] = sinc * q_
    out[..., 1, 0] = sinc * r
    out[..., 1, 1] = cosh - sinc * p
    return out.real


def sa_trajectory(config, driver, q, z0: np.ndarray, horizon: float):
    """Integrate z' = H(theta^t q) z with the exponential midpoint rule.

    Every step propagator is the exponential of a Hamiltonian block, so the
    mode-wise symplectic pairings are preserved exactly.  The propagators
    are computed TRAJECTORY_CHUNK steps at a time, vectorised over steps;
    the state then advances step by step on their contiguous rows.
    """
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
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
    pairs = z.reshape(m, 2, n)  # rows (v, eta)
    a_mid = driver.values(q, times[:-1] + 0.5 * h)
    for lo in range(0, m - 1, TRAJECTORY_CHUNK):
        top = (a_diag - a_mid[lo : lo + TRAJECTORY_CHUNK, None] * chi) * h
        props = _expm2x2_traceless(top, b_coef * h, c_coef * h)
        # (p00, p11) multiply (v, eta) and (p01, p10) multiply (eta, v)
        diag = np.stack([props[..., 0, 0], props[..., 1, 1]], axis=1)
        cross = np.stack([props[..., 0, 1], props[..., 1, 0]], axis=1)
        for cur, nxt, d_row, c_row in zip(pairs[lo:], pairs[lo + 1 :], diag, cross):
            np.multiply(d_row, cur, nxt)
            nxt += c_row * cur[::-1]
    return GridFunction(times=times, values=z)


def sa_pairing_drift(config, driver, q, z10, z20, horizon: float):
    """(max drift of <z1(t), J z2(t)>, initial pairing) along the driven flow."""
    t1 = sa_trajectory(config, driver, q, z10, horizon)
    t2 = sa_trajectory(config, driver, q, z20, horizon)
    n = config.n
    pair = np.sum(
        t1.values[:, :n] * t2.values[:, n:] - t1.values[:, n:] * t2.values[:, :n],
        axis=1,
    )
    # <z1, J z2> = <v1, v2-part of J z2> ... = sum(eta1 v2 - v1 eta2)
    pair = -pair
    return float(np.max(np.abs(pair - pair[0]))), float(pair[0])


def trajectory_oracle(config, driver, q, z0, horizon):
    """`sa_trajectory` with one closed-form propagator per step."""
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
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
