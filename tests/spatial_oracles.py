"""Reference loops of the spatial-averaging solves, and the spatial-averaging
routes that only tests take.

The library builds one mode's `_ScalarFrame` at a time for the
contraction's impulse responses, at the one constant rate of the driver
a = a_b, integrates it in its one square-integrable direction and drops
it.  The routes here are the driven, all-mode loops that it replaces, and
serve as references in the tests:

- `driver_integral`: the closed-form integral of a driver's a(t) from a
  phase, which the frames here fold into their forcing;
- `ScalarFrameOracle`: x' = r(t) x + f on every mode and column, each
  mode propagated in its square-integrable direction only, with step
  factors from the interval means of r(t) and the variation of a(t) within
  an interval folded into the integrand samples, in two channels,
  unshifted (0) and shifted by the mode's mu_j (1), which never mix;
- `oracle_frames`: the v- and eta-frames of a column set;
- `two_channel_fibers` and `two_channel_operator_matrices`: the fiber
  contraction's Picard loop and the contraction's impulse responses on
  two-channel frames (the fiber forcing fills channel 1 only, the impulses
  channel 0 only), the impulses IMPULSE_BATCH columns per solve; the
  Picard loop is an independent discretisation of the fibers that the
  library reads off a backward sweep of the mode flows, and `fibers_from`
  turns its values at t = 0 into fibers;
- `per_step_sweep`: the library's backward sweep with the Magnus
  coefficients computed step by step, which the chunked sweep equals bit
  for bit.

A run reads the frozen-driver oracle off the 2 x 2 block of each mode
plane (`spatial.frozen_oracle_gap`) and integrates no driven trajectory.
The second routes of the tests live here:

- `assemble_nonaut_hamiltonian` and `fiber_subspace`: the dense 2n x 2n
  frozen Hamiltonian of the mode-wise reduced system and the dense 2n x n
  basis of a fiber's unit lines, for the dense routines of `stationary`
  and `symplectic` (the ordered Schur form, the projector gap);
- `gap_search_loop`: the gap search as a loop over (N, k);
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
from lp_oracles import stencil_layout

from lqbundle._phi import (
    backward_moments,
    backward_weights,
    forward_weights,
    phi_scalar,
)
from lqbundle.dichotomy import GridFunction
from lqbundle.errors import AValueOutOfRange, NoCandidate
from lqbundle.frequency import QuadraticFormTriple
from lqbundle.spatial import (
    GAP_K_MAX,
    GAUSS_OFFSET,
    FiberResult,
    _fiber_grid,
    condition_holds,
    condition_margins,
    constant_driver,
)
from lqbundle.stationary import Hamiltonian
from lqbundle.symplectic import LagrangeSubspace

#: sweep cap of the reference Picard loop
PICARD_MAX_ITER = 200
#: the reference Picard loop stops once an update is this fraction of its first
PICARD_STOP_TOL = 1e-10
#: impulse columns per solve of `two_channel_operator_matrices`
IMPULSE_BATCH = 64
#: trajectory step relative to 1 / (the largest frozen coefficient sum)
TRAJECTORY_STEP_SCALE = 0.01
#: trajectory steps whose propagators are computed in one vectorised batch
TRAJECTORY_CHUNK = 4096


def driver_integral(driver, q, times) -> np.ndarray:
    """int_0^t a(q + omega s) ds of a `Driver`, closed form."""
    ph = driver._phases(q)
    tt = np.asarray(times, dtype=float)[:, None]
    nz = np.abs(driver.omegas) > 0
    osc = np.zeros(tt.shape[0])
    if np.any(nz):
        osc += np.sum(
            -driver.amplitudes[nz]
            / driver.omegas[nz]
            * (np.cos(driver.omegas[nz] * tt + ph[nz]) - np.cos(ph[nz])),
            axis=1,
        )
    if np.any(~nz):
        osc += np.sum(driver.amplitudes[~nz] * np.sin(ph[~nz]) * tt, axis=1)
    return driver.c0 * np.asarray(times, dtype=float) + osc


class ScalarFrameOracle:
    """x' = (r(t) - rho_c) x + f on all modes, each in its square-integrable
    direction (`forward_modes` forward, the others backward), in two
    channels c with rho = (0, mu), where r(t) = s_j + sign * chi_j * a(t).
    Step factors use the exact interval means of r; the variation of a(t)
    within an interval is folded into the integrand samples, so only the
    fold-corrected data is polynomial-interpolated.

    Array layout: (m nodes, n modes, 2 channels, P columns); each direction
    keeps its step factors, weights and folds on its own modes only.
    """

    def __init__(self, times, s_base, chi, sign, mu, forward_modes, a_mean, c_int):
        self.h = float(times[1] - times[0])
        self.m = m = times.size
        base, _ = stencil_layout(m)
        spans = ((0, slice(0, 1)), (1, slice(1, m - 2)), (2, slice(m - 2, m - 1)))
        #: forward -> (modes, step factors, [first, interior, last] weights
        #: times folds, each (intervals, modes, 2, P) per stencil node)
        self.directions = {}
        for forward, modes in ((True, forward_modes), (False, ~forward_modes)):
            if not np.any(modes):
                continue
            rbar = (
                s_base[None, modes, None, None]
                + sign * chi[None, modes, None, None] * a_mean[:, None, None, :]
            )
            rho = np.zeros((1, int(modes.sum()), 2, 1))
            rho[0, :, 1, 0] = mu[modes]
            z = (rbar - rho) * self.h
            if forward:
                step = np.exp(z)
                weights = [forward_weights(phi_scalar(4, z[sl]), self.h, p)
                           for p, sl in spans]
            else:
                step = np.exp(-z)
                weights = [
                    backward_weights(backward_moments(phi_scalar(4, -z[sl])), self.h, p)
                    for p, sl in spans
                ]
            sc = sign * chi[None, modes, None]
            folded = [[], [], []]
            for ell in range(4):
                nodes = base + ell
                if forward:
                    dev = (c_int[1:] - c_int[nodes]) - a_mean * (
                        times[1:, None] - times[nodes, None]
                    )
                    fold = np.exp(sc * dev[:, None, :])
                else:
                    dev = (c_int[nodes] - c_int[:-1]) - a_mean * (
                        times[nodes, None] - times[:-1, None]
                    )
                    fold = np.exp(-sc * dev[:, None, :])
                for pattern, (_, sl) in enumerate(spans):
                    folded[pattern].append(weights[pattern][ell] * fold[sl, :, None, :])
            self.directions[forward] = (modes, step, folded)

    def _local(self, fvals, forward):
        """The per-interval local integrals of the direction's modes."""
        m = self.m
        modes, _, (first, interior, last) = self.directions[forward]
        fvals = fvals[:, modes]
        out = np.zeros((m - 1,) + fvals.shape[1:])
        for ell, w_int in enumerate(interior):
            out[1 : m - 2] += w_int * fvals[ell : m - 3 + ell]
        for ell in range(4):
            out[0] += first[ell][0] * fvals[ell]
            out[m - 2] += last[ell][0] * fvals[m - 4 + ell]
        return out

    def solve(self, fvals):
        m = self.m
        out = np.zeros_like(fvals)
        for forward, (modes, step, _) in self.directions.items():
            loc = self._local(fvals, forward)
            vals = np.zeros((m,) + loc.shape[1:])
            if forward:
                for i in range(m - 1):
                    vals[i + 1] = step[i] * vals[i] + loc[i]
            else:
                for i in range(m - 2, -1, -1):
                    vals[i] = step[i] * vals[i + 1] - loc[i]
            out[:, modes] = vals
        return out


def oracle_frames(config, columns, times):
    """(v-frame, eta-frame) two-channel `ScalarFrameOracle` frames of the
    columns on the grid."""
    c_int = np.stack([driver_integral(drv, q, times) for drv, q in columns], axis=1)
    a_mean = np.diff(c_int, axis=0) / (times[1] - times[0])
    a_diag, chi, _, _ = config.mode_coefficients
    mu, unstable = -np.abs(a_diag), config.unstable
    return (
        ScalarFrameOracle(times, a_diag, chi, -1.0, mu, ~unstable, a_mean, c_int),
        ScalarFrameOracle(times, -a_diag, chi, +1.0, mu, unstable, a_mean, c_int),
    )


def two_channel_fibers(config, columns):
    """The fibers of the columns as the fixed point of the fiber contraction,
    by a Picard loop on two-channel frames: the forcing fills channel 1 and
    the physical value is channel 0 plus e^{mu t} times channel 1.  The
    fibers' `residual` is the last update over the first."""
    columns = list(columns)
    times = _fiber_grid(config, None)
    frame_v, frame_e = oracle_frames(config, columns, times)
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
        if delta <= PICARD_STOP_TOL * ref:
            break
    else:
        raise AssertionError("the reference Picard loop did not converge")
    dv = frame_v.solve(bcf * d_eta + g_v)
    dv0 = dv[0, :, 0, :] + dv[0, :, 1, :]
    de0 = d_eta[0, :, 0, :] + d_eta[0, :, 1, :]
    return fibers_from(config, columns, dv0, de0, it + 1, delta / ref)


def per_step_sweep(config, columns, times):
    """`_sweep` with the Magnus coefficients computed step by step: its
    reference, equal to it bit for bit."""
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
    h = times[1] - times[0]
    mids = times[:-1] + 0.5 * h
    a_lo, a_hi = (np.stack([drv.values(q, mids + off) for drv, q in columns], axis=1)
                  for off in (-GAUSS_OFFSET * h, GAUSS_OFFSET * h))
    # per step: the driver's mean and the Gauss-node difference of top
    a_mean, a_tilt = 0.5 * (a_lo + a_hi), (GAUSS_OFFSET * h) * (a_lo - a_hi)
    a_end = np.array([drv.values(q, times[-1:])[0] for drv, q in columns])
    a_diag, chi, b_coef, c_coef = (v[:, None] for v in (a_diag, chi, b_coef, c_coef))
    tiny = np.finfo(float).tiny
    top = a_diag - chi * a_end
    rate = np.sqrt(top**2 + b_coef * c_coef)
    x = np.where(top >= 0.0, b_coef, top - rate)
    y = np.where(top >= 0.0, -(top + rate), c_coef)
    norm = np.hypot(x, y)
    x, y = x / norm, y / norm
    for mean, tilt in zip(a_mean[::-1], a_tilt[::-1]):
        p = h * (a_diag - chi * mean)
        q = (h * b_coef) * (1.0 + chi * tilt)
        r = (h * c_coef) * (1.0 - chi * tilt)
        d_sq = p * p + q * r
        d = np.sqrt(np.maximum(np.abs(d_sq), tiny))
        decay = np.expm1(-2.0 * d)
        hyperbolic = d_sq > 0.0
        cosh = np.where(hyperbolic, 1.0 + 0.5 * decay, np.cos(d))
        sinc = np.where(hyperbolic, -0.5 * decay, np.sin(d)) / d
        x, y = cosh * x - sinc * (p * x + q * y), cosh * y - sinc * (r * x - p * y)
        norm = np.hypot(x, y)
        x, y = x / norm, y / norm
    return x, y


def fibers_from(config, columns, dv0, de0, n_iter: int, residual: float):
    """The fibers of the columns from Delta z(0) of the Picard loop, (n, P)
    each per half: m_j is its v entry for an unstable mode (j < N), whose
    sharp vector is e_j in the eta half, and its eta entry otherwise."""
    m = np.where(config.unstable[:, None], dv0, de0)
    return [
        FiberResult(q=q, m=m[:, p_idx], unstable=config.unstable,
                    n_iterations=n_iter, residual=residual)
        for p_idx, (_, q) in enumerate(columns)
    ]


def two_channel_operator_matrices(config, frames, with_coupling):
    """`_mode_operator_matrix` of every mode on two-channel (v, eta) frames:
    impulses in channel 0 and the channel sum as the response."""
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


# -- the dense frozen Hamiltonian and the gap search loop ------------------------


def assemble_nonaut_hamiltonian(config, a_value: float) -> Hamiltonian:
    """The frozen-coefficient Hamiltonian at a(q) = a_value, from the explicitly
    reduced mode-wise system; it equals `assemble_hamiltonian` on
    (A(q), B, F(q))."""
    config.check_driver(constant_driver(a_value))
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
    n = config.n
    mat = np.zeros((2 * n, 2 * n))
    top = a_diag - a_value * chi
    mat[:n, :n] = np.diag(top)
    mat[:n, n:] = np.diag(b_coef)
    mat[n:, :n] = np.diag(c_coef)
    mat[n:, n:] = -np.diag(top)
    return Hamiltonian(mat)


def fiber_subspace(fiber) -> LagrangeSubspace:
    """The dense 2n x n basis of a fiber's unit lines."""
    x, y = fiber._lines()
    return LagrangeSubspace(np.vstack([np.diag(x), np.diag(y)]))


def gap_search_loop(model, lam, delta, condition_set) -> list[dict]:
    """`spatial.gap_search` one (N, k) pair at a time, with the first
    inequality strict for the nonoscillation-type sets."""
    found = []
    for n_idx in range(1, model.n):
        mu_bar = 0.5 * (model.eigenvalues[n_idx] - model.eigenvalues[n_idx - 1])
        if mu_bar <= 0.0:
            continue
        for k in range(1, GAP_K_MAX + 1):
            m1, m2 = condition_margins(condition_set, lam, delta, mu_bar, k)
            first = m1 >= 0.0 if condition_set == "bundle" else m1 > 0.0
            if first and m2 >= 0.0:
                found.append({"k": k, "N": n_idx, "margins": (float(m1), float(m2))})
    if not found:
        raise NoCandidate(
            f"no (k, N) satisfies the {condition_set!r} inequalities up to k = {GAP_K_MAX}"
        )
    return found


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
