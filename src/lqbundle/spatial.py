"""Spatial-averaging pipeline: gap search, nonautonomous Hamiltonians over a
driving flow, contraction-certified fiber construction, uniform
nonoscillation and the singular quadratic-form certificate.

Every block of the assembled Hamiltonian is a function of the diagonal
reference operator, so the doubled system splits into independent
(v_j, eta_j) mode pairs, and each fiber L+(q) is the graph of a diagonal
M+(q) = diag(m_j) over the sharp pairing subspace.  The fiber construction
keeps the analytical structure (projected solves and the certified
contraction) but runs it one mode at a time: the coefficients of
`SAConfig.mode_coefficients` on the one band mask a run reads
(`SAConfig.mid_mask`, the intermediate band), the (v, eta) frames of a mode
(`_frames`) with the scalar quadrature of `_phi`, built, used and dropped
inside the mode loop, and the n entries m_j of each `FiberResult`.  A
mode's fiber forcing carries its own stiff exponential e^{mu_j t}, so the
fiber frames integrate the smooth factor with the rate shifted by mu_j, and
the stiff transients are integrated exactly; the contraction's impulse
responses need no shift.  Each mode is integrated only in the direction of
its square-integrable Green branch.  The contraction is affine and
mode-diagonal, so `build_fibers` solves its fixed point directly, one
banded system per (mode, column) block whose rows are the frames'
recurrences, and checks it with one Picard sweep; it solves every (driver,
phase) column a run needs in one call: the certify pipeline's frozen-driver
oracle and continuity table read columns of its fibers stage and solve
nothing.  The contraction certificate's band maxima take an SVD only of the
modes whose norm bound can still beat them.  The decay records read the
exact growth rate of each mode line of the built fibers (`fiber_growth`);
no trajectory is integrated in a run.
tests/spatial_oracles.py keeps the all-mode frame, the two-direction,
two-channel frame solve and the fibers' Picard loop on it as references,
and the routes that only tests take: the low and high band projectors, the
generic quadratic forms and frozen (A(q), B) of the spatial-averaging
condition, the inequality-implication sweep, and the driven trajectories
with their symplectic pairing; tests/decay_oracles.py keeps the trajectory
fits of the decay rate.  `SAConfig.check_driver` is the one check of a
driver's sup |a| against the amplitude bound a_b = Lambda + delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.linalg import solve_banded

from ._phi import (
    backward_moments,
    backward_weights,
    forward_weights,
    phi_scalar,
    stencil_layout,
)
from .errors import (
    AmplitudeTooLarge,
    AValueOutOfRange,
    ContractionFailed,
    HorizonTooShort,
    NoCandidate,
    NotAContraction,
    NotPositive,
    Oscillating,
)
from .spectral import SpectralModel
from .stationary import Hamiltonian, extract_nonoscillation
from .symplectic import LagrangeSubspace, grassmann_distance

#: largest update of the fiber solve's check sweep, relative to the solution
PICARD_TOL = 1e-10
#: half-bandwidth of a (mode, column) fiber block in node-interleaved order
FIBER_BAND = 7
#: time steps of the grid on which the contraction norms are measured
CONTRACTION_STEPS = 360
#: relative pad of an operator norm bound: at m = CONTRACTION_STEPS + 1
#: nodes the rounding of the bound, a sum of m^2 squares, stays below
#: m^2 eps = 2.9e-11, and an SVD's largest singular value is accurate to a
#: modest multiple of m eps = 8e-14
NORM_BOUND_PAD = 1e-10
#: largest k that the gap search tries
GAP_K_MAX = 50


# -- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class SAConfig:
    """Parameters of one spatial-averaging scenario at truncation n.

    Derived: the gap half-width mu_bar and midpoint alpha, the form
    coefficients taus = (1, (mu_bar / Lambda)^2 / 4, 1) and the amplitude
    bound a_bound = Lambda + delta.
    """

    model: SpectralModel
    lam: float
    delta: float
    k: int
    N: int
    mu_bar: float = field(init=False)
    alpha: float = field(init=False)
    taus: tuple[float, float, float] = field(init=False)
    a_bound: float = field(init=False)

    def __post_init__(self):
        lam_seq = self.model.eigenvalues
        if not (1 <= self.N < self.model.n):
            raise NoCandidate(f"N={self.N} outside 1..{self.model.n - 1}")
        if self.k < 1:
            raise NoCandidate(f"k={self.k} must be >= 1")
        mu_bar = 0.5 * (lam_seq[self.N] - lam_seq[self.N - 1])
        if mu_bar <= 0.0:
            raise NoCandidate(
                f"no spectral gap at N={self.N}: "
                f"lambda_(N+1) - lambda_N = {2.0 * mu_bar:.6g}"
            )
        alpha = 0.5 * (lam_seq[self.N] + lam_seq[self.N - 1])
        object.__setattr__(self, "mu_bar", float(mu_bar))
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "taus", (1.0, 0.25 * (mu_bar / self.lam) ** 2, 1.0))
        object.__setattr__(self, "a_bound", self.lam + self.delta)
        if self.a_bound >= self.mu_bar + self.k:
            raise AmplitudeTooLarge(
                f"a_bound {self.a_bound} >= mu_bar + k = {self.mu_bar + self.k}"
            )

    @property
    def n(self) -> int:
        return self.model.n

    def check_driver(self, driver: Driver) -> None:
        """AmplitudeTooLarge unless sup |a| of the driver is within a_bound."""
        if driver.amplitude_bound > self.a_bound + 1e-12:
            raise AmplitudeTooLarge(f"sup |a| = {driver.amplitude_bound} exceeds "
                                    f"allowed {self.a_bound}")

    @cached_property
    def mid_mask(self) -> np.ndarray:
        """The intermediate band around the gap (lambda_N, lambda_{N+1}), as
        a mode mask built once per config: neither in the essentially-lower
        band lambda_j < lambda_N - k nor in the essentially-higher band
        lambda_j > lambda_{N+1} + k (the cuts are strict, so ties go to it).
        The symmetric cuts keep the outer bands at distance at least
        mu_bar + k from the gap midpoint, which the averaged-problem
        solvability estimates use; every solve reads this band or its
        complement P + Q."""
        lam = self.model.eigenvalues
        return ~((lam < lam[self.N - 1] - self.k) | (lam > lam[self.N] + self.k))

    @cached_property
    def unstable(self) -> np.ndarray:
        """The modes 1..N (indices j < N), where a_diag_j > 0."""
        return np.arange(self.n) < self.N

    @cached_property
    def mode_coefficients(self) -> tuple[np.ndarray, ...]:
        """Per-mode scalars of the doubled system, built once per config.

        (a_diag, chi, b_coef, c_coef): a_diag[j] = alpha - lambda_j, chi the
        P+Q indicator, b the eta-coefficient in the v-row, c the
        v-coefficient in the eta-row.
        """
        mid = self.mid_mask
        ratio2 = 4.0 * (self.lam / self.mu_bar) ** 2
        return (
            self.alpha - self.model.eigenvalues,
            (~mid).astype(float),
            np.where(mid, 2.0, 1.0 + ratio2),
            np.where(mid, -(self.delta**2 + self.mu_bar**2 / 4.0), -self.lam**2),
        )


# -- inequality sets and the gap search -------------------------------------


#: the inequality sets of `condition_margins`
CONDITION_SETS = ("bundle", "nonosc", "zelik")


def condition_margins(
    condition_set: str, lam: float, delta: float, mu_bar: float, k
) -> tuple:
    """The two margins of the selected inequality set (positive = satisfied)."""
    k = np.asarray(k, dtype=float)
    if condition_set == "bundle":
        return (mu_bar / np.sqrt(5.0) - delta, k**2 - 2 * lam * k - 4 * lam**4 / mu_bar**2)
    if condition_set == "nonosc":
        return (mu_bar / 2.0 - delta, k - 5 * lam**2 / mu_bar - lam)
    if condition_set == "zelik":
        return (mu_bar / 4.0 - delta, k / 2.0 - 16 * lam**2 / mu_bar - 2 * lam)
    raise NoCandidate(f"unknown condition set {condition_set!r}")


def condition_holds(
    condition_set: str, lam: float, delta: float, mu_bar: float, k
) -> bool:
    m1, m2 = condition_margins(condition_set, lam, delta, mu_bar, k)
    if condition_set == "bundle":
        return bool(m1 >= 0.0 and m2 >= 0.0)
    # first inequality strict for the nonoscillation-type sets
    return bool(m1 > 0.0 and m2 >= 0.0)


def gap_search(
    model: SpectralModel,
    lam: float,
    delta: float,
    condition_set: str,
) -> list[dict]:
    """Enumerate (k, N) pairs satisfying the selected inequality set."""
    found = []
    for n_idx in range(1, model.n):
        mu_bar = 0.5 * (model.eigenvalues[n_idx] - model.eigenvalues[n_idx - 1])
        if mu_bar <= 0.0:
            continue
        for k in range(1, GAP_K_MAX + 1):
            if condition_holds(condition_set, lam, delta, mu_bar, k):
                m1, m2 = condition_margins(condition_set, lam, delta, mu_bar, k)
                found.append(
                    {
                        "k": k,
                        "N": n_idx,
                        "mu_bar": float(mu_bar),
                        "margins": (float(m1), float(m2)),
                    }
                )
    if not found:
        raise NoCandidate(
            f"no (k, N) satisfies the {condition_set!r} inequalities up to k = {GAP_K_MAX}"
        )
    return found


# -- drivers -----------------------------------------------------------------


@dataclass(frozen=True)
class Driver:
    """Closed-form driving flow with exact integrals: from phase q the flow
    reaches phase q + omega t at time t.

    periodic: a = c0 + c1 sin(omega t + q), phase q scalar.
    quasiperiodic: a = c0 + sum_i c_i sin(omega_i t + q_i), phase q vector.
    """

    c0: float
    amplitudes: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        if self.amplitudes.ndim != 1 or self.amplitudes.shape != self.omegas.shape:
            raise AValueOutOfRange("amplitudes and omegas must be flat arrays of "
                                   f"one length, not {self.amplitudes.shape} and "
                                   f"{self.omegas.shape}")

    @property
    def amplitude_bound(self) -> float:
        """sup |a| over the orbit, |c0| + sum_i |c_i|."""
        return float(abs(self.c0) + np.sum(np.abs(self.amplitudes)))

    def _phases(self, q) -> np.ndarray:
        """One phase per frequency; a scalar q is the same phase on each."""
        return np.broadcast_to(np.asarray(q, dtype=float), self.omegas.shape)

    def value(self, q) -> float:
        return float(self.c0 + np.sum(self.amplitudes * np.sin(self._phases(q))))

    def values(self, q, times: np.ndarray) -> np.ndarray:
        ph = self._phases(q)
        tt = np.asarray(times, dtype=float)[:, None]
        return self.c0 + np.sum(
            self.amplitudes * np.sin(self.omegas * tt + ph), axis=1
        )

    def integral(self, q, times: np.ndarray) -> np.ndarray:
        """int_0^t a(q + omega s) ds, closed form."""
        ph = self._phases(q)
        tt = np.asarray(times, dtype=float)[:, None]
        nz = np.abs(self.omegas) > 0
        osc = np.zeros(tt.shape[0])
        if np.any(nz):
            osc += np.sum(
                -self.amplitudes[nz]
                / self.omegas[nz]
                * (np.cos(self.omegas[nz] * tt + ph[nz]) - np.cos(ph[nz])),
                axis=1,
            )
        if np.any(~nz):
            osc += np.sum(
                self.amplitudes[~nz] * np.sin(ph[~nz]) * tt, axis=1
            )
        return self.c0 * np.asarray(times, dtype=float) + osc

    def phase_distance(self, q1, q2) -> float:
        d = np.abs(self._phases(q1) - self._phases(q2))
        d = np.minimum(d, 2.0 * np.pi - d)
        return float(np.max(d))


def constant_driver(value: float) -> Driver:
    return Driver(c0=float(value), amplitudes=np.zeros(1), omegas=np.ones(1))


# -- Hamiltonians -------------------------------------------------------------


def assemble_nonaut_hamiltonian(config: SAConfig, a_value: float) -> Hamiltonian:
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


# -- mode-wise Lyapunov-Perron machinery -------------------------------------


class _ScalarFrame:
    """One mode's projected scalar equation x' = (r(t) - rho) x + f over P
    columns, r(t) = s + sc * a(t) with sc = sign * chi_j.

    rho is the mode's rate shift: a solution x stands for the physical
    e^{rho t} x, so a forcing that carries the mode's own stiff exponential
    is integrated exactly.  Step factors use the exact interval means of r;
    the within-interval variation of a(t) is folded into the integrand
    samples, so only the (smooth) fold-corrected data is
    polynomial-interpolated.

    The mode is integrated in the one direction whose Green branch is
    square-integrable: forward from zero if `forward`, backward from zero
    otherwise.  Quadrature weights, fold factors and step factors exist for
    that direction only, and weights and folds are multiplied once, since
    their product is the same on every solve.  `steps` and `wf` are in time
    order.

    Array layout: (m nodes, P columns); the step and weight arrays of a
    single-column frame broadcast over any number of columns.
    """

    def __init__(self, times, drive, s, sc, rho, forward: bool):
        h = float(times[1] - times[0])
        self.m = m = times.size
        self.forward = forward
        a_mean, dev_f, dev_b = drive
        # shifted per-interval rates: (m-1, P)
        z = (s + sc * a_mean - rho) * h
        self.steps = np.exp(z) if forward else np.exp(-z)
        # weights times the fold factors at the stencil nodes, (4, m-1, P):
        # forward reference = right end, backward = left end of the interval;
        # stencil pattern 0 holds on the first interval, 1 on the interior,
        # 2 on the last
        self.wf = wf = np.empty((4,) + z.shape)
        spans = ((0, slice(0, 1)), (1, slice(1, m - 2)), (2, slice(m - 2, m - 1)))
        for pattern, sl in spans:
            if forward:
                w = forward_weights(phi_scalar(4, z[sl]), h, pattern)
            else:
                w = backward_weights(backward_moments(phi_scalar(4, -z[sl])), h, pattern)
            wf[:, sl] = w
        for ell in range(4):
            wf[ell] *= np.exp(sc * dev_f[ell]) if forward else np.exp(-sc * dev_b[ell])

    def _local(self, fvals: np.ndarray, out: np.ndarray) -> None:
        """Accumulate the per-interval local integrals of fvals into out."""
        m, wf = self.m, self.wf
        interior = slice(1, m - 2)
        out_int = out[interior]
        prod = np.empty(out_int.shape)
        for ell in range(4):
            np.multiply(wf[ell, interior], fvals[ell : m - 3 + ell], prod)
            out_int += prod
        for ell in range(4):
            out[0] += wf[ell, 0] * fvals[ell]
            out[m - 2] += wf[ell, m - 2] * fvals[m - 4 + ell]

    def solve(self, fvals: np.ndarray) -> np.ndarray:
        """L2 solve: forward from zero, or backward (the negated Green
        branch).  Interval i's local integral is written at node i + 1,
        resp. node i, and the recurrence acc = step * acc + local runs over
        those rows in the direction of integration."""
        out = np.zeros(fvals.shape)
        loc, steps = out[1:] if self.forward else out[:-1], self.steps
        self._local(fvals, loc)
        if not self.forward:
            np.negative(loc, out=loc)
            loc, steps = loc[::-1], steps[::-1]
        acc = np.zeros(loc.shape[1:])
        for step, row in zip(steps, loc):
            row += step * acc
            acc = row
        return out


def _drive(columns, times: np.ndarray):
    """What every mode frame reads of the (driver, phase) columns on the
    grid: the interval means a_mean of a(t), (m-1, P), and per stencil node
    ell the deviation of the integral of a(t) from a_mean over the span from
    the node to the interval's right end (forward) and from its left end to
    the node (backward), (m-1, P) each."""
    c_int = np.stack([drv.integral(q, times) for drv, q in columns], axis=1)
    a_mean = np.diff(c_int, axis=0) / (times[1] - times[0])
    base, _ = stencil_layout(times.size)
    dev_f, dev_b = [], []
    for ell in range(4):
        nodes = base + ell
        dev_f.append((c_int[1:] - c_int[nodes])
                     - a_mean * (times[1:, None] - times[nodes, None]))
        dev_b.append((c_int[nodes] - c_int[:-1])
                     - a_mean * (times[nodes, None] - times[:-1, None]))
    return a_mean, dev_f, dev_b


def _frames(config: SAConfig, times: np.ndarray, drive, j: int, rho: float):
    """The (v, eta) frames of mode j of the doubled SA system over the
    columns of `drive`, the mode's rate shifted by rho.

    The fiber solve shifts by mu_j = -|a_diag_j|: its forcing is e^{mu_j t}
    times smooth data, so it solves for the smooth factor.  The contraction
    solve shifts by 0, so its impulse responses are physical values.
    """
    a_diag, chi, _, _ = config.mode_coefficients
    unstable = bool(config.unstable[j])
    return (
        _ScalarFrame(times, drive, a_diag[j], -chi[j], rho, not unstable),
        _ScalarFrame(times, drive, -a_diag[j], chi[j], rho, unstable),
    )


# -- fibers -------------------------------------------------------------------


@dataclass(frozen=True)
class FiberResult:
    """One fiber of the stable Lagrange bundle over the driving flow.

    The fiber is the graph of the diagonal M+(q) = diag(m) over the sharp
    pairing subspace; `m` holds its n entries m_j.  `n_iterations` counts
    the Picard sweeps applied to the solve and `residual` is the relative
    update of the last one, the same over the columns of one solve.
    """

    q: object
    l_plus_q: LagrangeSubspace
    m: np.ndarray
    p_q: np.ndarray | None
    oscillating: bool
    n_iterations: int
    residual: float


def slowest_fiber_rate(config: SAConfig) -> float:
    """Worst-case decay rate of the frozen doubled system over |a| <= a_b.

    Per mode the frozen rates are sqrt((A_j - a chi_j)^2 + b_j c_j); the
    truncation error of the fixed point decays with twice this rate.
    """
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
    worst = np.abs(a_diag) - config.a_bound * chi
    s_sq = worst**2 + b_coef * c_coef
    if np.any(s_sq <= 0.0):
        raise NotAContraction("frozen mode rates degenerate; conditions violated")
    return float(np.sqrt(s_sq.min()))


def _fiber_grid(config: SAConfig, horizon: float | None, n_steps: int | None):
    if horizon is None:
        t_end = max(12.0 / config.mu_bar, 10.0 / slowest_fiber_rate(config))
    else:
        t_end = horizon
    if t_end < 10.0 / config.mu_bar - 1e-12:
        raise HorizonTooShort(
            f"horizon {t_end:.3g} < {10.0 / config.mu_bar:.3g} = 10/mu_bar"
        )
    if n_steps is None:
        rate_max = config.mu_bar + config.k + 2.0 * config.a_bound
        n_steps = int(np.clip(np.ceil(t_end * rate_max / 0.06), 320, 20000))
    return np.linspace(0.0, t_end, int(n_steps) + 1)


def _sharp_forcing(config: SAConfig, j: int, a_vals: np.ndarray):
    """R(theta^t q) G_sharp(t) z^s_j over the decay e^{mu_j t}, (m, P) each,
    from the driver values a_vals (m, P).

    An unstable mode (j < N) has g = (0, e^{mu t}), so g_v = b_j and
    g_eta = chi_j a(t); a stable one has g = (e^{mu t}, 0), so
    g_v = -chi_j a(t) and g_eta = c_j.
    """
    _, chi, b_coef, c_coef = config.mode_coefficients
    chi_a = chi[j] * a_vals
    if config.unstable[j]:
        return np.full(a_vals.shape, b_coef[j]), chi_a
    return -chi_a, np.full(a_vals.shape, c_coef[j])


def _collocate(frames, b: float, c: float, g_v, g_e):
    """The fixed point (dv, deta) of one mode's fiber contraction, (m, P)
    each, by one banded solve per (mode, column) block.

    The unknowns of a block are node-interleaved, (dv_0, deta_0, dv_1, ...),
    and its rows are the frames' recurrences, each with its unit diagonal at
    its own unknown: a forward frame's row for x_{i+1} holds
    -s_i x_i - sum_l w_l f_{base_i+l}, a backward frame's row for x_i holds
    -s'_i x_{i+1} + sum_l w'_l f_{base_i+l}, where f is the other half's
    unknown times the mode's coupling b or c; the boundary row x_0 = 0,
    resp. x_{m-1} = 0, is the bare diagonal.  The sharp forcing's stencil
    sums are the right-hand side.  The blocks write the same band
    positions, so they share one band array, filled one block at a time.
    """
    m = frames[0].m
    i = np.arange(m - 1)
    base, _ = stencil_layout(m)
    nodes = base[None, :] + np.arange(4)[:, None]
    band = np.zeros((2 * FIBER_BAND + 1, 2 * m))
    band[FIBER_BAND] = 1.0
    flat, rows, values, local = [], [], [], []
    for slot, (frame, g, coef) in enumerate(((frames[0], g_v, b), (frames[1], g_e, c))):
        forward = frame.forward
        # a forward row subtracts the stencil sum, a backward row adds it
        sign = -1.0 if forward else 1.0
        r = 2 * (i + forward) + slot
        cols = np.concatenate([2 * (i + 1 - forward) + slot, 2 * nodes.ravel() + 1 - slot])
        flat.append(np.ravel_multi_index((FIBER_BAND + np.tile(r, 5) - cols, cols),
                                         band.shape))
        rows.append(r)
        values += [-frame.steps, (sign * coef) * frame.wf.reshape(4 * (m - 1), -1)]
        local.append(-sign * np.sum(frame.wf * g[nodes], axis=0))
    flat, rows = np.concatenate(flat), np.concatenate(rows)
    values, local = np.concatenate(values), np.concatenate(local)
    out = np.empty((2,) + g_v.shape)
    rhs = np.zeros(2 * m)
    for p in range(g_v.shape[1]):
        band.flat[flat] = values[:, p]
        rhs[rows] = local[:, p]
        x = solve_banded((FIBER_BAND, FIBER_BAND), band, rhs, check_finite=False)
        out[:, :, p] = x.reshape(m, 2).T
    return out


def build_fibers(
    config: SAConfig, columns, horizon: float | None = None
) -> list[FiberResult]:
    """Stable-bundle fibers of (driver, phase) columns by direct collocation.

    The contraction (dv, deta) -> (S_v(b deta + g_v), S_eta(c dv + g_eta))
    of the frame solves S is affine and mode-diagonal, so its fixed point is
    one linear two-point boundary-value problem per (mode, column), solved
    as a banded system (`_collocate`).  The work runs mode by mode: a mode's
    frames and forcing are built, solved and swept, then dropped.  One
    Picard sweep from the solution checks it: ContractionFailed unless the
    sweep moves deta by at most PICARD_TOL of its norm.  One FiberResult is
    returned per column, in order (`_fibers_from`).
    """
    columns = list(columns)
    for driver, _ in columns:
        config.check_driver(driver)
    _require_contraction(config)
    times = _fiber_grid(config, horizon, None)
    a_diag, _, b_coef, c_coef = config.mode_coefficients
    rho = -np.abs(a_diag)
    drive = _drive(columns, times)
    a_vals = np.stack([drv.values(q, times) for drv, q in columns], axis=1)
    d_eta = np.empty((times.size, config.n, len(columns)))
    update = np.empty(d_eta.shape)
    dv0 = np.empty(d_eta.shape[1:])
    for j in range(config.n):
        frame_v, frame_e = _frames(config, times, drive, j, rho[j])
        g_v, g_e = _sharp_forcing(config, j, a_vals)
        dv, d_eta[:, j] = _collocate((frame_v, frame_e), b_coef[j], c_coef[j], g_v, g_e)
        dv0[j] = dv[0]
        dv_swept = frame_v.solve(b_coef[j] * d_eta[:, j] + g_v)
        update[:, j] = frame_e.solve(c_coef[j] * dv_swept + g_e) - d_eta[:, j]
    # a solution x stands for the physical e^{rho t} x
    decay = np.exp(rho[None, :] * times[:, None])[:, :, None]

    def phys_norm(x):
        return float(np.sqrt(np.max(np.sum((decay * x) ** 2, axis=(0, 1)))))

    residual = phys_norm(update) / max(phys_norm(d_eta), 1e-300)
    if not residual <= PICARD_TOL:
        raise ContractionFailed(
            f"fixed-point residual {residual:.3e} of the fiber solve exceeds "
            f"{PICARD_TOL:.1e}"
        )
    # values at t = 0, where e^{mu 0} = 1
    return _fibers_from(config, columns, dv0, d_eta[0], 1, residual)


def _fibers_from(
    config: SAConfig, columns, dv0, de0, n_iter: int, residual: float
) -> list[FiberResult]:
    """The fibers of the columns from Delta z(0), (n, P) each per half.

    Mode j's sharp vector is e_j in the eta half for j < N (unstable) and in
    the v half otherwise; the fiber vector adds m_j, the other half's entry
    of Delta z(0), in the same mode's row there.  Nonoscillation extraction
    is attempted on each fiber.
    """
    n = config.n
    modes = np.arange(n)
    sharp_rows = np.where(config.unstable, n + modes, modes)
    m_rows = np.where(config.unstable, modes, n + modes)
    results = []
    for p_idx, (_, q) in enumerate(columns):
        m = np.where(config.unstable, dv0[:, p_idx], de0[:, p_idx])
        basis = np.zeros((2 * n, n))
        basis[sharp_rows, modes] = 1.0
        basis[m_rows, modes] = m
        l_plus = LagrangeSubspace(basis)
        try:
            p_q, osc = extract_nonoscillation(l_plus).p, False
        except Oscillating:
            p_q, osc = None, True
        results.append(FiberResult(q=q, l_plus_q=l_plus, m=m, p_q=p_q,
                                   oscillating=osc, n_iterations=n_iter,
                                   residual=residual))
    return results


def fiber_continuity(driver: Driver, ref: FiberResult, fibers) -> list[dict]:
    """Moduli table of built fibers of `driver` against the fiber `ref`:
    phase distance, ||M+(q) - M+(q_ref)|| = max_j |m_j(q) - m_j(q_ref)|
    (the spectral norm of a diagonal difference), grassmann distance."""
    return [
        {
            "phase_distance": driver.phase_distance(fib.q, ref.q),
            "m_norm": float(np.abs(fib.m - ref.m).max()),
            "grassmann": grassmann_distance(fib.l_plus_q, ref.l_plus_q),
        }
        for fib in fibers
    ]


def fiber_growth(
    config: SAConfig, driver: Driver, fibers
) -> tuple[np.ndarray, np.ndarray]:
    """(growth, weights) of the mode lines of built fibers, (fibers, modes) each.

    A fiber is mode-diagonal, M+(q) = diag(m_j): mode j spans the line of
    (e_j, m_j e_j) for j >= N and of (m_j e_j, e_j) for j < N, which the flow
    grows at exactly the rate top_j + b_j m_j, resp. c_j m_j - top_j, with
    top_j = a_diag_j - chi_j a(q).  The weight sqrt(1 + m_j^2) is the norm
    of the line's spanning vector.
    """
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
    m = np.array([f.m for f in fibers])
    top = a_diag - np.array([driver.value(f.q) for f in fibers])[:, None] * chi
    growth = np.where(config.unstable, c_coef * m - top, top + b_coef * m)
    return growth, np.sqrt(1.0 + m**2)


# -- contraction certificate --------------------------------------------------


def contraction_bounds(config: SAConfig) -> dict:
    """The analytic operator-norm bounds of the fiber contraction."""
    mu, k = config.mu_bar, config.k
    lam, delta = config.lam, config.delta
    a_b = config.a_bound
    bound_mid = 0.5 + 2.0 * delta**2 / mu**2
    bound_pq = (1.0 + 4.0 * (lam / mu) ** 2) * lam**2 / (mu + k - a_b) ** 2
    return {
        "bound_mid": float(bound_mid),
        "bound_pq": float(bound_pq),
        "lp_bound_all": 1.0 / mu,
        "lp_bound_pq": 1.0 / (mu + k),
        "analytic_pass": bool(bound_mid < 1.0 and bound_pq < 1.0),
    }


def _require_contraction(config: SAConfig) -> dict:
    out = contraction_bounds(config)
    if not out["analytic_pass"]:
        raise NotAContraction(
            f"analytic bounds {out['bound_mid']:.3f}, {out['bound_pq']:.3f} not < 1"
        )
    return out


def _mode_operator_matrix(frames, b: float, c: float, with_coupling: bool):
    """Dense matrix of one mode's discretized contraction T (or of L_A).

    Columns are impulse responses of the mode's unshifted (v, eta) frames,
    so they are physical values; all m impulses ride on the column axis of
    the single-column frames, whose step and weight arrays broadcast over
    it, in one solve.
    """
    frame_v, frame_e = frames
    eye = np.eye(frame_v.m)
    if with_coupling:
        return frame_e.solve(c * frame_v.solve(b * eye))
    return frame_v.solve(eye)


def _norm_bound(mat: np.ndarray) -> float:
    """min(||mat||_F, sqrt(||mat||_1 ||mat||_inf)) >= ||mat||_2 (Golub & Van
    Loan, Matrix Computations, 2.3), times 1 + NORM_BOUND_PAD so that the
    rounding of the bound and of an SVD cannot put it below the SVD's
    value.  ContractionFailed unless it is finite, as a non-finite entry
    makes it."""
    absm = np.abs(mat)
    bound = np.minimum(np.linalg.norm(mat),
                       np.sqrt(absm.sum(axis=0).max() * absm.sum(axis=1).max()))
    if not np.isfinite(bound):
        raise ContractionFailed(f"operator norm bound {bound} is not finite")
    return float(bound) * (1.0 + NORM_BOUND_PAD)


def _pruned_max(bounds: np.ndarray, norm, modes: np.ndarray) -> float:
    """max of norm(j) over the modes (0.0 if there are none), given
    bounds[j] >= norm(j): the modes are visited by falling bound, and the
    first bound that cannot beat the running maximum ends the search, since
    no later one can either."""
    best = 0.0
    for j in modes[np.argsort(-bounds[modes], kind="stable")]:
        if bounds[j] <= best:
            break
        best = max(best, norm(j))
    return best


def contraction_certificate(config: SAConfig) -> dict:
    """Analytic contraction bounds plus measured discretized operator norms.

    The norms are measured at phase 0 of the constant driver a = a_bound.
    They split by the band projectors (the discrete operator is
    mode-diagonal) and must stay below the analytic bounds; the discretized
    Lyapunov-Perron norms are checked against 1/mu_bar and 1/(mu_bar + k).
    A first pass builds each mode's T and L_A matrices and keeps only their
    norm bounds (`_norm_bound`); each band maximum then takes an SVD only of
    the modes whose bound can still beat it (`_pruned_max`), rebuilding
    those matrices, and a mode's SVD serves every band it is in.
    """
    out = _require_contraction(config)
    times = _fiber_grid(config, None, CONTRACTION_STEPS)
    h = times[1] - times[0]
    w = np.full(times.size, h)
    w[0] = w[-1] = h / 2
    d_sq = np.sqrt(w)
    drive = _drive([(constant_driver(config.a_bound), 0.0)], times)
    _, _, b_coef, c_coef = config.mode_coefficients

    def mode_frames(j):
        return _frames(config, times, drive, j, 0.0)

    def operator(frames, j, with_coupling):
        mat = _mode_operator_matrix(frames, b_coef[j], c_coef[j], with_coupling)
        return (mat * d_sq[:, None]) / d_sq[None, :]

    @cache
    def svd_norm(j, with_coupling):
        return float(np.linalg.norm(operator(mode_frames(j), j, with_coupling), 2))

    modes, mid = np.arange(config.n), config.mid_mask
    bounds_t, bounds_l = np.array([
        [_norm_bound(operator(frames, j, coupling)) for coupling in (True, False)]
        for j, frames in zip(modes, map(mode_frames, modes))
    ]).T
    out.update(
        measured_mid=_pruned_max(bounds_t, lambda j: svd_norm(j, True), modes[mid]),
        measured_pq=_pruned_max(bounds_t, lambda j: svd_norm(j, True), modes[~mid]),
        lp_measured_all=_pruned_max(bounds_l, lambda j: svd_norm(j, False), modes),
        lp_measured_pq=_pruned_max(bounds_l, lambda j: svd_norm(j, False), modes[~mid]),
    )
    return out


def sa_eps0_estimate(config: SAConfig) -> float:
    """Largest shift keeping the shifted contraction bounds below one.

    Closed form from the two bound expressions with mu_bar -> mu_bar - eps
    and mu_bar + k - a_b -> mu_bar + k - a_b - eps.
    """
    mu, k = config.mu_bar, config.k
    lam, delta = config.lam, config.delta
    eps1 = mu - np.sqrt(2.0 * delta**2 + mu**2 / 2.0)
    eps2 = mu + k - config.a_bound - lam * np.sqrt(1.0 + 4.0 * (lam / mu) ** 2)
    return float(max(0.0, min(eps1, eps2)))


# -- the singular quadratic form certificate ---------------------------------


def v_form_brackets(config: SAConfig) -> tuple[float, float]:
    """The two positivity brackets of the certificate at zero deformation."""
    mu, k = config.mu_bar, config.k
    lam, delta = config.lam, config.delta
    t1, t2, t3 = config.taus
    b_mid = mu**2 - delta**2 * t1 - lam**2 * t2 - mu**2 / (4 * t3) - mu**2 / (4 * t1)
    b_pq = mu**2 + mu * k - lam**2 * t3 - mu**2 / (4 * t3) - 4 * lam**2 - mu * (
        lam + delta
    )
    return float(b_mid), float(b_pq)


def _mode_quadratic_blocks(config: SAConfig, a_value: float) -> np.ndarray:
    """Per-mode 3x3 matrices of the infinitesimal certificate form in
    (v_j, xiI_j, xiC_j)."""
    t1, t2, t3 = config.taus
    lam2 = config.lam**2
    a_diag, chi, _, _ = config.mode_coefficients
    chi_i = 1.0 - chi
    d = config.mu_bar * np.where(config.unstable, 1.0, -1.0)
    f1 = (t1 * a_value**2 - t1 * config.delta**2 - t2 * lam2) * chi_i - t3 * lam2 * chi
    s = np.zeros((config.n, 3, 3))
    s[:, 0, 0] = d * (a_diag - a_value) + f1
    s[:, 0, 1] = s[:, 1, 0] = 0.5 * d - t1 * a_value * chi_i
    s[:, 0, 2] = s[:, 2, 0] = 0.5 * d
    s[:, 1, 1] = t1 * chi_i + t2 * chi
    s[:, 2, 2] = t3
    return s


def v_form_certificate(config: SAConfig) -> dict:
    """Coercivity constant delta_V of the singular-form inequality.

    For each a of a 64-point grid on [-a_bound, a_bound] the per-mode 3x3
    infinitesimal form is assembled; blocks - delta I is psd exactly for
    delta up to the least eigenvalue of the blocks, and the certificate is
    the minimum of that eigenvalue over the grid.  An affine minorant route (the a-quadratic term is psd and may
    be dropped) cross-checks the grid route from below at the interval
    endpoints.
    """
    if not condition_holds(
        "nonosc", config.lam, config.delta, config.mu_bar, config.k
    ):
        m1, m2 = condition_margins(
            "nonosc", config.lam, config.delta, config.mu_bar, config.k
        )
        raise NotPositive(
            "nonoscillation inequality set violated "
            f"(margins {m1:.6g}, {m2:.6g}); certificate not attempted"
        )
    ab = config.a_bound
    a_grid = np.unique(np.concatenate([np.linspace(-ab, ab, 64), [-ab, ab]]))
    vals = []
    for a in a_grid:
        blocks = _mode_quadratic_blocks(config, a)
        vals.append(float(np.linalg.eigvalsh(blocks).min()))
    delta_v = float(np.min(vals))
    # affine minorant: drop the psd a^2 term, check the segment endpoints
    affine = []
    for a in (-ab, ab):
        blocks = _mode_quadratic_blocks(config, a)
        t1 = config.taus[0]
        chi_i = config.mid_mask.astype(float)
        blocks = blocks.copy()
        blocks[:, 0, 0] -= t1 * a**2 * chi_i
        affine.append(float(np.linalg.eigvalsh(blocks).min()))
    affine_floor = float(min(affine))
    out = {
        "delta_v": delta_v,
        "affine_floor": affine_floor,
        "brackets": v_form_brackets(config),
    }
    if delta_v <= 1e-12:
        raise NotPositive(f"certificate failed: delta_V = {delta_v:.3e}")
    if delta_v < affine_floor - 1e-9:
        raise NotPositive(
            f"grid route {delta_v:.6g} fell below the affine minorant {affine_floor:.6g}"
        )
    return out


def p_sign_structure(p_q: np.ndarray, config: SAConfig) -> tuple[float, float]:
    """(min eig of P on the low block, max eig on the high block).

    Uniform nonoscillation predicts positive values on modes 1..N and
    negative on the rest.
    """
    p_q = np.atleast_2d(np.asarray(p_q, dtype=float))
    low = slice(0, config.N)
    high = slice(config.N, config.n)
    low_min = float(np.linalg.eigvalsh(p_q[low, low]).min())
    high_max = float(np.linalg.eigvalsh(p_q[high, high]).max())
    return low_min, high_max

