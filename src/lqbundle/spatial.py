"""Spatial-averaging pipeline: gap search, nonautonomous Hamiltonians over a
driving flow, contraction-certified fiber construction, uniform
nonoscillation and the singular quadratic-form certificate.

Every block of the assembled Hamiltonian is a function of the diagonal
reference operator, so the doubled system splits into independent
(v_j, eta_j) mode pairs.  The fiber construction keeps the analytical
structure (projected solves plus Picard on the certified contraction) but
runs it mode-wise.  A mode's fiber forcing carries its own stiff
exponential e^{mu_j t}, so the fiber solver integrates the smooth factor
with the rate shifted by mu_j, and the stiff transients are integrated
exactly; the contraction's impulse responses need no shift.  Each mode is
integrated only in the direction of its square-integrable Green branch, and
both directions of a frame share one recurrence.  `build_fibers` solves
every (driver, phase) column a run needs in one Picard iteration: the
certify pipeline's frozen-driver oracle and continuity table read columns of
its fibers stage and solve nothing.  The decay records read the exact growth
rate of each mode line of the built fibers (`fiber_growth`); no trajectory
is integrated for them.  Driven trajectories, which the pairing check
integrates, compute their step propagators in vectorised batches.  The
two-direction, two-channel frame solve with its Picard loop and the per-step
trajectory loop are kept as exact references in tests/spatial_oracles.py,
and the trajectory fits of the decay rate in tests/decay_oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._phi import backward_weights_scalar, forward_weights_scalar, stencil_layout
from .dichotomy import GridFunction
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
from .frequency import QuadraticFormTriple
from .spectral import ModeProjectors, SpectralModel, mode_projectors
from .stationary import Hamiltonian, extract_nonoscillation
from .symplectic import (
    GraphOperator,
    LagrangeSubspace,
    grassmann_distance,
)

#: Picard stopping rule of the fiber construction, relative to the first update
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200
#: time steps of the grid on which the contraction norms are measured
CONTRACTION_STEPS = 360
#: impulse columns per solve of the measured contraction norms
IMPULSE_BATCH = 64
#: trajectory step relative to 1 / (the largest frozen coefficient sum)
TRAJECTORY_STEP_SCALE = 0.01
#: trajectory steps whose propagators are computed in one vectorised batch
TRAJECTORY_CHUNK = 4096
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

    @cached_property
    def projectors(self) -> ModeProjectors:
        """The band projectors, built once per config."""
        return mode_projectors(self.model, self.k, self.N)

    def b_matrix(self) -> np.ndarray:
        """Control operator B (xi_I, xi_c) -> xi_I + xi_c."""
        n = self.n
        return np.hstack([np.eye(n), np.eye(n)])

    def a_matrix(self, a_value: float) -> np.ndarray:
        """A(q) = -A0 + (alpha - a(q)) I in the eigenbasis."""
        return np.diag(self.alpha - a_value - self.model.eigenvalues)


# -- inequality sets and the gap search -------------------------------------


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


# -- drivers -----------------------------------------------------------------


@dataclass(frozen=True)
class Driver:
    """Closed-form driving flow: a(shift(q, t)) with exact integrals.

    periodic: a = c0 + c1 sin(omega t + q), phase q scalar.
    quasiperiodic: a = c0 + sum_i c_i sin(omega_i t + q_i), phase q vector.
    """

    kind: str
    c0: float
    amplitudes: np.ndarray
    omegas: np.ndarray

    @property
    def amplitude_bound(self) -> float:
        return float(self.c0 + np.sum(np.abs(self.amplitudes)))

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
        """int_0^t a(shift(q, s)) ds, closed form."""
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

    def shift(self, q, t: float):
        ph = self._phases(q) + self.omegas * t
        ph = np.mod(ph, 2.0 * np.pi)
        return float(ph[0]) if self.kind == "periodic" else ph

    def phase_distance(self, q1, q2) -> float:
        d = np.abs(self._phases(q1) - self._phases(q2))
        d = np.minimum(d, 2.0 * np.pi - d)
        return float(np.max(d))


def driver_make(kind: str, params: dict, a_bound: float | None = None) -> Driver:
    """Build a periodic or quasiperiodic driver; validates the amplitude."""
    if kind == "periodic":
        drv = Driver(
            kind="periodic",
            c0=float(params.get("c0", 0.0)),
            amplitudes=np.atleast_1d(np.asarray(params.get("c1", 0.0), dtype=float)),
            omegas=np.atleast_1d(np.asarray(params.get("omega", 1.0), dtype=float)),
        )
    elif kind == "quasiperiodic":
        drv = Driver(
            kind="quasiperiodic",
            c0=float(params.get("c0", 0.0)),
            amplitudes=np.asarray(params["amplitudes"], dtype=float),
            omegas=np.asarray(params["omegas"], dtype=float),
        )
    else:
        raise AValueOutOfRange(f"unknown driver kind {kind!r}")
    if drv.amplitudes.shape != drv.omegas.shape:
        raise AValueOutOfRange("amplitudes and omegas must have matching shapes")
    if a_bound is not None and drv.amplitude_bound > a_bound + 1e-12:
        raise AmplitudeTooLarge(
            f"sup |a| = {drv.amplitude_bound} exceeds allowed {a_bound}"
        )
    return drv


def constant_driver(value: float) -> Driver:
    return Driver(
        kind="periodic", c0=float(value), amplitudes=np.zeros(1), omegas=np.ones(1)
    )


# -- quadratic forms and Hamiltonians ---------------------------------------


def assemble_forms(config: SAConfig, a_value: float) -> QuadraticFormTriple:
    """F1(q), F2(q), F3 on the doubled control space, built from the band
    projectors with the fixed tau coefficients."""
    if abs(a_value) > config.a_bound + 1e-12:
        raise AValueOutOfRange(f"|a| = {abs(a_value)} exceeds a_bound {config.a_bound}")
    t1, t2, t3 = config.taus
    proj = config.projectors
    i_mid = proj.I_mid
    pq = proj.P_low + proj.Q_high
    lam2 = config.lam**2
    f1 = (t1 * a_value**2 - t1 * config.delta**2 - t2 * lam2) * i_mid - t3 * lam2 * pq
    n = config.n
    f2 = np.vstack([-t1 * a_value * i_mid, np.zeros((n, n))])
    f3 = np.zeros((2 * n, 2 * n))
    f3[:n, :n] = t1 * i_mid + t2 * pq
    f3[n:, n:] = t3 * np.eye(n)
    return QuadraticFormTriple(f1=f1, f2=f2, f3=f3)


def spatial_avg_condition(l_q, config: SAConfig, a_value: float) -> tuple[float, bool]:
    """Defect || I_mid L I_mid - a I_mid || and the pass flag against delta."""
    l_q = np.atleast_2d(np.asarray(l_q, dtype=float))
    proj = config.projectors
    i_mid = proj.I_mid
    defect = float(np.linalg.norm(i_mid @ l_q @ i_mid - a_value * i_mid, 2))
    return defect, bool(defect <= config.delta + 1e-12)


def mode_coefficients(config: SAConfig):
    """Per-mode scalars of the doubled system.

    Returns (a_diag, chi, b_coef, c_coef):
    a_diag[j] = alpha - lambda_j, chi = P+Q indicator, b = eta-coefficient in
    the v-row, c = v-coefficient in the eta-row.
    """
    proj = config.projectors
    chi = (~proj.mid_mask).astype(float)
    a_diag = config.alpha - config.model.eigenvalues
    ratio2 = 4.0 * (config.lam / config.mu_bar) ** 2
    b_coef = np.where(proj.mid_mask, 2.0, 1.0 + ratio2)
    c_coef = np.where(
        proj.mid_mask,
        -(config.delta**2 + config.mu_bar**2 / 4.0),
        -config.lam**2,
    )
    return a_diag, chi, b_coef, c_coef


def assemble_nonaut_hamiltonian(config: SAConfig, a_value: float) -> Hamiltonian:
    """The frozen-coefficient Hamiltonian at a(q) = a_value, from the explicitly
    reduced mode-wise system; it equals `assemble_hamiltonian` on
    (A(q), B, F(q))."""
    if abs(a_value) > config.a_bound + 1e-12:
        raise AValueOutOfRange(f"|a| = {abs(a_value)} exceeds a_bound {config.a_bound}")
    a_diag, chi, b_coef, c_coef = mode_coefficients(config)
    n = config.n
    mat = np.zeros((2 * n, 2 * n))
    top = a_diag - a_value * chi
    mat[:n, :n] = np.diag(top)
    mat[:n, n:] = np.diag(b_coef)
    mat[n:, :n] = np.diag(c_coef)
    mat[n:, n:] = -np.diag(top)
    return Hamiltonian(mat)


def sa_breve_bases(config: SAConfig) -> tuple[LagrangeSubspace, LagrangeSubspace]:
    """Sharp/flat pairing subspaces ordered by mode index.

    Sharp column j: vertical e_j for j <= N (unstable eta-side), horizontal
    e_j for j > N; flat columns are the complements.
    """
    n = config.n
    sharp = np.zeros((2 * n, n))
    flat = np.zeros((2 * n, n))
    for j in range(n):
        if j < config.N:
            sharp[n + j, j] = 1.0
            flat[j, j] = 1.0
        else:
            sharp[j, j] = 1.0
            flat[n + j, j] = 1.0
    return LagrangeSubspace(sharp), LagrangeSubspace(flat)


# -- mode-wise Lyapunov-Perron machinery -------------------------------------


class _ScalarFrame:
    """One projected scalar equation family x' = (r(t) - rho) x + f, all
    modes and columns.

    r(t) = s_j + sign * chi_j * a(t) per mode, and rho_j is the mode's rate
    shift: a solution x stands for the physical e^{rho_j t} x, so a forcing
    that carries the mode's own stiff exponential is integrated exactly.
    Step factors use the exact interval means of r; the within-interval
    variation of a(t) is folded into the integrand samples, so only the
    (smooth) fold-corrected data is polynomial-interpolated.

    Each mode is integrated in the one direction whose Green branch is
    square-integrable: forward from zero on `forward_modes`, backward from
    zero on the others.  Quadrature weights, fold factors and step factors
    exist for that direction only, and weights and folds are multiplied
    once, since their product is the same on every solve.

    Array layout: (m nodes, n modes, P columns).
    """

    def __init__(
        self,
        times: np.ndarray,
        s_base: np.ndarray,
        chi: np.ndarray,
        sign: float,
        rho: np.ndarray,
        forward_modes: np.ndarray,
        a_mean: np.ndarray,
        c_int: np.ndarray,
    ):
        self.h = h = float(times[1] - times[0])
        self.m = m = times.size
        self.fwd = np.flatnonzero(forward_modes)
        self.bwd = np.flatnonzero(~forward_modes)
        base, _ = stencil_layout(m)
        # shifted per-interval rates: (m-1, n, P)
        rbar = s_base[None, :, None] + sign * chi[None, :, None] * a_mean[:, None, :]
        z = (rbar - rho[None, :, None]) * h
        # the recurrence runs over both directions at once: forward modes in
        # time order, then backward modes in reversed time order
        self.steps = np.concatenate(
            [np.exp(z[:, self.fwd]), np.exp(-z[::-1, self.bwd])], axis=1
        )
        # fold factors at the stencil nodes: forward reference = right end,
        # backward reference = left end of the interval
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
        self.wf_fwd = self._weighted_folds(
            forward_weights_scalar, z[:, self.fwd], fold_f
        )
        self.wf_bwd = self._weighted_folds(
            backward_weights_scalar, z[:, self.bwd], fold_b
        )

    def _weighted_folds(self, weights, z, folds):
        """Per stencil node ell, the weights times the fold factors on the
        intervals of one direction: (4, m-1, modes, P).  Stencil pattern
        0 holds on the first interval, 1 on the interior, 2 on the last."""
        m = self.m
        out = np.empty((4,) + z.shape)
        spans = ((0, slice(0, 1)), (1, slice(1, m - 2)), (2, slice(m - 2, m - 1)))
        for pattern, sl in spans:
            w = weights(z[sl], self.h, pattern)
            for ell in range(4):
                out[ell, sl] = w[ell] * folds[ell][sl]
        return out

    def _local(self, fvals: np.ndarray, wf: np.ndarray, out: np.ndarray) -> None:
        """Accumulate the per-interval local integrals of fvals into out."""
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

    def solve(self, fvals: np.ndarray) -> np.ndarray:
        """L2 solve: forward from zero on forward modes, backward (negated
        Green branch) on the others.  The local integrals of both directions
        fill one time-aligned buffer, forward modes in time order and
        backward ones reversed, and a single recurrence
        acc = step * acc + local runs over its rows."""
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


class _ModeSolver:
    """Mode-wise projected solves of the doubled SA system over many
    (driver, phase) columns, every mode's rate shifted by rho_j.

    The fiber solver (`shifted`) uses rho_j = mu_j = -|a_diag_j|: its
    forcing is e^{mu_j t} times smooth data, so it solves for the smooth
    factor, and `physical` multiplies the decay back in.  The contraction
    solver uses rho = 0, so its impulse responses are physical values.
    """

    def __init__(self, config: SAConfig, columns, times: np.ndarray, shifted: bool):
        self.config = config
        self.times = np.asarray(times, dtype=float)
        self.m = self.times.size
        self.columns = list(columns)
        self.a_diag, self.chi, self.b_coef, self.c_coef = mode_coefficients(config)
        a_diag, chi = self.a_diag, self.chi
        self.rho = -np.abs(a_diag) if shifted else np.zeros_like(a_diag)
        self.unstable = a_diag > 0  # modes 1..N
        self.a_vals = np.stack(
            [drv.values(q, self.times) for drv, q in self.columns], axis=1
        )
        c_int = np.stack(
            [drv.integral(q, self.times) for drv, q in self.columns], axis=1
        )
        h = self.times[1] - self.times[0]
        a_mean = np.diff(c_int, axis=0) / h
        self.frame_v = _ScalarFrame(
            self.times, a_diag, chi, -1.0, self.rho, ~self.unstable, a_mean, c_int
        )
        self.frame_e = _ScalarFrame(
            self.times, -a_diag, chi, +1.0, self.rho, self.unstable, a_mean, c_int
        )

    def physical(self, x: np.ndarray) -> np.ndarray:
        """Physical samples e^{rho t} x of (m, n, P) solutions."""
        return np.exp(self.rho[None, :] * self.times[:, None])[:, :, None] * x


# -- fibers -------------------------------------------------------------------


@dataclass(frozen=True)
class FiberResult:
    """One fiber of the stable Lagrange bundle over the driving flow."""

    q: object
    l_plus_q: LagrangeSubspace
    m_plus_q: GraphOperator
    p_q: np.ndarray | None
    oscillating: bool
    n_iterations: int


def slowest_fiber_rate(config: SAConfig) -> float:
    """Worst-case decay rate of the frozen doubled system over |a| <= a_b.

    Per mode the frozen rates are sqrt((A_j - a chi_j)^2 + b_j c_j); the
    truncation error of the fixed point decays with twice this rate.
    """
    a_diag, chi, b_coef, c_coef = mode_coefficients(config)
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


def _sharp_forcing(solver: _ModeSolver):
    """R(theta^t q) G_sharp(t) z^s_j over the decay e^{mu_j t}, (m, n, P) each.

    An unstable mode (j < N) has g = (0, e^{mu t}), so g_v = b_j and
    g_eta = chi_j a(t); a stable one has g = (e^{mu t}, 0), so
    g_v = -chi_j a(t) and g_eta = c_j.
    """
    unst = solver.unstable[None, :, None]
    chi_a = solver.chi[None, :, None] * solver.a_vals[:, None, :]
    g_v = np.where(unst, solver.b_coef[None, :, None], -chi_a)
    g_e = np.where(unst, chi_a, solver.c_coef[None, :, None])
    return g_v, g_e


def build_fibers(
    config: SAConfig, columns, horizon: float | None = None
) -> list[FiberResult]:
    """Stable-bundle fibers of (driver, phase) columns by one Picard iteration.

    The contraction is iterated mode-wise on the time grid, every column on
    the same sweeps, until the largest update over the columns has settled;
    one FiberResult is returned per column, in order (`_fibers_from`).
    """
    columns = list(columns)
    for driver, _ in columns:
        if driver.amplitude_bound > config.a_bound + 1e-12:
            raise AmplitudeTooLarge(
                f"driver amplitude {driver.amplitude_bound} > a_bound {config.a_bound}"
            )
    _require_contraction(config)
    times = _fiber_grid(config, horizon, None)
    solver = _ModeSolver(config, columns, times, shifted=True)
    g_v, g_e = _sharp_forcing(solver)
    bcf = solver.b_coef[None, :, None]
    ccf = solver.c_coef[None, :, None]
    d_eta = np.zeros_like(g_e)
    ref = None
    l2w = np.full(times.size, times[1] - times[0])
    l2w[0] = l2w[-1] = 0.5 * (times[1] - times[0])

    def phys_norm(x):
        vals = solver.physical(x)
        return float(np.sqrt(np.max(np.sum(l2w[:, None, None] * vals**2, axis=(0, 1)))))

    for it in range(PICARD_MAX_ITER):
        dv = solver.frame_v.solve(bcf * d_eta + g_v)
        new = solver.frame_e.solve(ccf * dv + g_e)
        delta = phys_norm(new - d_eta)
        d_eta = new
        if ref is None:
            ref = max(delta, 1e-300)
        if delta <= PICARD_TOL * ref:
            break
    else:
        raise ContractionFailed(
            f"Picard did not reach {PICARD_TOL:.1e} within {PICARD_MAX_ITER} iterations"
        )
    dv = solver.frame_v.solve(bcf * d_eta + g_v)
    # values at t = 0, where e^{mu 0} = 1
    return _fibers_from(config, solver.columns, dv[0], d_eta[0], it + 1)


def _fibers_from(config: SAConfig, columns, dv0, de0, n_iter: int) -> list[FiberResult]:
    """The fibers of the columns from Delta z(0), (n, P) each per half.

    The fiber basis adds Delta z(0) to each sharp basis vector, and
    nonoscillation extraction is attempted on each fiber.
    """
    sharp, flat = sa_breve_bases(config)
    modes = np.arange(config.n)
    unstable = modes < config.N
    # mode j's sharp vector gains m_j in its v-entry (j < N) or eta-entry
    rows = np.where(unstable, modes, config.n + modes)
    results = []
    for p_idx, (_, q) in enumerate(columns):
        m_diag = np.where(unstable, dv0[:, p_idx], de0[:, p_idx])
        basis = sharp.basis.copy()
        basis[rows, modes] += m_diag
        l_plus = LagrangeSubspace(basis)
        gop = GraphOperator(matrix=np.diag(m_diag), sharp=sharp, flat=flat)
        try:
            p_q, osc = extract_nonoscillation(l_plus).p, False
        except Oscillating:
            p_q, osc = None, True
        results.append(FiberResult(q=q, l_plus_q=l_plus, m_plus_q=gop, p_q=p_q,
                                   oscillating=osc, n_iterations=n_iter))
    return results


def fiber_continuity(driver: Driver, ref: FiberResult, fibers) -> list[dict]:
    """Moduli table of built fibers of `driver` against the fiber `ref`:
    phase distance, ||M+(q) - M+(q_ref)||, grassmann distance."""
    return [
        {
            "phase_distance": driver.phase_distance(fib.q, ref.q),
            "m_norm": float(
                np.linalg.norm(fib.m_plus_q.matrix - ref.m_plus_q.matrix, 2)
            ),
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
    a_diag, chi, b_coef, c_coef = mode_coefficients(config)
    m = np.array([np.diag(f.m_plus_q.matrix) for f in fibers])
    top = a_diag - np.array([driver.value(f.q) for f in fibers])[:, None] * chi
    stable = np.arange(config.n) >= config.N
    growth = np.where(stable, top + b_coef * m, c_coef * m - top)
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


def _mode_operator_matrices(solver: _ModeSolver, with_coupling: bool):
    """Dense per-mode matrices of the discretized contraction T (or of L_A).

    Columns are impulse responses of the unshifted solver, so they are
    physical values; they ride on the column axis of the single-column
    solver, whose step and weight arrays broadcast over it.
    """
    m = solver.m
    n = solver.a_diag.size
    out = np.zeros((n, m, m))
    b_coef, c_coef = solver.b_coef, solver.c_coef
    for lo in range(0, m, IMPULSE_BATCH):
        hi = min(lo + IMPULSE_BATCH, m)
        f = np.zeros((m, n, hi - lo))
        for col in range(lo, hi):
            f[col, :, col - lo] = 1.0
        if with_coupling:
            dv = solver.frame_v.solve(b_coef[None, :, None] * f)
            vals = solver.frame_e.solve(c_coef[None, :, None] * dv)
        else:
            vals = solver.frame_v.solve(f)
        out[:, :, lo:hi] = np.transpose(vals, (1, 0, 2))
    return out


def contraction_certificate(config: SAConfig) -> dict:
    """Analytic contraction bounds plus measured discretized operator norms.

    The norms are measured at phase 0 of the constant driver a = a_bound.
    They split by the band projectors (the discrete operator is
    mode-diagonal) and must stay below the analytic bounds; the discretized
    Lyapunov-Perron norms are checked against 1/mu_bar and 1/(mu_bar + k).
    """
    out = _require_contraction(config)
    times = _fiber_grid(config, None, CONTRACTION_STEPS)
    h = times[1] - times[0]
    w = np.full(times.size, h)
    w[0] = w[-1] = h / 2
    d_sq = np.sqrt(w)
    proj = config.projectors
    solver = _ModeSolver(
        config, [(constant_driver(config.a_bound), 0.0)], times, shifted=False
    )
    tmats = _mode_operator_matrices(solver, with_coupling=True)
    lmats = _mode_operator_matrices(solver, with_coupling=False)
    norms_t = np.array(
        [np.linalg.norm((tm * d_sq[:, None]) / d_sq[None, :], 2) for tm in tmats]
    )
    norms_l = np.array(
        [np.linalg.norm((lm * d_sq[:, None]) / d_sq[None, :], 2) for lm in lmats]
    )
    mid = proj.mid_mask
    out.update(
        measured_mid=float(norms_t[mid].max()) if mid.any() else 0.0,
        measured_pq=float(norms_t[~mid].max()) if (~mid).any() else 0.0,
        lp_measured_all=float(norms_l.max()),
        lp_measured_pq=float(norms_l[~mid].max()) if (~mid).any() else 0.0,
    )
    out["measured_pass"] = bool(
        out["measured_mid"] <= out["bound_mid"] + 1e-6
        and out["measured_pq"] <= out["bound_pq"] + 1e-6
        and out["lp_measured_all"] <= out["lp_bound_all"] + 1e-6
        and out["lp_measured_pq"] <= out["lp_bound_pq"] + 1e-6
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
    proj = config.projectors
    chi_i = proj.mid_mask.astype(float)
    chi = 1.0 - chi_i
    n = config.n
    a_diag = config.alpha - config.model.eigenvalues
    d = config.mu_bar * np.where(np.arange(n) < config.N, 1.0, -1.0)
    f1 = (t1 * a_value**2 - t1 * config.delta**2 - t2 * lam2) * chi_i - t3 * lam2 * chi
    s = np.zeros((n, 3, 3))
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
        chi_i = config.projectors.mid_mask.astype(float)
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


# -- nonautonomous trajectories ----------------------------------------------


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


def sa_trajectory(config: SAConfig, driver: Driver, q, z0: np.ndarray, horizon: float):
    """Integrate z' = H(theta^t q) z with the exponential midpoint rule.

    Every step propagator is the exponential of a Hamiltonian block, so the
    mode-wise symplectic pairings are preserved exactly.  The propagators
    are computed TRAJECTORY_CHUNK steps at a time, vectorised over steps;
    the state then advances step by step on their contiguous rows.
    """
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


def sa_pairing_drift(
    config: SAConfig, driver: Driver, q, z10, z20, horizon: float
) -> tuple[float, float]:
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
