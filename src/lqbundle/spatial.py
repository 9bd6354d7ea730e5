"""Spatial-averaging pipeline: gap search, nonautonomous Hamiltonians over a
driving flow, contraction-certified fiber construction, uniform
nonoscillation and the singular quadratic-form certificate.

Every block of the assembled Hamiltonian is a function of the diagonal
reference operator, so the doubled system splits into independent
(v_j, eta_j) mode pairs.  The fiber construction keeps the analytical
structure (projected solves plus Picard on the certified contraction) but
runs it mode-wise, on per-mode data derived once per `SAConfig`
(`mode_coefficients`, `unstable`) and the scalar quadrature of `_phi`.  A
mode's fiber forcing carries its own stiff exponential e^{mu_j t}, so the
fiber solver integrates the smooth factor with the rate shifted by mu_j,
and the stiff transients are integrated exactly; the contraction's impulse
responses need no shift.  Each mode is integrated only in the direction of
its square-integrable Green branch, and both directions of a frame share
one recurrence.  `build_fibers` solves
every (driver, phase) column a run needs in one Picard iteration: the
certify pipeline's frozen-driver oracle and continuity table read columns of
its fibers stage and solve nothing.  The decay records read the exact growth
rate of each mode line of the built fibers (`fiber_growth`); no trajectory
is integrated in a run.  tests/spatial_oracles.py keeps the two-direction,
two-channel frame solve with its Picard loop as an exact reference, and the
routes that only tests take: the generic quadratic forms and frozen
(A(q), B) of the spatial-averaging condition, the inequality-implication
sweep, and the driven trajectories with their symplectic pairing;
tests/decay_oracles.py keeps the trajectory fits of the decay rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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

    @cached_property
    def projectors(self) -> ModeProjectors:
        """The band projectors, built once per config."""
        return mode_projectors(self.model, self.k, self.N)

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
        mid = self.projectors.mid_mask
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


#: the driver kinds of `driver_make`
DRIVER_KINDS = ("periodic", "quasiperiodic")


def driver_make(kind: str, params: dict, a_bound: float | None = None) -> Driver:
    """Build a periodic or quasiperiodic driver; validates the amplitude."""
    if kind == "periodic":
        drv = Driver(
            c0=float(params.get("c0", 0.0)),
            amplitudes=np.atleast_1d(np.asarray(params.get("c1", 0.0), dtype=float)),
            omegas=np.atleast_1d(np.asarray(params.get("omega", 1.0), dtype=float)),
        )
    elif kind == "quasiperiodic":
        drv = Driver(
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
    return Driver(c0=float(value), amplitudes=np.zeros(1), omegas=np.ones(1))


# -- Hamiltonians -------------------------------------------------------------


def assemble_nonaut_hamiltonian(config: SAConfig, a_value: float) -> Hamiltonian:
    """The frozen-coefficient Hamiltonian at a(q) = a_value, from the explicitly
    reduced mode-wise system; it equals `assemble_hamiltonian` on
    (A(q), B, F(q))."""
    if abs(a_value) > config.a_bound + 1e-12:
        raise AValueOutOfRange(f"|a| = {abs(a_value)} exceeds a_bound {config.a_bound}")
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
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

    Sharp column j: vertical e_j for j < N (unstable eta-side), horizontal
    e_j for j >= N; flat columns are the complements.
    """
    n = config.n
    modes = np.arange(n)
    sharp = np.zeros((2 * n, n))
    flat = np.zeros((2 * n, n))
    sharp[np.where(config.unstable, n + modes, modes), modes] = 1.0
    flat[np.where(config.unstable, modes, n + modes), modes] = 1.0
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
        self.wf_fwd = self._weighted_folds(True, z[:, self.fwd], fold_f)
        self.wf_bwd = self._weighted_folds(False, z[:, self.bwd], fold_b)

    def _weighted_folds(self, forward: bool, z, folds):
        """Per stencil node ell, the weights of one direction times its fold
        factors on the intervals: (4, m-1, modes, P).  Stencil pattern 0
        holds on the first interval, 1 on the interior, 2 on the last."""
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
        self.a_diag, self.chi, self.b_coef, self.c_coef = config.mode_coefficients
        a_diag, chi = self.a_diag, self.chi
        self.rho = -np.abs(a_diag) if shifted else np.zeros_like(a_diag)
        self.unstable = config.unstable
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
    # mode j's sharp vector gains m_j in its v-entry (j < N) or eta-entry
    rows = np.where(config.unstable, modes, config.n + modes)
    results = []
    for p_idx, (_, q) in enumerate(columns):
        m_diag = np.where(config.unstable, dv0[:, p_idx], de0[:, p_idx])
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
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
    m = np.array([np.diag(f.m_plus_q.matrix) for f in fibers])
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

