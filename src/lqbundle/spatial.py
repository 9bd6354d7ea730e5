"""Spatial-averaging pipeline: gap search, driving flows, contraction-certified
fiber construction, the frozen-driver oracle, uniform nonoscillation and the
singular quadratic-form certificate.

Every block of the doubled system's Hamiltonian is a function of the
diagonal reference operator, so the system splits into independent
(v_j, eta_j) mode pairs, and every stage works plane by plane: no 2n x 2n
matrix is built.  Each fiber L+(q) is the graph of a diagonal
M+(q) = diag(m_j) over the sharp pairing subspace.  Mode j's line is the
stable line of its 2 x 2 flow along the driver's orbit, which
`build_fibers` reads off one backward sweep (`_sweep`), vectorised over
(mode, column), on the grid that the configuration fixes (`_fiber_grid`),
and checks by the same sweep on twice the step.  It solves every
(driver, phase) column a run needs in one call: the certify pipeline's
frozen-driver oracle and continuity table read columns of its fibers stage
and solve nothing.  Each `FiberResult` keeps the n entries m_j and reads
P(q), the vertical intersection and projector gaps off its n mode lines in
closed form; `frozen_oracle_gap` compares them with the stable eigenvectors
of one `eig` of the stacked frozen 2 x 2 blocks.  The contraction
certificate measures the fiber contraction's discretized operator norms
mode by mode under the constant driver a = a_b: the coefficients of
`SAConfig.mode_coefficients` on the one band mask a run reads
(`SAConfig.mid_mask`, the intermediate band), and the (v, eta) frames of a
mode (`_frames`), each a scalar equation at one constant rate with the
quadrature weights of `_phi`, integrated only in the direction of its
square-integrable Green branch.  Its band maxima take a norm only of the
modes whose O(m) majorant bound, batched over modes, can still beat them,
once per distinct pair of frames, from a Gram eigensolve.
The decay records read the exact growth rate of each mode line of the
built fibers (`fiber_growth`); no trajectory is integrated in a run.
tests/spatial_oracles.py keeps the two-direction, two-channel frame solve
of driven columns and the fibers' Picard loop on it as references, the
dense frozen Hamiltonian and fiber basis, the gap search's loop over
(N, k), and the routes that only tests take: the low and high band
projectors, the generic quadratic forms and frozen (A(q), B) of the
spatial-averaging condition, the inequality-implication sweep, and the
driven trajectories with their symplectic pairing; tests/decay_oracles.py
keeps the trajectory fits of the decay rate.  `SAConfig.check_driver` is
the one check of a driver's sup |a| against the amplitude bound
a_b = Lambda + delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from ._phi import (
    backward_moments,
    backward_weights,
    forward_weights,
    phi_scalar,
)
from .errors import (
    AmplitudeTooLarge,
    AValueOutOfRange,
    ContractionFailed,
    NoCandidate,
    NotAContraction,
    NotPositive,
    Oscillating,
    SpectrumOnAxis,
)
from .spectral import SpectralModel
from .symplectic import RANK_RTOL

#: largest step-doubling estimate of a fiber line's sine error: the
#: accuracy that the frozen-oracle record asks of a fiber
FIBER_TOL = 1e-6
#: offset of the two Gauss nodes of a Magnus step from its midpoint, in steps
GAUSS_OFFSET = np.sqrt(3.0) / 6.0
#: (step, mode, column) entries per coefficient array of a fiber sweep chunk
SWEEP_CHUNK = 8192
#: time steps of the grid on which the contraction norms are measured
CONTRACTION_STEPS = 360
#: relative pad of an operator norm bound: at m = CONTRACTION_STEPS + 1
#: nodes the bound's sums of nonnegative terms, the dense matrix and the root
#: of its Gram matrix's largest eigenvalue all round by a few m eps = 8e-14
NORM_BOUND_PAD = 1e-10
#: rows of the Gram matrix that one BLAS product of `_spectral_norm` builds:
#: one whole 361 x 361 product touches more of the BLAS work buffer, which
#: raised the peak RSS of a warm sa-standard verify by 0.7 MB
GRAM_PANEL = 96
#: largest k that the gap search tries
GAP_K_MAX = 50
#: pieces of [-a_bound, a_bound] on which the v-form's floor is affine
V_FORM_PIECES = 16


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


def _satisfied(condition_set: str, m1, m2):
    """Whether the margins of `condition_margins` satisfy their set,
    elementwise; the first inequality is strict for the nonoscillation-type
    sets."""
    first = m1 >= 0.0 if condition_set == "bundle" else m1 > 0.0
    return first & (m2 >= 0.0)


def condition_holds(
    condition_set: str, lam: float, delta: float, mu_bar: float, k
) -> bool:
    return bool(_satisfied(condition_set,
                           *condition_margins(condition_set, lam, delta, mu_bar, k)))


def gap_search(
    model: SpectralModel,
    lam: float,
    delta: float,
    condition_set: str,
) -> tuple[np.ndarray, np.ndarray]:
    """The (k, N) pairs satisfying the selected inequality set and their two
    margins, as (pairs, 2) arrays ordered by N and then k: the margins of
    every gap mu_bar > 0 and k = 1..GAP_K_MAX in one array computation."""
    mu_bar = 0.5 * np.diff(model.eigenvalues)
    gaps = np.flatnonzero(mu_bar > 0.0)
    ks = np.arange(1, GAP_K_MAX + 1)
    m1, m2 = np.broadcast_arrays(
        *condition_margins(condition_set, lam, delta, mu_bar[gaps, None], ks))
    rows, cols = np.nonzero(_satisfied(condition_set, m1, m2))
    if not rows.size:
        raise NoCandidate(
            f"no (k, N) satisfies the {condition_set!r} inequalities up to k = {GAP_K_MAX}"
        )
    return (np.column_stack([ks[cols], gaps[rows] + 1]),
            np.column_stack([m1[rows, cols], m2[rows, cols]]))


# -- drivers -----------------------------------------------------------------


@dataclass(frozen=True)
class Driver:
    """Closed-form driving flow: from phase q the flow reaches phase
    q + omega t at time t.

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

    def phase_distance(self, q1, q2) -> float:
        d = np.abs(self._phases(q1) - self._phases(q2))
        d = np.minimum(d, 2.0 * np.pi - d)
        return float(np.max(d))


def constant_driver(value: float) -> Driver:
    return Driver(c0=float(value), amplitudes=np.zeros(1), omegas=np.ones(1))


# -- mode-wise Lyapunov-Perron machinery -------------------------------------


class _ScalarFrame:
    """One mode's projected scalar equation x' = rate x + f over P columns,
    at the one constant rate of the contraction's driver, on m nodes of step
    h.

    The mode is integrated in the one direction whose Green branch is
    square-integrable: forward from zero if `forward`, backward from zero
    otherwise.  Its step factor e^{+-rate h} and the four weights of each
    stencil pattern (first, interior and last interval) exist for that
    direction only.

    Array layout: (m nodes, P columns); the scalar step and weights apply to
    every column.
    """

    def __init__(self, h: float, m: int, rate: float, forward: bool):
        self.m = m
        self.forward = forward
        z = rate * h
        if forward:
            self.step = np.exp(z)
            ph, weights = phi_scalar(4, z), forward_weights
        else:
            self.step = np.exp(-z)
            ph, weights = backward_moments(phi_scalar(4, -z)), backward_weights
        self.w = [weights(ph, h, pattern) for pattern in range(3)]

    def _local(self, fvals: np.ndarray, out: np.ndarray) -> None:
        """Accumulate the per-interval local integrals of fvals into out."""
        m, (first, interior, last) = self.m, self.w
        out_int = out[1 : m - 2]
        prod = np.empty(out_int.shape)
        for ell in range(4):
            np.multiply(interior[ell], fvals[ell : m - 3 + ell], prod)
            out_int += prod
        for ell in range(4):
            out[0] += first[ell] * fvals[ell]
            out[m - 2] += last[ell] * fvals[m - 4 + ell]

    def solve(self, fvals: np.ndarray) -> np.ndarray:
        """L2 solve: forward from zero, or backward (the negated Green
        branch).  Interval i's local integral is written at node i + 1,
        resp. node i, and the recurrence acc = step * acc + local runs over
        those rows in the direction of integration."""
        out = np.zeros(fvals.shape)
        loc = out[1:] if self.forward else out[:-1]
        self._local(fvals, loc)
        if not self.forward:
            np.negative(loc, out=loc)
            loc = loc[::-1]
        step, acc = self.step, np.zeros(loc.shape[1:])
        for row in loc:
            row += step * acc
            acc = row
        return out

    def solve_transposed(self, g: np.ndarray) -> np.ndarray:
        """S^T g for the matrix S of `solve`: its recurrence run the other
        way, then each interval's value scattered back to its four nodes."""
        m, (first, interior, last) = self.m, self.w
        acc_rows = g[1:].copy() if self.forward else -g[:-1]
        step, acc = self.step, np.zeros(g.shape[1:])
        for row in acc_rows[::-1] if self.forward else acc_rows:
            row += step * acc
            acc = row
        out = np.zeros(g.shape)
        for ell in range(4):
            out[ell : m - 3 + ell] += interior[ell] * acc_rows[1 : m - 2]
            out[ell] += first[ell] * acc_rows[0]
            out[m - 4 + ell] += last[ell] * acc_rows[m - 2]
        return out


def _frames(config: SAConfig, h: float, m: int, modes):
    """The (v, eta) frames of mode j, or of an index array of modes all
    unstable or all stable (one per column), of the doubled SA system under
    a = a_b on m nodes of step h: the contraction's impulse responses.  The
    v-frame runs at top_j = a_diag_j - chi_j a_b, the eta-frame at -top_j."""
    a_diag, chi, _, _ = config.mode_coefficients
    top = a_diag[modes] - chi[modes] * config.a_bound
    unstable = bool(np.all(config.unstable[modes]))
    return _ScalarFrame(h, m, top, not unstable), _ScalarFrame(h, m, -top, unstable)


# -- fibers -------------------------------------------------------------------


@dataclass(frozen=True)
class FiberResult:
    """One fiber of the stable Lagrange bundle over the driving flow.

    The fiber is the graph of the diagonal M+(q) = diag(m) over the sharp
    pairing subspace: one line per (v_j, eta_j) plane, spanned by (m_j, 1)
    for an `unstable` mode (j < N) and by (1, m_j) otherwise.  So it is
    isotropic exactly, and P(q), its vertical intersection and its projector
    gap to another fiber are closed forms in the unit lines (x_j, y_j).
    `n_iterations` is 1, the one sweep of the solve, and `residual` is the
    sweep's step-doubling estimate of the lines' sine error, the same over
    the columns of one solve.
    """

    q: object
    m: np.ndarray
    unstable: np.ndarray
    n_iterations: int
    residual: float

    def _lines(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.where(self.unstable, self.m, 1.0)
        y = np.where(self.unstable, 1.0, self.m)
        norm = np.hypot(x, y)
        return x / norm, y / norm

    def vertical_dimension(self) -> int:
        """dim(L+(q) cap {0} x H) by the rank rule of `intersection_dimension`:
        mode j's block of [basis, -vertical] has the singular values
        s_j = sqrt(1 + |y_j|) and |x_j| / s_j."""
        x, y = self._lines()
        s = np.sqrt(1.0 + np.abs(y))
        return int(np.sum(np.abs(x) / s <= RANK_RTOL * s.max()))

    @property
    def p(self) -> np.ndarray:
        """The diagonal -y_j / x_j of P(q); Oscillating on a vertical line."""
        if self.vertical_dimension():
            raise Oscillating("stable fiber meets the vertical subspace")
        x, y = self._lines()
        return -y / x

    def gap(self, other: FiberResult) -> float:
        """||Pi_1 - Pi_2||_2 of the two fibers' orthogonal projectors."""
        return _line_gap(self._lines(), other._lines())


def _line_gap(lines, other) -> float:
    """The largest sine of the angle between two unit lines (x_j, y_j) and
    (x'_j, y'_j) of one mode plane, max_j |x_j y'_j - y_j x'_j|: the
    projector gap of two sets of mode lines."""
    (x, y), (x2, y2) = lines, other
    return float(np.abs(x * y2 - y * x2).max())


def frozen_oracle_gap(config: SAConfig, a_value: float, fiber: FiberResult) -> float:
    """Projector gap of `fiber` to the stable subspace of the Hamiltonian
    frozen at a = a_value, mode by mode: the stable subspace is the stable
    eigenvector of each plane's block [[top_j, b_j], [c_j, -top_j]],
    top_j = a_diag_j - chi_j a_value, normalised.  SpectrumOnAxis unless
    every block has one negative and one positive real eigenvalue."""
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
    top = a_diag - chi * a_value
    blocks = np.stack([top, b_coef, c_coef, -top], axis=-1).reshape(-1, 2, 2)
    vals, vecs = np.linalg.eig(blocks)
    if np.iscomplexobj(vals) or not np.all((vals.min(axis=1) < 0.0)
                                           & (vals.max(axis=1) > 0.0)):
        raise SpectrumOnAxis(f"a frozen mode block at a = {a_value:.6g} has no "
                             "negative and positive real eigenvalue pair")
    stable = np.take_along_axis(vecs, vals.argmin(axis=1)[:, None, None], axis=2)
    x, y = stable[:, 0, 0], stable[:, 1, 0]
    norm = np.hypot(x, y)
    return _line_gap(fiber._lines(), (x / norm, y / norm))


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


def _fiber_grid(config: SAConfig, n_steps: int | None):
    """The uniform grid over [0, max(12 / mu_bar, 10 / slowest frozen rate)]
    with `n_steps` steps, or by default a step of 0.06 over the fastest
    rate mu_bar + k + 2 a_b, at least 320 and at most 20,000 steps."""
    t_end = max(12.0 / config.mu_bar, 10.0 / slowest_fiber_rate(config))
    if n_steps is None:
        rate_max = config.mu_bar + config.k + 2.0 * config.a_bound
        n_steps = int(np.clip(np.ceil(t_end * rate_max / 0.06), 320, 20000))
    return np.linspace(0.0, t_end, int(n_steps) + 1)


def _sweep(config: SAConfig, columns, times: np.ndarray):
    """The unit lines (x, y) at t = 0 of every (mode, column), (n, P) each,
    by one backward sweep of the mode flows over the grid `times`.

    Mode j's flow in its (v_j, eta_j) plane is z' = [[top, b_j], [c_j, -top]] z
    with top = a_diag_j - chi_j a(t).  Integrated backward, every line
    converges to the stable one (Dieci, Osborne & Russell 1988, SIAM J.
    Numer. Anal. 25:1055).  The sweep starts at the grid's end from the
    stable eigenvector of the flow frozen there, in the form without
    cancellation, so a constant driver's line is exact.  Each step applies
    exp(-Omega) of the fourth-order two-point Gauss Magnus step (Blanes,
    Casas, Oteo & Ros 2009, Phys. Rep. 470:151), Omega = [[p, q], [r, -p]]
    with p = h (top_1 + top_2) / 2, q = h b (1 + sqrt(3)/6 h delta),
    r = h c (1 - sqrt(3)/6 h delta), delta = top_2 - top_1 at the Gauss
    nodes.  The closed form cosh(d) I - sinh(d) / d Omega, d^2 = p^2 + q r,
    is scaled by e^{-|d|}, so it cannot overflow (cos and sin when
    d^2 <= 0, computed only for a chunk that has such a step), and the line
    is normalised every step.  The coefficients of a
    chunk of steps are computed at once, at most SWEEP_CHUNK (step, mode,
    column) entries per array; only the line's update and normalisation run
    step by step, in a step-by-step sweep's arithmetic and order.
    """
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
    chunk = max(1, SWEEP_CHUNK // x.size)
    for hi in range(a_mean.shape[0], 0, -chunk):
        mean, tilt = (v[max(0, hi - chunk) : hi][::-1, None] for v in (a_mean, a_tilt))
        p = h * (a_diag - chi * mean)
        q = (h * b_coef) * (1.0 + chi * tilt)
        r = (h * c_coef) * (1.0 - chi * tilt)
        d_sq = p * p + q * r
        d = np.sqrt(np.maximum(np.abs(d_sq), tiny))
        decay = np.expm1(-2.0 * d)
        hyperbolic = d_sq > 0.0
        cosh, sinc = 1.0 + 0.5 * decay, -0.5 * decay
        if not hyperbolic.all():  # a chunk with an oscillatory step
            cosh = np.where(hyperbolic, cosh, np.cos(d))
            sinc = np.where(hyperbolic, sinc, np.sin(d))
        sinc = sinc / d
        for p1, q1, r1, c1, s1 in zip(p, q, r, cosh, sinc):  # one step each
            x, y = c1 * x - s1 * (p1 * x + q1 * y), c1 * y - s1 * (r1 * x - p1 * y)
            norm = np.hypot(x, y)
            x, y = x / norm, y / norm
    return x, y


def build_fibers(config: SAConfig, columns) -> list[FiberResult]:
    """Stable-bundle fibers of (driver, phase) columns by a backward sweep.

    Each fiber is n lines, one per mode plane, read off `_sweep` on the
    grid of `_fiber_grid`, vectorised over (mode, column).  The same sweep
    on half as many steps, twice the step, gives the step-doubling estimate
    of the lines' error, the largest sine between the two sweeps' lines:
    ContractionFailed unless it is at most FIBER_TOL.  One FiberResult is returned per
    column, in order.
    """
    columns = list(columns)
    for driver, _ in columns:
        config.check_driver(driver)
    _require_contraction(config)
    times = _fiber_grid(config, None)
    x, y = _sweep(config, columns, times)
    x2, y2 = _sweep(config, columns, _fiber_grid(config, (times.size - 1) // 2))
    estimate = _line_gap((x, y), (x2, y2))
    if not estimate <= FIBER_TOL:
        raise ContractionFailed(
            f"step-doubling estimate {estimate:.3e} of the fiber sweep exceeds "
            f"{FIBER_TOL:.1e}"
        )
    # an unstable mode's line is (m_j, 1), a stable one's (1, m_j)
    m = np.where(config.unstable[:, None], x / y, y / x)
    return [
        FiberResult(q=q, m=m[:, p_idx], unstable=config.unstable,
                    n_iterations=1, residual=estimate)
        for p_idx, (_, q) in enumerate(columns)
    ]


def fiber_continuity(driver: Driver, ref: FiberResult, fibers) -> list[dict]:
    """Moduli table of built fibers of `driver` against the fiber `ref`:
    phase distance, ||M+(q) - M+(q_ref)|| = max_j |m_j(q) - m_j(q_ref)|
    (the spectral norm of a diagonal difference), projector gap."""
    return [
        {
            "phase_distance": driver.phase_distance(fib.q, ref.q),
            "m_norm": float(np.abs(fib.m - ref.m).max()),
            "grassmann": fib.gap(ref),
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


def _mode_operators(frames, bc: float, d_sq: np.ndarray):
    """One mode's discretized L_A and T, scaled to D^1/2 L_A D^-1/2 and
    D^1/2 T D^-1/2 by the quadrature weights D, yielded in that order.

    L_A = S_v and T = b c S_eta S_v for the (v, eta) frames' solves S, so
    one v-frame solve serves both: the m impulses, each scaled by its
    D^-1/2, ride on the column axis of the frame, whose scalar step and
    weights apply to every column.  T's solve reads L_A's buffer and
    overwrites it first, so that one m x m matrix of the mode is alive
    outside the solves: a reader of L_A is done with it before it asks
    for T.
    """
    frame_v, frame_e = frames
    mat = frame_v.solve(np.diag(1.0 / d_sq))
    mat *= d_sq[:, None]
    yield mat
    mat *= bc / d_sq[:, None]
    mat = frame_e.solve(mat)
    mat *= d_sq[:, None]
    yield mat


def _norm_bound(row_sums: np.ndarray, col_sums: np.ndarray) -> np.ndarray:
    """sqrt(||A+||_inf ||A+||_1) >= ||A||_2, A+ >= |A| entrywise (Higham 2002,
    ch. 6), per trailing index of A+'s row and column sums, padded so that no
    rounding puts it below a measured norm; ContractionFailed unless finite."""
    bound = np.sqrt(row_sums.max(axis=0) * col_sums.max(axis=0))
    if not np.all(np.isfinite(bound)):
        raise ContractionFailed(f"operator norm bound {np.max(bound)} is not finite")
    return bound * (1.0 + NORM_BOUND_PAD)


def _majorant_sums(config: SAConfig, h: float, d_sq: np.ndarray) -> np.ndarray:
    """(T rows, T columns, L_A rows, L_A columns), (4, m, n): row and column
    sums of majorants of every mode's D^1/2 T D^-1/2 and D^1/2 L_A D^-1/2, D
    the quadrature weights.  A frame's matrix is +-R W, R's entries powers of
    its positive step, so with |W| (negated backward, as `solve` negates) it
    is M = R |W| >= |R W|, and |T| <= |b c| M_eta M_v.  The modes of one
    direction share one column axis, and no matrix is built."""
    _, _, b_coef, c_coef = config.mode_coefficients
    sums = np.empty((4, d_sq.size, config.n))
    for modes in np.flatnonzero(config.unstable), np.flatnonzero(~config.unstable):
        frame_v, frame_e = _frames(config, h, d_sq.size, modes)
        for frame in frame_v, frame_e:
            sign = 1.0 if frame.forward else -1.0
            frame.w = [[sign * np.abs(w) for w in pattern] for pattern in frame.w]
        bc = np.abs(b_coef[modes] * c_coef[modes])
        left = np.repeat(d_sq[:, None], modes.size, axis=1)
        right = 1.0 / left
        rows_v = frame_v.solve(right)
        sums[:, :, modes] = (
            bc * left * frame_e.solve(rows_v),
            bc * right * frame_v.solve_transposed(frame_e.solve_transposed(left)),
            left * rows_v,
            right * frame_v.solve_transposed(left),
        )
    return sums


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


def _spectral_norm(mat: np.ndarray) -> float:
    """||mat||_2 = sqrt(lambda_max(mat^T mat)), from one `eigvalsh` of the
    Gram matrix, built GRAM_PANEL rows at a time; ContractionFailed first
    unless mat is finite (`_norm_bound` of its entries).  The symmetric
    solver is backward stable, so the root keeps a relative error of a few
    m eps, as an SVD's largest singular value does."""
    _norm_bound(np.abs(mat).sum(axis=1), np.abs(mat).sum(axis=0))  # or fails
    gram = np.empty((mat.shape[1], mat.shape[1]))
    for lo in range(0, gram.shape[0], GRAM_PANEL):
        np.dot(mat[:, lo : lo + GRAM_PANEL].T, mat, out=gram[lo : lo + GRAM_PANEL])
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def contraction_certificate(config: SAConfig) -> dict:
    """Analytic contraction bounds plus measured discretized operator norms.

    The norms are measured under the constant driver a = a_bound, so each
    mode's frames run at one rate (`_frames`).  They split by the band
    projectors (the discrete operator is mode-diagonal) and must stay below
    the analytic bounds; the discretized Lyapunov-Perron norms are checked
    against 1/mu_bar and 1/(mu_bar + k).
    A first pass bounds every mode's T and L_A norm in O(m), building no
    matrix (`_majorant_sums`, `_norm_bound`); each band maximum then takes
    the norms only of the modes whose bound can still beat it
    (`_pruned_max`).  A mode's frames are fixed by its key
    (sigma_j top_j, b_j c_j), sigma_j = -1 on an unstable mode and +1
    otherwise, and the norms of a key are evaluated once, T and L_A from one
    build (`_mode_operators`, `_spectral_norm`).  Equal keys mean equal
    frames, or mirrored ones: an unstable mode's v-frame runs backward at
    rate -t where a stable mode's runs forward at t, the time reversal J of
    it up to sign, and the trapezoid weights are symmetric, so the scaled
    T' = J T J and L_A' = -J L_A J have the same norms.
    """
    out = _require_contraction(config)
    times = _fiber_grid(config, CONTRACTION_STEPS)
    h = times[1] - times[0]
    w = np.full(times.size, h)
    w[0] = w[-1] = h / 2
    d_sq = np.sqrt(w)
    a_diag, chi, b_coef, c_coef = config.mode_coefficients
    bc = b_coef * c_coef
    top = a_diag - chi * config.a_bound
    keys = list(zip(np.where(config.unstable, -top, top).tolist(), bc.tolist()))

    @cache
    def key_norms(key):  # (||L_A||, ||T||) of the first mode with the key
        j = keys.index(key)
        return tuple(map(_spectral_norm,
                         _mode_operators(_frames(config, h, times.size, j), bc[j], d_sq)))

    def norm_t(j):
        return key_norms(keys[j])[1]

    def norm_l(j):
        return key_norms(keys[j])[0]

    rows_t, cols_t, rows_l, cols_l = _majorant_sums(config, h, d_sq)
    bounds_t, bounds_l = _norm_bound(rows_t, cols_t), _norm_bound(rows_l, cols_l)
    modes, mid = np.arange(config.n), config.mid_mask
    out.update(
        measured_mid=_pruned_max(bounds_t, norm_t, modes[mid]),
        measured_pq=_pruned_max(bounds_t, norm_t, modes[~mid]),
        lp_measured_all=_pruned_max(bounds_l, norm_l, modes),
        lp_measured_pq=_pruned_max(bounds_l, norm_l, modes[~mid]),
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


def _mode_quadratic_blocks(config: SAConfig, a_values) -> np.ndarray:
    """Per-mode 3x3 matrices of the infinitesimal certificate form in
    (v_j, xiI_j, xiC_j), (..., n, 3, 3) over the shape of `a_values`."""
    t1, t2, t3 = config.taus
    lam2 = config.lam**2
    a_diag, chi, _, _ = config.mode_coefficients
    chi_i = 1.0 - chi
    d = config.mu_bar * np.where(config.unstable, 1.0, -1.0)
    a = np.asarray(a_values, dtype=float)[..., None]
    f1 = (t1 * a**2 - t1 * config.delta**2 - t2 * lam2) * chi_i - t3 * lam2 * chi
    s = np.zeros(a.shape[:-1] + (config.n, 3, 3))
    s[..., 0, 0] = d * (a_diag - a) + f1
    s[..., 0, 1] = s[..., 1, 0] = 0.5 * d - t1 * a * chi_i
    s[..., 0, 2] = s[..., 2, 0] = 0.5 * d
    s[..., 1, 1] = t1 * chi_i + t2 * chi
    s[..., 2, 2] = t3
    return s


def v_form_certificate(config: SAConfig) -> dict:
    """Coercivity constant delta_V of the singular-form inequality.

    For each a of a 64-point grid on [-a_bound, a_bound] the per-mode 3x3
    infinitesimal form is assembled; blocks - delta I is psd exactly for
    delta up to the least eigenvalue of the blocks, and the certificate is
    the minimum of that eigenvalue over the grid, from one `eigvalsh` of the
    stack of every a's blocks.

    A piecewise-affine minorant proves a floor under it.  The blocks are
    S0 + a S1 + t1 chi_i a^2 E00 (chi_i the intermediate band's indicator,
    E00 the (v, v) entry).  On each of V_FORM_PIECES equal pieces of
    [-a_bound, a_bound] with midpoint a_m, a^2 >= 2 a_m a - a_m^2, its
    tangent, and t1 >= 0, so the blocks dominate the affine S0 + a S1 +
    t1 chi_i (2 a_m a - a_m^2) E00 in the psd order.  The least eigenvalue
    of an affine symmetric matrix function is a minimum of affine functions
    of a, so concave, and its minimum over the piece is at an end.  The
    floor, the least eigenvalue at both ends of every piece from one
    `eigvalsh` of the (pieces, 2, n, 3, 3) stack, is thus at most the least
    eigenvalue anywhere on [-a_bound, a_bound], and NotPositive if the grid
    route falls below it.
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
    delta_v = float(np.linalg.eigvalsh(_mode_quadratic_blocks(config, a_grid)).min())
    cuts = np.linspace(-ab, ab, V_FORM_PIECES + 1)
    ends = np.column_stack([cuts[:-1], cuts[1:]])
    # a^2 - (2 a_m a - a_m^2) = (a - a_m)^2 off each (v, v) entry of the band
    gaps = ends - ends.mean(axis=1, keepdims=True)
    blocks = _mode_quadratic_blocks(config, ends)
    blocks[..., 0, 0] -= config.taus[0] * gaps[..., None] ** 2 * config.mid_mask
    affine_floor = float(np.linalg.eigvalsh(blocks).min())
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
