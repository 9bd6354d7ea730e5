"""Exponential dichotomies of a matrix generator.

A dichotomy split block-diagonalizes the generator by an ordered real Schur
decomposition plus a Sylvester correction.  In the decoupled coordinates the
Lyapunov-Perron operator is a forward recursion on the stable block and a
backward one on the unstable block, each of whose steps the stationary
collocation system (`stationary._StationaryLP`) discretizes with the
piecewise-cubic exponential quadrature of `_phi`.  A split fits its
dichotomy constant M on first read (`m_const`); a run reads only the M of
A's split, in the LP tail bound and the dichotomy-gap record.  The Green
kernels and the grid application of the operator itself are kept as
oracles in tests/dichotomy_oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# scipy.linalg (0.16 s to import) is imported by the functions that call it,
# so that only a stationary construction loads it; the spatial-averaging
# route never does

from .errors import DimensionMismatch, SpectrumOnAxis
from .symplectic import Subspace

AXIS_TOL = 1e-10
#: sampled times of the fitted dichotomy constant M
M_CONST_SAMPLES = 80


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
    rank_j: int
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

    def propagate_stable(self, t: float) -> np.ndarray:
        """exp(t A) Pi_stable for t >= 0 (decaying branch)."""
        k = self.k_stable
        if k == 0:
            return np.zeros_like(self.generator)
        import scipy.linalg as sla

        return self.w[:, :k] @ sla.expm(t * self.t_stable) @ self.winv[:k]

    def propagate_unstable(self, t: float) -> np.ndarray:
        """exp(t A) Pi_unstable for t <= 0 (decaying backward branch)."""
        if self.rank_j == 0:
            return np.zeros_like(self.generator)
        import scipy.linalg as sla

        k = self.k_stable
        return self.w[:, k:] @ sla.expm(t * self.t_unstable) @ self.winv[k:]

    @cached_property
    def m_const(self) -> float:
        """The dichotomy constant M, fitted on first read: the sampled sup
        of the normalized semigroup norms (a lower estimate of M)."""
        ts = np.concatenate(
            [[0.0],
             np.geomspace(1e-3 / self.eps_rate, 10.0 / self.eps_rate, M_CONST_SAMPLES)]
        )
        m = 1.0
        for t in ts:
            grow = np.exp(self.eps_rate * t)
            if self.k_stable:
                m = max(m, np.linalg.norm(self.propagate_stable(t), 2) * grow)
            if self.rank_j:
                m = max(m, np.linalg.norm(self.propagate_unstable(-t), 2) * grow)
        return float(m)


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
    import scipy.linalg as sla

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
    return DichotomySplit(
        generator=a,
        eigenvalues=eigs,
        stable_basis=stable,
        rank_j=j,
        eps_rate=eps_rate,
        w=w,
        winv=winv,
        t_stable=t_s,
        t_unstable=t_u,
    )

