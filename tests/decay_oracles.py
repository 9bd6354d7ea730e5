"""Trajectory oracles of the decay records.

The library reads its decay records from the constructed subspaces: the
stationary rate from the spectrum of H restricted to L+
(`lqbundle.stationary.restricted_decay`), the spatial-averaging rate from
the exact growth of each mode line of the fibers
(`lqbundle.spatial.fiber_growth`).  The routes here integrate a trajectory
from the subspace and least-squares-fit its norms instead, and serve as
independent references in the tests.  `two_sided_eps0` is the eps0
bisection as the library ran it before one shifted level test served both
signs: every pass tests the shifts +eps and -eps.
"""

from __future__ import annotations

import numpy as np
from spatial_oracles import fiber_subspace, sa_trajectory

from lqbundle.dichotomy import GridFunction
from lqbundle.frequency import level_crossings
from lqbundle.stationary import EPS0_TOL, Regulator

#: relative norm below which trajectory samples are left out of the rate fit
DECAY_FIT_FLOOR = 1e-13


def two_sided_eps0(reg: Regulator) -> float:
    """`lqbundle.stationary.estimate_eps0` with both shifted systems tested
    on every pass."""
    cap = 0.999 * min(reg.split_a.eps_rate, reg.ham.gap)

    def passes(eps: float) -> bool:
        return not any(
            level_crossings(reg.a, reg.b, reg.form, 0.0, s).size for s in (eps, -eps)
        )

    if passes(cap):
        return cap
    lo, hi = 0.0, cap
    while hi - lo > EPS0_TOL:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_decay_rate(traj: GridFunction) -> tuple[float, float]:
    """(rate, prefactor) from a least-squares fit of log ||z(t)||.

    Off-subspace roundoff grows at the fastest antistable rate and
    eventually dominates any trajectory meant to stay on the stable
    subspace, so the fit window ends at the norm minimum.  On a long horizon
    that growth may overflow; the norms are cut at the first non-finite one
    before the minimum is taken.  prefactor is the sampled sup of
    ||z(t)|| e^{rate t} / ||z(0)||.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(traj.values, axis=1)
    finite = np.isfinite(norms)
    if not finite.all():
        norms = norms[: int(np.argmin(finite))]
    stop = int(np.argmin(norms)) + 1
    if stop < 5:
        stop = norms.size
    norms = norms[:stop]
    times = traj.times[:stop]
    keep = norms > DECAY_FIT_FLOOR * max(norms[0], 1e-300)
    t = times[keep]
    ln = np.log(norms[keep])
    slope, _ = np.polyfit(t, ln, 1)
    rate = -float(slope)
    pref = float(np.max(norms[keep] * np.exp(rate * t) / max(norms[0], 1e-300)))
    return rate, pref


def exp_decay_fit(config, driver, q, z0, fiber=None) -> tuple[float, float]:
    """(fitted rate, fitted prefactor) of the driven trajectory from z0 over
    the horizon 8 / mu_bar; z0 must lie in `fiber` when one is given."""
    z0 = np.asarray(z0, dtype=float)
    if np.linalg.norm(z0) == 0.0:
        return float("inf"), 0.0
    if fiber is not None:
        proj = fiber_subspace(fiber).projector()
        off = np.linalg.norm(z0 - proj @ z0) / np.linalg.norm(z0)
        if off > 1e-6:
            raise ValueError(f"initial state off the fiber by {off:.3e}")
    # roundoff off the fiber grows at the fastest antistable rate and may
    # overflow late in the horizon; the fit stops at the first non-finite norm
    with np.errstate(over="ignore", invalid="ignore"):
        traj = sa_trajectory(config, driver, q, z0, 8.0 / config.mu_bar)
    return fit_decay_rate(traj)
