"""The completed-square balance identity, kept as an oracle of the Riccati
solution.

The library certifies P by its relative Riccati residual
(`lqbundle.stationary.riccati_residual`).  `riccati_integral_check` checks
the same P along a control trajectory instead: the storage function
V_P(v) = <P v, v> must balance the integrated cost up to the completed
square, so its defect measures the quadrature error only.  It first checks
that (v, xi) is a control trajectory at all: the library's runs integrate
every state from its control, so only this oracle takes a pair from outside.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.integrate import simpson

from lqbundle.dichotomy import GridFunction
from lqbundle.frequency import QuadraticFormTriple
from lqbundle.stationary import _form_density, integrate_control_trajectory

#: relative residual above which a (v, xi) pair is not a control trajectory
TRAJ_TOL = 1e-6


class NotATrajectory(ValueError):
    """v is not the state of v' = A v + B xi from v(0)."""


def riccati_integral_check(
    p,
    a,
    b,
    form: QuadraticFormTriple,
    v: GridFunction,
    xi: GridFunction,
) -> float:
    """Defect of the completed-square balance identity along a trajectory.

    |V_P(v(T)) - V_P(v(0)) + int F - int <F3 (xi - K v), xi - K v>|, Simpson
    quadrature, normalized by the accumulated magnitudes.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    ref = integrate_control_trajectory(a, b, [xi], [v.values[0]])[0]
    err = np.abs(ref.values - v.values).max() / max(np.abs(v.values).max(), 1e-30)
    if err > TRAJ_TOL:
        raise NotATrajectory(f"trajectory residual {err:.3e} > {TRAJ_TOL:.1e}")
    f3_fac = form.f3_factor
    k_fb = -sla.cho_solve(f3_fac, form.f2) - sla.cho_solve(f3_fac, b.T @ p)
    vv = v.values
    xx = xi.values
    f_vals = _form_density(form, vv, xx)
    resid = xx - vv @ k_fb.T
    sq_vals = np.einsum("mi,ij,mj->m", resid, form.f3, resid)
    int_f = simpson(f_vals, x=v.times)
    int_sq = simpson(sq_vals, x=v.times)
    vp = np.einsum("mi,ij,mj->m", vv, p, vv)
    defect = vp[-1] - vp[0] + int_f - int_sq
    scale = max(
        1e-30,
        abs(vp[-1]) + abs(vp[0]) + simpson(np.abs(f_vals), x=v.times) + abs(int_sq),
    )
    return float(abs(defect) / scale)
