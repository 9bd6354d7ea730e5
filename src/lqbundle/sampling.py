"""Seeded random instances and controls for sweeps and acceptance tests.

Instances are generated with bounded stiffness (spectral radius / gap ratio)
so the time-grid solves stay sharp, and rejection-sampled until the frequency
condition holds with a workable margin.
"""

from __future__ import annotations

import numpy as np

from .dichotomy import GridFunction
from .errors import ConditionFailed, LqBundleError
from .frequency import QuadraticFormTriple, frequency_condition_margin
from .stationary import Regulator, l2_controllability

#: real-part bands of the placed stable and unstable eigenvalues
STABLE_BAND = (-2.2, -0.5)
UNSTABLE_BAND = (0.4, 1.2)
#: largest imaginary part of a placed complex pair
IMAG_MAX = 1.2
#: scale of the strictly upper coupling that makes the generator non-normal
COUPLING = 0.25
F1_SCALE = 0.25
#: bumps are centred in the first BUMP_SUPPORT fraction of the window
BUMP_SUPPORT = 0.4
M0_BUMPS = 4


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_dichotomy_generator(
    rng: np.random.Generator,
    n: int,
    j: int = 0,
) -> np.ndarray:
    """Matrix with j eigenvalues in the right half-plane, bounded stiffness.

    Built as Q (blocks + strictly upper coupling) Q^T so the placed spectrum
    is exact while the matrix is non-normal.
    """
    blocks: list[np.ndarray] = []
    remaining = {"s": n - j, "u": j}
    for kind, band in (("u", UNSTABLE_BAND), ("s", STABLE_BAND)):
        while remaining[kind] > 0:
            if remaining[kind] >= 2 and rng.uniform() < 0.4:
                re = rng.uniform(*band)
                im = rng.uniform(0.2, IMAG_MAX)
                blocks.append(np.array([[re, im], [-im, re]]))
                remaining[kind] -= 2
            else:
                blocks.append(np.array([[rng.uniform(*band)]]))
                remaining[kind] -= 1
    t = np.zeros((n, n))
    pos = 0
    for blk in blocks:
        w = blk.shape[0]
        t[pos : pos + w, pos : pos + w] = blk
        pos += w
    # strictly upper coupling above the blocks keeps the spectrum intact
    pos = 0
    for blk in blocks:
        w = blk.shape[0]
        if pos + w < n:
            t[pos : pos + w, pos + w :] = COUPLING * rng.standard_normal(
                (w, n - pos - w)
            )
        pos += w
    q = random_orthogonal(rng, n)
    return q @ t @ q.T


def random_form(rng: np.random.Generator, n: int, m: int) -> QuadraticFormTriple:
    g = rng.standard_normal((n, n))
    f1 = -F1_SCALE * (g @ g.T) / n + 0.05 * F1_SCALE * _sym(rng.standard_normal((n, n)))
    f2 = 0.15 * rng.standard_normal((m, n))
    g3 = rng.standard_normal((m, m))
    f3 = g3 @ g3.T / m + np.eye(m)
    return QuadraticFormTriple(f1=f1, f2=f2, f3=f3)


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def random_passing_instance(
    rng: np.random.Generator,
    n: int,
    j: int = 0,
    m: int = 1,
    min_margin: float = 0.05,
    require_controllable: bool = False,
    max_tries: int = 60,
):
    """(A, B, form, margin) rejection-sampled to satisfy the frequency
    condition with margin >= min_margin and a workable Hamiltonian gap."""
    for _ in range(max_tries):
        a = random_dichotomy_generator(rng, n, j=j)
        b = rng.standard_normal((n, m))
        b /= max(1.0, np.linalg.norm(b, 2))
        form = random_form(rng, n, m)
        reg = Regulator(a, b, form)
        if require_controllable and not l2_controllability(reg):
            continue
        try:
            margin = frequency_condition_margin(a, b, form)
        except LqBundleError:
            continue
        if margin < min_margin:
            continue
        eps_h = reg.ham.gap
        rho_h = np.max(np.abs(reg.ham.eigenvalues))
        # keep the stiffness bounded so the default time grids stay sharp
        if eps_h < 0.35 or rho_h > 6.0 or rho_h / eps_h > 5.0:
            continue
        return a, b, form, margin
    raise ConditionFailed(f"no passing instance in {max_tries} tries")


def bump_control(
    rng: np.random.Generator,
    times: np.ndarray,
    m: int,
    n_bumps: int = 3,
) -> GridFunction:
    """Smooth random control supported in the early part of the window."""
    t = np.asarray(times, dtype=float)
    span = t[-1] - t[0]
    vals = np.zeros((t.size, m))
    for c in range(m):
        for _ in range(n_bumps):
            center = t[0] + span * BUMP_SUPPORT * rng.uniform(0.1, 0.9)
            width = span * BUMP_SUPPORT * rng.uniform(0.05, 0.2)
            vals[:, c] += rng.normal() * np.exp(-(((t - center) / width) ** 2))
    return GridFunction(times=t, values=vals)


def m0_control(rng: np.random.Generator, times: np.ndarray, m: int) -> GridFunction:
    """The control of an M_0 sample: the sum of M0_BUMPS one-bump controls.

    `coercivity_check` integrates it from v(0) = 0.  The state decays, so
    that (v, xi) is in M_0, when the generator A has no unstable modes
    (j = 0); for j > 0 it need not, and the check raises SampleNotInM0.
    """
    bumps = [bump_control(rng, times, m, n_bumps=1) for _ in range(M0_BUMPS)]
    return GridFunction(times=times, values=sum(g.values for g in bumps))
