"""Exponential-integrator primitives.

phi_k functions, their matrix versions, and piecewise-cubic quadrature weights
for integrals of the form

    int_0^h exp(T (h - s)) p(s) ds      (forward, decaying kernel)
    int_0^h exp(-T s) p(s) ds           (backward, decaying kernel)

with p the cubic Lagrange interpolant of grid samples.  These weights make the
kernel integration exact for piecewise-cubic data, which is what keeps the
Lyapunov-Perron solves accurate on stiff spectra.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

_SERIES_RADIUS = 0.5
_SERIES_TERMS = 19

#: cubic stencil offsets, one row per pattern (first, interior, last interval)
STENCIL_OFFSETS = (
    np.array([0.0, 1.0, 2.0, 3.0]),
    np.array([-1.0, 0.0, 1.0, 2.0]),
    np.array([-2.0, -1.0, 0.0, 1.0]),
)

# node-values -> polynomial-coefficients maps, one 4x4 matrix per pattern
_CINV = tuple(
    np.linalg.inv(np.vander(offs, 4, increasing=True)) for offs in STENCIL_OFFSETS
)


def phi_scalar(kmax: int, z: np.ndarray) -> np.ndarray:
    """phi_1..phi_kmax at real arguments, vectorized.

    Returns an array of shape (kmax,) + z.shape.  Series for |z| < 0.5,
    upward recursion phi_{k+1} = (phi_k - 1/k!)/z otherwise.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty((kmax,) + z.shape)
    small = np.abs(z) < _SERIES_RADIUS
    zs = np.where(small, z, 0.0)
    zb = np.where(small, 1.0, z)
    # series branch
    for k in range(1, kmax + 1):
        acc = np.zeros_like(zs)
        for i in range(_SERIES_TERMS, -1, -1):
            acc = acc * zs + 1.0 / math.factorial(i + k)
        out[k - 1] = acc
    # recursion branch
    rec = np.expm1(zb) / zb
    out[0] = np.where(small, out[0], rec)
    for k in range(1, kmax):
        rec = (rec - 1.0 / math.factorial(k)) / zb
        out[k] = np.where(small, out[k], rec)
    return out


def phi_block(kmax: int, m: np.ndarray) -> list[np.ndarray]:
    """[phi_1(m), ..., phi_kmax(m)] for a square matrix via one augmented expm."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    size = n * (kmax + 1)
    aug = np.zeros((size, size))
    aug[:n, :n] = m
    for k in range(kmax):
        r = k * n
        aug[r : r + n, r + n : r + 2 * n] = np.eye(n)
    big = sla.expm(aug)
    return [big[:n, (k + 1) * n : (k + 2) * n] for k in range(kmax)]


def j_weights_scalar(z: np.ndarray) -> np.ndarray:
    """J_m(z) = int_0^1 exp(-z*tau) tau^m dtau, m = 0..3, stable for z >= 0.

    Uses J_m = sum_k C(m,k) (-1)^k k! phi_{k+1}(-z).
    """
    ph = phi_scalar(4, -np.asarray(z, dtype=float))
    out = np.empty_like(ph)
    for m in range(4):
        acc = np.zeros_like(ph[0])
        for k in range(m + 1):
            acc += math.comb(m, k) * (-1.0) ** k * math.factorial(k) * ph[k]
        out[m] = acc
    return out


def stencil_layout(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval stencil base index and pattern id for cubic interpolation.

    Interval i uses nodes base[i] .. base[i]+3; pattern[i] in {0,1,2} selects
    the offset row of STENCIL_OFFSETS.
    """
    if n_nodes < 4:
        raise ValueError("need at least 4 grid nodes for cubic quadrature")
    idx = np.arange(n_nodes - 1)
    base = np.clip(idx - 1, 0, n_nodes - 4)
    return base, idx - base


def forward_weight_matrices(ht: np.ndarray, h: float) -> list[list[np.ndarray]]:
    """Node-weight matrices for int_0^h exp(T(h-s)) p(s) ds, per pattern.

    Returns weights[pattern][node] (4 node matrices per pattern) such that the
    local integral is sum_l weights[p][l] @ f[base+l].
    """
    ph = phi_block(4, ht)
    fact = [math.factorial(m) for m in range(4)]
    out = []
    for cinv in _CINV:
        out.append(
            [
                h * sum(fact[m] * cinv[m, ell] * ph[m] for m in range(4))
                for ell in range(4)
            ]
        )
    return out


def backward_weight_matrices(ht: np.ndarray, h: float) -> list[list[np.ndarray]]:
    """Node-weight matrices for int_0^h exp(-T s) p(s) ds, per pattern."""
    ph = phi_block(4, -ht)
    jm = []
    for m in range(4):
        jm.append(
            sum(
                math.comb(m, k) * (-1.0) ** k * math.factorial(k) * ph[k]
                for k in range(m + 1)
            )
        )
    out = []
    for cinv in _CINV:
        out.append(
            [h * sum(cinv[m, ell] * jm[m] for m in range(4)) for ell in range(4)]
        )
    return out


def forward_weights_scalar(z: np.ndarray, h: float, pattern: int) -> np.ndarray:
    """Scalar forward weights of one stencil pattern, vectorized over z;
    shape (4,) + z.shape.

    weights[l] multiplies the sample at stencil node l of the pattern.
    """
    ph = phi_scalar(4, z)
    cinv = _CINV[pattern]
    out = np.empty((4,) + np.shape(z))
    for ell in range(4):
        out[ell] = h * sum(math.factorial(m) * cinv[m, ell] * ph[m] for m in range(4))
    return out


def backward_weights_scalar(z: np.ndarray, h: float, pattern: int) -> np.ndarray:
    """Scalar backward weights of one stencil pattern for
    int_0^h exp(-r s) p(s) ds with z = r*h."""
    jm = j_weights_scalar(z)
    cinv = _CINV[pattern]
    out = np.empty((4,) + np.shape(z))
    for ell in range(4):
        out[ell] = h * sum(cinv[m, ell] * jm[m] for m in range(4))
    return out
