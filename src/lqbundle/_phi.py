"""Exponential-integrator quadrature, the one home of it in lqbundle.

phi_k functions of scalars and of matrices, piecewise-cubic node weights
for integrals of the form

    int_0^h exp(T (h - s)) p(s) ds      (forward, decaying kernel)
    int_0^h exp(-T s) p(s) ds           (backward, decaying kernel)

with p the cubic Lagrange interpolant of grid samples (Hochbruck &
Ostermann, Acta Numerica 19, 2010), and the stencil contraction that
applies matrix weights along a grid.  One forward and one backward weight
formula serve both the matrix callers (the recursions of the stationary
collocation and the control trajectories) and the scalar callers (the
spatial-averaging mode frames, one constant rate each).  These weights make
the kernel integration exact for piecewise-cubic data, which is what keeps
the Lyapunov-Perron solves accurate on stiff spectra.
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
    upward recursion phi_{k+1} = (phi_k - 1/k!)/z otherwise.  The series
    runs in place in the output; the recursion fills only the entries
    outside the series radius, and only if there are any.
    """
    z = np.asarray(z, dtype=float)
    zf = z.ravel()
    out = np.empty((kmax, zf.size))
    small = np.abs(zf) < _SERIES_RADIUS
    zs = np.where(small, zf, 0.0)
    # series branch
    for k, acc in enumerate(out, start=1):
        acc.fill(1.0 / math.factorial(_SERIES_TERMS + k))
        for i in range(_SERIES_TERMS - 1, -1, -1):
            acc *= zs
            acc += 1.0 / math.factorial(i + k)
    # recursion branch
    big = ~small
    if big.any():
        zb = zf[big]
        rec = np.expm1(zb) / zb
        out[0, big] = rec
        for k in range(1, kmax):
            rec = (rec - 1.0 / math.factorial(k)) / zb
            out[k, big] = rec
    return out.reshape((kmax,) + z.shape)


def phi_block(kmax: int, m: np.ndarray) -> list[np.ndarray]:
    """[phi_1(m), ..., phi_kmax(m)] for a square matrix, or a stack of them
    (..., n, n), via one augmented expm per matrix."""
    m = np.asarray(m, dtype=float)
    n = m.shape[-1]
    size = n * (kmax + 1)
    aug = np.zeros(m.shape[:-2] + (size, size))
    aug[..., :n, :n] = m
    for k in range(kmax):
        r = k * n
        aug[..., r : r + n, r + n : r + 2 * n] = np.eye(n)
    big = sla.expm(aug)
    return [big[..., :n, (k + 1) * n : (k + 2) * n] for k in range(kmax)]


def forward_weights(ph, h: float, pattern: int) -> list:
    """Node weights of int_0^h exp(T (h - s)) p(s) ds on one stencil pattern,
    from ph = [phi_1(hT), ..., phi_4(hT)]: matrices (`phi_block`) or arrays
    of scalars (`phi_scalar`).  Weight l multiplies the sample at stencil
    node l of the pattern."""
    cinv = _CINV[pattern]
    return [
        h * sum(math.factorial(m) * cinv[m, ell] * ph[m] for m in range(4))
        for ell in range(4)
    ]


def backward_moments(ph) -> list:
    """J_m = int_0^1 exp(-hT tau) tau^m dtau, m = 0..3, from
    ph = [phi_1(-hT), ..., phi_4(-hT)]: J_m = sum_k C(m,k) (-1)^k k! phi_{k+1}.

    Stable for hT >= 0.  Scalar callers pass `phi_scalar` inline, so the
    phi arrays are freed before the weights are formed."""
    return [
        sum(
            math.comb(m, k) * (-1.0) ** k * math.factorial(k) * ph[k]
            for k in range(m + 1)
        )
        for m in range(4)
    ]


def backward_weights(jm, h: float, pattern: int) -> list:
    """Node weights of int_0^h exp(-T s) p(s) ds on one stencil pattern, from
    the moments jm = `backward_moments` of hT."""
    cinv = _CINV[pattern]
    return [h * sum(cinv[m, ell] * jm[m] for m in range(4)) for ell in range(4)]


def local_forcing(weights, coords: np.ndarray) -> np.ndarray:
    """Per-interval stencil contraction G[i] = sum_l W[p_i][l] y[base_i + l]
    of node coordinates y, (m, k_in, batch), by the weight matrices
    weights[pattern][node] (k, k_in); returns (m - 1, k, batch).

    Interior intervals share the centered stencil, so the contraction is
    four whole-array products accumulated through shifted views; only the
    first and last interval use one-sided stencils.
    """
    m, k_in, batch = coords.shape
    k = weights[0][0].shape[0]
    flat = coords.transpose(1, 0, 2).reshape(k_in, m * batch)
    z = [(weights[1][ell] @ flat).reshape(k, m, batch) for ell in range(4)]
    out = np.zeros((m - 1, k, batch))
    interior = out[1 : m - 2].transpose(1, 0, 2)
    for ell in range(4):
        interior += z[ell][:, ell : m - 3 + ell]
    for ell in range(4):
        out[0] += weights[0][ell] @ coords[ell]
        out[m - 2] += weights[2][ell] @ coords[m - 4 + ell]
    return out
