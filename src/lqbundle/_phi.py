"""Exponential-integrator quadrature, the one home of it in lqbundle.

phi_k functions of scalars and of matrices (the matrix ones at the matrix's
own size, by scaling, a Taylor sum and modified squaring: Skaflestad &
Wright, Appl. Numer. Math. 59, 2009), piecewise-cubic node weights
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

_SERIES_RADIUS = 0.5
_SERIES_TERMS = 19
# `phi_block` scales each matrix to ||Z||_1 <= PHI_THETA (a power of two, so
# the scaling is exact) and sums phi_kmax(Z) = sum_j Z^j / (j + kmax)! through
# Z^PHI_DEGREE for kmax = 4, through Z^(PHI_DEGREE + 4 - kmax) for a smaller
# kmax, so phi_1..phi_4 keep the same powers.  The dropped tail is at most
# sum_{i > 19} PHI_THETA^(i - kmax) / i! <= 1.05 / 20! = 4.3e-19 in the
# 1-norm, 1.0e-17 of phi_4(0) = 1/4! and less of phi_k(0) = 1/k! below it,
# under half the unit roundoff 1.1e-16.  The lower phi's, phi_{k-1} =
# I/(k-1)! + Z phi_k, inherit the tail times ||Z||_1 <= 1.  With ||Z||_1 <= 1
# the Horner terms ||Z||^j / (j + kmax)! only shrink, and e^Z = I + Z phi_1(Z)
# is at least e^-1 of I, so neither cancels by more than a few units.
PHI_THETA = 1.0
PHI_DEGREE = 15

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
    (..., n, n), at the matrices' own size (Skaflestad & Wright 2009).

    Each matrix is scaled to Z = m / 2^s with ||Z||_1 <= PHI_THETA; phi_kmax(Z)
    is its Taylor sum by Horner's rule, truncated as PHI_DEGREE's comment
    bounds, and the lower phi's down to phi_0 = e^Z follow from
    phi_{k-1} = I/(k-1)! + Z phi_k.  Then s modified squarings
    phi_k(2Z) = 2^-k (e^Z phi_k(Z) + sum_{j=1..k} phi_j(Z) / (k-j)!) and
    e^{2Z} = (e^Z)^2 return to m.  Squaring e^Z, rather than forming
    I + Z phi_1(Z) at every level, keeps it accurate relative to its own
    size when it decays: on a non-normal 40 x 40 matrix with ||m||_1 = 1e4
    the phi's stay within 2e-15 of a 60-digit reference, where the formed
    e^Z left 2e-10.  A matrix of the stack is squared only as often as its
    own scaling asks, by matrix products of its own, so a stacked call
    equals one matrix at a time bit for bit.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1]
    eye = np.eye(n)
    z = m.reshape(-1, n, n)
    _, scale = np.frexp(np.abs(z).sum(axis=-2).max(axis=-1) / PHI_THETA)
    squarings = np.maximum(scale, 0)
    z = z * np.ldexp(1.0, -squarings)[:, None, None]
    degree = PHI_DEGREE + max(0, 4 - kmax)
    acc = np.broadcast_to(eye / math.factorial(degree + kmax), z.shape)
    for j in range(degree - 1, -1, -1):
        acc = z @ acc + eye / math.factorial(j + kmax)
    ph = [acc]
    for k in range(kmax, 0, -1):
        ph.insert(0, z @ ph[0] + eye / math.factorial(k - 1))
    ph = np.stack(ph)
    for done in range(int(squarings.max(initial=0))):
        act = squarings > done
        ps = ph[:, act]
        for k in range(kmax, 0, -1):
            acc = ps[0] @ ps[k]
            for j in range(1, k + 1):
                acc += ps[j] / math.factorial(k - j)
            ps[k] = acc * 0.5**k
        ps[0] = ps[0] @ ps[0]
        ph[:, act] = ps
    return list(ph[1:].reshape((kmax,) + m.shape))


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
    four whole-array products, each added through a shifted view as it is
    formed, so only one (k, m, batch) product is alive at a time; only the
    first and last interval use one-sided stencils.
    """
    m, k_in, batch = coords.shape
    k = weights[0][0].shape[0]
    flat = coords.transpose(1, 0, 2).reshape(k_in, m * batch)
    out = np.zeros((m - 1, k, batch))
    interior = out[1 : m - 2].transpose(1, 0, 2)
    for ell in range(4):
        interior += (weights[1][ell] @ flat).reshape(k, m, batch)[:, ell : m - 3 + ell]
    for ell in range(4):
        out[0] += weights[0][ell] @ coords[ell]
        out[m - 2] += weights[2][ell] @ coords[m - 4 + ell]
    return out
