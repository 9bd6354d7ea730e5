"""The exponential quadrature of `lqbundle._phi`: one node-weight formula per
direction for matrix and scalar callers, exact on cubics, and the stencil
contraction against a per-interval loop."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lqbundle._phi import (
    _SERIES_RADIUS,
    _SERIES_TERMS,
    STENCIL_OFFSETS,
    backward_moments,
    backward_weights,
    forward_weights,
    local_forcing,
    phi_block,
    phi_scalar,
    stencil_layout,
)

H = 0.3
#: hT values on both sides of the series/recursion switch at |z| = 0.5
Z = np.array([-3.0, -0.9, -0.6, -0.45, -0.2, -1e-3, 0.0, 1e-3, 0.3, 0.49, 0.51, 2.0])


def scalar_weights(forward, z, pattern):
    if forward:
        return forward_weights(phi_scalar(4, z), H, pattern)
    return backward_weights(backward_moments(phi_scalar(4, -z)), H, pattern)


def matrix_weights(forward, t, pattern):
    if forward:
        return forward_weights(phi_block(4, t), H, pattern)
    return backward_weights(backward_moments(phi_block(4, -t)), H, pattern)


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("pattern", [0, 1, 2])
def test_scalar_and_matrix_weights_agree_on_a_diagonal(forward, pattern):
    # the backward kernel exp(-T s) is the decaying one for T >= 0
    z = Z if forward else np.abs(Z)
    mats = matrix_weights(forward, np.diag(z), pattern)
    scal = scalar_weights(forward, z, pattern)
    for mat, vec in zip(mats, scal):
        np.testing.assert_allclose(np.diag(mat), vec, rtol=1e-13, atol=1e-15)
        assert np.abs(mat - np.diag(np.diag(mat))).max() == 0.0


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("pattern", [0, 1, 2])
@pytest.mark.parametrize("r", [-4.0, -1.0, 0.0, 1.2, 6.0])
def test_weights_integrate_cubics_exactly(forward, pattern, r):
    z = np.array(r * H)
    if not forward:
        z = np.abs(z)
    rate = float(z) / H
    weights = scalar_weights(forward, z, pattern)
    nodes = H * STENCIL_OFFSETS[pattern]
    for coefs in ([1.0, 0, 0, 0], [0, 1.0, 0, 0], [0.5, -2.0, 0, 3.0], [0, 0, 0, 1.0]):
        poly = np.polynomial.Polynomial(coefs)

        def integrand(s):
            return np.exp(rate * (H - s) if forward else -rate * s) * poly(s)

        exact, _ = quad(integrand, 0.0, H, epsabs=1e-15, epsrel=1e-13)
        got = sum(float(w) * poly(x) for w, x in zip(weights, nodes))
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_local_forcing_equals_a_per_interval_loop():
    rng = np.random.default_rng(3)
    m, k, k_in, batch = 9, 3, 2, 4
    weights = [[rng.standard_normal((k, k_in)) for _ in range(4)] for _ in range(3)]
    coords = rng.standard_normal((m, k_in, batch))
    base, pattern = stencil_layout(m)
    loop = np.array([
        sum(weights[p][ell] @ coords[i0 + ell] for ell in range(4))
        for i0, p in zip(base, pattern)
    ])
    got = local_forcing(weights, coords)
    assert got.shape == (m - 1, k, batch)
    np.testing.assert_allclose(got, loop, rtol=1e-13, atol=1e-13)


def phi_scalar_reference(kmax, z):
    """`phi_scalar` as whole-array Horner steps with a temporary per step,
    and the recursion on every entry, selected by np.where."""
    z = np.asarray(z, dtype=float)
    out = np.empty((kmax,) + z.shape)
    small = np.abs(z) < _SERIES_RADIUS
    zs = np.where(small, z, 0.0)
    zb = np.where(small, 1.0, z)
    for k in range(1, kmax + 1):
        acc = np.zeros_like(zs)
        for i in range(_SERIES_TERMS, -1, -1):
            acc = acc * zs + 1.0 / math.factorial(i + k)
        out[k - 1] = acc
    rec = np.expm1(zb) / zb
    out[0] = np.where(small, out[0], rec)
    for k in range(1, kmax):
        rec = (rec - 1.0 / math.factorial(k)) / zb
        out[k] = np.where(small, out[k], rec)
    return out


@pytest.mark.parametrize("case", ["small", "large", "mixed", "half", "scalar"])
def test_phi_scalar_in_place_equals_the_reference(case):
    rng = np.random.default_rng(5)
    z = {
        "small": rng.uniform(-0.49, 0.49, (300, 4, 23)),
        "large": rng.choice([-1.0, 1.0], (300, 4, 23)) * rng.uniform(0.5, 40.0, (300, 4, 23)),
        "mixed": rng.uniform(-3.0, 3.0, (300, 4, 23)),
        # exactly on the switch, both signs, next to signed zeros
        "half": np.array([[0.5, -0.5], [0.0, -0.0], [np.nextafter(0.5, 0.0), -0.25]]),
        "scalar": np.array(-0.5),
    }[case]
    got, ref = phi_scalar(4, z), phi_scalar_reference(4, z)
    assert got.shape == ref.shape == (4,) + z.shape
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
