"""The exponential quadrature of `lqbundle._phi`: one node-weight formula per
direction for matrix and scalar callers, exact on cubics, the stencil
contraction against a per-interval loop, and the matrix phi-functions and
step propagators against the augmented-`expm` oracle and `expm`."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from lp_oracles import augmented_phi_block, four_product_local_forcing, stencil_layout
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
)
from lqbundle.frequency import QuadraticFormTriple
from lqbundle.stationary import Regulator, _grid_parameters, _propagator, _segments

SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
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


@pytest.mark.parametrize("forward", [True, False])
def test_stacked_weights_equal_one_matrix_at_a_time(forward):
    # the LP grid operator forms every segment's weights from one stack of
    # h T, one step per segment
    rng = np.random.default_rng(4)
    t = np.triu(rng.standard_normal((3, 3))) - 2.0 * np.eye(3)
    if not forward:
        t = -t
    steps = np.array([0.05, 0.1, 0.2, 0.4])
    h = steps[:, None, None]
    stacked = [forward_weights(phi_block(4, h * t), h, p) if forward else
               backward_weights(backward_moments(phi_block(4, -h * t)), h, p)
               for p in range(3)]
    for s, step in enumerate(steps):
        for p in range(3):
            single = (forward_weights(phi_block(4, step * t), step, p) if forward else
                      backward_weights(backward_moments(phi_block(4, -step * t)), step, p))
            for got, ref in zip(stacked[p], single):
                assert np.array_equal(got[s], ref)


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


@pytest.mark.parametrize("name", ["s1", "n40_j0"])
@pytest.mark.parametrize("batch", [4, 3])
def test_streamed_local_forcing_equals_the_four_product_one(name, batch):
    # the forcings of the coercivity (4 controls) and Lyapunov (3) checks on
    # their 1,500-node grid, with the system's forward weights: adding each
    # interior product as it is formed keeps every sum bit for bit
    reg = lp_system(name)
    h = 18.0 / reg.split_a.eps_rate / 1499
    weights = [forward_weights(phi_block(4, h * reg.a), h, p) for p in range(3)]
    coords = np.random.default_rng(5).standard_normal((1500, reg.a.shape[0], batch))
    got = local_forcing(weights, coords)
    assert np.array_equal(got, four_product_local_forcing(weights, coords))


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


#: the 1-norms of a mixed stack: both sides of the scaling threshold, up to
#: the stiffest LP steps and beyond
STACK_NORMS = (1e-3, 1e-2, 0.1, 0.7, 1.0, 1.3, 10.0, 1e2, 1e3, 1e4)


def relative_gaps(got, ref):
    """max over the phi's of each matrix's 1-norm error relative to the
    reference's 1-norm, per matrix of the stack."""
    return np.max([np.linalg.norm(g - r, 1, axis=(-2, -1)) / np.linalg.norm(r, 1, axis=(-2, -1))
                   for g, r in zip(got, ref)], axis=0)


def mixed_stack(n, norms, seed=0):
    """Hurwitz n x n matrices, one per 1-norm in `norms`, every one a scaled
    copy of a random shift of the identity, with the first row's weight
    moved to the subdiagonal so the stack is not normal."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
    t[np.arange(1, n), np.arange(n - 1)] += 1.5
    t /= np.abs(t).sum(axis=0).max()
    return np.stack([r * t for r in norms])


def lp_step_stacks(reg):
    """Every recursion's stack of step matrices as `_StationaryLP` forms
    them: h T_s of the stable block (forward) and -h T_u of the unstable one
    (backward), one matrix per segment of the system's own graded grid."""
    times = _grid_parameters(reg.split_a, reg.ham)
    h = np.array([times[lo + 1] - times[lo] for lo, _ in _segments(times)])[:, None, None]
    stacks = []
    for split in (reg.split_a, reg.split_m):
        if split.k_stable:
            stacks.append(h * split.t_stable)
        if split.rank_j:
            stacks.append(-h * split.t_unstable)
    return stacks


def lp_system(name):
    if name == "stiff":
        form = QuadraticFormTriple(f1=-0.1 * np.eye(4), f2=np.zeros((1, 4)), f3=[[1.0]])
        return Regulator(np.diag([-1.0, -10.0, -100.0, -1000.0]), 0.5 * np.ones((4, 1)), form)
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
    return Regulator(doc["A"], doc["B"], form)


class TestPhiBlock:
    """`phi_block` by scaling, Taylor and modified squaring against one
    augmented `expm` per matrix."""

    @pytest.mark.parametrize("n", [1, 4, 40])
    def test_mixed_stack_matches_the_augmented_oracle(self, n):
        z = mixed_stack(n, STACK_NORMS)
        gaps = relative_gaps(phi_block(4, z), augmented_phi_block(4, z))
        assert gaps.shape == (len(STACK_NORMS),) and gaps.max() <= 1e-13

    @pytest.mark.parametrize("n", [1, 4, 40])
    def test_growing_arguments_match_the_augmented_oracle(self, n):
        # h A of an unstable A, as the control trajectories may step it; at
        # ||Z||_1 = 5 the oracle's own expm is off a 50-digit reference by
        # 3.7e-13 at n = 4, and phi_block by 4.9e-16
        z = -mixed_stack(n, (1e-3, 0.1, 1.0, 2.0), seed=1)
        assert relative_gaps(phi_block(4, z), augmented_phi_block(4, z)).max() <= 1e-13

    @pytest.mark.parametrize("name, recursions", [("stiff", 2), ("n40_j0", 2), ("n40_j1", 4)])
    def test_lp_step_stacks_match_the_augmented_oracle(self, name, recursions):
        # both signs of the argument: h T_s forward and -h T_u backward
        stacks = lp_step_stacks(lp_system(name))
        assert len(stacks) == recursions
        for z in stacks:
            assert relative_gaps(phi_block(4, z), augmented_phi_block(4, z)).max() <= 1e-13

    def test_one_matrix_and_lower_kmax(self):
        # a single matrix, not a stack, and kmax below 4: phi_1 alone is
        # summed to the same order as from phi_4
        z = mixed_stack(4, (30.0,))[0]
        for kmax in (1, 2, 4, 6):
            got, ref = phi_block(kmax, z), augmented_phi_block(kmax, z)
            assert len(got) == kmax and got[0].shape == (4, 4)
            assert relative_gaps(got, ref).max() <= 1e-13


class TestStepPropagator:
    """E = I + Z phi_1(Z) against `expm`."""

    @pytest.mark.parametrize("name", ["stiff", "n40_j0", "n40_j1"])
    def test_lp_steps_match_expm(self, name):
        for z in lp_step_stacks(lp_system(name)):
            e = _propagator(z, phi_block(4, z))
            assert relative_gaps([e], [sla.expm(z)]).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 4, 40])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_small_steps_match_expm(self, n, sign):
        # up to ||Z||_1 = 1.3: beyond, e^Z of a decaying Z is small against
        # I and Z phi_1(Z), and I + Z phi_1(Z) is accurate to roundoff of
        # their size, not of its own (2.3e-12 relative at Z = -10, n = 1)
        z = sign * mixed_stack(n, STACK_NORMS[:6])
        e = _propagator(z, phi_block(4, z))
        assert relative_gaps([e], [sla.expm(z)]).max() <= 1e-14
