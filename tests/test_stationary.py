import json
import math
from pathlib import Path

import numpy as np
import pytest

import lqbundle.sampling
import lqbundle.stationary as st
from decay_oracles import fit_decay_rate
from lp_oracles import (
    SingleInputLP,
    coo_solve,
    default_grid,
    paired_fixed_point,
    stepwise_control_trajectory,
)
from stationary_oracles import riccati_integral_check
from lqbundle._phi import stencil_layout
from lqbundle.dichotomy import GridFunction
from lqbundle.errors import (
    ConditionFailed,
    EpsilonTooLarge,
    NotADirectSum,
    NotATrajectory,
    Oscillating,
)
from lqbundle.frequency import (
    QuadraticFormTriple,
    TransferEvaluator,
    frequency_condition_margin,
    smith_form_triple,
)
from lqbundle.sampling import bump_control, m0_sample, random_passing_instance
from lqbundle.stationary import (
    Regulator,
    assemble_hamiltonian,
    coercivity_check,
    estimate_eps0,
    extract_nonoscillation,
    hamiltonian_trajectory,
    integrate_control_trajectory,
    l2_controllability,
    lyapunov_inequality_check,
    pairing_drift,
    riccati_residual,
    stable_lagrange_lp,
    stable_lagrange_schur,
)
from lqbundle.symplectic import (
    LagrangeSubspace,
    grassmann_distance,
    horizontal_subspace,
    intersection_dimension,
    isotropy_defect,
    vertical_subspace,
)

SQRT3 = math.sqrt(3.0)
SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"


def subspace_from(dz0, split_a, split_m):
    sharp, _ = st.breve_bases(split_a, split_m)
    return LagrangeSubspace(sharp.basis + dz0)


def lp_scanned(a, b, form, **kwargs):
    """`stable_lagrange_lp` at the scanned frequency margin of (A, B, F)."""
    reg = Regulator(a, b, form)
    return stable_lagrange_lp(reg, frequency_condition_margin(a, b, form), **kwargs)


def structured_single_grid(a, b, form, split_a, split_m, times):
    """The library's collocation solve on one grid, without Richardson."""
    lp = st._StationaryLP(a, b, form, split_a, split_m, times, Regulator(a, b, form).r)
    dv, de = lp.solve_structured(*lp.sharp_forcing())
    return subspace_from(np.vstack([dv[0], de[0]]), split_a, split_m)


@pytest.fixture
def s1_exact_subspace():
    return LagrangeSubspace(np.array([[1.0], [2.0 - SQRT3]]))


class TestAssembly:
    def test_scalar_blocks(self, s1):
        ham = assemble_hamiltonian(*s1)
        np.testing.assert_allclose(ham.matrix, [[-2.0, 1.0], [-1.0, 2.0]])

    def test_decoupled_when_b_zero(self):
        a = np.diag([-1.0, -2.0])
        b = np.zeros((2, 1))
        form = QuadraticFormTriple(f1=np.zeros((2, 2)), f2=np.zeros((1, 2)), f3=[[1.0]])
        ham = assemble_hamiltonian(a, b, form)
        np.testing.assert_allclose(ham.matrix[:2, :2], a)
        np.testing.assert_allclose(ham.matrix[2:, 2:], -a.T)
        assert np.abs(ham.matrix[:2, 2:]).max() == 0.0

    def test_symplectic_identity_random(self, rng):
        for _ in range(5):
            a, b, form, _ = random_passing_instance(rng, 4, j=1, m=2, min_margin=0.0)
            ham = assemble_hamiltonian(a, b, form)
            assert ham.symplectic_defect() <= 1e-12 * max(
                1.0, np.linalg.norm(ham.matrix, 2)
            )


class TestSchurOracle:
    def test_scalar_eigvector(self, s1, s1_exact_subspace):
        sub = stable_lagrange_schur(assemble_hamiltonian(*s1))
        assert grassmann_distance(sub, s1_exact_subspace) <= 1e-14

    def test_decoupled_stable(self):
        a = np.diag([-1.0, -2.0])
        b = np.zeros((2, 1))
        form = QuadraticFormTriple(f1=np.zeros((2, 2)), f2=np.zeros((1, 2)), f3=[[1.0]])
        sub = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
        assert grassmann_distance(sub, horizontal_subspace(2)) <= 1e-14

    def test_random_is_lagrange(self, rng):
        for _ in range(5):
            a, b, form, _ = random_passing_instance(rng, 5, j=1)
            sub = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
            assert sub.dim == sub.ambient // 2 and isotropy_defect(sub) <= 1e-9


class TestLPConstruction:
    def test_scalar_matches_exact(self, s1, s1_exact_subspace):
        res = lp_scanned(*s1)
        assert grassmann_distance(res.l_plus, s1_exact_subspace) <= 1e-7

    def test_trivial_graph_operator(self, s1):
        a, b, _ = s1
        form0 = QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[1.0]])
        res = lp_scanned(a, b, form0)
        assert np.abs(res.m_plus.matrix).max() <= 1e-12
        assert grassmann_distance(res.l_plus, horizontal_subspace(1)) <= 1e-12

    def test_dense_and_structured_agree(self, s1):
        grid = default_grid(*s1)
        structured = structured_single_grid(*s1, *grid)
        dense = SingleInputLP(*s1, *grid).solve_dense()
        assert grassmann_distance(structured, subspace_from(dense, *grid[:2])) <= 1e-13

    def test_naive_form_agrees(self, s1):
        structured = structured_single_grid(*s1, *default_grid(*s1))
        assert grassmann_distance(structured, paired_fixed_point(*s1)) <= 1e-12

    def test_richardson_beats_single_grid(self, s1):
        # 300 steps: coarser than the default 347-step S1 grid, yet in the
        # range where the O(h^4) term dominates (below about 200 steps the
        # error changes sign and extrapolation stops helping)
        split_a, split_m, times = default_grid(*s1)
        coarse = np.linspace(0.0, times[-1], 301)
        single = structured_single_grid(*s1, split_a, split_m, coarse)
        res = lp_scanned(*s1, n_steps=300)
        oracle = stable_lagrange_schur(assemble_hamiltonian(*s1))
        assert 3.0 * grassmann_distance(res.l_plus, oracle) <= grassmann_distance(
            single, oracle
        )

    def test_picard_under_smith(self, s1):
        a, b, _ = s1
        form = smith_form_triple([[1.0]], 0.4, 1)
        split_a, split_m, times = default_grid(a, b, form)
        coarse = np.linspace(times[0], times[-1], (times.size - 1) // 2 + 1)
        fine, iters = SingleInputLP(a, b, form, split_a, split_m, times).solve_picard()
        half, _ = SingleInputLP(a, b, form, split_a, split_m, coarse).solve_picard()
        assert iters < 60
        picard = subspace_from((16.0 * fine - half) / 15.0, split_a, split_m)
        oracle = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
        assert grassmann_distance(picard, oracle) <= 1e-6
        res = lp_scanned(a, b, form)
        assert grassmann_distance(picard, res.l_plus) <= 1e-6

    def test_fredholm_bound_j1_smith(self):
        # A = diag(1, -1), transfer-norm form with Lambda = 0.5
        a = np.diag([1.0, -1.0])
        b = np.eye(2)
        form = smith_form_triple(np.eye(2), 0.5, 2)
        res = lp_scanned(a, b, form)
        dim = intersection_dimension(res.l_plus, vertical_subspace(2))
        assert dim <= 1

    def test_eps_robustness(self, s1):
        res = lp_scanned(*s1)
        eps0 = estimate_eps0(Regulator(*s1))
        assert eps0 > 0.1
        for sign in (+1.0, -1.0):
            shifted = paired_fixed_point(*s1, shift=sign * eps0 / 2.0)
            assert grassmann_distance(res.l_plus, shifted) <= 1e-6

    def test_decay_certificate(self, s1):
        res = lp_scanned(*s1)
        ham = assemble_hamiltonian(*s1)
        traj = hamiltonian_trajectory(
            ham, res.l_plus.basis[:, 0], np.linspace(0.0, 6.0, 500)
        )
        rate, _ = fit_decay_rate(traj)
        assert rate >= estimate_eps0(Regulator(*s1)) - 1e-3

    def test_pairing_preserved_along_flow(self, rng):
        a, b, form, margin = random_passing_instance(rng, 4, j=1)
        res = stable_lagrange_lp(Regulator(a, b, form), margin)
        ham = assemble_hamiltonian(a, b, form)
        times = np.linspace(0.0, 6.0, 300)
        drift, pair0 = pairing_drift(
            ham, res.l_plus.basis[:, 0], res.l_plus.basis[:, -1], times
        )
        assert drift <= 1e-10
        assert abs(pair0) <= 1e-8


#: name: (seed, n, j, inputs) of a seeded `random_passing_instance`
STIFF = (np.diag([-1.0, -10.0, -100.0, -1000.0]), 0.5 * np.ones((4, 1)),
         QuadraticFormTriple(f1=-0.1 * np.eye(4), f2=np.zeros((1, 4)), f3=[[1.0]]))

COLLOCATION_SYSTEMS = {"s1": None, "j1-m2": (7, 5, 1, 2), "j-eq-n": (11, 6, 6, 2),
                       "three-input": (13, 8, 2, 3), "stiff": STIFF}


@pytest.fixture(params=sorted(COLLOCATION_SYSTEMS))
def collocation(request):
    """(lp, regulator, sharp forcing) on the default grid of S1, a j = 1
    two-input system, a j = n system (n = 6), a three-input system (n = 8,
    j = 2) and the stiff system of `TestStepCap` (48,828 steps)."""
    spec = COLLOCATION_SYSTEMS[request.param]
    if spec is None:
        a, b, form = request.getfixturevalue("s1")
    elif request.param == "stiff":
        a, b, form = spec
    else:
        seed, n, j, inputs = spec
        a, b, form, _ = random_passing_instance(
            np.random.default_rng(seed), n, j=j, m=inputs
        )
        assert (Regulator(a, b, form).split_a.rank_j, b.shape[1]) == (j, inputs)
    reg = Regulator(a, b, form)
    lp = st._StationaryLP(a, b, form, *default_grid(a, b, form), reg.r)
    return lp, reg, lp.sharp_forcing()


class TestCollocationMatrix:
    """The collocation system in the states and the control xi against the
    COO oracle's system in the states alone."""

    def test_solve_matches_coo_oracle(self, collocation):
        lp, reg, forcing = collocation
        lib = np.concatenate(lp.solve_structured(*forcing), axis=1)
        ref = np.concatenate(coo_solve(lp, reg.r, *forcing), axis=1)
        assert lib.shape == ref.shape == (lp.times.size, 2 * lp.n, forcing[0].shape[2])
        assert np.abs(lib - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_canonical_window_rows(self, collocation):
        lp, _, forcing = collocation
        mat, _ = lp.assemble(*forcing)
        m, n, size = lp.times.size, lp.n, lp.stride
        mu = size - 2 * n
        assert mat.format == "csc" and mat.has_canonical_format
        assert mat.shape == (m * size, m * size)
        col_of = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
        same_col = col_of[1:] == col_of[:-1]
        assert np.all(np.diff(mat.indices)[same_col] > 0)  # sorted, no duplicates
        # a v row reads xi, an eta row (u, w, xi), at the four stencil nodes,
        # plus the step's two width x width blocks
        row_len = [4 * mu + 2 * w for w in lp.widths[:2]]
        row_len += [4 * (n + mu) + 2 * w for w in lp.widths[2:]]
        n_int = (m - 1) * sum(w * ell for w, ell in zip(lp.widths, row_len))
        assert mat.nnz == n_int + m * mu * size + 2 * n
        csr = mat.tocsr()
        counts = [(m - 1) * w for w in lp.widths] + [m * mu, 2 * n]
        assert np.array_equal(np.diff(csr.indptr), np.repeat(row_len + [size, 1], counts))
        # interval rows run family by family, `width` rows per interval, then
        # mu control rows per node and the boundary rows at nodes 0 and m - 1
        base, _ = stencil_layout(m)
        interval = np.concatenate([np.repeat(np.arange(m - 1), w) for w in lp.widths])
        node = np.concatenate([np.repeat(np.arange(m), mu)]
                              + [np.full(w, k) for w, k in zip(lp.widths, (0, m - 1, 0, m - 1))])
        lo = np.concatenate([base[interval] * size, node * size])
        hi = lo + np.concatenate([np.full(interval.size, 4 * size), np.full(node.size, size)])
        lens = np.diff(csr.indptr)
        assert np.all(np.repeat(lo, lens) <= csr.indices)
        assert np.all(csr.indices < np.repeat(hi, lens))


class TestStepCap:
    def test_stiff_spectrum_passes_lp_checks(self):
        # rho(H) ~ 1000 asks for 303,823 steps; the flat 6000-step cap read
        # invariance 6.9e-6 and oracle distance 3.5e-6
        reg = Regulator(*STIFF)
        res = stable_lagrange_lp(reg, frequency_condition_margin(*STIFF))
        assert res.diagnostics["n_steps"] == st.NNZ_BUDGET // (4 * 8**2) > st.MAX_STEPS
        assert grassmann_distance(res.l_plus, stable_lagrange_schur(reg.ham)) <= 1e-6
        assert res.diagnostics["invariance_defect"] <= 1e-8

    def test_fixture_grids_do_not_move(self, s1):
        scenarios = Path(__file__).resolve().parents[1] / "perfbench/scenarios"
        systems = {"s1": s1}
        for name in ("n40_j0", "n40_j1"):
            doc = json.loads((scenarios / f"{name}.json").read_text())
            form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
            systems[name] = (doc["A"], doc["B"], form)
        steps = {}
        for name, system in systems.items():
            reg = Regulator(*system)
            steps[name] = st._grid_parameters(reg.split_a, reg.ham, None).size - 1
        # below MAX_STEPS, so neither the flat nor the budget cap clips them
        assert steps == {"s1": 347, "n40_j0": 1443, "n40_j1": 1308}
        assert max(steps.values()) < st.MAX_STEPS


class TestNonoscillation:
    def test_scalar_p(self, s1):
        sub = stable_lagrange_schur(assemble_hamiltonian(*s1))
        no = extract_nonoscillation(sub, *s1)
        assert no.p[0, 0] == pytest.approx(SQRT3 - 2.0, abs=1e-12)
        assert no.riccati_residual <= 1e-12
        assert no.feedback[0, 0] == pytest.approx(2.0 - SQRT3, abs=1e-12)

    def test_horizontal_gives_zero(self):
        no = extract_nonoscillation(horizontal_subspace(3))
        assert np.abs(no.p).max() == 0.0

    def test_vertical_oscillates(self):
        with pytest.raises(Oscillating):
            extract_nonoscillation(vertical_subspace(2))


class TestRiccati:
    def test_scalar_residual(self, s1):
        p = np.array([[SQRT3 - 2.0]])
        assert riccati_residual(p, assemble_hamiltonian(*s1))[0] <= 1e-12

    def test_zero_p_zero_cost(self, s1):
        a, b, _ = s1
        form0 = QuadraticFormTriple(f1=[[0.0]], f2=[[0.0]], f3=[[1.0]])
        ham = assemble_hamiltonian(a, b, form0)
        assert riccati_residual(np.zeros((1, 1)), ham)[0] == 0.0

    def test_perturbation_sensitivity(self, s1):
        p = np.array([[SQRT3 - 2.0 + 0.1]])
        assert riccati_residual(p, assemble_hamiltonian(*s1))[0] > 0.01

    def test_integral_identity_optimal_slice(self, s1):
        a, b, form = s1
        sub = stable_lagrange_schur(assemble_hamiltonian(*s1))
        no = extract_nonoscillation(sub, *s1)
        times = np.linspace(0.0, 10.0, 2001)
        # closed loop v' = (A + B K)v, xi = K v
        closed = a + b @ no.feedback
        v = np.exp(np.outer(times, np.diag(closed))) * 1.0
        v_traj = GridFunction(times, v)
        xi_traj = GridFunction(times, v @ no.feedback.T)
        defect = riccati_integral_check(no.p, a, b, form, v_traj, xi_traj)
        assert defect <= 1e-8

    def test_integral_identity_zero_trajectory(self, s1):
        a, b, form = s1
        times = np.linspace(0.0, 5.0, 501)
        zero = GridFunction(times, np.zeros((501, 1)))
        assert riccati_integral_check(np.array([[0.3]]), a, b, form, zero, zero) == 0.0

    def test_integral_identity_refinement_order(self, s1):
        a, b, form = s1
        p = np.array([[SQRT3 - 2.0]])
        defects = []
        for m in (201, 401, 801):
            times = np.linspace(0.0, 8.0, m)
            xi = GridFunction(times, (np.exp(-times) * np.sin(2 * times))[:, None])
            v = integrate_control_trajectory(a, b, xi, np.array([0.7]))
            defects.append(riccati_integral_check(p, a, b, form, v, xi))
        orders = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
        assert min(orders) >= 2.0

    def test_not_a_trajectory(self, s1):
        a, b, form = s1
        times = np.linspace(0.0, 5.0, 301)
        xi = GridFunction(times, np.zeros((301, 1)))
        v = GridFunction(times, np.cos(times)[:, None])
        with pytest.raises(NotATrajectory):
            riccati_integral_check(np.array([[0.0]]), a, b, form, v, xi)


class TestControlTrajectory:
    """`integrate_control_trajectory` against the per-step loop it replaced."""

    @staticmethod
    def _both(rng, a, b, horizon, nodes):
        times = np.linspace(0.0, horizon, nodes)
        xi = bump_control(rng, times, b.shape[1])
        v0 = rng.standard_normal(a.shape[0])
        got = integrate_control_trajectory(a, b, xi, v0).values
        return got, stepwise_control_trajectory(a, b, xi, v0).values

    def test_scalar_equals_the_loop_exactly(self, s1, rng):
        a, b, _ = s1
        got, ref = self._both(rng, a, b, 12.0, 1201)
        np.testing.assert_array_equal(got, ref)

    def test_n8_two_inputs(self, rng):
        a, b, _, _ = random_passing_instance(rng, 8, j=0, m=2)
        got, ref = self._both(rng, a, b, 10.0, 1001)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_n40(self, rng):
        doc = json.loads((SCENARIOS / "n40_j0.json").read_text())
        a, b = np.array(doc["A"]), np.array(doc["B"])
        got, ref = self._both(rng, a, b, 10.0, 1001)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestControllability:
    def test_stable_always(self, rng):
        a = np.diag([-1.0, -2.0])
        assert l2_controllability(a, np.zeros((2, 1)))

    def test_reachable_unstable(self):
        assert l2_controllability(np.diag([1.0, -1.0]), np.array([[1.0], [0.0]]))

    def test_unreachable_unstable(self):
        assert not l2_controllability(np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]))


class TestCoercivity:
    def test_scalar_bump(self, s1, rng):
        reg = Regulator(*s1)
        times = np.linspace(0.0, 16.0, 1601)
        samples = [m0_sample(rng, reg, times) for _ in range(3)]
        ratio = coercivity_check(reg, samples, frequency_condition_margin(*s1))
        assert ratio >= 1.0

    def test_sweep(self, rng):
        a, b, form, margin = random_passing_instance(rng, 3, j=0, m=1)
        reg = Regulator(a, b, form)
        times = np.linspace(0.0, 18.0 / reg.split_a.eps_rate, 1500)
        samples = [m0_sample(rng, reg, times) for _ in range(20)]
        ratio = coercivity_check(reg, samples, margin)
        assert ratio >= 1.0 - 1e-6


class TestLyapunovInequality:
    def _trajectories(self, rng, a, b, m, count=10):
        times = np.linspace(0.0, 12.0, 1201)
        out = []
        for _ in range(count):
            xi = bump_control(rng, times, m)
            v = integrate_control_trajectory(a, b, xi, rng.standard_normal(a.shape[0]))
            out.append((v, xi))
        return out

    def test_scalar_holds(self, s1, rng):
        a, b, _ = s1
        assert lyapunov_inequality_check(
            Regulator(*s1), 0.05, self._trajectories(rng, a, b, 1, 20)
        )

    def test_degenerate_eps_reduces_to_balance(self, s1, rng):
        a, b, _ = s1
        assert lyapunov_inequality_check(
            Regulator(*s1), 0.0, self._trajectories(rng, a, b, 1, 5)
        )

    def test_eps_beyond_margin(self, s1, rng):
        a, b, _ = s1
        with pytest.raises(EpsilonTooLarge):
            lyapunov_inequality_check(
                Regulator(*s1), 0.9, self._trajectories(rng, a, b, 1, 2)
            )


class TestEps0:
    def test_scalar_cap(self, s1):
        eps0 = estimate_eps0(Regulator(*s1))
        # capped below both spectral gaps (2 and sqrt(3))
        assert 0.0 < eps0 <= SQRT3

    def test_bracket_holds_the_sign_change(self):
        # n40_j0: the refined scans passed eps = 0.449002, where a sample of
        # both shifted margins reads -1.4e-3
        path = Path(__file__).resolve().parents[1] / "perfbench/scenarios/n40_j0.json"
        doc = json.loads(path.read_text())
        form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
        a, b = np.array(doc["A"]), np.array(doc["B"])
        eps0 = estimate_eps0(Regulator(a, b, form))
        lo, hi = eps0 - 0.5 * st.EPS0_TOL, eps0 + 0.5 * st.EPS0_TOL

        def sampled(shift):
            ev = TransferEvaluator(a, b, form, shift=shift)
            return min(ev.margin_at(w)[0] for w in np.linspace(0.0, 1.0, 401))

        assert sampled(lo) > 0.0 and sampled(hi) < 0.0
        for shift in (lo, -lo):
            assert frequency_condition_margin(a, b, form, shift=shift) > 0.0


def _raiser(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


class TestTypedCatches:
    """Only the typed failure a caller expects is absorbed."""

    def test_eps0_bisection_lets_untyped_errors_escape(self, s1, monkeypatch):
        monkeypatch.setattr(
            st, "level_crossings", _raiser(RuntimeError("scan broke"))
        )
        with pytest.raises(RuntimeError, match="scan broke"):
            estimate_eps0(Regulator(*s1))

    def test_sampler_lets_untyped_errors_escape(self, rng, monkeypatch):
        monkeypatch.setattr(
            lqbundle.sampling, "frequency_condition_margin",
            _raiser(RuntimeError("scan broke")),
        )
        with pytest.raises(RuntimeError, match="scan broke"):
            random_passing_instance(rng, 3)

    def test_sampler_out_of_tries_is_typed(self, rng):
        with pytest.raises(ConditionFailed):
            random_passing_instance(rng, 3, max_tries=0)

    def test_only_not_a_graph_means_oscillating(self, monkeypatch):
        monkeypatch.setattr(st, "graph_over", _raiser(NotADirectSum("not transversal")))
        with pytest.raises(NotADirectSum):
            extract_nonoscillation(horizontal_subspace(2))
