import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

import lqbundle.sampling
import lqbundle.stationary as st
from decay_oracles import fit_decay_rate, two_sided_eps0
from dichotomy_oracles import left_multiply
from lp_oracles import (
    SingleInputLP,
    collocation_matrix,
    coo_solve,
    default_grid,
    paired_fixed_point,
    sharp_forcing,
    splu_node_states,
    stencil_layout,
    stepwise_control_trajectory,
)
from frequency_oracles import SolveTransfer
from stationary_oracles import NotATrajectory, riccati_integral_check
from lqbundle.dichotomy import GridFunction
from lqbundle.cli import main
from lqbundle.errors import (
    ConditionFailed,
    EpsilonTooLarge,
    LPBudgetExceeded,
    Oscillating,
    SampleNotInM0,
)
from lqbundle.frequency import (
    QuadraticFormTriple,
    frequency_condition_margin,
    level_crossings,
    smith_form_triple,
)
from lqbundle.sampling import bump_control, m0_control, random_passing_instance
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
    intersection_dimension,
    isotropy_defect,
    vertical_subspace,
)

SQRT3 = math.sqrt(3.0)
SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"


def horizontal_subspace(n):
    """H x {0}."""
    return LagrangeSubspace(np.vstack([np.eye(n), np.zeros((n, n))]))


def near_vertical(rng, n, s):
    """A Lagrange subspace whose horizontal block B_v has least singular value
    s / sqrt(1 + s^2): the graph of P = -q q^T / s, q a random unit vector."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d_v, d_eta = np.ones(n), np.zeros(n)
    d_v[-1], d_eta[-1] = s, 1.0
    return LagrangeSubspace(np.vstack([q * d_v, q * d_eta]))


def subspace_from(dz0, split_a, split_m):
    """L+ from an oracle's correction Delta z(0) of the sharp basis."""
    return LagrangeSubspace(st.sharp_basis(split_a, split_m).basis + dz0)


def lp_scanned(a, b, form):
    """`stable_lagrange_lp` at the scanned frequency margin of (A, B, F)."""
    reg = Regulator(a, b, form)
    return stable_lagrange_lp(reg, frequency_condition_margin(a, b, form))


def structured_single_grid(a, b, form, split_a, split_m, times):
    """The library's collocation solve on one grid, without Richardson."""
    sharp = st.sharp_basis(split_a, split_m)
    lp = st._StationaryLP(b, form, split_a, split_m, sharp, times)
    s0, _ = lp.eliminate(lp.row_table())
    return LagrangeSubspace(np.vstack([lp.dv_map @ s0, lp.de_map @ s0]))


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
        # sharp = horizontal and flat = vertical for A < 0, so -P is the graph
        # matrix of L+ over sharp (+) flat
        assert np.abs(extract_nonoscillation(res.l_plus).p).max() <= 1e-12
        assert grassmann_distance(res.l_plus, horizontal_subspace(1)) <= 1e-12

    def test_dense_and_structured_agree(self, s1):
        grid = default_grid(*s1)
        structured = structured_single_grid(*s1, *grid)
        dense = SingleInputLP(*s1, *grid).solve_dense()
        assert grassmann_distance(structured, subspace_from(dense, *grid[:2])) <= 1e-13

    def test_naive_form_agrees(self, s1):
        structured = structured_single_grid(*s1, *default_grid(*s1))
        assert grassmann_distance(structured, paired_fixed_point(*s1)) <= 1e-12

    def test_richardson_beats_single_grid(self, s1, monkeypatch):
        # the grid of the library's rule at GRID_RHO_STEP = 0.045 (128 steps
        # over four segments): coarser than the default S1 grid (0.036, 162
        # steps), yet in the range where the O(h^4) term dominates (at 0.12
        # extrapolation gains only 1.24x)
        reg = Regulator(*s1)
        monkeypatch.setattr(st, "GRID_RHO_STEP", 0.045)
        coarse = st._grid_parameters(reg.split_a, reg.ham)
        assert [hi - lo for lo, hi in st._segments(coarse)] == [62, 34, 18, 14]
        single = structured_single_grid(*s1, reg.split_a, reg.split_m, coarse)
        res = lp_scanned(*s1)
        assert res.diagnostics["n_steps"] == 128
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


def scenario_system(name):
    """(A, B, F) of a perfbench scenario."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    return doc["A"], doc["B"], QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])


def named_system(name, request):
    """(A, B, F) of a `COLLOCATION_SYSTEMS` member or an n = 40 scenario."""
    if name.startswith("n40"):
        return scenario_system(name)
    spec = COLLOCATION_SYSTEMS[name]
    if spec is None:
        return request.getfixturevalue("s1")
    if name == "stiff":
        return spec
    seed, n, j, inputs = spec
    a, b, form, _ = random_passing_instance(np.random.default_rng(seed), n, j=j, m=inputs)
    assert (Regulator(a, b, form).split_a.rank_j, b.shape[1]) == (j, inputs)
    return a, b, form


@pytest.fixture(params=sorted(COLLOCATION_SYSTEMS))
def collocation_system(request):
    """(A, B, F) of S1, a j = 1 two-input system, a j = n system (n = 6), a
    three-input system (n = 8, j = 2) and the stiff system of `TestGridAndBudget`
    (about 350,000 uniform steps of its first step h0, 500 graded ones)."""
    return named_system(request.param, request)


@pytest.fixture
def collocation(collocation_system):
    """The library's LP on the uniform grid with its graded grid's nodes,
    the one-segment case the COO oracle is written on."""
    a, b, form = collocation_system
    split_a, split_m, times = default_grid(a, b, form)
    sharp = st.sharp_basis(split_a, split_m)
    return st._StationaryLP(b, form, split_a, split_m, sharp, times)


@pytest.fixture
def graded(collocation_system):
    """The library's LP on its own graded grid."""
    reg = Regulator(*collocation_system)
    times = st._grid_parameters(reg.split_a, reg.ham)
    sharp = st.sharp_basis(reg.split_a, reg.split_m)
    return st._StationaryLP(reg.b, reg.form, reg.split_a, reg.split_m, sharp, times)


class TestCollocationMatrix:
    """The collocation system in the states and the control xi against the
    COO oracle's system in the states alone."""

    def test_solve_matches_coo_oracle(self, collocation_system, collocation):
        # the library solves for y = Delta z + G_sharp z^s with the sharp
        # basis as boundary values; the oracle for the correction Delta z,
        # forced by R G_sharp z^s
        lp = collocation
        reg = Regulator(*collocation_system)
        r = st.perturbation_matrix(reg.a, reg.b, reg.form)
        g = sharp_forcing(lp.split_a, lp.split_m, lp.times)
        rg = left_multiply(r, g)
        dv, de = coo_solve(lp, r, rg[:, : lp.n], rg[:, lp.n :])
        s = splu_node_states(lp)
        whole = np.concatenate([left_multiply(lp.dv_map, s), left_multiply(lp.de_map, s)], axis=1)
        ref = np.concatenate([dv, de], axis=1) + g
        assert whole.shape == ref.shape == (lp.times.size, 2 * lp.n, lp.n)
        assert np.abs(whole - ref).max() <= 1e-12 * np.abs(ref).max()
        # the library's frontal elimination reads node 0 alone
        s0, _ = lp.eliminate(lp.row_table())
        lib = np.vstack([lp.dv_map @ s0, lp.de_map @ s0])
        assert np.abs(lib - ref[0]).max() <= 1e-12 * np.abs(ref[0]).max()

    @pytest.mark.parametrize("name", [*sorted(COLLOCATION_SYSTEMS), "n40_j0", "n40_j1"])
    def test_node_zero_matches_the_splu_oracle(self, name, request):
        # the frontal elimination against SuperLU's whole-grid solve of the
        # same system, on the fine, the Richardson and a uniform grid
        reg = Regulator(*named_system(name, request))
        times = st._grid_parameters(reg.split_a, reg.ham)
        sharp = st.sharp_basis(reg.split_a, reg.split_m)
        for grid in (times, times[::2], np.linspace(0.0, times[-1], times.size)):
            lp = st._StationaryLP(reg.b, reg.form, reg.split_a, reg.split_m, sharp, grid)
            s0, _ = lp.eliminate(lp.row_table())
            ref = splu_node_states(lp)[0]
            assert s0.shape == ref.shape == (lp.stride, reg.split_a.n)
            assert np.abs(s0 - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_solve_is_linear_in_its_boundary_data(self, collocation_system, monkeypatch):
        # a non-orthogonal mix of the sharp columns (condition number 3)
        # spans the same sharp subspace, so the LP must give the same L+
        reg = Regulator(*collocation_system)
        margin = frequency_condition_margin(*collocation_system)
        plain = stable_lagrange_lp(reg, margin).l_plus
        sharp = st.sharp_basis(reg.split_a, reg.split_m)
        n = reg.split_a.n
        rng = np.random.default_rng(3)
        q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        mix = q1 @ np.diag(np.geomspace(3.0, 1.0, n)) @ q2.T
        assert np.linalg.cond(mix) <= 10.0 and not np.allclose(mix.T @ mix, np.eye(n))
        mixed = LagrangeSubspace(sharp.basis @ mix)
        assert grassmann_distance(mixed, sharp) <= 1e-13
        monkeypatch.setattr(st, "sharp_basis", lambda split_a, split_m: mixed)
        assert grassmann_distance(stable_lagrange_lp(reg, margin).l_plus, plain) <= 1e-12

    def test_canonical_window_rows(self, graded):
        lp = graded
        assert len(lp.segments) >= 4
        mat = collocation_matrix(lp)
        m, n, size = lp.times.size, lp.n, lp.stride
        mu = size - 2 * n
        assert mat.format == "csc" and mat.has_canonical_format
        assert mat.shape == (m * size, m * size)
        assert np.all(mat.data != 0)  # no stored zeros
        col_of = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
        same_col = col_of[1:] == col_of[:-1]
        assert np.all(np.diff(mat.indices)[same_col] > 0)  # sorted, no duplicates
        # the nonempty recursions in row order: the forward (stable) and
        # backward (unstable) coordinates of v, then those of eta, which
        # follow xi in the node state
        ka, km = lp.split_a.k_stable, lp.split_m.k_stable
        table = [(0, ka, True), (ka, n - ka, False), (n + mu, km, True), (n + mu + km, n - km, False)]
        recs = lp.recursions
        assert [(rec.off, rec.width, rec.forward) for rec in recs] == [t for t in table if t[1]]
        # an interval row holds the nonzeros of what it reads at the four
        # stencil nodes (xi for a v row, (u, w, xi) for an eta row), of its
        # row of its segment's step matrix E, and one identity entry; the
        # stencils are laid out segment by segment, so none crosses a join
        form = lp.form
        reads = (lp.b @ lp.xi_map, form.f1 @ lp.dv_map + form.f2.T @ lp.xi_map)
        layouts = [stencil_layout(hi - lo + 1) for lo, hi in lp.segments]
        base = np.concatenate([lo + base for (lo, _), (base, _) in zip(lp.segments, layouts)])
        row_len = []
        for rec in recs:
            split = lp.split_a if rec.off < n else lp.split_m
            k = split.k_stable
            winv = split.winv[:k] if rec.forward else split.winv[k:]
            for s, (_, pattern) in enumerate(layouts):
                per_p = np.stack([
                    sum(np.count_nonzero(-(rec.weights[p][ell][s] @ winv) @ reads[rec.off > n],
                                         axis=1)
                        for ell in range(4))
                    for p in range(3)
                ]) + np.count_nonzero(rec.e[s], axis=1) + 1
                row_len.append(per_p[pattern].ravel())
        # then the mu control rows of every node and one entry per boundary row
        xi_rows = form.f2 @ lp.dv_map + form.f3 @ lp.xi_map - lp.b.T @ lp.de_map
        row_len += [np.tile(np.count_nonzero(xi_rows, axis=1), m), np.ones(2 * n, dtype=int)]
        csr = mat.tocsr()
        lens = np.diff(csr.indptr)
        assert np.array_equal(lens, np.concatenate(row_len))
        # interval rows run family by family, `width` rows per interval, then
        # mu control rows per node and the boundary rows at nodes 0 and m - 1;
        # the column blocks run from node m - 1 to node 0, so a stencil's
        # window starts at block m - 4 - base
        interval = np.concatenate([np.repeat(np.arange(m - 1), rec.width) for rec in recs])
        node = np.concatenate([np.repeat(np.arange(m), mu)]
                              + [np.full(rec.width, 0 if rec.forward else m - 1) for rec in recs])
        lo = np.concatenate([m - 4 - base[interval], m - 1 - node]) * size
        hi = lo + np.concatenate([np.full(interval.size, 4 * size), np.full(node.size, size)])
        assert np.all(np.repeat(lo, lens) <= csr.indices)
        assert np.all(csr.indices < np.repeat(hi, lens))
        # each interval's window lies inside its own segment
        first, last = np.array(lp.segments).T
        seg_of = np.repeat(np.arange(len(lp.segments)), last - first)
        assert np.all((first[seg_of] <= base) & (base + 3 <= last[seg_of]))

    def test_widest_front_is_set_by_the_stencil(self, graded, request):
        # a front holds the rows left over from earlier steps, which reach at
        # most the three blocks after the step's, and the rows joining in
        # the step; so at any j it stays below (step + 3) stride rows
        fronts = {"s1": (69, 69), "j1-m2": (97, 87), "j-eq-n": (100, 88),
                  "three-input": (116, 116), "stiff": (92, 92)}
        lp = graded
        coarse = st._StationaryLP(lp.b, lp.form, lp.split_a, lp.split_m, lp.sharp,
                                  lp.times[::2])
        rows = tuple(grid.eliminate(grid.row_table())[1] for grid in (lp, coarse))
        assert rows == fronts[request.node.callspec.params["collocation_system"]]
        step = -(-st.FRONT_PANEL_COLUMNS // lp.stride)
        assert max(rows) < (step + 3) * lp.stride


class TestGridAndBudget:
    def test_stiff_spectrum_passes_lp_checks(self):
        # rho(H) ~ 1000 asks for the first step h0 = GRID_RHO_STEP / 1000,
        # about 350,000 steps over the horizon; the modes of modulus 1000 die
        # out first, so the step doubles 13 times and the grid needs 500
        reg = Regulator(*STIFF)
        res = stable_lagrange_lp(reg, frequency_condition_margin(*STIFF))
        horizon = res.diagnostics["horizon"]
        h0 = st.GRID_RHO_STEP / np.abs(reg.ham.eigenvalues).max()
        assert horizon / h0 > 300_000
        assert res.diagnostics["n_steps"] == 500
        assert len(res.diagnostics["segments"]) == 14
        assert grassmann_distance(res.l_plus, stable_lagrange_schur(reg.ham)) <= 1e-6
        assert res.diagnostics["invariance_defect"] <= 1e-8

    def test_fixture_grids_do_not_move(self, s1):
        scenarios = Path(__file__).resolve().parents[1] / "perfbench/scenarios"
        systems = {"s1": s1}
        for name in ("n40_j0", "n40_j1"):
            doc = json.loads((scenarios / f"{name}.json").read_text())
            form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
            systems[name] = (doc["A"], doc["B"], form)
        segments = {}
        for name, system in systems.items():
            reg = Regulator(*system)
            times = st._grid_parameters(reg.split_a, reg.ham)
            segments[name] = [hi - lo for lo, hi in st._segments(times)]
        assert segments == {"s1": [78, 42, 24, 18],
                            "n40_j0": [84, 62, 62, 32, 24, 18],
                            "n40_j1": [86, 86, 56, 32, 16, 16]}

    def test_entry_budget_fails_before_the_matrix(self, tmp_path, monkeypatch):
        # n40_j0's fine grid holds 2.4 M entries; under a budget of 1 M the
        # LP fails once it has counted them in its row table, before any
        # front exists, and verify records the failure
        path = SCENARIOS / "n40_j0.json"
        doc = json.loads(path.read_text())
        form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
        reg = Regulator(doc["A"], doc["B"], form)
        margin = frequency_condition_margin(reg.a, reg.b, form)
        reg.ham.eigenvalues  # noqa: B018  (cached before the traced call)
        monkeypatch.setattr(st, "LP_ENTRY_BUDGET", 1_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(LPBudgetExceeded, match="LP_ENTRY_BUDGET = 1,000,000") as err:
                stable_lagrange_lp(reg, margin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = int(re.search(r"has at least ([\d,]+) row-table entries", str(err.value))[1]
                      .replace(",", ""))
        assert entries > 2_000_000 and peak < 8 * entries
        out = tmp_path / "o"
        assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        failed = [c for c in cert["checks"] if c["name"] == "lp-construction"]
        assert len(failed) == 1 and not failed[0]["pass"]
        assert failed[0]["detail"].startswith("LPBudgetExceeded: ")
        assert "LP_ENTRY_BUDGET" in failed[0]["detail"]

    def test_entry_budget_fails_before_any_row_array(self, monkeypatch):
        # every index of a system within the budget fits an int32
        assert st.LP_ENTRY_BUDGET < 2**31
        # n40_j0's LP on a uniform grid of 100,001 nodes: the row table counts
        # its 853.7 M entries from its templates and fails before anything
        # with one element per row, interval or node exists
        doc = json.loads((SCENARIOS / "n40_j0.json").read_text())
        form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
        reg = Regulator(doc["A"], doc["B"], form)
        lp = st._StationaryLP(reg.b, form, reg.split_a, reg.split_m,
                              st.sharp_basis(reg.split_a, reg.split_m),
                              np.linspace(0.0, 60.0, 100_001))
        monkeypatch.setattr(st, "LP_ENTRY_BUDGET", 1_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(LPBudgetExceeded, match="has at least 853,700,161 row-table entries"):
                lp.eliminate(lp.row_table())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_entry_budget_fails_before_the_grid(self, s1, monkeypatch):
        # every node's 2n + mu rows store an entry, so S1's 163 nodes store at
        # least 489 entries, which the grid counts before its nodes exist
        reg = Regulator(*s1)
        monkeypatch.setattr(st, "LP_ENTRY_BUDGET", 488)
        with pytest.raises(LPBudgetExceeded, match="163 nodes has at least 489 row-table"):
            st._grid_parameters(reg.split_a, reg.ham)
        monkeypatch.setattr(st, "LP_ENTRY_BUDGET", 489)
        assert st._grid_parameters(reg.split_a, reg.ham).size == 163

    def test_lp_memory_is_one_front(self):
        # n40_j0's two grid solves hold one front of 281 x 324 doubles and the
        # row templates, where the whole-grid SuperLU solve peaked at 64 MB
        reg = Regulator(*scenario_system("n40_j0"))
        margin = frequency_condition_margin(reg.a, reg.b, reg.form)
        reg.ham.eigenvalues  # noqa: B018  (cached before the traced call)
        reg.split_m  # noqa: B018
        tracemalloc.start()
        try:
            res = stable_lagrange_lp(reg, margin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [grid["front_rows"] for grid in res.diagnostics["grids"]] == [281, 281]
        assert peak < 16_000_000

    def test_singular_system_fails_at_its_node(self, tmp_path, monkeypatch):
        # a row table whose columns of node 40 are all zero: the elimination
        # meets an exact zero pivot there, and verify records one typed failure
        table = st._StationaryLP.row_table

        def singular_table(lp):
            m, size = lp.times.size, lp.stride
            block, out = m - 1 - 40, []
            for tmpl, start, copies in table(lp):
                for t in range(copies):
                    own = tmpl.copy()
                    lo = (block - start + t) * size
                    if 0 <= lo < own.shape[1]:
                        own[:, lo : lo + size] = 0.0
                    out.append((own, start - t, 1))
            return out

        monkeypatch.setattr(st._StationaryLP, "row_table", singular_table)
        out = tmp_path / "o"
        assert main(["verify", "--scenario", str(SCENARIOS / "s1.json"), "--out", str(out)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        failed = [c for c in cert["checks"] if c["name"] == "lp-construction"]
        assert len(failed) == 1 and not failed[0]["pass"]
        assert failed[0]["detail"].startswith("NotLagrange: ")
        assert "singular at node 40 " in failed[0]["detail"]


def mode_step(reg, t):
    """h(t) = GRID_RHO_STEP min_k exp(|Re lambda_k| t / 4) / |lambda_k| over
    H's stable eigenvalues and A's eigenvalues."""
    eigs = reg.ham.eigenvalues
    modes = np.concatenate([eigs[eigs.real < 0], reg.split_a.eigenvalues])
    return st.GRID_RHO_STEP * np.exp(np.min(np.abs(modes.real) * t / 4.0 - np.log(np.abs(modes))))


class TestGradedGrid:
    def test_segment_shape(self, collocation_system):
        reg = Regulator(*collocation_system)
        times = st._grid_parameters(reg.split_a, reg.ham)
        horizon = st.GRID_HORIZON_RATE / min(reg.split_a.eps_rate, reg.ham.gap)
        h0 = mode_step(reg, 0.0)
        assert times[0] == 0.0 and times[-1] == horizon
        # eps <= |Re lambda_k| <= |lambda_k|, so h0 <= GRID_RHO_STEP / eps
        assert h0 <= horizon / 333.0
        segments = st._segments(times)
        for s, (lo, hi) in enumerate(segments):
            count = hi - lo
            assert count % 2 == 0 and count >= st.SEGMENT_MIN_STEPS
            # uniform inside, at most 2^s h0 and at most h at its start; the
            # step is shortened only to fit an even count, unless the count
            # is the floor of six steps
            dt = np.diff(times[lo : hi + 1])
            assert np.ptp(dt) <= 64 * np.spacing(times[hi])
            nominal = 2.0**s * h0
            assert dt[0] <= min(nominal, mode_step(reg, times[lo])) * (1.0 + 1e-12)
            assert count == st.SEGMENT_MIN_STEPS or dt[0] * count > nominal * (count - 2)
            # a segment ends where h first reaches twice its step, or at the
            # horizon, where it also takes in a tail shorter than a segment of
            # six doubled steps
            if hi < times.size - 1:
                assert mode_step(reg, times[hi]) == pytest.approx(2.0 * nominal, rel=1e-12)
            else:
                tail = horizon - st.SEGMENT_MIN_STEPS * 2.0 * nominal
                assert mode_step(reg, max(tail, times[lo])) < 2.0 * nominal
        # every other node is the Richardson grid: the same joins, each
        # segment's step doubled
        coarse = times[::2]
        assert coarse[-1] == times[-1]
        assert [(lo // 2, hi // 2) for lo, hi in segments] == st._segments(coarse)
        for (lo, hi), (clo, chi) in zip(segments, st._segments(coarse)):
            assert coarse[clo] == times[lo] and coarse[chi] == times[hi]
            np.testing.assert_allclose(np.diff(coarse[clo : chi + 1]),
                                       2.0 * (times[lo + 1] - times[lo]), rtol=1e-12)

    def test_uniform_grid_is_one_segment(self, collocation):
        lp = collocation
        assert lp.segments == [(0, lp.times.size - 1)]

    def test_no_farther_from_the_oracle_than_the_flat_rule_grid(self, collocation_system,
                                                                  request):
        # each system's distance on a grid that takes every mode as fast as
        # the fastest and as slow as the slowest: the first step
        # horizon / ceil(horizon rho / 0.04), doubled every ln 16 / eps, in
        # 164 (s1), 358 (j1-m2), 388 (j-eq-n), 624 (three-input) and 21,390
        # steps (stiff, its first step capped by a budget)
        flat_rate = {"s1": 1.093e-9, "j1-m2": 5.652e-10, "j-eq-n": 8.915e-10,
                     "three-input": 8.040e-10, "stiff": 1.334e-9}
        a, b, form = collocation_system
        reg = Regulator(a, b, form)
        res = stable_lagrange_lp(reg, frequency_condition_margin(a, b, form))
        dist = grassmann_distance(res.l_plus, stable_lagrange_schur(reg.ham))
        assert dist <= flat_rate[request.node.callspec.params["collocation_system"]]

    def test_diagnostics_list_the_segments(self, s1):
        res = lp_scanned(*s1)
        segments = res.diagnostics["segments"]
        assert [seg["steps"] for seg in segments] == [78, 42, 24, 18]
        assert sum(seg["steps"] for seg in segments) == res.diagnostics["n_steps"] == 162
        for seg, nxt in zip(segments, segments[1:] + [None]):
            end = res.diagnostics["horizon"] if nxt is None else nxt["start"]
            assert seg["start"] + seg["steps"] * seg["step"] == pytest.approx(end, rel=1e-12)
        # the fine grid, then the Richardson grid, each eliminated 22 nodes
        # (66 columns) a step in fronts of at most 69 rows
        grids = res.diagnostics["grids"]
        assert [grid.keys() for grid in grids] == [{"nodes", "front_rows"}] * 2
        assert [(grid["nodes"], grid["front_rows"]) for grid in grids] == [(163, 69), (82, 69)]


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

    @pytest.mark.parametrize("n", [1, 3, 8, 40])
    def test_near_vertical_oscillates(self, rng, n):
        # the rank test of intersection_dimension reports the vertical
        # direction once sigma_min(B_v) is about 2 RANK_RTOL, well before
        # B_v is too ill-conditioned to invert
        with pytest.raises(Oscillating):
            extract_nonoscillation(near_vertical(rng, n, 1e-9))
        no = extract_nonoscillation(near_vertical(rng, n, 1e-6))
        assert np.linalg.norm(no.p, 2) == pytest.approx(1e6, rel=1e-6)


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
            v = integrate_control_trajectory(a, b, [xi], [np.array([0.7])])[0]
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
        got = integrate_control_trajectory(a, b, [xi], [v0])[0].values
        return got, stepwise_control_trajectory(a, b, xi, v0).values

    @staticmethod
    def _batch_and_singles(rng, a, b):
        times = np.linspace(0.0, 10.0, 1001)
        controls = [bump_control(rng, times, b.shape[1]) for _ in range(2)]
        v0s = rng.standard_normal((2, a.shape[0]))
        batch = integrate_control_trajectory(a, b, controls, v0s)
        singles = [integrate_control_trajectory(a, b, [xi], [v0])[0]
                   for xi, v0 in zip(controls, v0s)]
        return [v.values for v in batch], [v.values for v in singles]

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

    def test_batch_equals_single_runs(self, s1, rng):
        a, b, _ = s1
        batch, singles = self._batch_and_singles(rng, a, b)
        for got, ref in zip(batch, singles, strict=True):
            np.testing.assert_array_equal(got, ref)
        a, b, _, _ = random_passing_instance(rng, 8, j=0, m=2)
        batch, singles = self._batch_and_singles(rng, a, b)
        for got, ref in zip(batch, singles, strict=True):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def single_input_regulator(a, b):
    """The regulator of (A, b) with the form F1 = -I, F2 = 0, F3 = 1."""
    form = QuadraticFormTriple(f1=-np.eye(a.shape[0]), f2=np.zeros((1, a.shape[0])),
                               f3=[[1.0]])
    return Regulator(a, b, form)


class TestControllability:
    def test_stable_always(self, rng):
        reg = single_input_regulator(np.diag([-1.0, -2.0]), np.zeros((2, 1)))
        assert l2_controllability(reg)

    def test_reachable_unstable(self):
        reg = single_input_regulator(np.diag([1.0, -1.0]), np.array([[1.0], [0.0]]))
        assert l2_controllability(reg)

    def test_unreachable_unstable(self):
        reg = single_input_regulator(np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]))
        assert not l2_controllability(reg)

    def test_reads_the_spectrum_of_the_split(self, monkeypatch):
        # A's eigenvalues come from its dichotomy split, not from a second
        # eigvals call
        reg = single_input_regulator(np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]))
        reg.split_a  # derive it first
        monkeypatch.setattr(np.linalg, "eigvals", None)
        assert not l2_controllability(reg)


class TestCoercivity:
    def test_scalar_bump(self, s1, rng):
        reg = Regulator(*s1)
        times = np.linspace(0.0, 16.0, 1601)
        controls = [m0_control(rng, times, 1) for _ in range(3)]
        ratio = coercivity_check(reg, controls, frequency_condition_margin(*s1))
        assert ratio >= 1.0

    def test_sweep(self, rng):
        a, b, form, margin = random_passing_instance(rng, 3, j=0, m=1)
        reg = Regulator(a, b, form)
        times = np.linspace(0.0, 18.0 / reg.split_a.eps_rate, 1500)
        controls = [m0_control(rng, times, 1) for _ in range(20)]
        ratio = coercivity_check(reg, controls, margin)
        assert ratio >= 1.0 - 1e-6

    @pytest.mark.parametrize("j", [1, 2])
    def test_unstable_sample_is_rejected(self, rng, j):
        # m0_control samples M_0 for j = 0 only: with unstable modes the state
        # of its control grows, and coercivity_check rejects the sample
        a, b, form, margin = random_passing_instance(np.random.default_rng(3), 4, j=j)
        reg = Regulator(a, b, form)
        times = np.linspace(0.0, 18.0 / reg.split_a.eps_rate, 1500)
        with pytest.raises(SampleNotInM0, match="has not decayed"):
            coercivity_check(reg, [m0_control(rng, times, 1)], margin)


@pytest.mark.parametrize("n", [3, 4, 5, 1500, 1501])
@pytest.mark.parametrize("grid", ["uniform", "geometric", "random"])
def test_simpson_equals_scipy_bit_for_bit(n, grid):
    # the coercivity and Lyapunov checks integrate by `_simpson`, which
    # repeats scipy's operations: the odd and the even point count (with
    # Cartwright's last interval), on equal and unequal spacings.  On the
    # uniform 4-point grid of [0, 65] a scalar's cube of the last step is
    # 1 ulp off numpy's array cube, which scipy takes, and some draws show it
    rng = np.random.default_rng(n)
    x = {"uniform": np.linspace(0.0, 65.0, n),
         "geometric": np.geomspace(1e-3, 18.0, n),
         "random": np.cumsum(rng.uniform(0.01, 1.0, n))}[grid]
    for _ in range(50):
        y = 10.0 ** rng.integers(-6, 7) * rng.standard_normal(n)
        for sample in (y, np.abs(y), -np.abs(y)):
            got, ref = st._simpson(sample, x), simpson(sample, x=x)
            assert got == ref and np.signbit(got) == np.signbit(ref)


class TestLyapunovInequality:
    @staticmethod
    def _samples(rng, count):
        """`count` bump controls on one grid and their initial states."""
        times = np.linspace(0.0, 12.0, 1201)
        controls, v0s = [], []
        for _ in range(count):
            controls.append(bump_control(rng, times, 1))
            v0s.append(rng.standard_normal(1))
        return controls, v0s

    def test_scalar_holds(self, s1, rng):
        assert lyapunov_inequality_check(Regulator(*s1), 0.05, *self._samples(rng, 20))

    def test_degenerate_eps_reduces_to_balance(self, s1, rng):
        assert lyapunov_inequality_check(Regulator(*s1), 0.0, *self._samples(rng, 5))

    def test_eps_beyond_margin(self, s1, rng):
        with pytest.raises(EpsilonTooLarge):
            lyapunov_inequality_check(Regulator(*s1), 0.9, *self._samples(rng, 2))


#: random_passing_instance(default_rng(seed), n, j) systems of the eps0
#: bisection test, each bisected below its cap in 14 or 15 passes, as n40_j0
#: is (S1 and n40_j1 pass at the cap)
EPS0_RANDOM = {"n6-j0": (3, 6, 0), "n10-j2": (5, 10, 2), "n20-j0": (6, 20, 0)}


class TestEps0:
    @pytest.mark.parametrize("name", ["s1", "n40_j0", "n40_j1", *EPS0_RANDOM])
    def test_equals_the_two_sided_bisection(self, s1, name):
        # one shifted level test per pass: the Hermitian part is even in the
        # shift, so it reads what testing +eps and -eps read
        if name == "s1":
            a, b, form = s1
        elif name in EPS0_RANDOM:
            seed, n, j = EPS0_RANDOM[name]
            a, b, form, _ = random_passing_instance(np.random.default_rng(seed), n, j=j)
        else:
            a, b, form = scenario_system(name)
        reg = Regulator(a, b, form)
        eps0 = estimate_eps0(reg)
        assert eps0 > 0.0 and eps0 == two_sided_eps0(reg)

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
            ev = SolveTransfer(a, b, form, shift)
            return ev.rows(np.linspace(0.0, 1.0, 401))[:, 0].min()

        assert sampled(lo) > 0.0 and sampled(hi) < 0.0
        # both shifted margins are positive at lo: no level-0 crossing
        for shift in (lo, -lo):
            assert level_crossings(a, b, form, 0.0, shift).size == 0


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
