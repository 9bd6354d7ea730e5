"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Desk scale (n <= 50); the randomized pools are seeded and shared between
criteria through module-scoped fixtures.
"""

import math

import numpy as np
import pytest
from decay_oracles import exp_decay_fit, fit_decay_rate
from dichotomy_oracles import (
    adjoint_kernel_defect,
    fourier_resolvent_check,
    lyapunov_perron_apply,
    stable_projector,
)
from spatial_oracles import implication_sweep, sa_pairing_drift
from stationary_oracles import riccati_integral_check

from lqbundle.dichotomy import GridFunction, dichotomy_split
from lqbundle.errors import Oscillating
from lqbundle.frequency import (
    QuadraticFormTriple,
    frequency_condition_margin,
    inverse_norm_bound,
)
from lqbundle.sampling import random_dichotomy_generator, random_passing_instance
from lqbundle.spatial import (
    FIBER_TOL,
    assemble_nonaut_hamiltonian,
    build_fibers,
    constant_driver,
    contraction_certificate,
    sa_eps0_estimate,
    v_form_certificate,
)
from lqbundle.stationary import (
    LP_ENTRY_BUDGET,
    Regulator,
    _grid_parameters,
    _StationaryLP,
    assemble_hamiltonian,
    estimate_eps0,
    extract_nonoscillation,
    hamiltonian_trajectory,
    integrate_control_trajectory,
    l2_controllability,
    pairing_drift,
    sharp_basis,
    stable_lagrange_lp,
    stable_lagrange_schur,
)
from lqbundle.symplectic import (
    ISOTROPY_TOL,
    grassmann_distance,
    intersection_dimension,
    isotropy_defect,
    vertical_subspace,
)

SQRT3 = math.sqrt(3.0)


def report(criterion: str, ok: bool, summary: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, f"{criterion}: {summary}"


@pytest.fixture(scope="module")
def instance_pool():
    """50 seeded random systems (n <= 20) passing the frequency condition,
    with both constructions attached."""
    rng = np.random.default_rng(20250811)
    sizes = [2, 3, 4, 5, 6, 7, 8] * 6 + [10, 12, 14] * 2 + [17, 20]
    js = [0, 0, 0, 1, 1, 2]
    pool = []
    for idx, n in enumerate(sizes[:50]):
        j = js[idx % len(js)] if n > 2 else idx % 2
        m = 2 if idx % 7 == 3 else 1
        a, b, form, margin = random_passing_instance(rng, n, j=min(j, n - 1), m=m)
        reg = Regulator(a, b, form)
        lp = stable_lagrange_lp(reg, margin)
        schur = stable_lagrange_schur(reg.ham)
        pool.append({"reg": reg, "j": reg.split_a.rank_j, "lp": lp, "schur": schur})
    return pool


@pytest.fixture(scope="module")
def sa_results(sa_standard, sa_driver):
    phases = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    fibers = build_fibers(sa_standard, [(sa_driver, q) for q in phases])
    cert = contraction_certificate(sa_standard)
    vform = v_form_certificate(sa_standard)
    return {"fibers": fibers, "contraction": cert, "vform": vform}


def test_criterion_01_oracle_equivalence(instance_pool):
    worst = max(
        grassmann_distance(item["lp"].l_plus, item["schur"]) for item in instance_pool
    )
    report(
        "criterion-01",
        worst <= 1e-6,
        f"50 random systems, worst LP-vs-Schur distance {worst:.3e} <= 1e-6",
    )


def test_pool_matrices_within_the_entry_budget(instance_pool):
    """No pool grid's row table comes near the flat LP_ENTRY_BUDGET (the
    largest holds 664,381 entries), and each graded grid holds fewer than
    half the steps of the uniform grid of its first step."""
    entries = []
    for item in instance_pool:
        reg, diag = item["reg"], item["lp"].diagnostics
        lp = _StationaryLP(reg.b, reg.form, reg.split_a, reg.split_m,
                           sharp_basis(reg.split_a, reg.split_m),
                           _grid_parameters(reg.split_a, reg.ham))
        entries.append(sum(np.count_nonzero(tmpl) * copies
                           for tmpl, _, copies in lp.row_table()))
        assert diag["n_steps"] < diag["horizon"] / diag["segments"][0]["step"] / 2
    assert max(entries) < LP_ENTRY_BUDGET / 50


def test_criterion_02_scalar_closed_form(s1):
    a, b, form = s1
    sub = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
    no = extract_nonoscillation(sub, a, b, form)
    p_err = abs(no.p[0, 0] - (SQRT3 - 2.0))
    ok = p_err <= 1e-9 and no.riccati_residual <= 1e-12
    report(
        "criterion-02", ok,
        f"P = sqrt(3) - 2 within {p_err:.2e} (<= 1e-9), "
        f"Riccati residual {no.riccati_residual:.2e} (<= 1e-12)",
    )


def test_criterion_03_isotropy_suite(instance_pool, sa_results, sa_standard, sa_driver):
    worst_stat = 0.0
    all_lagrange = True
    for item in instance_pool:
        l_plus = item["lp"].l_plus
        defect = isotropy_defect(l_plus)
        worst_stat = max(worst_stat, defect)
        ok = l_plus.dim == l_plus.ambient // 2 and defect <= ISOTROPY_TOL
        all_lagrange = all_lagrange and ok
    worst_sa = max(isotropy_defect(f.subspace()) for f in sa_results["fibers"])
    # symplectic pairing along integrated trajectories
    drift_stat = 0.0
    for item in instance_pool[:5]:
        ham = item["reg"].ham
        basis = item["lp"].l_plus.basis
        d, p0 = pairing_drift(ham, basis[:, 0], basis[:, -1],
                              np.linspace(0.0, 5.0, 200))
        drift_stat = max(drift_stat, d, abs(p0))
    fib = sa_results["fibers"][0]
    basis_sa = fib.subspace().basis
    drift_sa, pair0_sa = sa_pairing_drift(
        sa_standard, sa_driver, fib.q, basis_sa[:, 0], basis_sa[:, 5], 3.0,
    )
    ok = (
        worst_stat <= 1e-8
        and worst_sa <= 1e-8
        and all_lagrange
        and drift_stat <= 1e-8
        and max(drift_sa, abs(pair0_sa)) <= 1e-10
    )
    report(
        "criterion-03", ok,
        f"isotropy defects: stationary {worst_stat:.2e}, fibers {worst_sa:.2e} "
        f"(<= 1e-8); pairing drifts {drift_stat:.2e} / {drift_sa:.2e}",
    )


def test_criterion_04_norm_bounds(instance_pool, rng):
    worst_ratio = 0.0
    for item in instance_pool[:12]:
        reg = item["reg"]
        scan = frequency_condition_margin(reg.a, reg.b, reg.form, full_scan=True)
        ratio = np.max(scan.inverse_norms) / inverse_norm_bound(reg.form, scan.margin)
        worst_ratio = max(worst_ratio, ratio)
    # Lyapunov-Perron L2 bound
    worst_l2 = 0.0
    for item in instance_pool[:8]:
        split = item["reg"].split_a
        n = split.n
        t = np.arange(-50.0, 50.0 + 1e-9, 0.05)
        window = np.exp(-((t / 12.0) ** 2))
        vals = window[:, None] * rng.standard_normal((1, n))
        z = lyapunov_perron_apply(split, GridFunction(t, vals))
        p = stable_projector(split)
        num = GridFunction(t, z.values @ p.T).l2_norm()
        den = GridFunction(t, vals @ p.T).l2_norm()
        worst_l2 = max(worst_l2, num / (split.m_const / split.eps_rate * den))
    # adjoint kernels
    worst_adj = 0.0
    gen_rng = np.random.default_rng(7)
    for j in (0, 1, 2, 0, 1):
        a = random_dichotomy_generator(gen_rng, 5, j=j)
        worst_adj = max(
            worst_adj,
            adjoint_kernel_defect(dichotomy_split(a), dichotomy_split(-a.T)),
        )
    ok = worst_ratio <= 1.0 + 1e-10 and worst_l2 <= 1.0 + 1e-6 and worst_adj <= 1e-10
    report(
        "criterion-04", ok,
        f"inverse-norm ratio {worst_ratio:.9f} (<= 1+1e-10), L2 ratio "
        f"{worst_l2:.6f} (<= 1+1e-6), adjoint defect {worst_adj:.2e} (<= 1e-10)",
    )


def test_criterion_05_fredholm_bounds(instance_pool, sa_results, sa_standard):
    ok_stat = True
    for item in instance_pool:
        n = item["reg"].a.shape[0]
        dim = intersection_dimension(item["schur"], vertical_subspace(n))
        dim_lp = intersection_dimension(item["lp"].l_plus, vertical_subspace(n))
        ok_stat = ok_stat and dim <= item["j"] and dim_lp <= item["j"]
    # equality case: unreachable unstable mode forces a vertical direction
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    form = QuadraticFormTriple(f1=-0.15 * np.eye(2), f2=np.zeros((1, 2)), f3=[[1.0]])
    sub = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
    dim_forced = intersection_dimension(sub, vertical_subspace(2))
    sa_dim = max(
        intersection_dimension(f.subspace(), vertical_subspace(sa_standard.n))
        for f in sa_results["fibers"]
    )
    ok = ok_stat and dim_forced == 1 and sa_dim <= sa_standard.N
    report(
        "criterion-05", ok,
        f"dim(L+ cap vertical) <= j on 50 instances; forced j=1 case gives "
        f"dim 1; SA fibers max dim {sa_dim} <= N = {sa_standard.N}",
    )


def test_criterion_06_controllability_nonoscillation(instance_pool):
    rng = np.random.default_rng(99)
    checked = 0
    for item in instance_pool:
        if not l2_controllability(item["reg"].a, item["reg"].b):
            continue
        extract_nonoscillation(item["schur"])  # must not raise
        checked += 1
    while checked < 50:
        a, b, form, _ = random_passing_instance(
            rng, int(rng.integers(2, 7)), j=int(rng.integers(0, 2)),
            require_controllable=True,
        )
        sub = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
        extract_nonoscillation(sub)
        checked += 1
    # constructed obstruction: unstable, unreachable
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    form = QuadraticFormTriple(f1=-0.15 * np.eye(2), f2=np.zeros((1, 2)), f3=[[1.0]])
    assert not l2_controllability(a, b)
    sub = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
    flagged = False
    try:
        extract_nonoscillation(sub)
    except Oscillating:
        flagged = True
    report(
        "criterion-06", flagged and checked >= 50,
        f"nonoscillation extracted on {checked} controllable instances; "
        "non-controllable unstable instance flagged Oscillating",
    )


def test_criterion_07_sa_standard_instance(sa_standard, sa_results):
    con = sa_results["contraction"]
    vform = sa_results["vform"]
    fibers = sa_results["fibers"]
    plugin_ok = (
        abs(con["bound_mid"] - 0.82) <= 1e-12
        and abs(con["bound_pq"] - 0.1339) <= 1e-4
        and con["measured_mid"] <= con["bound_mid"] + 1e-6
        and con["measured_pq"] <= con["bound_pq"] + 1e-6
        and con["lp_measured_all"] <= con["lp_bound_all"] + 1e-6
        and con["lp_measured_pq"] <= con["lp_bound_pq"] + 1e-6
    )
    # the fiber sweep passed its step-doubling check
    picard_ok = all(f.n_iterations == 1 and f.residual <= FIBER_TOL for f in fibers)
    (frozen,) = build_fibers(sa_standard, [(constant_driver(1.5), 0.0)])
    oracle = stable_lagrange_schur(assemble_nonaut_hamiltonian(sa_standard, 1.5))
    frozen_dist = grassmann_distance(frozen.subspace(), oracle)
    brackets_ok = (
        abs(vform["brackets"][0] - 0.5625) <= 1e-12
        and abs(vform["brackets"][1] - 2.1875) <= 1e-12
        and min(vform["brackets"]) > 0.0
        and vform["delta_v"] > 0.0
    )
    p_max = max(np.linalg.norm(extract_nonoscillation(f.subspace()).p, 2) for f in fibers)
    ok = (
        plugin_ok
        and picard_ok
        and frozen_dist <= 1e-6
        and brackets_ok
        and p_max <= 1.0 / vform["delta_v"] + 1e-6
    )
    report(
        "criterion-07", ok,
        f"bounds (0.82, {con['bound_pq']:.4f}) with measured "
        f"({con['measured_mid']:.4f}, {con['measured_pq']:.4f}); step-doubling "
        f"estimate {fibers[0].residual:.1e}; frozen-oracle {frozen_dist:.2e}; "
        f"brackets (0.5625, 2.1875); max ||P(q)|| = {p_max:.4f} <= "
        f"{1.0 / vform['delta_v']:.4f}",
    )


def test_criterion_08_implication_sweep():
    lams = np.geomspace(0.05, 8.0, 10)
    deltas = np.geomspace(0.01, 4.0, 10)
    mus = np.geomspace(0.1, 40.0, 10)
    ks = np.geomspace(1.0, 200.0, 10)
    counterexample = implication_sweep(lams, deltas, mus, ks)
    report(
        "criterion-08",
        counterexample is None,
        "10^4-point sweep: sharper inequality set implies both others "
        f"(counterexample: {counterexample})",
    )


def test_criterion_09_convergence_orders(s1):
    split = dichotomy_split(np.diag([-1.0]))
    res = []
    for h in (0.16, 0.08, 0.04):
        t = np.arange(-30.0, 30.0 + 1e-9, h)
        w = np.exp(-((t / 6.0) ** 2))
        res.append(
            fourier_resolvent_check(split, GridFunction(t, (w * np.cos(2 * t))[:, None]))
        )
    fourier_orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    a, b, form = s1
    p = np.array([[SQRT3 - 2.0]])
    defects = []
    for m in (201, 401, 801):
        times = np.linspace(0.0, 8.0, m)
        xi = GridFunction(times, (np.exp(-times) * np.sin(2 * times))[:, None])
        v = integrate_control_trajectory(a, b, [xi], [np.array([0.7])])[0]
        defects.append(riccati_integral_check(p, a, b, form, v, xi))
    riccati_orders = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
    ok = min(fourier_orders) >= 2.0 and min(riccati_orders) >= 2.0
    report(
        "criterion-09", ok,
        f"observed orders: fourier {min(fourier_orders):.2f}, balance identity "
        f"{min(riccati_orders):.2f} (both >= 2)",
    )


def test_criterion_10_decay_fits(instance_pool, sa_standard, sa_driver, sa_results):
    # stationary: fitted rates against the shifted-margin eps0
    ok_stat = True
    stat_summary = []
    for item in instance_pool[:3]:
        eps0 = estimate_eps0(item["reg"])
        ham = item["reg"].ham
        basis = item["lp"].l_plus.basis
        traj = hamiltonian_trajectory(
            ham, basis @ np.ones(basis.shape[1]), np.linspace(0.0, 6.0, 400)
        )
        rate, _ = fit_decay_rate(traj)
        ok_stat = ok_stat and rate >= eps0 - 1e-3
        stat_summary.append((rate, eps0))
    eps0_sa = sa_eps0_estimate(sa_standard)
    rates, prefs = [], []
    for fib in sa_results["fibers"]:
        z0 = fib.subspace().basis @ np.ones(sa_standard.n)
        rate, pref = exp_decay_fit(sa_standard, sa_driver, fib.q, z0, fiber=fib)
        rates.append(rate)
        prefs.append(pref)
    ok_sa = min(rates) >= eps0_sa - 1e-3 and max(prefs) / min(prefs) < 2.0
    report(
        "criterion-10",
        ok_stat and ok_sa,
        f"stationary rates vs eps0 {stat_summary}; SA min rate "
        f"{min(rates):.3f} >= {eps0_sa:.3f} - 1e-3 over 16 phases, prefactor "
        f"spread {max(prefs) / min(prefs):.3f} < 2",
    )
