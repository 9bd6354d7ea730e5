"""Stationary Hamiltonian assembly and stable Lagrange subspace construction.

Two independent routes produce the stable subspace: the ordered-Schur
invariant subspace (oracle) and the Lyapunov-Perron fixed point, discretized
on a time grid with the exponential quadrature of `_phi` (Hochbruck &
Ostermann, Acta Numerica 2010), solved as one sparse collocation system in
the recursion states and the control xi at every node, and refined by
Richardson extrapolation, which helps only once the grid is in the asymptotic
range (see `stable_lagrange_lp`).  R reaches the system only through xi, so
an interval row holds the entries of xi (v rows) or of (v, xi) (eta rows) at
its cubic stencil's four nodes plus its own recursion step, and the CSR
arrays are written straight from row templates.  The solve's memory is linear
in the nonzeros (about 37 bytes each at n = 40, with the LU factor), and the
step cap follows a budget on steps * 4 sdim^2 (`NNZ_BUDGET`, sdim = 2n) as
well as `MAX_STEPS`, so stiff spectra get the step they need.
Nonoscillation extraction, Riccati verification, controllability, coercivity
and the Lyapunov inequality live here as well, all on one `Regulator`
(A, B, F); their control trajectories take the local integrals of every step
from the same stencil contraction as the collocation system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._phi import forward_weights, local_forcing, phi_block, stencil_layout
from .dichotomy import (
    AXIS_TOL,
    DichotomySplit,
    GridFunction,
    LPGridOperator,
    dichotomy_split,
    left_multiply,
)
from .errors import (
    DimensionMismatch,
    EpsilonTooLarge,
    FrequencyConditionFailed,
    NotAGraph,
    NotATrajectory,
    Oscillating,
    SampleNotInM0,
    SingularF3,
    SpectrumOnAxis,
)
from .frequency import QuadraticFormTriple, level_crossings, resolvent_sup_norm
from .symplectic import (
    RANK_RTOL,
    GraphOperator,
    LagrangeSubspace,
    Subspace,
    graph_over,
    horizontal_subspace,
    intersection_dimension,
    j_matrix,
    vertical_subspace,
)

GRID_RHO_STEP = 0.04
GRID_HORIZON_RATE = 12.0
MIN_STEPS = 320
MAX_STEPS = 6000
#: bound on steps * 4 sdim^2 (sdim = 2n) up to which the step cap may exceed
#: MAX_STEPS: a proxy for the fine-grid nonzeros, of which the n = 40 fixtures
#: hold about half and the stiff n = 4 system two thirds
NNZ_BUDGET = 12_500_000
#: entries per batch of the LP forcing's coordinate stack (64 kB); a whole-grid
#: stack (18 MB at n = 40) raised the allocator's mmap threshold and peak RSS
FORCING_BATCH = 8192
#: relative residual above which a (v, xi) pair is not a control trajectory
TRAJ_TOL = 1e-6
#: relative state left at the horizon above which an M_0 sample has not decayed
DECAY_TOL = 1e-3
LYAPUNOV_SLACK = 1e-9
#: bracket width of the eps0 bisection
EPS0_TOL = 1e-4


@dataclass(frozen=True)
class Hamiltonian:
    """Block Hamiltonian [[A_hat, H3], [H2, -A_hat^T]] of the regulator problem;
    the blocks are views of `matrix`."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def a_hat(self) -> np.ndarray:
        return self.matrix[:self.n, :self.n]

    @property
    def h2(self) -> np.ndarray:
        return self.matrix[self.n:, :self.n]

    @property
    def h3(self) -> np.ndarray:
        return self.matrix[:self.n, self.n:]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the matrix, computed once per Hamiltonian (read-only)."""
        eigs = np.linalg.eigvals(self.matrix)
        eigs.flags.writeable = False
        return eigs

    @cached_property
    def gap(self) -> float:
        """min |Re lambda(H)|: the distance of the spectrum from the imaginary axis."""
        return float(np.min(np.abs(self.eigenvalues.real)))

    def symplectic_defect(self) -> float:
        j = j_matrix(2 * self.n)
        return float(np.linalg.norm(j @ self.matrix + self.matrix.T @ j, 2))


def assemble_hamiltonian(a, b, form: QuadraticFormTriple) -> Hamiltonian:
    """H = diag(A, -A^T) + R = [[A - B F3^-1 F2, B F3^-1 B^T],
    [F1 - F2^T F3^-1 F2, -(...)^T]], with R from `perturbation_matrix`."""
    return Regulator(a, b, form).ham


@dataclass(frozen=True)
class Regulator:
    """The regulator problem v' = A v + B xi with cost form F; the one place
    that derives the perturbation `r`, the Hamiltonian `ham` (spectrum, gap),
    the splits `split_a` of A and `split_m` of -A^T, and (via the form) the
    F3 factor, each once."""

    a: np.ndarray
    b: np.ndarray
    form: QuadraticFormTriple

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        n, m = self.form.state_dim, self.form.control_dim
        if a.shape != (n, n):
            raise DimensionMismatch(f"A must be {n} x {n}, got {a.shape}")
        if b.shape != (n, m):
            raise DimensionMismatch(f"B must be {n} x {m}, got {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @cached_property
    def r(self) -> np.ndarray:
        """R = H - diag(A, -A^T), read by `ham` and by the LP solve."""
        return perturbation_matrix(self.a, self.b, self.form)

    @cached_property
    def ham(self) -> Hamiltonian:
        n = self.a.shape[0]
        mat = self.r.copy()
        mat[:n, :n] += self.a
        mat[n:, n:] -= self.a.T
        return Hamiltonian(mat)

    @cached_property
    def split_a(self) -> DichotomySplit:
        return dichotomy_split(self.a)

    @cached_property
    def split_m(self) -> DichotomySplit:
        return dichotomy_split(-self.a.T)


def stable_lagrange_schur(ham: Hamiltonian) -> LagrangeSubspace:
    """Oracle route: ordered real Schur basis of the stable invariant subspace."""
    if ham.gap <= AXIS_TOL:
        raise SpectrumOnAxis(f"Hamiltonian eigenvalue with |Re| = {ham.gap:.3e}")
    _, u, k = sla.schur(ham.matrix, output="real", sort="lhp")
    if k != ham.n:
        raise SpectrumOnAxis(
            f"stable subspace dimension {k} != n = {ham.n}"
        )
    return LagrangeSubspace(u[:, : ham.n])


def _basis_or_empty(subspace: Subspace | None, n: int) -> np.ndarray:
    if subspace is None:
        return np.zeros((n, 0))
    return subspace.basis


def breve_bases(
    split_a: DichotomySplit, split_m: DichotomySplit
) -> tuple[LagrangeSubspace, LagrangeSubspace]:
    """Orthonormal bases of the paired stable/unstable Lagrange subspaces.

    Sharp: stable(A) x stable(-A^T); flat: unstable(A) x unstable(-A^T).
    """
    n = split_a.n
    bs_v = _basis_or_empty(split_a.stable_basis, n)
    bs_e = _basis_or_empty(split_m.stable_basis, n)
    bu_v = _basis_or_empty(split_a.unstable_basis, n)
    bu_e = _basis_or_empty(split_m.unstable_basis, n)
    sharp = np.zeros((2 * n, bs_v.shape[1] + bs_e.shape[1]))
    sharp[:n, : bs_v.shape[1]] = bs_v
    sharp[n:, bs_v.shape[1] :] = bs_e
    flat = np.zeros((2 * n, bu_v.shape[1] + bu_e.shape[1]))
    flat[:n, : bu_v.shape[1]] = bu_v
    flat[n:, bu_v.shape[1] :] = bu_e
    return LagrangeSubspace(sharp), LagrangeSubspace(flat)


def perturbation_matrix(a, b, form: QuadraticFormTriple) -> np.ndarray:
    """R with H = diag(A, -A^T) + R, for 2-d float A and B."""
    n = a.shape[0]
    f3_fac = form.f3_factor
    f3inv_f2 = sla.cho_solve(f3_fac, form.f2)
    f3inv_bt = sla.cho_solve(f3_fac, b.T)
    r = np.zeros((2 * n, 2 * n))
    r[:n, :n] = -b @ f3inv_f2
    r[:n, n:] = b @ f3inv_bt
    r[n:, :n] = form.f1 - form.f2.T @ f3inv_f2
    r[n:, n:] = (b @ f3inv_f2).T
    return r


@dataclass(frozen=True)
class StableLagrangeResult:
    """Stable Lagrange subspace with its graph data and solver diagnostics."""

    l_plus: LagrangeSubspace
    m_plus: GraphOperator
    diagnostics: dict = field(default_factory=dict)


def _grid_parameters(
    split_a: DichotomySplit, ham: Hamiltonian, n_steps: int | None
) -> np.ndarray:
    if ham.gap <= AXIS_TOL:
        raise SpectrumOnAxis("Hamiltonian spectrum touches the imaginary axis")
    eps = min(split_a.eps_rate, ham.gap)
    rho = max(np.abs(split_a.eigenvalues).max(), np.abs(ham.eigenvalues).max(), 1.0)
    horizon = GRID_HORIZON_RATE / eps
    if n_steps is None:
        cap = max(MAX_STEPS, NNZ_BUDGET // (4 * (2 * split_a.n) ** 2))
        n_steps = int(np.clip(np.ceil(horizon * rho / GRID_RHO_STEP), MIN_STEPS, cap))
    return np.linspace(0.0, horizon, int(n_steps) + 1)


class _StationaryLP:
    """Half-line Lyapunov-Perron collocation of the paired fixed point
    Dz = L_breve P R (Dz + g) on one time grid.  R (`Regulator.r`) makes the
    forcing R g; R Dz reaches the system only through the control
    xi = F3^-1 (B^T deta - F2 dv), as R (dv, deta) = (B xi, F1 dv + F2^T xi),
    so xi is an unknown of its own, read from b and form.  `a` is not read:
    it keeps `times` where the benchmark tracer reads it."""

    def __init__(self, a, b, form, split_a, split_m, times, r):
        self.split_a = split_a
        self.split_m = split_m
        self.times = times
        self.op_v = LPGridOperator(split_a, times)
        self.op_e = LPGridOperator(split_m, times)
        self.n = split_a.n
        self.b = np.atleast_2d(np.asarray(b, dtype=float))
        self.form = form
        self.r = r
        # the per-node state s = (u, w, xi, p, q), `stride` entries: forward
        # and backward recursion coordinates of v, the control, then those of
        # eta; dv_map, xi_map and de_map give v, xi and eta
        ka, ja = split_a.k_stable, split_a.rank_j
        km, jm = split_m.k_stable, split_m.rank_j
        mu = form.control_dim
        self.widths = (ka, ja, km, jm)
        self.offs = (0, ka, self.n + mu, self.n + mu + km)
        self.stride = 2 * self.n + mu
        self.dv_map = np.hstack([split_a.w[:, :ka], -split_a.w[:, ka:],
                                 np.zeros((self.n, mu + km + jm))])
        self.xi_map = np.eye(mu, self.stride, self.n)
        self.de_map = np.hstack([np.zeros((self.n, self.n + mu)),
                                 split_m.w[:, :km], -split_m.w[:, km:]])

    def sharp_forcing(self) -> tuple[np.ndarray, np.ndarray]:
        """(g_v, g_eta) = R G_sharp(t) z^s for the orthonormal sharp basis
        columns, split into the v and eta rows."""
        m = self.times.size
        n = self.n
        cols_v = _basis_or_empty(self.split_a.stable_basis, n)
        cols_e = _basis_or_empty(self.split_m.stable_basis, n)
        g = np.zeros((m, 2 * n, cols_v.shape[1] + cols_e.shape[1]))
        for (op, cols, row0, col0) in (
            (self.op_v, cols_v, 0, 0),
            (self.op_e, cols_e, n, cols_v.shape[1]),
        ):
            if cols.shape[1] == 0:
                continue
            split, e_s = op.split, op.e_s
            k = split.k_stable
            # c <- e_s c per node; the basis multiplies one batch per product
            c = split.winv[:k] @ cols
            stack = np.empty((max(1, FORCING_BATCH // c.size),) + c.shape)
            for lo in range(0, m, stack.shape[0]):
                hi = min(lo + stack.shape[0], m)
                for j in range(hi - lo):
                    stack[j] = c
                    c = e_s @ c
                block = g[lo:hi, row0 : row0 + n, col0 : col0 + cols.shape[1]]
                np.matmul(split.w[:, :k], stack[: hi - lo], out=block)
        rg = left_multiply(self.r, g)
        return rg[:, :n], rg[:, n:]

    def assemble(self, g_v, g_e) -> tuple[sp.csc_matrix, np.ndarray]:
        """(matrix, right-hand side) of the collocation system in the states.

        Interval i of a family couples the nodes base[i] .. base[i] + 3 of its
        cubic stencil, and the recursion step x_{i+1} - E x_i (forward) or
        x_i - E x_{i+1} (backward) sits at the window nodes p and p + 1 of
        that stencil, p = pattern[i].  A v row reads xi at the four nodes
        (4 mu entries), an eta row reads (u, w, xi) there (4 (n + mu)), and
        both hold the dense width x width step blocks (2 width), so the rows
        of one family differ only by p and their column window, which starts
        at base[i] stride.  The CSR arrays are written directly from one
        (width, row length) template and one column-offset row per family and
        pattern.  Each node adds mu rows F3 xi + F2 dv - B^T deta = 0 over its
        own stride columns, and the 2n boundary rows u_0 = 0, w_{m-1} = 0,
        p_0 = 0 and q_{m-1} = 0 hold one entry each.  So the assembly's memory
        is linear in the nonzeros and the matrix holds no duplicate entries.
        """
        n = self.n
        m = self.times.size
        size = self.stride
        mu = size - 2 * n
        form = self.form
        # (what a family's rows read of a node's state, the columns it may touch)
        reads = (
            (self.b @ self.xi_map, np.arange(n, n + mu)),
            (form.f1 @ self.dv_map + form.f2.T @ self.xi_map, np.arange(n + mu)),
        )
        fams = (  # (split, grid operator, forward recursion)
            (self.split_a, self.op_v, True),
            (self.split_a, self.op_v, False),
            (self.split_m, self.op_e, True),
            (self.split_m, self.op_e, False),
        )
        row_len = [4 * reads[fam // 2][1].size + 2 * w for fam, w in enumerate(self.widths)]
        n_int = (m - 1) * sum(w * ell for w, ell in zip(self.widths, row_len))
        n_xi = m * mu * size
        nnz = n_int + n_xi + 2 * n
        idx_t = np.int32 if nnz < 2**31 else np.int64
        data = np.empty(nnz)
        indices = np.empty(nnz, dtype=idx_t)
        indptr = np.zeros(m * size + 1, dtype=idx_t)
        np.cumsum(np.repeat(row_len + [size, 1], [(m - 1) * w for w in self.widths]
                            + [m * mu, 2 * n]), out=indptr[1:])
        base, pattern = stencil_layout(m)
        rhs = np.zeros((m * size, g_v.shape[2]))
        row0 = 0
        for fam, (split, op, fwd) in enumerate(fams):
            width = self.widths[fam]
            if width == 0:
                continue
            off = self.offs[fam]
            k = split.k_stable
            winv_blk = split.winv[:k] if fwd else split.winv[k:]
            weights = op.wf if fwd else op.wb
            cin, cols = reads[fam // 2]
            full = np.zeros((3, width, 4, size))
            used = np.zeros((3, 4, size), dtype=bool)
            used[:, :, cols] = True
            # the step's identity and -E blocks, at window nodes p and p + 1
            e_blk = op.e_s if fwd else op.e_u
            near, far = (-e_blk, np.eye(width)) if fwd else (np.eye(width), -e_blk)
            for p in range(3):
                for ell in range(4):
                    full[p, :, ell] = -(weights[p][ell] @ winv_blk) @ cin
                for node, blk in ((p, near), (p + 1, far)):
                    full[p, :, node, off : off + width] += blk
                    used[p, node, off : off + width] = True
            col_pat = np.stack([np.flatnonzero(used[p]) for p in range(3)]).astype(idx_t)
            templates = np.stack([full[p].reshape(width, -1)[:, col_pat[p]]
                                  for p in range(3)])
            lo, hi = indptr[row0], indptr[row0 + (m - 1) * width]
            shape = (m - 1, width, row_len[fam])
            np.take(templates, pattern, axis=0, mode="clip", out=data[lo:hi].reshape(shape))
            idx = indices[lo:hi].reshape(shape)
            idx[...] = col_pat[pattern][:, None, :]
            idx += (base.astype(idx_t) * size)[:, None, None]
            # rhs from the g-forcing through the same stencil weights
            coords = left_multiply(winv_blk, g_v if fam < 2 else g_e)
            loc = local_forcing(weights, coords)
            rhs[row0 : row0 + (m - 1) * width] = loc.reshape((m - 1) * width, -1)
            row0 += (m - 1) * width
        # the control rows of every node
        xi_rows = form.f2 @ self.dv_map + form.f3 @ self.xi_map - self.b.T @ self.de_map
        lo = n_int
        data[lo : lo + n_xi].reshape(m, mu, size)[...] = xi_rows
        indices[lo : lo + n_xi].reshape(m, mu, size)[...] = (
            np.arange(m, dtype=idx_t)[:, None, None] * size + np.arange(size, dtype=idx_t)
        )
        data[lo + n_xi :] = 1.0
        indices[lo + n_xi :] = np.concatenate([
            node * size + self.offs[fam] + np.arange(self.widths[fam])
            for fam, node in ((0, 0), (1, m - 1), (2, 0), (3, m - 1))
        ])
        mat = sp.csr_matrix((data, indices, indptr), shape=(m * size, m * size))
        return mat.tocsc(), rhs

    def solve_structured(self, g_v, g_e):
        """Direct sparse solve of the collocation system in the node states.

        Eliminating the state unknowns from this block-banded system by hand
        gives the dense single-input equation (I - T) xi = T0 g; solving the
        banded form instead costs O(m) rather than O(m^3).  The matrix comes
        from `assemble`: at n = 40 with one input a v row holds 4 + 2 width
        entries and an eta row 164 + 2 width, about half of what the product
        R (dv, deta) stored in every row.  The node-major columns are already
        in time order, so one SuperLU factorization keeps them in their
        natural order.  Returns the grid values (dv, deta).
        """
        mat, rhs = self.assemble(g_v, g_e)
        lu = spla.splu(mat, permc_spec="NATURAL")
        del mat  # the factor keeps no reference to it; the solve peaks without it
        s = lu.solve(rhs).reshape(self.times.size, self.stride, -1)
        return left_multiply(self.dv_map, s), left_multiply(self.de_map, s)


def stable_lagrange_lp(
    reg: Regulator, margin: float, *, n_steps: int | None = None
) -> StableLagrangeResult:
    """Stable Lagrange subspace by the Lyapunov-Perron route, given the
    system's frequency margin (a nonpositive one raises, a tiny one warns).

    The discretized fixed point is solved directly on the time grid as the
    block-banded collocation system in the recursion states (the Schur
    complement of which is exactly I - T for the single-input operator T),
    once on the grid and once on the grid with twice the step, and the two
    are Richardson-extrapolated for an O(h^4) error.  That helps only in the
    asymptotic range: on the scalar instance S1 the extrapolated subspace is
    4.1x, 4.7x and 6.8x closer to the Schur oracle than the single grid at
    300, 347 (the default) and 512 steps, but 1.5x and 2.1x farther at 32
    and 64 steps.
    """
    if margin <= 0.0:
        raise FrequencyConditionFailed(f"frequency margin {margin:.3e} <= 0")
    if margin < 1e-4:
        warnings.warn(
            f"frequency margin {margin:.3e} is tiny; the fixed-point solve "
            "is ill-conditioned near the condition boundary",
            RuntimeWarning,
            stacklevel=2,
        )
    ham, split_a, split_m = reg.ham, reg.split_a, reg.split_m
    times = _grid_parameters(split_a, ham, n_steps)

    def solve_on(grid_times: np.ndarray) -> np.ndarray:
        lp = _StationaryLP(reg.a, reg.b, reg.form, split_a, split_m, grid_times, reg.r)
        dv, de = lp.solve_structured(*lp.sharp_forcing())
        return np.vstack([dv[0], de[0]])

    dz0 = solve_on(times)
    coarse = np.linspace(times[0], times[-1], (times.size - 1) // 2 + 1)
    dz0 = (16.0 * dz0 - solve_on(coarse)) / 15.0
    sharp, flat = breve_bases(split_a, split_m)
    l_plus = LagrangeSubspace(sharp.basis + dz0)
    coords = flat.basis.T @ dz0
    hb = ham.matrix @ l_plus.basis
    diagnostics = {
        "n_steps": times.size - 1,
        "horizon": float(times[-1]),
        "tail_bound": float(split_a.m_const * np.exp(-split_a.eps_rate * times[-1])),
        "margin": margin,
        "off_flat_defect": float(np.linalg.norm(flat.basis @ coords - dz0, 2)),
        "invariance_defect": float(
            np.linalg.norm(hb - l_plus.basis @ (l_plus.basis.T @ hb), 2)
            / max(1.0, np.linalg.norm(ham.matrix, 2))
        ),
    }
    m_plus = GraphOperator(matrix=coords, sharp=sharp, flat=flat)
    return StableLagrangeResult(l_plus=l_plus, m_plus=m_plus, diagnostics=diagnostics)


# -- nonoscillation and Riccati ------------------------------------------


@dataclass(frozen=True)
class NonoscillationResult:
    p: np.ndarray
    feedback: np.ndarray | None
    riccati_residual: float | None
    symmetry_defect: float


def extract_nonoscillation(
    l_plus: LagrangeSubspace,
    a=None,
    b=None,
    form: QuadraticFormTriple | None = None,
) -> NonoscillationResult:
    """Graph representation L = {(v, -P v)}; fails on vertical directions."""
    n = l_plus.ambient // 2
    if intersection_dimension(l_plus, vertical_subspace(n)) > 0:
        raise Oscillating("stable subspace meets the vertical subspace")
    try:
        go = graph_over(l_plus, horizontal_subspace(n), vertical_subspace(n))
    except NotAGraph as exc:
        raise Oscillating(str(exc)) from exc
    p = -go.matrix
    sym_defect = float(np.abs(p - p.T).max())
    p = 0.5 * (p + p.T)
    feedback = None
    resid = None
    if a is not None and b is not None and form is not None:
        b = np.atleast_2d(np.asarray(b, dtype=float))
        f3_fac = form.f3_factor
        feedback = -sla.cho_solve(f3_fac, form.f2) - sla.cho_solve(f3_fac, b.T @ p)
        resid, _ = riccati_residual(p, assemble_hamiltonian(a, b, form))
    return NonoscillationResult(
        p=p, feedback=feedback, riccati_residual=resid, symmetry_defect=sym_defect
    )


def riccati_residual(p, ham: Hamiltonian) -> tuple[float, float]:
    """(||-P H3 P + P H1 + H1^T P + H2||, ||P||^2 ||H3|| + 2 ||P|| ||H1|| + ||H2||)
    in spectral norms, H1 = A_hat: the residual and the scale that makes it a
    relative backward error (a small multiple of the roundoff for exact P)."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    res = -p @ ham.h3 @ p + p @ ham.a_hat + ham.a_hat.T @ p + ham.h2
    p_n = np.linalg.norm(p, 2)
    h1_n, h2_n, h3_n = (np.linalg.norm(m, 2) for m in (ham.a_hat, ham.h2, ham.h3))
    scale = p_n**2 * h3_n + 2.0 * p_n * h1_n + h2_n
    return float(np.linalg.norm(res, 2)), float(scale)


# -- trajectories -----------------------------------------------------------


def integrate_control_trajectory(a, b, xi: GridFunction, v0) -> GridFunction:
    """Exact-exponential stepping of v' = A v + B xi for piecewise-cubic xi:
    the local integrals of all steps in one stencil contraction, then the
    recurrence v_{i+1} = exp(hA) v_i + G_i."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    h = xi.step
    ph = phi_block(4, h * a)
    weights = [forward_weights(ph, h, p) for p in range(3)]
    g = local_forcing(weights, (xi.values @ b.T)[:, :, None])[:, :, 0]
    e = sla.expm(h * a)
    v = np.empty((xi.times.size, a.shape[0]))
    v[0] = np.asarray(v0, dtype=float)
    for i, gi in enumerate(g):
        v[i + 1] = e @ v[i] + gi
    return GridFunction(times=xi.times, values=v)


def hamiltonian_trajectory(ham: Hamiltonian, z0, times) -> GridFunction:
    """z' = H z by exact matrix exponentials per step."""
    times = np.asarray(times, dtype=float)
    e = sla.expm((times[1] - times[0]) * ham.matrix)
    z = np.empty((times.size, ham.matrix.shape[0]))
    z[0] = np.asarray(z0, dtype=float)
    for i in range(times.size - 1):
        z[i + 1] = e @ z[i]
    return GridFunction(times=times, values=z)


def pairing_drift(ham: Hamiltonian, z10, z20, times) -> tuple[float, float]:
    """(max drift of <z1, J z2> along the flow, initial pairing)."""
    j = j_matrix(ham.matrix.shape[0])
    z1 = hamiltonian_trajectory(ham, z10, times)
    z2 = hamiltonian_trajectory(ham, z20, times)
    pair = np.einsum("mi,ij,mj->m", z1.values, j, z2.values)
    return float(np.max(np.abs(pair - pair[0]))), float(pair[0])


def _form_density(form: QuadraticFormTriple, vv, xx) -> np.ndarray:
    """<F1 v, v> + 2 <F2 v, xi> + <F3 xi, xi> at every grid node."""
    return (
        np.einsum("mi,ij,mj->m", vv, form.f1, vv)
        + 2.0 * np.einsum("mi,ij,mj->m", xx, form.f2, vv)
        + np.einsum("mi,ij,mj->m", xx, form.f3, xx)
    )


def _validate_trajectory(a, b, v: GridFunction, xi: GridFunction):
    ref = integrate_control_trajectory(a, b, xi, v.values[0])
    scale = max(np.abs(v.values).max(), 1e-30)
    err = np.abs(ref.values - v.values).max() / scale
    if err > TRAJ_TOL:
        raise NotATrajectory(f"trajectory residual {err:.3e} > {TRAJ_TOL:.1e}")


def l2_controllability(a, b) -> bool:
    """Hautus test on the nonstable modes: rank [A - lam I, B] = n."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = a.shape[0]
    for lam in np.linalg.eigvals(a):
        if lam.real < -1e-9:
            continue
        pencil = np.hstack([a - lam * np.eye(n), b.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        if np.sum(sv > RANK_RTOL * sv[0]) < n:
            return False
    return True


def coercivity_check(reg: Regulator, samples, margin: float) -> float:
    """Worst ratio of int F against the coercive lower bound on M_0 processes.

    Bound: delta/(max(1, delta) M^2 + 1) (||v||^2 + ||xi||^2), with M the
    exact sup of ||(A - i w)^{-1} B|| and delta the frequency margin.  The
    max(1, delta) factor is what the Parseval/Cauchy-Schwarz chain actually
    yields; for delta < 1 the denominator delta M^2 + 1 would overstate the
    constant (the scalar closed-form instance attains delta/(M^2+1) sharply).
    """
    from scipy.integrate import simpson  # 0.2 s to import, for this stage only

    a, b, form = reg.a, reg.b, reg.form
    m_sup = resolvent_sup_norm(a, b, np.eye(a.shape[0]))
    factor = margin / (max(1.0, margin) * m_sup**2 + 1.0)
    worst = np.inf
    for v, xi in samples:
        if np.abs(v.values[0]).max() > 1e-12 * max(1.0, np.abs(v.values).max()):
            raise SampleNotInM0("process must start at v(0) = 0")
        _validate_trajectory(a, b, v, xi)
        tail = np.abs(v.values[-1]).max()
        if tail > DECAY_TOL * max(np.abs(v.values).max(), 1e-30):
            raise SampleNotInM0(f"state has not decayed by the horizon ({tail:.3e})")
        f_vals = _form_density(form, v.values, xi.values)
        lhs = simpson(f_vals, x=v.times)
        rhs = factor * (v.l2_norm() ** 2 + xi.l2_norm() ** 2)
        if rhs <= 1e-30:
            continue
        worst = min(worst, lhs / rhs)
    return float(worst)


def shifted_form(form: QuadraticFormTriple, eps: float) -> QuadraticFormTriple:
    """F_eps(v, xi) = F(v, xi) - eps (|v|^2 + |xi|^2)."""
    try:
        return QuadraticFormTriple(
            f1=form.f1 - eps * np.eye(form.state_dim),
            f2=form.f2,
            f3=form.f3 - eps * np.eye(form.control_dim),
        )
    except SingularF3 as exc:
        raise EpsilonTooLarge(f"F3 - eps I loses definiteness: {exc}") from exc


def lyapunov_inequality_check(reg: Regulator, eps: float, trajectories) -> bool:
    """Dissipation inequality with the eps-shifted storage operator P_eps.

    Builds P_eps from the pipeline on F_eps and verifies
    V(v_T) - V(v_0) + int F >= eps int (|v|^2 + |xi|^2) on each trajectory.
    """
    from scipy.integrate import simpson

    form_eps = shifted_form(reg.form, eps)
    cross = level_crossings(reg.a, reg.b, form_eps, 0.0, 0.0)
    if cross.size:
        raise EpsilonTooLarge(f"F_eps frequency margin <= 0 (at w = {cross[0]:.6g})")
    ham = assemble_hamiltonian(reg.a, reg.b, form_eps)
    l_eps = stable_lagrange_schur(ham)
    p_eps = extract_nonoscillation(l_eps).p
    ok = True
    for v, xi in trajectories:
        f_vals = _form_density(reg.form, v.values, xi.values)
        vp = np.einsum("mi,ij,mj->m", v.values, p_eps, v.values)
        lhs = vp[-1] - vp[0] + simpson(f_vals, x=v.times)
        rhs = eps * (v.l2_norm() ** 2 + xi.l2_norm() ** 2)
        scale = abs(vp[-1]) + abs(vp[0]) + simpson(np.abs(f_vals), x=v.times) + rhs
        if lhs < rhs - LYAPUNOV_SLACK * max(1.0, scale):
            ok = False
    return ok


# -- decay certificates -----------------------------------------------------


def estimate_eps0(reg: Regulator) -> float:
    """Largest verified eps with both +/- shifted frequency margins positive.

    Bisection on the exact test (no level-0 crossing of either shifted
    system); the reported value is the midpoint of the final bracket,
    capped below the dichotomy and Hamiltonian spectral gaps.
    """
    cap = 0.999 * min(reg.split_a.eps_rate, reg.ham.gap)

    def passes(eps: float) -> bool:
        return not any(
            level_crossings(reg.a, reg.b, reg.form, 0.0, s).size for s in (eps, -eps)
        )

    if passes(cap):
        return cap
    lo, hi = 0.0, cap
    while hi - lo > EPS0_TOL:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def restricted_decay(
    ham: Hamiltonian, l_plus: LagrangeSubspace, eps0: float
) -> tuple[float, float]:
    """(rate, M_eps) of the flow z' = H z on L+, read from the subspace.

    K = L+^T H L+ is H restricted to L+ in its orthonormal basis, and the
    rate is -max Re lambda(K).  M_eps = sqrt(cond X), where
    (K + eps0 I)^T X + X (K + eps0 I) = -I, is a proven bound
    ||e^{tK}|| <= M_eps e^{-eps0 t}: y^T X y does not grow along the shifted
    flow.  M_eps is inf when K + eps0 I is not Hurwitz.
    """
    k = l_plus.basis.T @ ham.matrix @ l_plus.basis
    rate = -float(np.max(np.linalg.eigvals(k).real))
    if rate <= eps0:
        return rate, float("inf")
    shifted = k + eps0 * np.eye(k.shape[0])
    x = sla.solve_continuous_lyapunov(shifted.T, -np.eye(k.shape[0]))
    return rate, float(np.sqrt(np.linalg.cond(x)))
