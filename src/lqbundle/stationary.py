"""Stationary Hamiltonian assembly and stable Lagrange subspace construction.

Two independent routes produce the stable subspace: the ordered-Schur
invariant subspace (oracle) and the Lyapunov-Perron image of the sharp
pairing subspace, discretized with the exponential quadrature of `_phi`
(Hochbruck & Ostermann, Acta Numerica 2010) on a spectrum-graded time grid
(`_grid_parameters`) as one banded collocation system in the recursion
states and the control xi at every node (`_StationaryLP`), with the sharp
basis as boundary values, and refined by Richardson extrapolation (see
`stable_lagrange_lp`).  Only node 0's state is read, so the system is solved
by frontal elimination (Irons, IJNME 1970), the stable block elimination of
dichotomic boundary value problems (Ascher, Mattheij & Russell 1988, ch. 6):
from the horizon back to node 0, rows join the front as their windows come
up, LAPACK factors the front's leading block with partial pivoting, and the
pivot rows are dropped.  No global matrix or factor exists; the memory is
the front of one step and the rows it carries into the next (at n = 40, 264
of the 283 fronts of n40_j0's grid are 201 x 284, and the widest, at the
segment joins, 281 x 324), and `LP_ENTRY_BUDGET` bounds the work
(`LPBudgetExceeded`, before any front exists).
Nonoscillation extraction (P read off the graph {(v, -P v)} over the
horizontal subspace), Riccati verification, controllability, coercivity and
the Lyapunov inequality live here as well, all on one `Regulator` (A, B, F);
the coercivity and Lyapunov checks each integrate their sampled controls in
one recurrence over an (n, controls) state, whose local integrals of every
step come from the same stencil contraction as the collocation system.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# scipy.linalg (0.16 s to import) is imported by the functions that call it,
# so that only a stationary construction loads it

from ._phi import backward_moments, backward_weights, forward_weights, local_forcing, phi_block
from .dichotomy import (
    AXIS_TOL,
    DichotomySplit,
    GridFunction,
    dichotomy_split,
)
from .errors import (
    DimensionMismatch,
    EpsilonTooLarge,
    FrequencyConditionFailed,
    HorizonTooShort,
    LPBudgetExceeded,
    NotLagrange,
    Oscillating,
    SampleNotInM0,
    SingularF3,
    SpectrumOnAxis,
)
from .frequency import QuadraticFormTriple, level_set, resolvent_sup_norm
from .symplectic import (
    RANK_RTOL,
    LagrangeSubspace,
    Subspace,
    intersection_dimension,
    j_matrix,
    vertical_subspace,
)

#: h |lambda_k| of every mode k at the time its LP grid segment starts
GRID_RHO_STEP = 0.036
GRID_HORIZON_RATE = 12.0
#: most entries the LP's row table may copy into its fronts, which bounds the
#: elimination's work (36 M on n40_j0 at margin 1e-4, 4,241 nodes)
LP_ENTRY_BUDGET = 40_000_000
#: fewest columns an LP elimination step pivots on: whole nodes, one at n = 40
FRONT_PANEL_COLUMNS = 64
#: fewest steps of an LP grid segment: even, so the Richardson grid keeps
#: three per segment, as a cubic stencil needs
SEGMENT_MIN_STEPS = 6
#: relative change of the step above which an LP grid starts a new segment
SEGMENT_STEP_RTOL = 1e-6
#: relative state left at the horizon above which an M_0 sample has not decayed
DECAY_TOL = 1e-3
LYAPUNOV_SLACK = 1e-9
#: bracket width of the eps0 bisection
EPS0_TOL = 1e-4
#: entries per matrix product of `_row_forms` (80 kB): a 1,500-node n = 40
#: trajectory's whole product (480 kB) stays at the top of the heap once
#: freed, and raised the n = 40 benchmark's peak RSS by 0.9 MB
FORM_ENTRIES = 10240


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
    """The regulator problem v' = A v + B xi with cost form F; it derives the
    Hamiltonian `ham` (spectrum, gap) and the splits `split_a` of A and
    `split_m` of -A^T once each, and the form caches the F3 factor.
    `frequency.TransferEvaluator` factors A once more, into the complex
    Schur form its solves need, and reads A's spectrum off its diagonal."""

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
    def ham(self) -> Hamiltonian:
        n = self.a.shape[0]
        mat = perturbation_matrix(self.a, self.b, self.form)
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
    import scipy.linalg as sla

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


def sharp_basis(split_a: DichotomySplit, split_m: DichotomySplit) -> LagrangeSubspace:
    """Orthonormal basis of the sharp pairing subspace stable(A) x stable(-A^T),
    which the Lyapunov-Perron map of `stable_lagrange_lp` takes to L+."""
    n = split_a.n
    bs_v = _basis_or_empty(split_a.stable_basis, n)
    bs_e = _basis_or_empty(split_m.stable_basis, n)
    sharp = np.zeros((2 * n, bs_v.shape[1] + bs_e.shape[1]))
    sharp[:n, : bs_v.shape[1]] = bs_v
    sharp[n:, bs_v.shape[1] :] = bs_e
    return LagrangeSubspace(sharp)


def perturbation_matrix(a, b, form: QuadraticFormTriple) -> np.ndarray:
    """R with H = diag(A, -A^T) + R, for 2-d float A and B."""
    import scipy.linalg as sla

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
    """Stable Lagrange subspace with solver diagnostics."""

    l_plus: LagrangeSubspace
    diagnostics: dict


def _grid_parameters(split_a: DichotomySplit, ham: Hamiltonian) -> np.ndarray:
    """The LP grid over [0, GRID_HORIZON_RATE / eps], eps the slowest rate,
    graded by the modes lambda_k, H's stable eigenvalues and all of A's: the
    step h(t) = GRID_RHO_STEP min_k exp(|Re lambda_k| t / 4) / |lambda_k|
    keeps the stencil's local error on each mode, about (h |lambda_k|)^4
    exp(-|Re lambda_k| t), below GRID_RHO_STEP^4.  Segment s has the step
    2^s h0, h0 = h(0), and ends where h reaches twice that, at max_k
    4 ln(2^(s+1) h0 |lambda_k| / GRID_RHO_STEP) / |Re lambda_k|, its step
    shortened to an even count, at least SEGMENT_MIN_STEPS; it takes in a tail
    shorter than a minimal next one.  So `times[::2]` is the Richardson grid.
    As eps <= |Re lambda_k| <= |lambda_k|, h0 = GRID_RHO_STEP / max_k
    |lambda_k| <= GRID_RHO_STEP / eps = horizon / 333."""
    if ham.gap <= AXIS_TOL:
        raise SpectrumOnAxis("Hamiltonian spectrum touches the imaginary axis")
    horizon = GRID_HORIZON_RATE / min(split_a.eps_rate, ham.gap)
    modes = np.concatenate([ham.eigenvalues[ham.eigenvalues.real < 0], split_a.eigenvalues])
    quarter_rate, modulus = np.abs(modes.real) / 4.0, np.abs(modes)
    pieces, lo, step = [], 0.0, GRID_RHO_STEP / modulus.max()
    while lo < horizon:
        hi = np.max(np.log(2.0 * step * modulus / GRID_RHO_STEP) / quarter_rate)
        if hi > horizon - SEGMENT_MIN_STEPS * 2.0 * step:
            hi = horizon
        pieces.append((lo, hi, max(SEGMENT_MIN_STEPS, 2 * int(np.ceil((hi - lo) / (2 * step))))))
        lo, step = hi, 2.0 * step
    nodes = 1 + sum(count for _, _, count in pieces)
    _check_budget(nodes, nodes * (2 * split_a.n + 1))  # each node's 2n + mu rows hold entries
    return np.append(np.concatenate([np.linspace(lo, hi, count + 1)[:-1]
                                     for lo, hi, count in pieces]), horizon)


def _check_budget(nodes: int, entries: int) -> None:
    if entries > LP_ENTRY_BUDGET:
        raise LPBudgetExceeded(f"the LP grid of {nodes:,} nodes has at least {entries:,} "
                               f"row-table entries, over LP_ENTRY_BUDGET = {LP_ENTRY_BUDGET:,}")


def _segments(times: np.ndarray) -> list[tuple[int, int]]:
    """(first, last) node of each uniform piece of a grid: a new piece
    starts where the step changes by more than roundoff."""
    dt = np.diff(times)
    joins = np.flatnonzero(np.abs(np.diff(dt)) > SEGMENT_STEP_RTOL * dt[1:]) + 1
    bounds = [0, *joins.tolist(), dt.size]
    return list(zip(bounds[:-1], bounds[1:]))


#: one nonempty recursion of the LP, a row of `_StationaryLP.recursions`
_Recursion = namedtuple("_Recursion", "off width forward winv forcing e weights")


def _propagator(z: np.ndarray, ph) -> np.ndarray:
    """exp(Z) = I + Z phi_1(Z), from ph = `phi_block` of the step matrix Z
    (or a stack of them)."""
    return np.eye(z.shape[-1]) + z @ ph[0]


class _StationaryLP:
    """Half-line Lyapunov-Perron collocation of the paired fixed point
    y = G_sharp z^s + L_breve P R y on one piecewise-uniform time grid, for
    the columns z^s of `sharp`'s basis; y(0) spans L+.  The sharp term
    G_sharp(t) z^s = (e^{tA} P_s z^s_v, e^{-tA^T} P_s z^s_eta) solves each
    forward recursion's homogeneous step exactly (E = e^{hT}, `_propagator`), so it
    enters only as the boundary values u_0 and p_0, the stable coordinates
    of z^s, and the system has no forcing.  R y reaches the system only
    through the control xi = F3^-1 (B^T eta - F2 v), as R (v, eta) =
    (B xi, F1 v + F2^T xi), so xi is an unknown of its own, read from b and
    form.  The grid's segments (first and last node) are found where its
    step changes; no stencil crosses a join, and a uniform grid is the
    one-segment case.  `recursions` holds, in the order of the system's rows,
    one `_Recursion` per nonempty recursion of v's coordinates, then of
    eta's: forward on the stable block or backward on the unstable one, its
    `width` state entries from `off`, the rows `winv` of W^-1 that take the
    map `forcing` of a node state to its forcing coordinates, and for every
    segment's step its step propagator `e` and its cubic weights
    `weights[p][l]` (stencil pattern p, node l), each a stack of one matrix
    per segment.  `times`, the whole node array, comes last, where the
    benchmark tracer reads it."""

    def __init__(self, b, form, split_a, split_m, sharp, times):
        self.split_a = split_a
        self.split_m = split_m
        self.sharp = sharp
        self.times = times
        self.segments = _segments(times)
        if min(hi - lo for lo, hi in self.segments) < 3:
            raise HorizonTooShort("need at least 4 nodes in every grid segment")
        self.n = n = split_a.n
        self.b = np.atleast_2d(np.asarray(b, dtype=float))
        self.form = form
        # the per-node state s = (u, w, xi, p, q), `stride` entries: forward
        # and backward recursion coordinates of v, the control, then those of
        # eta; dv_map, xi_map and de_map give v, xi and eta
        ka, km, mu = split_a.k_stable, split_m.k_stable, form.control_dim
        self.stride = 2 * n + mu
        self.dv_map = np.hstack([split_a.w[:, :ka], -split_a.w[:, ka:], np.zeros((n, mu + n))])
        self.xi_map = np.eye(mu, self.stride, n)
        self.de_map = np.hstack([np.zeros((n, n + mu)), split_m.w[:, :km], -split_m.w[:, km:]])
        h = np.array([times[lo + 1] - times[lo] for lo, _ in self.segments])[:, None, None]
        # v's recursions are forced by B xi, eta's by F1 v + F2^T xi
        self.recursions = []
        for split, off, forcing in (
                (split_a, 0, self.b @ self.xi_map),
                (split_m, n + mu, form.f1 @ self.dv_map + form.f2.T @ self.xi_map)):
            k, t_s, t_u = split.k_stable, split.t_stable, split.t_unstable
            if k:
                ph = phi_block(4, h * t_s)
                self.recursions.append(_Recursion(
                    off, k, True, split.winv[:k], forcing, _propagator(h * t_s, ph),
                    [forward_weights(ph, h, p) for p in range(3)]))
            if split.rank_j:
                ph = phi_block(4, -h * t_u)
                self.recursions.append(_Recursion(
                    off + k, split.rank_j, False, split.winv[k:], forcing,
                    _propagator(-h * t_u, ph),
                    [backward_weights(backward_moments(ph), h, p) for p in range(3)]))

    def row_table(self) -> list[tuple[np.ndarray, int, int]]:
        """The collocation system's rows, the same for any boundary data, as
        (template, window block of its first copy, copies) in row order, each
        copy's window a block before the previous one's.

        Interval i of a recursion couples the nodes base[i] .. base[i] + 3 of
        its cubic stencil, all in the segment of interval i, and the
        recursion step x_{i+1} - E x_i (forward) or x_i - E x_{i+1}
        (backward) sits at the window nodes p and p + 1, p = pattern[i]
        (first, interior or last interval of the segment).  A v row reads xi
        at the four nodes, an eta row reads (u, w, xi) there, and both hold a
        row of the segment's E and one identity entry.  Each node adds mu rows
        F3 xi + F2 v - B^T eta = 0, and the 2n boundary rows of u_0, w_{m-1},
        p_0 and q_{m-1} come last.  Node k owns column block m - 1 - k, from
        the horizon back, so each template holds its four node blocks in
        reverse and its window starts at block m - 4 - base[i].  The
        templates' nonzeros times their copies count the system's entries,
        at most LP_ENTRY_BUDGET, before anything with one element per node
        or row exists.
        """
        m, size = self.times.size, self.stride
        table = []
        for rec in self.recursions:
            full = np.zeros((len(self.segments), 3, rec.width, 4, size))
            # the step's identity and -E blocks, at window nodes p and p + 1
            near, far = (-rec.e, np.eye(rec.width)) if rec.forward else (np.eye(rec.width), -rec.e)
            for p in range(3):
                for ell in range(4):
                    full[:, p, :, ell] = -(rec.weights[p][ell] @ rec.winv) @ rec.forcing
                full[:, p, :, p, rec.off : rec.off + rec.width] += near
                full[:, p, :, p + 1, rec.off : rec.off + rec.width] += far
            full = full[:, :, :, ::-1].reshape(len(self.segments), 3, rec.width, 4 * size)
            # a segment's first stencil has base lo, its hi - lo - 2 interior
            # ones lo .. hi - 3 and its last one hi - 3
            for tmpl, (lo, hi) in zip(full, self.segments):
                table += [(tmpl[0], m - 4 - lo, 1), (tmpl[1], m - 4 - lo, hi - lo - 2),
                          (tmpl[2], m - 1 - hi, 1)]
        form = self.form
        xi_rows = form.f2 @ self.dv_map + form.f3 @ self.xi_map - self.b.T @ self.de_map
        table.append((np.pad(xi_rows, ((0, 0), (0, 3 * size))), m - 1, m))
        table += [(np.eye(rec.width, 4 * size, rec.off), m - 1 if rec.forward else 0, 1)
                  for rec in self.recursions]
        _check_budget(m, sum(np.count_nonzero(tmpl) * copies for tmpl, _, copies in table))
        return table

    def eliminate(self, table) -> tuple[np.ndarray, int]:
        """Node 0's state, shape (stride, columns), which `dv_map`, `xi_map`
        and `de_map` turn into v, xi and eta, and the rows of the widest
        front, by frontal elimination of the system of `table` from the
        horizon (block 0) to node 0 (block m - 1).

        Eliminating the state unknowns by hand would give the dense
        single-input equation (I - T) xi = T0 g; the banded form costs O(m)
        rather than O(m^3).  A step takes the next nodes, enough for
        FRONT_PANEL_COLUMNS columns.  Each row joins the front at the first
        block of its window (`_rows_by_block`); a row whose window has not
        come up is zero in the step's columns, so LAPACK's partial pivoting
        over the front picks among the candidates of a whole-grid LU in the
        natural column order, and the rows left take the Schur update into
        the next three blocks.  A front ends at the last column its rows
        reach: a node's eta columns first appear two blocks ahead, so at
        n = 40 most fronts hold 203 of the next three blocks' 243 columns.
        U12 comes from the right-side solve U12^T = B^T L11^-T, faster than
        the left-side one at these shapes, and the Schur update from one
        dgemm, both in Fortran order.  Only node 0 is read, so the pivot
        rows are dropped, and no factor is kept.  The last front is square; its
        columns past node 0 hold the boundary values of its last rows, those
        of u_0 and p_0 (every other row's right-hand side is 0 and stays 0).
        A zero pivot raises NotLagrange naming its node.
        """
        import scipy.linalg as sla

        m, n, size, basis = self.times.size, self.n, self.stride, self.sharp.basis
        step = -(-FRONT_PANEL_COLUMNS // size)
        joining = _rows_by_block(table, m)
        carried = np.zeros((0, 0), order="F")
        widest = 0
        for c in range(0, m, step):
            blocks = [next(joining) for _ in range(min(step, m - c))]
            width = len(blocks) * size
            last = c + len(blocks) == m
            cols = max(carried.shape[1], width + (basis.shape[1] if last else 0),
                       *(k * size + reach for k, (_, reach) in enumerate(blocks)))
            height = len(carried) + sum(len(rows) for rows, _ in blocks)
            front = np.zeros((height, cols), order="F")
            front[: len(carried), : carried.shape[1]] = carried
            row = len(carried)
            for k, (rows, reach) in enumerate(blocks):
                front[row : row + len(rows), k * size : k * size + reach] = rows[:, :reach]
                row += len(rows)
            widest = max(widest, row)
            if last:  # past node 0 the columns hold the boundary values
                ka, km = self.split_a.k_stable, self.split_m.k_stable
                front[row - ka - km :, width : width + basis.shape[1]] = np.vstack(
                    [self.split_a.winv[:ka] @ basis[:n], self.split_m.winv[:km] @ basis[n:]])
            lu, piv, info = sla.lapack.dgetrf(front[:, :width], overwrite_a=True)
            zero = min(row, info - 1 if info > 0 else width)  # the first column without a pivot
            if zero < width:
                node = m - 1 - c - zero // size
                raise NotLagrange(f"the LP collocation system is singular at node {node} "
                                  f"(t = {self.times[node]:.6g}): a zero pivot in its elimination")
            rest = sla.lapack.dlaswp(front[:, width:], piv, overwrite_a=True)
            upper_t = sla.blas.dtrsm(1.0, lu[:width], rest[:width].T, side=1, lower=1,
                                     trans_a=1, diag=1)
            if not last:
                carried = sla.blas.dgemm(-1.0, lu[width:], upper_t, 1.0, rest[width:], trans_b=1)
        # node 0 is the last block, so its rows of U x = L^-1 P b stand alone
        s0 = sla.blas.dtrsm(1.0, lu[-size:, -size:], upper_t[: basis.shape[1], -size:].T)
        return s0, widest


def _rows_by_block(table, m: int):
    """The rows of `table` that join the front at each block 0 .. m - 1, one
    (rows, reach) pair per block, `reach` the columns up to the rows' last
    nonzero; blocks between two changes of the set of joining templates share
    theirs."""
    first = np.array([start for _, start, _ in table])
    last = first - np.array([copies for _, _, copies in table])
    edges = np.unique(np.concatenate([[0, m], first + 1, last + 1]))
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = np.vstack([table[i][0] for i in np.flatnonzero((last < lo) & (lo <= first))])
        reach = int(rows.any(axis=0).nonzero()[0][-1]) + 1
        for _ in range(lo, hi):
            yield rows, reach


def stable_lagrange_lp(reg: Regulator, margin: float) -> StableLagrangeResult:
    """Stable Lagrange subspace by the Lyapunov-Perron route, given the
    system's frequency margin (a nonpositive one raises, a tiny one warns, a
    singular collocation system raises NotLagrange).

    L+ is the image of the sharp subspace (`sharp_basis`) under the
    Lyapunov-Perron map.  The discretized fixed point is solved for that
    image directly, with the sharp basis as boundary values, on the graded
    time grid of `_grid_parameters` as the block-banded collocation system in
    the recursion states (the Schur complement of which is exactly I - T
    for the single-input operator T), once on the grid and once on every
    other node, the grid with every segment's step doubled, and the two
    node-0 states are Richardson-extrapolated for an O(h^4) error.  That helps only in the
    asymptotic range: on the scalar instance S1 the extrapolated subspace is
    3.7x, 4.6x and 6.4x closer to the Schur oracle than the single grid at
    GRID_RHO_STEP = 0.045, 0.036 (the default) and 0.025 (128, 162 and 232
    graded steps), but only 1.24x at 0.12 (56 steps).
    The diagnostics' `grids` give each grid's nodes and widest front's rows,
    the fine grid first.
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
    times = _grid_parameters(split_a, ham)

    sharp = sharp_basis(split_a, split_m)
    grids = []

    def solve_on(grid_times: np.ndarray) -> np.ndarray:
        lp = _StationaryLP(reg.b, reg.form, split_a, split_m, sharp, grid_times)
        s0, front_rows = lp.eliminate(lp.row_table())
        grids.append({"nodes": grid_times.size, "front_rows": front_rows})
        return np.vstack([lp.dv_map @ s0, lp.de_map @ s0])

    l_plus = LagrangeSubspace((16.0 * solve_on(times) - solve_on(times[::2])) / 15.0)
    hb = ham.matrix @ l_plus.basis
    diagnostics = {
        "n_steps": times.size - 1,
        "segments": [
            {"start": float(times[lo]), "step": float(times[lo + 1] - times[lo]),
             "steps": hi - lo}
            for lo, hi in _segments(times)
        ],
        "grids": grids,
        "horizon": float(times[-1]),
        "tail_bound": float(split_a.m_const * np.exp(-split_a.eps_rate * times[-1])),
        "margin": margin,
        "invariance_defect": float(
            np.linalg.norm(hb - l_plus.basis @ (l_plus.basis.T @ hb), 2)
            / max(1.0, np.linalg.norm(ham.matrix, 2))
        ),
    }
    return StableLagrangeResult(l_plus=l_plus, diagnostics=diagnostics)


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
    """Graph representation L = {(v, -P v)}, P = -B_eta B_v^-1 in the
    orthonormal basis B = (B_v; B_eta); fails on vertical directions, which
    the rank test of `intersection_dimension` reports once sigma_min(B_v) is
    about 2 RANK_RTOL (sigma_min / sigma_max of [B, -V] is about
    sigma_min(B_v) / 2), before B_v is too ill-conditioned to invert."""
    n = l_plus.ambient // 2
    if intersection_dimension(l_plus, vertical_subspace(n)) > 0:
        raise Oscillating("stable subspace meets the vertical subspace")
    basis = l_plus.basis
    p = -(basis[n:] @ np.linalg.inv(basis[:n]))
    sym_defect = float(np.abs(p - p.T).max())
    p = 0.5 * (p + p.T)
    feedback = None
    resid = None
    if a is not None and b is not None and form is not None:
        import scipy.linalg as sla

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


def integrate_control_trajectory(a, b, controls, v0s) -> list[GridFunction]:
    """Exact-exponential stepping of v' = A v + B xi for piecewise-cubic
    controls xi on one grid, each from its own v(0): the local integrals of
    all steps and controls in one stencil contraction, then the recurrence
    v_{i+1} = exp(hA) v_i + G_i on the (n, controls) state."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    times, h = controls[0].times, controls[0].step
    ph = phi_block(4, h * a)
    weights = [forward_weights(ph, h, p) for p in range(3)]
    forcing = np.stack([xi.values @ b.T for xi in controls], axis=2)
    g = local_forcing(weights, forcing)
    e = _propagator(h * a, ph)
    v = np.empty((times.size, a.shape[0], len(controls)))
    v[0] = np.asarray(v0s, dtype=float).T
    for i, gi in enumerate(g):
        v[i + 1] = e @ v[i] + gi
    return [GridFunction(times=times, values=v[:, :, c]) for c in range(len(controls))]


def hamiltonian_trajectory(ham: Hamiltonian, z0, times) -> GridFunction:
    """z' = H z by exact matrix exponentials per step."""
    import scipy.linalg as sla

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
    pair = _row_forms(z1.values, j, z2.values)
    return float(np.max(np.abs(pair - pair[0]))), float(pair[0])


def _row_forms(x: np.ndarray, m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x_k, M y_k> over the rows k of x and y: a matrix product and a row
    sum per chunk of rows whose product holds FORM_ENTRIES entries."""
    out = np.empty(len(x))
    rows = max(1, FORM_ENTRIES // m.shape[1])
    for lo in range(0, len(x), rows):
        out[lo : lo + rows] = ((x[lo : lo + rows] @ m) * y[lo : lo + rows]).sum(1)
    return out


def _form_density(form: QuadraticFormTriple, vv, xx) -> np.ndarray:
    """<F1 v, v> + 2 <F2 v, xi> + <F3 xi, xi> at every grid node."""
    return (
        _row_forms(vv, form.f1, vv)
        + 2.0 * _row_forms(xx, form.f2, vv)
        + _row_forms(xx, form.f3, xx)
    )


def l2_controllability(reg: Regulator) -> bool:
    """Hautus test on the nonstable modes: rank [A - lam I, B] = n, over the
    spectrum of A's split."""
    n = reg.a.shape[0]
    for lam in reg.split_a.eigenvalues:
        if lam.real < -1e-9:
            continue
        pencil = np.hstack([reg.a - lam * np.eye(n), reg.b.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        if np.sum(sv > RANK_RTOL * sv[0]) < n:
            return False
    return True


def _simpson(y: np.ndarray, x: np.ndarray):
    """Composite Simpson's rule for samples y on a strictly increasing 1-D
    grid x of at least 3 points, by the floating-point operations of
    `scipy.integrate.simpson(y, x=x)` (scipy 1.17), so the two agree bit for
    bit: the rule for unequal spacings on each pair of intervals, and for an
    even point count the last interval by Cartwright's correction (K. V.
    Cartwright, J. Math. Sci. Math. Educ. 12(2), 2017, eq. 8, recast for the
    last interval), then the trailing `+= 0.0`.  scipy guards zero
    spacings, which a strictly increasing grid does not have.
    """
    n = y.size
    even = n % 2 == 0
    stop = n - 3 if even else n - 2
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (
        y[0:stop:2] * (2.0 - 1.0 / h0divh1)
        + y[1 : stop + 1 : 2] * (hsum * (hsum / hprod))
        + y[2 : stop + 2 : 2] * (2.0 - h0divh1)
    )
    result = np.sum(tmp)
    if even:
        # 0-d arrays, as scipy's: their `**` runs numpy's power loop, which
        # can differ from a scalar's by 1 ulp
        h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
        result += 0.0
    return result


def coercivity_check(reg: Regulator, controls, margin: float) -> float:
    """Worst ratio of int F against the coercive lower bound on M_0 processes.

    The controls xi are integrated from v(0) = 0 in one
    `integrate_control_trajectory` call, so each (v, xi) is a process by
    construction, in M_0 when its state has decayed by the horizon (else
    SampleNotInM0).  Bound: delta/(max(1, delta) M^2 + 1) (||v||^2 + ||xi||^2),
    with M the exact sup of ||(A - i w)^{-1} B|| and delta the frequency
    margin.  The max(1, delta) factor is what the Parseval/Cauchy-Schwarz
    chain actually yields; for delta < 1 the denominator delta M^2 + 1 would
    overstate the constant (the scalar closed-form instance attains
    delta/(M^2+1) sharply).
    """
    a, b, form = reg.a, reg.b, reg.form
    m_sup = resolvent_sup_norm(a, b, np.eye(a.shape[0]))
    factor = margin / (max(1.0, margin) * m_sup**2 + 1.0)
    worst = np.inf
    v0s = np.zeros((len(controls), a.shape[0]))
    for v, xi in zip(integrate_control_trajectory(a, b, controls, v0s), controls):
        tail = np.abs(v.values[-1]).max()
        if tail > DECAY_TOL * max(np.abs(v.values).max(), 1e-30):
            raise SampleNotInM0(f"state has not decayed by the horizon ({tail:.3e})")
        f_vals = _form_density(form, v.values, xi.values)
        lhs = _simpson(f_vals, v.times)
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


def lyapunov_inequality_check(reg: Regulator, eps: float, controls, v0s) -> bool:
    """Dissipation inequality with the eps-shifted storage operator P_eps.

    Builds P_eps from the pipeline on F_eps, integrates each control from
    its v(0) in `v0s` (one `integrate_control_trajectory` call), and
    verifies V(v_T) - V(v_0) + int F >= eps int (|v|^2 + |xi|^2) on each
    trajectory.
    """
    form_eps = shifted_form(reg.form, eps)
    cross = level_set(reg.a, reg.b, form_eps, 0.0, 0.0)[0]
    if cross.size:
        raise EpsilonTooLarge(f"F_eps frequency margin <= 0 (at w = {cross[0]:.6g})")
    ham = assemble_hamiltonian(reg.a, reg.b, form_eps)
    l_eps = stable_lagrange_schur(ham)
    p_eps = extract_nonoscillation(l_eps).p
    states = integrate_control_trajectory(reg.a, reg.b, controls, v0s)
    ok = True
    for v, xi in zip(states, controls):
        f_vals = _form_density(reg.form, v.values, xi.values)
        vp = _row_forms(v.values, p_eps, v.values)
        lhs = vp[-1] - vp[0] + _simpson(f_vals, v.times)
        rhs = eps * (v.l2_norm() ** 2 + xi.l2_norm() ** 2)
        scale = abs(vp[-1]) + abs(vp[0]) + _simpson(np.abs(f_vals), v.times) + rhs
        if lhs < rhs - LYAPUNOV_SLACK * max(1.0, scale):
            ok = False
    return ok


# -- decay certificates -----------------------------------------------------


def estimate_eps0(reg: Regulator) -> float:
    """Largest verified eps with both +/- shifted frequency margins positive.

    Bisection on the exact test, no level-0 crossing of the shifted system;
    the reported value is the midpoint of the final bracket, capped below
    the dichotomy and Hamiltonian spectral gaps.  One test serves both
    signs: the shifted Hermitian part is even in the shift (see
    `level_set`), so the crossings at +eps are those at -eps.

    The test is monotone in the shift on [0, cap].  The Hermitian part
    tested at shift s is that of G(mu), mu = s + i w, and G is analytic on
    the strip |Re mu| <= cap, below the spectral gap of A and of -A^T.  For
    each vector x, Re x^* G(mu) x is harmonic there, so their minimum over
    unit x, lambda_min of the Hermitian part, is superharmonic; it is even
    in Re mu and tends to lambda_min(F3) as |w| grows.  By the minimum
    principle its infimum over |Re mu| <= s is attained on Re mu = +/- s,
    so that infimum, which the test at s checks for a zero, does not rise
    as s grows.  So a midpoint at or below a shift known to pass passes,
    one at or above a shift known to fail fails, and neither costs an
    eigensolve; the bisection takes the same midpoints and returns the same
    one as if it tested each.

    The eigensolves go instead where the crossing is predicted.  Where two
    eigenvalues of the level Hamiltonian meet on the imaginary axis at the
    critical shift s*, a passing shift's distance d = min |Re lambda| has
    d^2 ~ k (s* - s), and past s* they split along the axis into crossings
    e either side of the meeting point, e^2 ~ k (s - s*) (a dip about
    w = 0 shows one crossing, at e).  So q = d^2, or -e^2 where at most
    two crossings show, is smooth through s*.  An open midpoint is put to
    the end, on the midpoint's side, of the final bracket that holds the
    root of the polynomial through the last three samples of q (shift 0
    gives q = gap(H)^2, as the level Hamiltonian there is H); if that probe
    comes out as predicted, it settles the midpoint and every midpoint
    between.  Predicted probes are at most as many as the bisection's
    passes, so the count of eigensolves stays below twice that of testing
    every midpoint.
    """
    cap = 0.999 * min(reg.split_a.eps_rate, reg.ham.gap)
    samples = [(0.0, reg.ham.gap**2)]  # (shift, q) of the probes with a q
    passed, failed = 0.0, cap

    def probe(shift: float) -> None:
        nonlocal passed, failed
        crossings, distance = level_set(reg.a, reg.b, reg.form, 0.0, shift)
        if not crossings.size:
            passed = shift
            samples.append((shift, distance**2))
            return
        failed = shift
        if crossings.size <= 2:  # one dip, about w = 0 when one crossing shows
            half = 0.5 * (crossings[1] - crossings[0]) if crossings.size == 2 else crossings[0]
            samples.append((shift, -half**2))

    def predicted(mid: float) -> float:
        fit = np.array(samples[-3:])
        roots = np.roots(np.polyfit(fit[:, 0], fit[:, 1], len(fit) - 1))
        roots = roots.real[(roots.imag == 0.0) & (passed < roots.real) & (roots.real < failed)]
        if not roots.size:
            return mid
        root = roots.min()
        lo, hi, _ = _bisect(cap, lambda shift: shift < root)
        shift = lo if mid < root else hi
        return shift if passed < shift < failed else mid

    def settled(mid: float) -> bool:
        nonlocal budget
        while passed < mid < failed:
            shift = predicted(mid) if budget else mid
            if shift != mid:
                budget -= 1
            probe(shift)
        return mid <= passed

    probe(cap)
    if passed == cap:
        return cap
    budget = _bisect(cap, lambda shift: True)[2]
    lo, hi, _ = _bisect(cap, settled)
    return 0.5 * (lo + hi)


def _bisect(cap: float, passes) -> tuple[float, float, int]:
    """(lo, hi, passes): the final bracket of the eps0 bisection on [0, cap]
    with `passes(mid)` the test at each midpoint, and the midpoints' count."""
    lo, hi, count = 0.0, cap, 0
    while hi - lo > EPS0_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        count += 1
    return lo, hi, count


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
    import scipy.linalg as sla

    shifted = k + eps0 * np.eye(k.shape[0])
    x = sla.solve_continuous_lyapunov(shifted.T, -np.eye(k.shape[0]))
    return rate, float(np.sqrt(np.linalg.cond(x)))
