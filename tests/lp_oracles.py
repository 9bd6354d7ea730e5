"""Oracle discretizations of the stationary Lyapunov-Perron fixed point.

The library solves the fixed point through one banded collocation system in
the recursion states and the control xi at every node, whose rows
`_StationaryLP.row_table` lists as per-recursion templates without stored
zeros, by frontal elimination to node 0 (`_StationaryLP.eliminate`).  It
solves for L+'s basis y = Delta z + G_sharp z^s itself, so its only
right-hand side is the sharp basis as boundary values.  The references
here solve the same fixed point by other means:

- `collocation_matrix`, `collocation_rhs` and `splu_node_states`: the
  library's system as one global CSC matrix, written in one row-ordered pass
  from the same row table, and solved whole by SuperLU in its natural column
  order, as the library did before it eliminated frontally; every node's
  state, where the library keeps node 0's alone;
- `coo_collocation_system` (solved by `coo_solve`): the collocation system
  in the recursion states alone, every row holding the dense product
  R (dv, deta), built block by block from COO triplet lists as the library
  once did; it stores the zeros of its identity and step blocks, has about
  three times the library's entries at n = 40 (five times on the stiff
  n = 4 system), and needs about three times the memory of its own matrix.
  It keeps the forcing formulation: it solves for the correction
  Delta z = L_breve P R (Delta z + g) of the sharp basis, forced by R g with
  g = G_sharp z^s from `sharp_forcing`, on the grid operator
  `dichotomy_oracles.LPGridOracle`, as do the next three;
- `SingleInputLP.solve_dense`: the dense single-input equation
  (I - T) xi = T0 g;
- `SingleInputLP.solve_picard`: the Picard iteration xi <- T xi + T0 g;
- `paired_fixed_point`: the dense paired-unknown equation
  Dz = L_breve P R_s (Dz + g) for the shifted generator diag(A, -A^T) + s I
  with R_s = R - s I, which gives the unshifted subspace for |s| below the
  decay certificate.

One more oracle shares their quadrature: `stepwise_control_trajectory`
steps v' = A v + B xi one interval at a time, each step's local integral a
sum of four weight-matrix products, as `integrate_control_trajectory` ran
before it took all local integrals from one stencil contraction.
`stencil_layout` gives each interval's cubic stencil (base node and
pattern) for these per-interval loops.  `four_product_local_forcing` is
the stencil contraction as `lqbundle._phi.local_forcing` ran before it
streamed its products: all four interior products formed first, then
summed.  `augmented_phi_block` takes the
phi-functions of the quadrature from one augmented (5n x 5n) `expm` per
matrix, as `lqbundle._phi.phi_block` did before it worked at the matrix's
own size.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dichotomy_oracles import LPGridOracle, left_multiply

from lqbundle._phi import forward_weights, local_forcing, phi_block
from lqbundle.dichotomy import GridFunction, dichotomy_split
from lqbundle.stationary import (
    Regulator,
    _grid_parameters,
    perturbation_matrix,
    sharp_basis,
)
from lqbundle.symplectic import LagrangeSubspace


def augmented_phi_block(kmax: int, m: np.ndarray) -> list[np.ndarray]:
    """[phi_1(m), ..., phi_kmax(m)] for a square matrix, or a stack of them
    (..., n, n), from the exponential of the block matrix with m in its
    corner and identities on its superdiagonal (Sidje 1998)."""
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


def stencil_layout(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval stencil base index and pattern id for cubic interpolation.

    Interval i uses nodes base[i] .. base[i]+3; pattern[i] in {0,1,2} selects
    the offset row of `lqbundle._phi.STENCIL_OFFSETS`.
    """
    if n_nodes < 4:
        raise ValueError("need at least 4 grid nodes for cubic quadrature")
    idx = np.arange(n_nodes - 1)
    base = np.clip(idx - 1, 0, n_nodes - 4)
    return base, idx - base


def default_grid(a, b, form, shift: float = 0.0):
    """(split of A + s I, split of -A^T + s I, times) on the uniform grid
    with the nodes of the library's graded grid over its horizon: the
    one-segment case of that grid, on which the oracles here are written."""
    reg = Regulator(a, b, form)
    eye = np.eye(reg.a.shape[0])
    split_a = dichotomy_split(reg.a + shift * eye)
    split_m = dichotomy_split(-reg.a.T + shift * eye)
    graded = _grid_parameters(split_a, reg.ham)
    return split_a, split_m, np.linspace(0.0, graded[-1], graded.size)


def sharp_forcing(split_a, split_m, times) -> np.ndarray:
    """G_sharp(t) z^s on the grid for the orthonormal sharp basis columns."""
    sharp = sharp_basis(split_a, split_m)
    n = split_a.n
    out = np.empty((times.size,) + sharp.basis.shape)
    for i, t in enumerate(times):
        out[i, :n] = split_a.propagate_stable(t) @ sharp.basis[:n]
        out[i, n:] = split_m.propagate_stable(t) @ sharp.basis[n:]
    return out


class SingleInputLP:
    """The fixed point in the control unknown xi, on one grid."""

    def __init__(self, a, b, form, split_a, split_m, times):
        self.b = np.atleast_2d(np.asarray(b, dtype=float))
        self.form = form
        self.times = times
        self.op_v = LPGridOracle(split_a, times)
        self.op_e = LPGridOracle(split_m, times)
        self.mu = form.control_dim
        n = split_a.n
        f3_fac = sla.cho_factor(form.f3)
        self.f3inv_f2 = sla.cho_solve(f3_fac, form.f2)
        self.f3inv_bt = sla.cho_solve(f3_fac, self.b.T)
        rg = left_multiply(
            perturbation_matrix(a, b, form), sharp_forcing(split_a, split_m, times)
        )
        self.g_v, self.g_e = rg[:, :n], rg[:, n:]

    def _control(self, u, w):
        return -left_multiply(self.f3inv_f2, u) + left_multiply(self.f3inv_bt, w)

    def t_apply(self, xi: np.ndarray) -> np.ndarray:
        """T xi for grid controls xi of shape (m, mu, batch)."""
        u = self.op_v.apply(left_multiply(self.b, xi))
        w = self.op_e.apply(
            left_multiply(self.form.f1, u) + left_multiply(self.form.f2.T, xi)
        )
        return self._control(u, w)

    def t0_forcing(self) -> np.ndarray:
        u = self.op_v.apply(self.g_v)
        w = self.op_e.apply(left_multiply(self.form.f1, u) + self.g_e)
        return self._control(u, w)

    def t_matrix(self, chunk: int = 192) -> np.ndarray:
        """Dense matrix of T on flattened (node, component) data."""
        size = self.times.size * self.mu
        out = np.empty((size, size))
        for lo in range(0, size, chunk):
            hi = min(lo + chunk, size)
            basis = np.zeros((size, hi - lo))
            basis[lo:hi] = np.eye(hi - lo)
            out[:, lo:hi] = self.t_apply(
                basis.reshape(self.times.size, self.mu, hi - lo)
            ).reshape(size, hi - lo)
        return out

    def dz0(self, xi: np.ndarray) -> np.ndarray:
        """Delta z(0) = (dv(0), deta(0)) reconstructed from the grid control."""
        dv = self.op_v.apply(left_multiply(self.b, xi) + self.g_v)
        de = self.op_e.apply(
            left_multiply(self.form.f1, dv)
            + left_multiply(self.form.f2.T, xi)
            + self.g_e
        )
        return np.vstack([dv[0], de[0]])

    def solve_dense(self) -> np.ndarray:
        t0 = self.t0_forcing()
        size = self.times.size * self.mu
        lhs = np.eye(size) - self.t_matrix()
        xi = np.linalg.solve(lhs, t0.reshape(size, -1)).reshape(t0.shape)
        return self.dz0(xi)

    def solve_picard(self, tol: float = 1e-12, max_iter: int = 400):
        """(Delta z(0), iteration count); raises if T does not contract."""
        t0 = self.t0_forcing()
        xi = np.zeros_like(t0)
        ref = None
        for it in range(max_iter):
            new = self.t_apply(xi) + t0
            delta = float(np.max(np.abs(new - xi)))
            xi = new
            if ref is None:
                ref = max(delta, 1e-300)
            if delta <= tol * ref:
                return self.dz0(xi), it + 1
        raise AssertionError("Picard iteration did not converge")


def paired_fixed_point(a, b, form, shift: float = 0.0) -> LagrangeSubspace:
    """Dense solve of Dz = L_breve P R_s (Dz + g) in the paired unknown."""
    split_a, split_m, times = default_grid(a, b, form, shift)
    n = split_a.n
    m = times.size
    r = perturbation_matrix(a, b, form) - shift * np.eye(2 * n)
    ops = (LPGridOracle(split_a, times), LPGridOracle(split_m, times))

    def apply(dz):
        rz = left_multiply(r, dz)
        return np.concatenate(
            [ops[0].apply(rz[:, :n]), ops[1].apply(rz[:, n:])], axis=1
        )

    size = m * 2 * n
    lmat = apply(np.eye(size).reshape(m, 2 * n, size)).reshape(size, size)
    rhs = apply(sharp_forcing(split_a, split_m, times)).reshape(size, -1)
    dz = np.linalg.solve(np.eye(size) - lmat, rhs).reshape(m, 2 * n, -1)
    return LagrangeSubspace(sharp_basis(split_a, split_m).basis + dz[0])


def collocation_matrix(lp) -> sp.csc_matrix:
    """The global collocation matrix of `lp`'s row table, node k in column
    block m - 1 - k, its CSR arrays written in one row-ordered pass without
    a zero or a duplicate, then converted to CSC."""
    table = lp.row_table()
    m, size = lp.times.size, lp.stride
    nnz = sum(np.count_nonzero(tmpl) * copies for tmpl, _, copies in table)
    indptr = np.zeros(m * size + 1, dtype=np.int32)
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=np.int32)
    row = entry = 0
    for tmpl, start, copies in table:
        cols = np.nonzero(tmpl)[1]
        end = entry + copies * cols.size
        data[entry:end].reshape(copies, cols.size)[...] = tmpl[tmpl != 0]
        idx = indices[entry:end].reshape(copies, cols.size)
        idx[...] = cols
        idx += (size * (start - np.arange(copies, dtype=np.int32)))[:, None]
        ptr = indptr[row + 1 : row + 1 + copies * len(tmpl)].reshape(copies, len(tmpl))
        ptr[...] = np.cumsum(np.count_nonzero(tmpl, axis=1))
        ptr += (entry + cols.size * np.arange(copies, dtype=np.int32))[:, None]
        row, entry = row + copies * len(tmpl), end
    return sp.csr_matrix((data, indices, indptr), shape=(m * size, m * size)).tocsc()


def collocation_rhs(lp) -> np.ndarray:
    """The global right-hand side: the sharp basis's stable coordinates in
    the boundary rows u_0 (of v) and p_0 (of eta) among the last 2n rows
    (u_0, w_{m-1}, p_0, q_{m-1}), zero in the other rows."""
    n, ka, km = lp.n, lp.split_a.k_stable, lp.split_m.k_stable
    basis = lp.sharp.basis
    rhs = np.zeros((lp.times.size * lp.stride, basis.shape[1]))
    bc = rhs[-2 * n :]
    bc[:ka] = lp.split_a.winv[:ka] @ basis[:n]
    bc[n : n + km] = lp.split_m.winv[:km] @ basis[n:]
    return rhs


def splu_node_states(lp) -> np.ndarray:
    """Every node's state in time order, shape (m, stride, columns), from
    one SuperLU solve of the global system in its natural column order."""
    lu = spla.splu(collocation_matrix(lp), permc_spec="NATURAL")
    return lu.solve(collocation_rhs(lp)).reshape(lp.times.size, lp.stride, -1)[::-1]


def paired_state_maps(lp):
    """(dv_map, de_map) of the per-node state s = (u, w, p, q), 2n entries,
    in which `coo_collocation_system` is written."""
    n = lp.n
    ka, km = lp.split_a.k_stable, lp.split_m.k_stable
    dv_map = np.zeros((n, 2 * n))
    de_map = np.zeros((n, 2 * n))
    dv_map[:, :ka] = lp.split_a.w[:, :ka]
    dv_map[:, ka:n] = -lp.split_a.w[:, ka:]
    de_map[:, n : n + km] = lp.split_m.w[:, :km]
    de_map[:, n + km :] = -lp.split_m.w[:, km:]
    return dv_map, de_map


def coo_collocation_system(lp, r, g_v, g_e):
    """(CSC matrix, rhs) of the collocation system of `lp`'s uniform grid
    (one segment) in the paired state s = (u, w, p, q) of
    `paired_state_maps`, every row holding the product R (dv, deta) of the
    system's perturbation `r` (`perturbation_matrix`), forced by
    (g_v, g_e) = R G_sharp z^s and assembled from triplet lists block by
    block, with the recursion data of its own `LPGridOracle` pair;
    duplicates are summed by the conversion."""
    n = lp.n
    m = lp.times.size
    nb = g_v.shape[2]
    assert len(lp.segments) == 1, "the COO oracle is written on a uniform grid"
    op_v, op_e = LPGridOracle(lp.split_a, lp.times), LPGridOracle(lp.split_m, lp.times)
    fams = [  # (split, grid operator, recursion direction)
        (lp.split_a, op_v, "fwd"),
        (lp.split_a, op_v, "bwd"),
        (lp.split_m, op_e, "fwd"),
        (lp.split_m, op_e, "bwd"),
    ]
    ka, ja = lp.split_a.k_stable, lp.split_a.rank_j
    km, jm = lp.split_m.k_stable, lp.split_m.rank_j
    widths = [ka, ja, km, jm]
    offs = np.concatenate([[0], np.cumsum(widths)])
    sdim = int(offs[-1])  # = 2n
    dv_map, de_map = paired_state_maps(lp)
    c_v = r[:n, :n] @ dv_map + r[:n, n:] @ de_map
    c_e = r[n:, :n] @ dv_map + r[n:, n:] @ de_map
    base, pattern = stencil_layout(m)
    rows, cols, data = [], [], []
    rhs = np.zeros((m * sdim, nb))

    def add_block(r0, c0, block, count=1, r_step=0, c_step=0, sel=None,
                  col_nodes=None):
        """Accumulate `block` at rows r0 + t*r_step and columns
        c0 + t*c_step (or c0 + col_nodes[t]*sdim) for each t."""
        br, bc = block.shape
        t = np.arange(count) if sel is None else np.asarray(sel)
        rr = (r0 + t * r_step)[:, None, None] + np.arange(br)[None, :, None]
        if col_nodes is None:
            cbase = c0 + t * c_step
        else:
            cbase = c0 + np.asarray(col_nodes) * sdim
        cc = cbase[:, None, None] + np.arange(bc)[None, None, :]
        rows.append(np.broadcast_to(rr, (t.size, br, bc)).ravel().copy())
        cols.append(np.broadcast_to(cc, (t.size, br, bc)).ravel().copy())
        data.append(np.broadcast_to(block, (t.size, br, bc)).ravel().copy())

    row0 = 0
    for fam, (split, op, kind) in enumerate(fams):
        width = widths[fam]
        if width == 0:
            continue
        state_off = int(offs[fam])
        is_v = fam < 2
        cin = c_v if is_v else c_e
        g_in = g_v if is_v else g_e
        k = split.k_stable
        # the recursion data of the one segment
        if kind == "fwd":
            winv_blk, weights, e_blk = split.winv[:k], op.wf, op.e_s
        else:
            winv_blk, weights, e_blk = split.winv[k:], op.wb, op.e_u
        # recursion rows: one block row per interval
        for p in range(3):
            sel = np.nonzero(pattern == p)[0]
            if sel.size == 0:
                continue
            for ell in range(4):
                blk = -(weights[p][ell] @ winv_blk) @ cin
                add_block(
                    row0, 0, blk, r_step=width, sel=sel,
                    col_nodes=base[sel] + ell,
                )
        eye_blk = np.eye(width)
        if kind == "fwd":
            # u_{i+1} - E u_i - ... = rhs_i ; rows at interval i
            add_block(row0, state_off + sdim, eye_blk, count=m - 1,
                      r_step=width, c_step=sdim)
            add_block(row0, state_off, -e_blk, count=m - 1,
                      r_step=width, c_step=sdim)
        else:
            # w_i - E w_{i+1} - ... = rhs_i
            add_block(row0, state_off, eye_blk, count=m - 1,
                      r_step=width, c_step=sdim)
            add_block(row0, state_off + sdim, -e_blk, count=m - 1,
                      r_step=width, c_step=sdim)
        # rhs from the g-forcing through the same stencil weights
        coords = left_multiply(winv_blk, g_in)
        loc = local_forcing(weights, coords)
        rhs[row0 : row0 + (m - 1) * width] = loc.reshape((m - 1) * width, nb)
        row0 += (m - 1) * width
    # boundary conditions: u_0 = 0, w_{m-1} = 0, p_0 = 0, q_{m-1} = 0
    for fam, node in ((0, 0), (1, m - 1), (2, 0), (3, m - 1)):
        width = widths[fam]
        if width == 0:
            continue
        add_block(row0, node * sdim + int(offs[fam]), np.eye(width))
        row0 += width
    mat = sp.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * sdim, m * sdim),
    )
    return mat, rhs


def coo_solve(lp, r, g_v, g_e):
    """Grid values (dv, deta) from one SuperLU solve (COLAMD) of
    `coo_collocation_system`."""
    mat, rhs = coo_collocation_system(lp, r, g_v, g_e)
    s = spla.splu(mat).solve(rhs).reshape(lp.times.size, 2 * lp.n, -1)
    dv_map, de_map = paired_state_maps(lp)
    return left_multiply(dv_map, s), left_multiply(de_map, s)


def stepwise_control_trajectory(a, b, xi, v0):
    """Exact-exponential stepping of v' = A v + B xi, one interval at a time."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    h = xi.step
    m = xi.times.size
    e = sla.expm(h * a)
    ph = phi_block(4, h * a)
    weights = [forward_weights(ph, h, p) for p in range(3)]
    base, pattern = stencil_layout(m)
    bx = xi.values @ b.T
    v = np.empty((m, a.shape[0]))
    v[0] = np.asarray(v0, dtype=float)
    for i in range(m - 1):
        p = pattern[i]
        local = sum(weights[p][ell] @ bx[base[i] + ell] for ell in range(4))
        v[i + 1] = e @ v[i] + local
    return GridFunction(times=xi.times, values=v)


def four_product_local_forcing(weights, coords: np.ndarray) -> np.ndarray:
    """`lqbundle._phi.local_forcing` with its four interior products
    (k, m, batch) alive at once, summed in the same order."""
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
