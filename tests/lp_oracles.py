"""Oracle discretizations of the stationary Lyapunov-Perron fixed point.

The library solves the fixed point through one sparse collocation system in
the recursion states and the control xi at every node
(`lqbundle.stationary._StationaryLP.solve_structured`), whose CSR arrays
`_StationaryLP.assemble` writes from per-family row templates.  The routes
here reach the same discrete solution by other means, built on the grid
operator `dichotomy_oracles.LPGridOracle`, and serve as references in the
tests:

- `coo_collocation_system` (solved by `coo_solve`): the collocation system
  in the recursion states alone, every row holding the dense product
  R (dv, deta), built block by block from COO triplet lists as the library
  once did; it has about twice the library's nonzeros and needs about three
  times the memory of its own matrix;
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
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dichotomy_oracles import LPGridOracle

from lqbundle._phi import forward_weights, local_forcing, phi_block, stencil_layout
from lqbundle.dichotomy import GridFunction, dichotomy_split, left_multiply
from lqbundle.stationary import (
    Regulator,
    _grid_parameters,
    breve_bases,
    perturbation_matrix,
)
from lqbundle.symplectic import LagrangeSubspace


def default_grid(a, b, form, shift: float = 0.0):
    """(split of A + s I, split of -A^T + s I, times) on the library's grid."""
    reg = Regulator(a, b, form)
    eye = np.eye(reg.a.shape[0])
    split_a = dichotomy_split(reg.a + shift * eye)
    split_m = dichotomy_split(-reg.a.T + shift * eye)
    return split_a, split_m, _grid_parameters(split_a, reg.ham, None)


def sharp_forcing(split_a, split_m, times) -> np.ndarray:
    """G_sharp(t) z^s on the grid for the orthonormal sharp basis columns."""
    sharp, _ = breve_bases(split_a, split_m)
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
    sharp, _ = breve_bases(split_a, split_m)
    return LagrangeSubspace(sharp.basis + dz[0])


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
    """(CSC matrix, rhs) of the collocation system of `lp`'s grid in the
    paired state s = (u, w, p, q) of `paired_state_maps`, every row holding
    the product R (dv, deta) of the system's perturbation `r`
    (`Regulator.r`), assembled from triplet lists block by block; duplicates
    are summed by the conversion."""
    n = lp.n
    m = lp.times.size
    nb = g_v.shape[2]
    fams = [  # (split, grid operator, recursion direction)
        (lp.split_a, lp.op_v, "fwd"),
        (lp.split_a, lp.op_v, "bwd"),
        (lp.split_m, lp.op_e, "fwd"),
        (lp.split_m, lp.op_e, "bwd"),
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
        if kind == "fwd":
            winv_blk = split.winv[:k]
            weights = op.wf
            e_blk = op.e_s
        else:
            winv_blk = split.winv[k:]
            weights = op.wb
            e_blk = op.e_u
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
