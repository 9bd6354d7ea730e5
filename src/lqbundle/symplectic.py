"""Lagrangian-Grassmannian primitives on the doubled space H x H.

Subspaces are column-orthonormal basis matrices; the complex structure is
J(v, eta) = (-eta, v).  Distances are operator-norm gaps of orthogonal
projectors, and intersection dimensions come from scale-invariant SVD rank
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotLagrange, OddLength

#: relative singular-value cutoff for rank decisions
RANK_RTOL = 1e-8
ISOTROPY_TOL = 1e-8


@dataclass(frozen=True)
class Subspace:
    """A subspace given by a column-orthonormal basis (re-orthonormalized via QR)."""

    basis: np.ndarray

    def __post_init__(self):
        mat = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if mat.ndim != 2 or mat.shape[1] == 0:
            raise DimensionMismatch("basis must be a nonempty 2-d array")
        if mat.shape[1] > mat.shape[0]:
            raise DimensionMismatch("more basis columns than ambient dimension")
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise DimensionMismatch("rank-deficient basis columns")
        q, r = np.linalg.qr(mat)
        # fix orientation so construction is deterministic
        q = q * np.sign(np.diag(r))
        object.__setattr__(self, "basis", q)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


class LagrangeSubspace(Subspace):
    """Maximal isotropic subspace of H x H (dimension n at truncation)."""

    def __post_init__(self):
        super().__post_init__()
        two_n = self.ambient
        if two_n % 2:
            raise OddLength("ambient dimension must be even")
        if self.dim != two_n // 2:
            raise NotLagrange(
                f"need dimension {two_n // 2} in ambient {two_n}, got {self.dim}"
            )
        defect = isotropy_defect(self)
        if defect > ISOTROPY_TOL:
            raise NotLagrange(f"isotropy defect {defect:.3e} exceeds {ISOTROPY_TOL}")


def j_matrix(two_n: int) -> np.ndarray:
    """Matrix of J(v, eta) = (-eta, v) on stacked coordinates (v; eta)."""
    if two_n % 2:
        raise OddLength("ambient dimension must be even")
    n = two_n // 2
    j = np.zeros((two_n, two_n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def apply_J(z) -> np.ndarray:
    z = np.asarray(z)
    if z.shape[0] % 2:
        raise OddLength("vector length must be even")
    n = z.shape[0] // 2
    return np.concatenate([-z[n:], z[:n]], axis=0)


def isotropy_defect(subspace: Subspace) -> float:
    """max_ij |<b_i, J b_j>|; zero exactly when the subspace is isotropic."""
    b = subspace.basis
    return float(np.abs(b.T @ apply_J(b)).max())


def grassmann_distance(l1: Subspace, l2: Subspace) -> float:
    """Operator-norm gap of the orthogonal projectors."""
    if l1.ambient != l2.ambient:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    return float(np.linalg.norm(l1.projector() - l2.projector(), 2))


def intersection_dimension(l1: Subspace, l2: Subspace) -> int:
    """dim(L1 cap L2) from the scale-invariant rank of the stacked bases."""
    if l1.ambient != l2.ambient:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    stacked = np.hstack([l1.basis, -l2.basis])
    sv = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    return l1.dim + l2.dim - rank


def vertical_subspace(n: int) -> LagrangeSubspace:
    """{0} x H."""
    basis = np.vstack([np.zeros((n, n)), np.eye(n)])
    return LagrangeSubspace(basis)

