"""Finite Galerkin model of a diagonal positive self-adjoint operator.

Holds the ascending eigenvalue sequence and its built-in generators; the
spectral bands of a (k, N) split are `spatial.SAConfig.mid_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NonPositiveEigenvalue, NotSorted


@dataclass(frozen=True)
class SpectralModel:
    """Ascending positive eigenvalues of the reference operator, truncated at n."""

    eigenvalues: np.ndarray
    n: int


def make_spectral_model(eigenvalues) -> SpectralModel:
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    if lam.size == 0:
        raise NotSorted("eigenvalue sequence is empty")
    if np.any(lam <= 0.0):
        raise NonPositiveEigenvalue("eigenvalues must be strictly positive")
    if np.any(np.diff(lam) < 0.0):
        raise NotSorted("eigenvalues must be nondecreasing")
    return SpectralModel(eigenvalues=lam, n=lam.size)


def eigenvalue_generator(kind: str, n: int, **params) -> np.ndarray:
    """Built-in eigenvalue sequences: "power" (j^p) and "sum-of-squares-2d"."""
    if n < 1:
        raise IndexOutOfRange("need at least one mode")
    if kind == "power":
        p = float(params.get("p", 2.0))
        return np.arange(1, n + 1, dtype=float) ** p
    if kind == "sum-of-squares-2d":
        # sorted values m^2 + l^2 over m, l >= 0 not both zero, with multiplicity
        side = int(np.ceil(np.sqrt(4.0 * n))) + 2
        vals = [
            float(m * m + l * l)
            for m in range(side)
            for l in range(side)
            if m or l
        ]
        vals.sort()
        if len(vals) < n:
            raise IndexOutOfRange("internal generator range too small")
        return np.array(vals[:n])
    raise IndexOutOfRange(f"unknown eigenvalue generator {kind!r}")
