"""Transfer operators and frequency-domain certificates.

The margin scan evaluates the self-adjoint part of F3 (I - M(w)) over an
adaptively refined frequency grid, certifies the tail by submultiplicative
resolvent bounds, and checks the Lax-Milgram inverse bound ||(I-M)^-1|| <=
||F3|| / delta* pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import ConditionFailed, DimensionMismatch, SingularF3, SingularShift

SYM_TOL = 1e-12
AXIS_DIST_TOL = 1e-12
#: bisection rounds of the margin scan
REFINE_ROUNDS = 3


@dataclass(frozen=True)
class QuadraticFormTriple:
    """Coefficients (F1, F2, F3) of F(v, xi) = (F1 v, v) + 2 (F2 v, xi) + (F3 xi, xi).

    `delta_floor` is the least eigenvalue of F3; `f3_factor` its Cholesky
    factor, computed on first use.
    """

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    delta_floor: float = field(init=False)

    def __post_init__(self):
        f1 = np.atleast_2d(np.asarray(self.f1, dtype=float))
        f2 = np.atleast_2d(np.asarray(self.f2, dtype=float))
        f3 = np.atleast_2d(np.asarray(self.f3, dtype=float))
        n = f1.shape[0]
        m = f3.shape[0]
        if f1.shape != (n, n) or f3.shape != (m, m) or f2.shape != (m, n):
            raise DimensionMismatch(
                f"incompatible form shapes {f1.shape}, {f2.shape}, {f3.shape}"
            )
        scale = max(1.0, np.abs(f1).max(), np.abs(f3).max())
        if np.abs(f1 - f1.T).max() > SYM_TOL * scale:
            raise DimensionMismatch("F1 must be symmetric")
        if np.abs(f3 - f3.T).max() > SYM_TOL * scale:
            raise DimensionMismatch("F3 must be symmetric")
        floor = float(np.linalg.eigvalsh(f3).min())
        if floor <= 0.0:
            raise SingularF3(f"F3 must be positive definite, min eig {floor:.3e}")
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)
        object.__setattr__(self, "f3", f3)
        object.__setattr__(self, "delta_floor", floor)

    @cached_property
    def f3_factor(self) -> tuple[np.ndarray, bool]:
        """`scipy.linalg.cho_factor(F3)`, computed once per form."""
        try:
            return sla.cho_factor(self.f3)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - F3 > 0 is checked
            raise SingularF3(str(exc)) from exc

    @property
    def state_dim(self) -> int:
        return self.f1.shape[0]

    @property
    def control_dim(self) -> int:
        return self.f3.shape[0]

    def evaluate(self, v, xi) -> float:
        """F(v, xi) for real vectors."""
        v = np.asarray(v, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return float(v @ self.f1 @ v + 2.0 * xi @ (self.f2 @ v) + xi @ self.f3 @ xi)


def smith_form_triple(c, lam: float, control_dim: int) -> QuadraticFormTriple:
    """The transfer-norm (Smith) specialization F1 = -lam^2 C^T C, F2 = 0, F3 = I."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n = c.shape[1]
    return QuadraticFormTriple(
        f1=-(lam**2) * c.T @ c, f2=np.zeros((control_dim, n)), f3=np.eye(control_dim)
    )


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric scan grid up to omega_max."""

    omegas: np.ndarray
    omega_max: float

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float).ravel()
        om = np.unique(np.concatenate([om, -om]))
        object.__setattr__(self, "omegas", om)

    @property
    def nonnegative(self) -> np.ndarray:
        return self.omegas[self.omegas >= 0.0]


def make_frequency_grid(
    a, b, form: QuadraticFormTriple, n_base: int = 1024
) -> FrequencyGrid:
    """Uniform grid on [0, 10 (||A|| + ||B|| + max ||F_i||)]."""
    omega_max = 10.0 * (
        np.linalg.norm(a, 2)
        + np.linalg.norm(b, 2)
        + max(
            np.linalg.norm(form.f1, 2),
            np.linalg.norm(form.f2, 2),
            np.linalg.norm(form.f3, 2),
        )
    )
    base = np.linspace(0.0, omega_max, n_base)
    return FrequencyGrid(omegas=base, omega_max=float(omega_max))


class TransferEvaluator:
    """Shared factorizations for repeated M(w) evaluations on one system."""

    def __init__(self, a, b, form: QuadraticFormTriple, shift: float = 0.0):
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.atleast_2d(np.asarray(b, dtype=float))
        if self.b.shape != (form.state_dim, form.control_dim):
            raise DimensionMismatch(
                f"B must be {form.state_dim} x {form.control_dim}, got {self.b.shape}"
            )
        self.form = form
        self.shift = float(shift)
        self.eigs = np.linalg.eigvals(self.a + self.shift * np.eye(self.a.shape[0]))
        self.f3_inv = np.linalg.inv(form.f3)

    def _guard(self, omega: float):
        dist = np.min(np.abs(self.eigs - 1j * omega))
        if dist <= AXIS_DIST_TOL:
            raise SingularShift(f"i*{omega} within {AXIS_DIST_TOL} of the spectrum")

    def resolvent_b(self, omega: float) -> np.ndarray:
        """(A + shift - i w)^{-1} B."""
        self._guard(omega)
        n = self.a.shape[0]
        return np.linalg.solve(
            self.a + (self.shift - 1j * omega) * np.eye(n), self.b.astype(complex)
        )

    def transfer_m(self, omega: float) -> np.ndarray:
        """M(w) = F3^-1 F2 R B + F3^-1 B^* (-A^* + shift - i w)^-1 (F1 R B - F2^*)."""
        n = self.a.shape[0]
        rb = self.resolvent_b(omega)
        rhs = self.form.f1 @ rb - self.form.f2.T.astype(complex)
        second = np.linalg.solve(
            -self.a.T + (self.shift - 1j * omega) * np.eye(n), rhs
        )
        return self.f3_inv @ (self.form.f2 @ rb + self.b.T @ second)

    def margin_at(self, omega: float) -> tuple[float, float]:
        """(min eig of sym part of F3 (I - M(w)), skew defect)."""
        m = self.transfer_m(omega)
        g = self.form.f3 @ (np.eye(self.form.control_dim) - m)
        herm = 0.5 * (g + g.conj().T)
        skew = float(np.linalg.norm(g - g.conj().T, 2))
        return float(np.linalg.eigvalsh(herm).min()), skew


def tail_m_bound(a, b, form: QuadraticFormTriple, omega: float) -> float:
    """Submultiplicative bound on ||M(w)|| for |w| beyond ||A||.

    With r = 1 / (|w| - ||A||):
    ||M|| <= ||F3^-1|| ( ||F2|| ||B|| r + ||B|| r (||F1|| ||B|| r + ||F2||) ).
    """
    a_norm = np.linalg.norm(a, 2)
    if omega <= a_norm:
        return np.inf
    r = 1.0 / (omega - a_norm)
    b_norm = np.linalg.norm(b, 2)
    f1 = np.linalg.norm(form.f1, 2)
    f2 = np.linalg.norm(form.f2, 2)
    f3inv = np.linalg.norm(np.linalg.inv(form.f3), 2)
    return float(f3inv * (f2 * b_norm * r + b_norm * r * (f1 * b_norm * r + f2)))


def _refined_scan(
    ev: TransferEvaluator, grid: FrequencyGrid
) -> tuple[np.ndarray, np.ndarray, float]:
    """Base scan plus bisection refinement where the margin dips low.

    An interval is bisected when a sample at its ends is at most
    max(2 glob, 0), so a failing scan refines where the margin is negative.
    """
    omegas = list(grid.nonnegative)
    pairs = [ev.margin_at(w) for w in omegas]
    margins = [p[0] for p in pairs]
    skews = [p[1] for p in pairs]
    for _ in range(REFINE_ROUNDS):
        glob = min(margins)
        order = np.argsort(omegas)
        omegas = [omegas[i] for i in order]
        margins = [margins[i] for i in order]
        skews = [skews[i] for i in order]
        new = []
        for i in range(len(omegas) - 1):
            if min(margins[i], margins[i + 1]) <= glob + abs(glob):
                new.append(0.5 * (omegas[i] + omegas[i + 1]))
        if not new:
            break
        for w in new:
            mg, sk = ev.margin_at(w)
            omegas.append(w)
            margins.append(mg)
            skews.append(sk)
    order = np.argsort(omegas)
    return (
        np.asarray(omegas)[order],
        np.asarray(margins)[order],
        float(np.max(skews)),
    )


@dataclass(frozen=True)
class MarginScan:
    """Result of a frequency-condition scan (kept for CSV export)."""

    omegas: np.ndarray
    margins: np.ndarray
    inverse_norms: np.ndarray
    margin: float
    skew_defect: float
    tail_certified: bool
    tail_floor: float


def frequency_condition_margin(
    a,
    b,
    form: QuadraticFormTriple,
    grid: FrequencyGrid | None = None,
    shift: float = 0.0,
    full_scan: bool = False,
):
    """delta* = min over the grid of lambda_min(sym(F3 (I - M(w)))).

    Hermitian symmetry in w is used: only w >= 0 is scanned.  The tail beyond
    omega_max is certified from the submultiplicative bound.  Returns the
    margin, or the full MarginScan when `full_scan` is set.
    """
    ev = TransferEvaluator(a, b, form, shift=shift)
    if grid is None:
        grid = make_frequency_grid(a, b, form)
    omegas, margins, skew = _refined_scan(ev, grid)
    margin = float(np.min(margins))
    tail = tail_m_bound(a, b, form, grid.omega_max)
    tail_floor = form.delta_floor - float(np.linalg.norm(form.f3, 2)) * tail
    certified = bool(tail_floor > 0.0)
    if not full_scan:
        return margin
    inv_norms = []
    for w in omegas:
        try:
            inv_norms.append(
                np.linalg.norm(
                    np.linalg.inv(np.eye(form.control_dim) - ev.transfer_m(w)), 2
                )
            )
        except np.linalg.LinAlgError:
            inv_norms.append(np.inf)
    inv_norms = np.array(inv_norms)
    return MarginScan(
        omegas=omegas,
        margins=margins,
        inverse_norms=inv_norms,
        margin=margin,
        skew_defect=skew,
        tail_certified=certified,
        tail_floor=tail_floor,
    )


def smith_condition(
    a, b, c, lam: float, grid: FrequencyGrid | None = None
) -> tuple[bool, float]:
    """sup_w ||C (A - i w)^{-1} B|| < 1/lam, with the tail bound included."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    form = smith_form_triple(c, lam, b.shape[1])
    ev = TransferEvaluator(a, b, form)
    if grid is None:
        grid = make_frequency_grid(a, b, form)
    sup = 0.0
    for w in grid.nonnegative:
        sup = max(sup, float(np.linalg.norm(c @ ev.resolvent_b(w), 2)))
    a_norm = np.linalg.norm(np.atleast_2d(a), 2)
    if grid.omega_max > a_norm:
        tail = float(
            np.linalg.norm(c, 2)
            * np.linalg.norm(b, 2)
            / (grid.omega_max - a_norm)
        )
    else:
        tail = np.inf
    sup = max(sup, 0.0)
    return bool(max(sup, tail) < 1.0 / lam), sup


def inverse_norm_certificate(
    a, b, form: QuadraticFormTriple, grid: FrequencyGrid | None = None
) -> tuple[float, MarginScan]:
    """Verify ||(I - M(w))^{-1}|| <= ||F3|| / delta* on the scan grid.

    Returns (worst ratio, scan).  Requires a positive margin.
    """
    scan = frequency_condition_margin(a, b, form, grid=grid, full_scan=True)
    if scan.margin <= 0.0:
        raise ConditionFailed(f"frequency margin {scan.margin:.3e} <= 0")
    bound = float(np.linalg.norm(form.f3, 2)) / scan.margin
    worst = float(np.max(scan.inverse_norms)) / bound
    return worst, scan
