"""Transfer operators and frequency-domain certificates.

The frequency margin delta* = inf_w lambda_min(sym(F3 (I - M(w)))) is exact:
gamma < delta* holds exactly when the level Hamiltonian of
(F1, F2, F3 - gamma I) has no imaginary eigenvalue, since F3 (I - M) tends
to F3 > 0 (Willems 1971), and the level-set iteration of Boyd, Balakrishnan
& Kabamba (1989) and Bruinsma & Steinbuch (1990) finds the infimum in a few
eigenvalue solves.  A shifted system (eps0) uses the 4n-state realisation of
the Hermitian part.  Transfer-norm sups follow from the Smith form.  The
plot table (grid rows plus the minimiser) is sampled, and so is the
Lax-Milgram inverse bound ||(I-M)^-1|| <= ||F3|| / delta* checked on it, with
delta* replaced by the certified lower end of the margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import ConditionFailed, DimensionMismatch, SingularF3, SingularShift

SYM_TOL = 1e-12
AXIS_DIST_TOL = 1e-12
#: points of the fixed frequency grid (the plot table and its start level)
GRID_POINTS = 1024
#: relative gap below the least sample at which the level set is tested
LEVEL_RTOL = 1e-10
#: |Re lambda| below this fraction of ||H||_1 counts as a level crossing
CROSSING_RTOL = 1e-8
#: level-set steps before the iteration is declared unsettled
LEVEL_STEPS = 50
#: frequencies per batched solve of the inverse-norm column
BATCH = 128


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


def make_frequency_grid(a, b, form: QuadraticFormTriple) -> np.ndarray:
    """Uniform grid on [0, 10 (||A|| + ||B|| + max ||F_i||)], from w = +0.0."""
    omega_max = 10.0 * (
        np.linalg.norm(a, 2)
        + np.linalg.norm(b, 2)
        + max(
            np.linalg.norm(form.f1, 2),
            np.linalg.norm(form.f2, 2),
            np.linalg.norm(form.f3, 2),
        )
    )
    return np.linspace(0.0, omega_max, GRID_POINTS)


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

    def transfer_m(self, omega: float) -> np.ndarray:
        """M(w) = F3^-1 F2 R B + F3^-1 B^* (-A^* + shift - i w)^-1 (F1 R B - F2^*),
        R = (A + shift - i w)^{-1}."""
        self._guard(omega)
        return self._transfer([omega])[0]

    def _transfer(self, omegas) -> np.ndarray:
        """M(w) stacked over `omegas`, with the resolvent solves batched."""
        n, m = self.b.shape
        z = (self.shift - 1j * np.asarray(omegas, dtype=float))[:, None, None]
        b = np.broadcast_to(self.b, (z.size, n, m))
        rb = np.linalg.solve(self.a + z * np.eye(n), b)
        rhs = self.form.f1 @ rb - self.form.f2.T
        second = np.linalg.solve(-self.a.T + z * np.eye(n), rhs)
        return self.f3_inv @ (self.form.f2 @ rb + self.b.T @ second)

    def margin_at(self, omega: float) -> tuple[float, float]:
        """(min eig of sym part of F3 (I - M(w)), skew defect)."""
        m = self.transfer_m(omega)
        g = self.form.f3 @ (np.eye(self.form.control_dim) - m)
        herm = 0.5 * (g + g.conj().T)
        skew = float(np.linalg.norm(g - g.conj().T, 2))
        return float(np.linalg.eigvalsh(herm).min()), skew

    def inverse_norms(self, omegas) -> np.ndarray:
        """||(I - M(w))^{-1}|| = 1 / sigma_min(I - M(w)) at each w, batched
        over chunks of BATCH frequencies."""
        omegas = np.asarray(omegas, dtype=float)
        out = np.empty(omegas.size)
        for lo in range(0, omegas.size, BATCH):
            tm = self._transfer(omegas[lo : lo + BATCH])
            sv = np.linalg.svd(np.eye(tm.shape[-1]) - tm, compute_uv=False)[:, -1]
            inv = np.full(sv.size, np.inf)
            out[lo : lo + BATCH] = np.divide(1.0, sv, out=inv, where=sv > 0)
        return out


def level_crossings(a, b, form: QuadraticFormTriple, level: float, shift: float):
    """The w >= 0 at which `level` is an eigenvalue of the Hermitian part of
    F3 (I - M(w)) for the shifted system A + shift: the imaginary eigenvalues
    of the level Hamiltonian.

    The transfer function F3 (I - M) is F3 + C0 (s - A0)^-1 B0 with
    A0 = [[A + shift, 0], [F1, shift - A^T]], B0 = [B; F2^T], C0 = [F2, -B^T],
    so its level crossings are the eigenvalues of A0 - B0 (F3 - level)^-1 C0:
    at shift 0 the regulator Hamiltonian of (F1, F2, F3 - level I).  With a
    shift, the Hermitian part is realised on 4n states by diag(A0, -A0^T),
    [B0; -C0^T] and [C0, B0^T] / 2.  An eigenvalue counts as imaginary within
    CROSSING_RTOL of the matrix's 1-norm.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = a.shape[0]
    eye = np.eye(n)
    a0 = np.block([[a + shift * eye, np.zeros((n, n))], [form.f1, shift * eye - a.T]])
    b0 = np.vstack([b, form.f2.T])
    c0 = np.hstack([form.f2, -b.T])
    if shift:
        a0 = sla.block_diag(a0, -a0.T)
        b0, c0 = np.vstack([b0, -c0.T]), 0.5 * np.hstack([c0, b0.T])
    ham = a0 - b0 @ np.linalg.solve(form.f3 - level * np.eye(form.control_dim), c0)
    eigs = np.linalg.eigvals(ham)
    tol = CROSSING_RTOL * max(1.0, np.linalg.norm(ham, 1))
    return np.sort(eigs.imag[(np.abs(eigs.real) <= tol) & (eigs.imag >= 0.0)])


@dataclass(frozen=True)
class MarginScan:
    """The exact margin with its sampled plot table: the fixed grid plus the
    minimiser w* (rows sorted by w, kept for CSV export)."""

    omegas: np.ndarray
    margins: np.ndarray
    inverse_norms: np.ndarray
    margin: float
    omega_star: float
    skew_defect: float


def frequency_condition_margin(
    a,
    b,
    form: QuadraticFormTriple,
    shift: float = 0.0,
    full_scan: bool = False,
):
    """delta* = inf_w lambda_min(sym(F3 (I - M(w)))), exactly, by Hamiltonian
    level sets (Bruinsma & Steinbuch 1990).

    Start from the least sample: on the fixed grid when `full_scan` asks for
    the table, else at w = 0 and the resonances |Im lambda(A)|.  Then, while
    the level gamma - LEVEL_RTOL |gamma| has crossings, sample at the crossings
    and the midpoints between them (on each such interval the sign of
    lambda_min - level is constant) and lower gamma to the least sample.  The
    returned margin is a sampled value certified to within LEVEL_RTOL of
    delta*, or lambda_min(F3) = Phi(inf) when that is lower.  Hermitian
    symmetry in w is used: only w >= 0 is sampled.  Returns the margin, or
    the MarginScan when `full_scan` is set.
    """
    ev = TransferEvaluator(a, b, form, shift=shift)
    seen = {}

    def least(omegas):
        for w in omegas:
            if w not in seen:
                seen[w] = ev.margin_at(w)
        w = min(omegas, key=lambda w: seen[w][0])
        return seen[w][0], w

    if full_scan:
        grid = make_frequency_grid(a, b, form)
        gamma, w_star = least(grid)
    else:
        gamma, w_star = least(np.unique(np.abs(np.append(ev.eigs.imag, 0.0))))
    if form.delta_floor < gamma:
        gamma, w_star = form.delta_floor, np.inf
    for _ in range(LEVEL_STEPS):
        level = gamma - LEVEL_RTOL * abs(gamma)
        cross = level_crossings(ev.a, ev.b, form, level, shift)
        if cross.size == 0:
            break
        ends = np.concatenate([-cross[::-1], cross])
        mids = 0.5 * (ends[1:] + ends[:-1])
        value, w = least(np.abs(np.concatenate([cross, mids])))
        if value >= gamma:
            break  # only spurious crossings: nothing lies below the level
        gamma, w_star = value, w
    else:
        raise ConditionFailed(f"level sets unsettled after {LEVEL_STEPS} steps")
    if not full_scan:
        return gamma
    omegas = np.union1d(grid, [w_star] if np.isfinite(w_star) else [])
    return MarginScan(
        omegas=omegas,
        margins=np.array([seen[w][0] for w in omegas]),
        inverse_norms=ev.inverse_norms(omegas),
        margin=gamma,
        omega_star=float(w_star),
        skew_defect=max(seen[w][1] for w in omegas),
    )


def resolvent_sup_norm(a, b, c) -> float:
    """sup_w ||C (A - i w)^{-1} B||, exactly: the Smith form with lam = 1 has
    F3 (I - M(w)) = I - W(w)^* W(w), W = C (A - i w)^{-1} B, so its
    frequency margin is 1 - sup^2."""
    b = np.atleast_2d(np.asarray(b, dtype=float))
    margin = frequency_condition_margin(a, b, smith_form_triple(c, 1.0, b.shape[1]))
    return float(np.sqrt(max(0.0, 1.0 - margin)))


def smith_condition(a, b, c, lam: float) -> tuple[bool, float]:
    """(sup_w ||C (A - i w)^{-1} B|| < 1/lam, the sup)."""
    sup = resolvent_sup_norm(a, b, c)
    return bool(sup < 1.0 / lam), sup


def inverse_norm_bound(form: QuadraticFormTriple, margin: float) -> float:
    """The Lax-Milgram bound ||F3|| / delta* on ||(I - M(w))^{-1}||, taken
    at margin - LEVEL_RTOL |margin|: the returned margin is certified only
    to within LEVEL_RTOL of delta*, and this is its certified lower end."""
    return float(np.linalg.norm(form.f3, 2)) / (margin - LEVEL_RTOL * abs(margin))


def inverse_norm_certificate(
    a, b, form: QuadraticFormTriple
) -> tuple[float, MarginScan]:
    """Verify ||(I - M(w))^{-1}|| <= `inverse_norm_bound` on the table's rows.

    Returns (worst ratio, scan).  Requires a positive margin.
    """
    scan = frequency_condition_margin(a, b, form, full_scan=True)
    if scan.margin <= 0.0:
        raise ConditionFailed(f"frequency margin {scan.margin:.3e} <= 0")
    bound = inverse_norm_bound(form, scan.margin)
    worst = float(np.max(scan.inverse_norms)) / bound
    return worst, scan
