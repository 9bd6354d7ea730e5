"""Transfer operators and frequency-domain certificates.

The frequency margin delta* = inf_w lambda_min(sym(F3 (I - M(w)))) is exact:
gamma < delta* holds exactly when the level Hamiltonian of
(F1, F2, F3 - gamma I) has no imaginary eigenvalue, since F3 (I - M) tends
to F3 > 0 (Willems 1971), and the level-set iteration of Boyd, Balakrishnan
& Kabamba (1989) and Bruinsma & Steinbuch (1990) finds the infimum in a few
eigenvalue solves.  The margin scan is unshifted; the eps0 bisection tests
shifted systems by `level_set` alone, on the 4n-state realisation of the
Hermitian part.  Transfer-norm sups follow from the Smith form.  The
plot table (grid rows plus the minimiser) is sampled, and so is the
Lax-Milgram inverse bound ||(I-M)^-1|| <= ||F3|| / delta* checked on it, with
delta* replaced by the certified lower end of the margin.  The fixed grid is
evaluated in one batched pass (`TransferEvaluator.rows`: margin, skew defect
and inverse norm from one M(w) stack), and so are the samples of each
level-set step; `margin_at` is a single row.  M(w) comes from one complex
Schur form of A, by a back and a forward substitution per frequency
vectorised over the frequencies (Laub, IEEE TAC 26, 1981), in O(n^2) per
frequency where a fresh LU of A - i w took O(n^3); each frequency's
arithmetic is the same in any batch, so `rows` equals `margin_at` bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# scipy.linalg (0.16 s to import) is imported by the functions that call it,
# so that only a stationary construction loads it

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
#: frequencies per batched evaluation of `TransferEvaluator.rows`
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
        import scipy.linalg as sla

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
    """M(w) of one system, from one complex Schur form A = Q T Q^H (Laub
    1981).

    In Schur coordinates (A - i w)^-1 B = Q (T + z)^-1 Q^H B with z = -i w,
    and, A being real, (-A^T + z)^-1 = Q (-T^H + z)^-1 Q^H, so
    M(w) = F3^-1 F2 Q y + F3^-1 B^T Q u with (T + z) y = Q^H B and
    (-T^H + z) u = Q^H F1 Q y - Q^H F2^T: a back and a forward substitution
    per frequency, vectorised over the frequencies (`_substitute`), on maps
    formed once.  A need not be diagonalisable.  The spectrum `eigs` is T's
    diagonal.
    """

    def __init__(self, a, b, form: QuadraticFormTriple):
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.atleast_2d(np.asarray(b, dtype=float))
        if self.b.shape != (form.state_dim, form.control_dim):
            raise DimensionMismatch(
                f"B must be {form.state_dim} x {form.control_dim}, got {self.b.shape}"
            )
        self.form = form
        import scipy.linalg as sla

        # the real Schur form made complex: LAPACK's complex Schur driver
        # raised an S1 run's peak RSS by 0.3 MB, and the real one, which the
        # dichotomy split calls too, adds nothing
        self._t, q = sla.rsf2csf(*sla.schur(self.a))
        self._t_lower = np.ascontiguousarray(-self._t.conj().T)
        self.eigs = self._t.diagonal()
        qh = q.conj().T
        self._qb = qh @ self.b
        self._qf1q = qh @ form.f1 @ q
        self._qf2 = qh @ form.f2.T
        n = self.a.shape[0]
        out = np.linalg.solve(form.f3, np.hstack([form.f2 @ q, self.b.T @ q]))
        self._out_y, self._out_u = out[:, :n], out[:, n:]

    def _guard(self, omegas: np.ndarray):
        dist = np.abs(self.eigs[None, :] - 1j * omegas[:, None]).min(axis=1)
        if np.any(dist <= AXIS_DIST_TOL):
            w = omegas[np.argmax(dist <= AXIS_DIST_TOL)]
            raise SingularShift(f"i*{w} within {AXIS_DIST_TOL} of the spectrum")

    def _transfer(self, omegas: np.ndarray) -> np.ndarray:
        """M(w) stacked over `omegas`, by the triangular solves in Schur
        coordinates."""
        z = -1j * omegas
        y = _substitute(self._t, True, z, np.broadcast_to(self._qb, (z.size,) + self._qb.shape))
        u = _substitute(self._t_lower, False, z, self._qf1q @ y - self._qf2)
        return self._out_y @ y + self._out_u @ u

    def rows(self, omegas) -> np.ndarray:
        """(margin, skew defect, inverse norm) at each w, shape (len, 3):
        lambda_min of the Hermitian part of G = F3 (I - M(w)), ||G - G^*||
        and ||(I - M(w))^{-1}|| = 1 / sigma_min(I - M(w)), all from one M(w)
        stack per chunk of BATCH frequencies.  Raises SingularShift when a
        w lies on the spectrum of A."""
        omegas = np.asarray(omegas, dtype=float)
        self._guard(omegas)
        out = np.empty((omegas.size, 3))
        eye = np.eye(self.form.control_dim)
        for lo in range(0, omegas.size, BATCH):
            i_m = eye - self._transfer(omegas[lo : lo + BATCH])
            g = self.form.f3 @ i_m
            g_h = g.conj().swapaxes(-1, -2)
            chunk = out[lo : lo + BATCH]
            chunk[:, 0] = np.linalg.eigvalsh(0.5 * (g + g_h)).min(axis=-1)
            chunk[:, 1] = np.linalg.norm(g - g_h, 2, axis=(-2, -1))
            sv = np.linalg.svd(i_m, compute_uv=False)[:, -1]
            inv = np.full(sv.size, np.inf)
            chunk[:, 2] = np.divide(1.0, sv, out=inv, where=sv > 0)
        return out

    def margin_at(self, omega: float) -> np.ndarray:
        """(margin, skew defect, inverse norm) at one w: one row of `rows`."""
        return self.rows([omega])[0]


def _substitute(tri: np.ndarray, upper: bool, z: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with (tri + z) x = rhs at every z: tri (n, n) upper triangular (back
    substitution) or lower (forward), rhs (len(z), n, m).  The reciprocals
    1 / (tri_ii + z) are formed in real arithmetic and every product is a
    matrix product per z, so each z's solution is the same in any batch."""
    d = tri.diagonal()[None, :] + z[:, None]
    den = d.real * d.real + d.imag * d.imag
    inv = np.empty(d.shape + (1, 1), dtype=complex)
    inv.real[..., 0, 0] = d.real / den
    inv.imag[..., 0, 0] = -d.imag / den
    n = tri.shape[0]
    x = np.empty(rhs.shape, dtype=complex)
    for i in range(n - 1, -1, -1) if upper else range(n):
        known = slice(i + 1, n) if upper else slice(0, i)
        x[:, i : i + 1] = inv[:, i] @ (rhs[:, i : i + 1] - tri[i : i + 1, known] @ x[:, known])
    return x


def level_set(a, b, form: QuadraticFormTriple, level: float,
              shift: float) -> tuple[np.ndarray, float]:
    """(crossings, distance) of the level Hamiltonian of the shifted system
    A + shift: the w >= 0 of its imaginary eigenvalues, at which `level` is
    an eigenvalue of the Hermitian part of F3 (I - M(w)), and min |Re lambda|
    over its whole spectrum, both from one eigenvalue solve.

    The transfer function F3 (I - M) is F3 + C0 (s - A0)^-1 B0 with
    A0 = [[A + shift, 0], [F1, shift - A^T]], B0 = [B; F2^T], C0 = [F2, -B^T],
    so its level crossings are the eigenvalues of A0 - B0 (F3 - level)^-1 C0:
    at shift 0 the regulator Hamiltonian of (F1, F2, F3 - level I).  With a
    shift, the Hermitian part is realised on 4n states by diag(A0, -A0^T),
    [B0; -C0^T] and [C0, B0^T] / 2.  That Hermitian part is
    (G(i w - shift) + G(i w + shift)) / 2 with G(mu) the unshifted F3 (I - M)
    at s = mu, since G(-mu)^T = G(mu), so `shift` and `-shift` have the same
    crossings.  An eigenvalue counts as imaginary within CROSSING_RTOL of the
    matrix's 1-norm.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = a.shape[0]
    eye = np.eye(n)
    a0 = np.block([[a + shift * eye, np.zeros((n, n))], [form.f1, shift * eye - a.T]])
    b0 = np.vstack([b, form.f2.T])
    c0 = np.hstack([form.f2, -b.T])
    if shift:
        a0 = np.block([[a0, np.zeros_like(a0)], [np.zeros_like(a0), -a0.T]])
        b0, c0 = np.vstack([b0, -c0.T]), 0.5 * np.hstack([c0, b0.T])
    ham = a0 - b0 @ np.linalg.solve(form.f3 - level * np.eye(form.control_dim), c0)
    eigs = np.linalg.eigvals(ham)
    distance = np.abs(eigs.real)
    tol = CROSSING_RTOL * max(1.0, np.linalg.norm(ham, 1))
    return np.sort(eigs.imag[(distance <= tol) & (eigs.imag >= 0.0)]), float(distance.min())


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
    full_scan: bool = False,
):
    """delta* = inf_w lambda_min(sym(F3 (I - M(w)))), exactly, by Hamiltonian
    level sets (Bruinsma & Steinbuch 1990).

    Start from the least sample: on the fixed grid when `full_scan` asks for
    the table, else at w = 0 and the resonances |Im lambda(A)|.  Then, while
    the level gamma - LEVEL_RTOL |gamma| has crossings, sample at the crossings
    and the midpoints between them (on each such interval the sign of
    lambda_min - level is constant) and lower gamma to the least sample;
    the new samples of each step are one `rows` call.  The
    returned margin is a sampled value certified to within LEVEL_RTOL of
    delta*, or lambda_min(F3) = Phi(inf) when that is lower.  Hermitian
    symmetry in w is used: only w >= 0 is sampled.  Returns the margin, or
    the MarginScan when `full_scan` is set.
    """
    ev = TransferEvaluator(a, b, form)
    seen = {}

    def least(omegas):
        new = [w for w in dict.fromkeys(omegas) if w not in seen]
        if len(new) == 1:  # a lone sample: `margin_at`, whose calls perfbench counts
            seen[new[0]] = ev.margin_at(new[0])
        elif new:
            seen.update(zip(new, ev.rows(new)))
        w = min(omegas, key=lambda w: seen[w][0])
        return seen[w][0], w

    if full_scan:
        grid = make_frequency_grid(a, b, form)
        seen.update(zip(grid, ev.rows(grid)))
        gamma, w_star = least(grid)
    else:
        gamma, w_star = least(np.unique(np.abs(np.append(ev.eigs.imag, 0.0))))
    if form.delta_floor < gamma:
        gamma, w_star = form.delta_floor, np.inf
    for _ in range(LEVEL_STEPS):
        level = gamma - LEVEL_RTOL * abs(gamma)
        cross = level_set(ev.a, ev.b, form, level, 0.0)[0]
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
        return float(gamma)
    omegas = np.union1d(grid, [w_star] if np.isfinite(w_star) else [])
    table = np.array([seen[w] for w in omegas])
    return MarginScan(
        omegas=omegas,
        margins=table[:, 0],
        inverse_norms=table[:, 2],
        margin=float(gamma),
        omega_star=float(w_star),
        skew_defect=float(table[:, 1].max()),
    )


def resolvent_sup_norm(a, b, c) -> float:
    """sup_w ||C (A - i w)^{-1} B||, exactly: the Smith form with lam = 1 has
    F3 (I - M(w)) = I - W(w)^* W(w), W = C (A - i w)^{-1} B, so its
    frequency margin is 1 - sup^2."""
    b = np.atleast_2d(np.asarray(b, dtype=float))
    margin = frequency_condition_margin(a, b, smith_form_triple(c, 1.0, b.shape[1]))
    return float(np.sqrt(max(0.0, 1.0 - margin)))


def inverse_norm_bound(form: QuadraticFormTriple, margin: float) -> float:
    """The Lax-Milgram bound ||F3|| / delta* on ||(I - M(w))^{-1}||, taken
    at margin - LEVEL_RTOL |margin|: the returned margin is certified only
    to within LEVEL_RTOL of delta*, and this is its certified lower end."""
    return float(np.linalg.norm(form.f3, 2)) / (margin - LEVEL_RTOL * abs(margin))

