"""Sampled frequency-margin routes, kept as oracles for the exact level-set
margin of `lqbundle.frequency`.

`sampled_margin` is the refined grid scan the library used before the
level-set iteration: it samples lambda_min(sym(F3 (I - M(w)))) on the fixed
grid and bisects, for REFINE_ROUNDS rounds, every interval with an end
sample at most max(2 min, 0).  It is an upper estimate of delta*, so the
exact margin never exceeds it by more than LEVEL_RTOL.  `tail_m_bound` is
the submultiplicative bound on ||M(w)|| that certified the scan's tail.
`SolveTransfer` is `TransferEvaluator` with M(w) from two complex LU
solves per frequency on A itself (`np.linalg.solve`) and the spectrum from
`np.linalg.eigvals`, as the library computed them before its triangular
solves on one Schur form of A: the oracle of `_transfer`.  With a shift it
evaluates M(w) of the shifted system A + shift, as the library did before
its margin scan became unshifted: the eps0 bisection tests the shifted
systems by `level_set` alone, and this is the oracle of those level
sets.  `transfer_m` is M(w) at one frequency, the per-point reference of
`TransferEvaluator.rows`.
"""

import numpy as np

from lqbundle.frequency import (
    QuadraticFormTriple,
    TransferEvaluator,
    make_frequency_grid,
)

REFINE_ROUNDS = 3


def transfer_m(ev: TransferEvaluator, omega: float) -> np.ndarray:
    """M(w) = F3^-1 F2 R B + F3^-1 B^* (-A^* - i w)^-1 (F1 R B - F2^*),
    R = (A - i w)^{-1}, of the evaluator's system at one frequency, guarded
    against the spectrum as its `rows` are."""
    omegas = np.array([omega], dtype=float)
    ev._guard(omegas)
    return ev._transfer(omegas)[0]


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


class SolveTransfer(TransferEvaluator):
    """`TransferEvaluator` by dense solves: M(w) with R = (A + shift - i w)^-1
    and (-A^* + shift - i w)^-1 in its second term, each a batched
    `np.linalg.solve`, guarded against the spectrum of A + shift from
    `np.linalg.eigvals`; shift 0 is the library's own system."""

    def __init__(self, a, b, form: QuadraticFormTriple, shift: float = 0.0):
        super().__init__(a, b, form)
        self.shift = float(shift)
        self.eigs = np.linalg.eigvals(self.a + self.shift * np.eye(self.a.shape[0]))
        self.f3_inv = np.linalg.inv(form.f3)

    def _transfer(self, omegas: np.ndarray) -> np.ndarray:
        n, m = self.b.shape
        z = (self.shift - 1j * omegas)[:, None, None]
        b = np.broadcast_to(self.b, (z.size, n, m))
        rb = np.linalg.solve(self.a + z * np.eye(n), b)
        rhs = self.form.f1 @ rb - self.form.f2.T
        second = np.linalg.solve(-self.a.T + z * np.eye(n), rhs)
        return self.f3_inv @ (self.form.f2 @ rb + self.b.T @ second)


def sampled_margin(a, b, form: QuadraticFormTriple):
    """(omegas, margins) of the refined scan; margins.min() is its estimate."""
    ev = TransferEvaluator(a, b, form)
    omegas = list(make_frequency_grid(a, b, form))
    margins = list(ev.rows(omegas)[:, 0])
    for _ in range(REFINE_ROUNDS):
        glob = min(margins)
        order = np.argsort(omegas)
        omegas = [omegas[i] for i in order]
        margins = [margins[i] for i in order]
        new = [
            0.5 * (omegas[i] + omegas[i + 1])
            for i in range(len(omegas) - 1)
            if min(margins[i], margins[i + 1]) <= glob + abs(glob)
        ]
        if not new:
            break
        omegas += new
        margins += list(ev.rows(new)[:, 0])
    order = np.argsort(omegas)
    return np.asarray(omegas)[order], np.asarray(margins)[order]
