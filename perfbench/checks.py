"""Output checks of the benchmark, computed apart from the program.

Each check takes what `lqbundle verify` wrote (the certificate as a dict and
the CSV tables as lists of float rows) and returns a list of problems; an
empty list means the output is right.  The expected values come from closed
forms or from numpy/scipy, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.linalg as sla


def read_outputs(out_dir: str):
    with open(os.path.join(out_dir, "certificate.json"), encoding="utf-8") as fh:
        cert = json.load(fh)
    tables = {}
    for name in ("freq_margin", "gap_margins", "fibers"):
        with open(os.path.join(out_dir, f"{name}.csv"), newline="", encoding="utf-8") as fh:
            tables[name] = [
                {key: float(val) for key, val in row.items()}
                for row in csv.DictReader(fh)
            ]
    return cert, tables


def _record(cert, name):
    for rec in cert["checks"]:
        if rec["name"] == name:
            return rec
    raise KeyError(name)


def _close(value, expected, tol) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


class _Problems(list):
    def need(self, ok, message):
        if not ok:
            self.append(message)

    def value(self, cert, name, expected, tol):
        try:
            got = float(_record(cert, name)["value"])
        except KeyError:
            self.append(f"{name}: record missing")
            return
        self.need(_close(got, expected, tol), f"{name}: {got!r} != {expected!r}")


# -- stationary-s1: A = -2, B = 1, F1 = -1, F2 = 0, F3 = 1 ---------------------
# M(w) = 1 / (4 + w^2), so the margin curve is g(w) = 1 - 1/(4 + w^2), its
# minimum is g(0) = 3/4, ||(1 - M(w))^-1|| peaks at 4/3, and the Hamiltonian
# eigenvalues are +-sqrt(3), which bound eps0 together with |A| = 2.


def check_s1(cert, tables) -> list[str]:
    p = _Problems()
    rows = tables["freq_margin"]
    p.need(len(rows) > 0, "freq_margin.csv: no rows")
    worst_g = max(
        (abs(r["min_eig"] - (1.0 - 1.0 / (4.0 + r["omega"] ** 2))) for r in rows),
        default=0.0,
    )
    p.need(worst_g <= 1e-12, f"freq_margin.csv: min_eig off 1 - 1/(4 + w^2) by {worst_g:.3e}")
    worst_inv = max(
        (abs(r["inv_norm"] - (4.0 + r["omega"] ** 2) / (3.0 + r["omega"] ** 2))
         for r in rows),
        default=0.0,
    )
    p.need(worst_inv <= 1e-12, f"freq_margin.csv: inv_norm off by {worst_inv:.3e}")
    p.value(cert, "frequency-margin", 0.75, 1e-12)
    margin = float(_record(cert, "frequency-margin")["value"])
    p.need(margin <= 0.75 + 1e-15, f"frequency-margin {margin!r} exceeds the true 0.75")
    p.value(cert, "inverse-norm-bound", 4.0 / 3.0, 1e-12)
    eps0 = float(_record(cert, "eps0")["value"])
    cap = 0.999 * min(2.0, math.sqrt(3.0))
    p.need(0.0 < eps0 <= cap + 1e-15, f"eps0 {eps0!r} outside (0, {cap!r}]")
    p.value(cert, "decay-rate", math.sqrt(3.0), 1e-3)
    return p


# -- stationary-n40: random systems, checked against numpy and scipy ----------


def system_matrices(doc):
    return tuple(np.atleast_2d(np.asarray(doc[k], dtype=float))
                 for k in ("A", "B", "F1", "F2", "F3"))


def margin_curve(doc, omegas, batch: int = 256) -> np.ndarray:
    """lambda_min(sym(F3 (I - M(w)))) by batched numpy solves, where
    M(w) = F3^-1 (F2 R B + B^T (-A^T - i w)^-1 (F1 R B - F2^T)), R = (A - i w)^-1."""
    a, b, f1, f2, f3 = system_matrices(doc)
    n, m = b.shape
    eye = np.eye(n)
    out = np.empty(len(omegas))
    omegas = np.asarray(omegas, dtype=float)
    for lo in range(0, omegas.size, batch):
        w = omegas[lo : lo + batch, None, None]
        rb = np.linalg.solve(a - 1j * w * eye, np.broadcast_to(b, (w.shape[0], n, m)))
        second = np.linalg.solve(-a.T - 1j * w * eye, f1 @ rb - f2.T)
        m_w = np.linalg.solve(f3, f2 @ rb + b.T @ second)
        g = f3 @ (np.eye(m) - m_w)
        herm = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
        out[lo : lo + batch] = np.linalg.eigvalsh(herm)[:, 0]
    return out


def hamiltonian(doc) -> np.ndarray:
    a, b, f1, f2, f3 = system_matrices(doc)
    a_hat = a - b @ np.linalg.solve(f3, f2)
    h3 = b @ np.linalg.solve(f3, b.T)
    h2 = f1 - f2.T @ np.linalg.solve(f3, f2)
    return np.block([[a_hat, h3], [h2, -a_hat.T]])


def check_n40(cert, tables, doc) -> list[str]:
    p = _Problems()
    a = system_matrices(doc)[0]
    rows = tables["freq_margin"]
    p.need(len(rows) > 0, "freq_margin.csv: no rows")
    if rows:
        expect = margin_curve(doc, [r["omega"] for r in rows])
        got = np.array([r["min_eig"] for r in rows])
        err = float(np.max(np.abs(got - expect) / np.maximum(1.0, np.abs(expect))))
        p.need(err <= 1e-10, f"freq_margin.csv: min_eig off the numpy curve by {err:.3e}")
        p.value(cert, "frequency-margin", float(got.min()), 1e-15)
    eig_a = np.linalg.eigvals(a)
    gap_a = float(np.min(np.abs(eig_a.real)))
    p.value(cert, "dichotomy-gap", gap_a, 1e-10)
    detail = _record(cert, "dichotomy-gap")["detail"]
    rank_j = int(np.sum(eig_a.real > 0))
    p.need(f"rank j = {rank_j}," in detail, f"dichotomy-gap: expected rank j = {rank_j} in {detail!r}")
    gap_h = float(np.min(np.abs(np.linalg.eigvals(hamiltonian(doc)).real)))
    eps0 = float(_record(cert, "eps0")["value"])
    p.need(0.0 < eps0 < min(gap_a, gap_h), f"eps0 {eps0!r} not below the gaps {gap_a!r}, {gap_h!r}")
    return p


def check_riccati(p_matrix, doc, rtol: float = 1e-8) -> list[str]:
    """P of the stable subspace against scipy's stabilizing CARE solution of
    A^T X + X A - (X B + F2^T) F3^-1 (B^T X + F2) + F1 = 0."""
    a, b, f1, f2, f3 = system_matrices(doc)
    x = sla.solve_continuous_are(a, b, f1, f3, s=f2.T)
    err = float(np.linalg.norm(p_matrix - x, 2) / np.linalg.norm(x, 2))
    return [] if err <= rtol else [f"P differs from the CARE solution by {err:.3e} (relative)"]


# -- sa-standard: lambda_j = j^2, n = 8, Lambda = delta = 1, k = 3, N = 2 -------


def check_sa(cert, tables, doc) -> list[str]:
    p = _Problems()
    lam, delta, k, n_split = doc["Lambda"], doc["delta"], doc["k"], doc["N"]
    eig = [float(j ** doc["eigenvalues"]["p"]) for j in range(1, doc["eigenvalues"]["n"] + 1)]
    mu = 0.5 * (eig[n_split] - eig[n_split - 1])
    a_b = lam + delta
    bounds = {
        "contraction-mid": 0.5 + 2.0 * delta**2 / mu**2,
        "contraction-pq": (1.0 + 4.0 * (lam / mu) ** 2) * lam**2 / (mu + k - a_b) ** 2,
        "lp-norm-all": 1.0 / mu,
        "lp-norm-pq": 1.0 / (mu + k),
    }
    for name, bound in bounds.items():
        rec = _record(cert, name)
        p.need(abs(rec["bound"] - bound) <= 2e-6, f"{name}: bound {rec['bound']!r} != {bound!r}")
        p.need(rec["value"] <= bound + 1e-6, f"{name}: measured {rec['value']!r} > {bound!r}")
    # positivity brackets with taus = (1, mu^2 / (4 Lambda^2), 1)
    t1, t2, t3 = 1.0, 0.25 * (mu / lam) ** 2, 1.0
    p.value(cert, "bracket-mid",
            mu**2 - delta**2 * t1 - lam**2 * t2 - mu**2 / (4 * t3) - mu**2 / (4 * t1), 1e-12)
    p.value(cert, "bracket-pq",
            mu**2 + mu * k - lam**2 * t3 - mu**2 / (4 * t3) - 4 * lam**2 - mu * (lam + delta),
            1e-12)
    rows = tables["gap_margins"]
    p.need(any(r["k"] == k and r["N"] == n_split for r in rows),
           f"gap_margins.csv: no row for (k, N) = ({k}, {n_split})")
    for r in rows:
        nn, kk = int(r["N"]), r["k"]
        mu_n = 0.5 * (eig[nn] - eig[nn - 1])
        m1 = mu_n / math.sqrt(5.0) - delta
        m2 = kk**2 - 2 * lam * kk - 4 * lam**4 / mu_n**2
        ok = (_close(r["margin1"], m1, 1e-12) and _close(r["margin2"], m2, 1e-12)
              and m1 >= 0.0 and m2 >= 0.0)
        p.need(ok, f"gap_margins.csv: row {r} does not match ({m1!r}, {m2!r}) >= 0")
    iso = float(_record(cert, "fiber-isotropy")["value"])
    p.need(iso <= 1e-8, f"fiber-isotropy {iso!r} > 1e-8")
    frozen = float(_record(cert, "frozen-oracle")["value"])
    p.need(frozen <= 1e-6, f"frozen-oracle {frozen!r} > 1e-6")
    picard = float(_record(cert, "picard-iterations")["value"])
    p.need(picard <= 200, f"picard-iterations {picard!r} > 200")
    delta_v = float(_record(cert, "delta-v")["value"])
    fibers = tables["fibers"]
    p.need(len(fibers) == doc["phase_samples"],
           f"fibers.csv: {len(fibers)} rows for {doc['phase_samples']} phases")
    p_max = max((r["norm_Pq"] for r in fibers), default=math.inf)
    p.need(p_max <= 1.0 / delta_v, f"max ||P(q)|| {p_max!r} > 1/delta_V = {1.0 / delta_v!r}")
    return p
