"""Command-line interface.

Subcommands mirror the pipeline stages; all take --scenario/--out/--tol and
randomized sweeps honor --seed (recorded in the certificate).  Exit codes:
0 every check passed, 1 at least one check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import spatial as sa
from .certify import (
    Certificate,
    export_plots,
    load_scenario,
    run_pipeline,
    run_sa_pipeline,
    write_certificate,
)
from .errors import LqBundleError, ValidationError
from .frequency import QuadraticFormTriple, frequency_condition_margin
from .stationary import (
    assemble_hamiltonian,
    extract_nonoscillation,
    stable_lagrange_lp,
    stable_lagrange_schur,
)
from .symplectic import grassmann_distance, isotropy_defect

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _print_certificate(cert: Certificate):
    for rec in cert.records:
        flag = "PASS" if rec.passed else "FAIL"
        print(
            f"[{flag}] {rec.name}: value={rec.value:.6g} bound={rec.bound:.6g} "
            f"margin={rec.margin:.6g}"
            + (f"  ({rec.detail})" if rec.detail else "")
        )
    print(f"overall: {'PASS' if cert.passed else 'FAIL'} ({len(cert.records)} checks)")


def _finish(cert: Certificate, out_dir: str | None) -> int:
    _print_certificate(cert)
    if out_dir:
        path = write_certificate(cert, out_dir)
        files = export_plots(cert, out_dir)
        print(f"wrote {path} and {len(files)} CSV tables")
    return EXIT_PASS if cert.passed else EXIT_FAIL


def _stationary_inputs(scenario):
    doc = scenario.payload
    a = np.atleast_2d(np.asarray(doc["A"], dtype=float))
    b = np.atleast_2d(np.asarray(doc["B"], dtype=float))
    form = QuadraticFormTriple(f1=doc["F1"], f2=doc["F2"], f3=doc["F3"])
    return a, b, form


def cmd_check_freq(scenario, out_dir, tol):
    cert = Certificate(scenario.name, scenario.mode, scenario.seed)
    a, b, form = _stationary_inputs(scenario)
    scan = frequency_condition_margin(a, b, form, full_scan=True)
    cert.add_lower("frequency-margin", scan.margin, tol if tol is not None else 0.0)
    cert.add_flag("frequency-tail-certified", scan.tail_certified)
    cert.add_upper("transfer-selfadjoint-defect", scan.skew_defect, 1e-10)
    cert.tables["freq_margin"] = [
        {"omega": float(w), "min_eig": float(mg), "inv_norm": float(iv)}
        for w, mg, iv in zip(scan.omegas, scan.margins, scan.inverse_norms)
    ]
    return _finish(cert, out_dir)


def cmd_build_lagrange(scenario, out_dir, tol):
    cert = Certificate(scenario.name, scenario.mode, scenario.seed)
    a, b, form = _stationary_inputs(scenario)
    res = stable_lagrange_lp(a, b, form)
    oracle = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
    cert.add_upper(
        "oracle-equivalence", grassmann_distance(res.l_plus, oracle),
        tol if tol is not None else scenario.tolerances["oracle"],
    )
    cert.add_upper("lp-isotropy", isotropy_defect(res.l_plus),
                   scenario.tolerances["isotropy"])
    cert.add_lower("eps0", res.eps0, 0.0, detail=f"M_eps = {res.m_eps:.6g}")
    return _finish(cert, out_dir)


def cmd_riccati(scenario, out_dir, tol):
    cert = Certificate(scenario.name, scenario.mode, scenario.seed)
    a, b, form = _stationary_inputs(scenario)
    oracle = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
    no = extract_nonoscillation(oracle, a, b, form)
    cert.add_upper(
        "riccati-residual", no.riccati_residual,
        tol if tol is not None else scenario.tolerances["riccati"],
    )
    cert.add_upper("p-symmetry-defect", no.symmetry_defect, 1e-8)
    n = no.p.shape[0]
    cert.tables["riccati"] = [
        {"entry": f"P[{i}][{j}]", "value": float(no.p[i, j])}
        for i in range(n)
        for j in range(n)
    ]
    return _finish(cert, out_dir)


def cmd_sa_search(scenario, out_dir, tol):
    cert = Certificate(scenario.name, scenario.mode, scenario.seed)
    doc = scenario.payload
    from .certify import _sa_model

    model = _sa_model(doc)
    condition_set = doc.get("condition_set", "bundle")
    rows = sa.gap_search(model, float(doc["Lambda"]), float(doc["delta"]),
                         condition_set)
    best = min(rows, key=lambda r: (r["N"], r["k"]))
    cert.add_lower("gap-margin-1", best["margins"][0], tol if tol is not None else 0.0,
                   detail=f"minimal (k, N) = ({best['k']}, {best['N']})")
    cert.add_lower("gap-margin-2", best["margins"][1], 0.0)
    cert.tables["gap_margins"] = [
        {"k": r["k"], "N": r["N"], "margin1": r["margins"][0],
         "margin2": r["margins"][1]}
        for r in rows
    ]
    return _finish(cert, out_dir)


def cmd_sa_bundle(scenario, out_dir, tol):
    if tol is not None:
        scenario.tolerances["oracle"] = tol
    cert = run_sa_pipeline(scenario)
    return _finish(cert, out_dir)


def cmd_verify(scenario, out_dir, tol):
    if tol is not None:
        scenario.tolerances["oracle"] = tol
    cert = run_pipeline(scenario)
    return _finish(cert, out_dir)


def cmd_report(scenario_path):
    """Re-render an existing certificate JSON as a table.

    certificate.json stores no plot tables, so no CSV file is written: the
    tables that the run exported next to it stay as they are.
    """
    try:
        with open(scenario_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if "checks" not in doc:
        print("error: not a certificate file (no 'checks')", file=sys.stderr)
        return EXIT_INPUT
    cert = Certificate(
        name=doc.get("name", "?"), mode=doc.get("mode", "?"),
        seed=int(doc.get("seed", 0)),
    )
    from .certify import CheckRecord

    for rec in doc["checks"]:
        val = rec["value"]
        val = float("nan") if val == "nan" else float(val)
        cert.records.append(
            CheckRecord(rec["name"], val, float(rec["bound"]),
                        float(rec["margin"]), bool(rec["pass"]),
                        rec.get("detail", ""))
        )
    _print_certificate(cert)
    return EXIT_PASS if cert.passed else EXIT_FAIL


_COMMANDS = {
    "check-freq": cmd_check_freq,
    "build-lagrange": cmd_build_lagrange,
    "riccati": cmd_riccati,
    "sa-search": cmd_sa_search,
    "sa-bundle": cmd_sa_bundle,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqbundle",
        description="Construct and certify stable Lagrange subspaces/bundles "
        "of quadratic-regulator Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["report"]:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True,
                       help="scenario JSON (certificate JSON for `report`)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="override the headline tolerance of this command")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized sweeps, overriding the "
                       "scenario's (recorded; default: the scenario's, else 42)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return cmd_report(args.scenario)
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            object.__setattr__(scenario, "seed", args.seed)
        return _COMMANDS[args.command](scenario, args.out, args.tol)
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LqBundleError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
