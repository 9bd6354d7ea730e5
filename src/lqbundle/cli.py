"""Command-line interface.

Every subcommand but `report` runs a fixed selection of the stages of
`certify.run_pipeline` (`verify` the scenario's whole route), lets --tol
override one tolerance key and --seed the seed of the randomized sweeps
(recorded in the certificate); a command whose stages are not in the
scenario's route is an input error.  --tol and --seed are checked as the
scenario's own fields, so a NaN or infinite tolerance or a negative seed is
an input error too.  `report` takes --scenario (a certificate) and --out
only.  Exit codes: 0 every check passed, 1 at least one check failed, 2
input error.
"""

from __future__ import annotations

import argparse
import sys

from .certify import (
    STAGES,
    Certificate,
    export_plots,
    load_certificate,
    load_scenario,
    run_pipeline,
    with_overrides,
    write_certificate,
)
from .errors import LqBundleError, ValidationError

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


def cmd_report(certificate_path) -> int:
    """Re-render an existing certificate JSON as a table.

    certificate.json stores no plot tables, so no CSV file is written: the
    tables that the run exported next to it stay as they are.
    """
    return _finish(load_certificate(certificate_path), None)


# command -> (pipeline stages, None for the scenario's whole route;
#             the tolerance key that --tol overrides)
_COMMANDS = {
    "check-freq": (("frequency",), "margin"),
    "build-lagrange": (
        ("dichotomy", "frequency", "lagrange", "oracle", "decay"), "oracle"
    ),
    "riccati": (("dichotomy", "oracle", "riccati"), "riccati"),
    "sa-search": (("gap",), "margin"),
    "sa-bundle": (STAGES["spatial-averaging"], "oracle"),
    "verify": (None, "oracle"),
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
        if name in _COMMANDS:
            p.add_argument("--tol", type=float, default=None,
                           help="override the headline tolerance of this command")
            p.add_argument("--seed", type=int, default=None,
                           help="seed for randomized sweeps, overriding the scenario's "
                           "(recorded; default: the scenario's, else 42)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.scenario)
        stages, tol_key = _COMMANDS[args.command]
        scenario = with_overrides(load_scenario(args.scenario), args.seed, tol_key,
                                  args.tol)
        return _finish(run_pipeline(scenario, stages), args.out)
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LqBundleError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
