"""One fresh measured process of the benchmark; started by run.py.

    worker.py setup WORKDIR WORKLOAD   time from interpreter start to ready
    worker.py time  WORKDIR WORKLOAD SECONDS   warm-up, then timed verify rounds
    worker.py trace WORKDIR WORKLOAD   one traced verify round, per-layer metrics

The scenarios are read from perfbench/scenarios; WORKDIR receives the verify
outputs and the span file.  The result is one JSON line on standard output.
Only the standard library is imported before lqbundle, so that `setup` times
lqbundle's own imports.
"""

import json
import os
import resource
import shutil
import sys
import tempfile
import time

T_START = time.perf_counter()
SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scenarios")

# Workload -> scenario files under perfbench/scenarios.  One operation is one
# `verify` of one scenario; a round is one verify of each.
WORKLOADS = {
    "stationary-s1": ["s1.json"],
    "stationary-n40": ["n40_j0.json", "n40_j1.json"],
    "sa-standard": ["sa_standard.json"],
}
# Run once before timing, in every workload: S1 takes 3 s and reaches the
# lazy imports, LAPACK/BLAS first calls and the certificate and CSV export.
WARMUP = "s1.json"


def _import_lqbundle():
    import lqbundle
    import lqbundle.cli

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(lqbundle.__file__).startswith(src + os.sep):
        raise SystemExit(f"lqbundle imported from {lqbundle.__file__}, not from {src}")
    return lqbundle.cli


def _scenarios(workload):
    return [os.path.join(SCENARIOS, name) for name in WORKLOADS[workload]]


def _verify(cli, scenario, out_dir):
    """One operation: `lqbundle verify` in this process; returns its seconds."""
    with open(os.devnull, "w") as sink:
        saved, sys.stdout = sys.stdout, sink
        try:
            start = time.perf_counter()
            cli.main(["verify", "--scenario", scenario, "--out", out_dir])
            return time.perf_counter() - start
        finally:
            sys.stdout = saved


def _check(workload, scenario, out_dir):
    """(passed, problems) of one verify output."""
    import checks

    with open(scenario, encoding="utf-8") as fh:
        doc = json.load(fh)
    cert, tables = checks.read_outputs(out_dir)
    try:
        if workload == "stationary-s1":
            problems = checks.check_s1(cert, tables)
        elif workload == "stationary-n40":
            problems = checks.check_n40(cert, tables, doc)
        else:
            problems = checks.check_sa(cert, tables, doc)
    except KeyError as exc:
        problems = [f"certificate has no record {exc}"]
    return cert["pass"], [f"{doc['name']}: {msg}" for msg in problems]


def _riccati_problems(workload, scenarios):
    """P of the library's stable subspace against scipy's CARE solver.

    Run outside the timed and traced regions, once per stationary-n40 system.
    """
    if workload != "stationary-n40":
        return []
    import checks
    from lqbundle.frequency import QuadraticFormTriple
    from lqbundle.stationary import (
        assemble_hamiltonian, extract_nonoscillation, stable_lagrange_schur)

    problems = []
    for path in scenarios:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        a, b, f1, f2, f3 = checks.system_matrices(doc)
        form = QuadraticFormTriple(f1=f1, f2=f2, f3=f3)
        sub = stable_lagrange_schur(assemble_hamiltonian(a, b, form))
        p = extract_nonoscillation(sub, a, b, form).p
        problems += [f"{doc['name']}: {m}" for m in checks.check_riccati(p, doc)]
    return problems


def _round(cli, workdir, workload, scenarios, tally):
    """Verify each scenario once; check every output; return the timed seconds."""
    spent = 0.0
    for scenario in scenarios:
        out_dir = tempfile.mkdtemp(prefix="out-", dir=workdir)
        try:
            spent += _verify(cli, scenario, out_dir)
            passed, problems = _check(workload, scenario, out_dir)
        finally:
            shutil.rmtree(out_dir)
        tally["attempted"] += 1
        tally["failed"] += 0 if passed else 1
        tally["problems"] += problems
    return spent


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_setup(workdir, workload):
    cli = _import_lqbundle()
    for path in _scenarios(workload):
        cli.load_scenario(path)
    return {"setup_s": time.perf_counter() - T_START}


def mode_time(workdir, workload, seconds):
    cli = _import_lqbundle()
    scenarios = _scenarios(workload)
    warm = {"attempted": 0, "failed": 0, "problems": []}
    warm_s = _round(cli, workdir, "stationary-s1", [os.path.join(SCENARIOS, WARMUP)], warm)
    tally = {"attempted": 0, "failed": 0, "problems": []}
    rounds = []
    while sum(rounds) < seconds and not tally["problems"]:
        rounds.append(_round(cli, workdir, workload, scenarios, tally))
    tally["problems"] += warm["problems"] + _riccati_problems(workload, scenarios)
    return dict(tally, round_s=rounds, warmup_s=warm_s, peak_rss_mb=_peak_rss_mb())


def mode_trace(workdir, workload):
    start = time.perf_counter()
    cli = _import_lqbundle()
    import_s = time.perf_counter() - start
    import tracer

    trace = tracer.Tracer()
    tracer.install(trace)
    scenarios = _scenarios(workload)
    tally = {"attempted": 0, "failed": 0, "problems": []}
    verify_s = _round(cli, workdir, workload, scenarios, tally)
    trace.dump(os.path.join(workdir, "spans.json"))
    metrics = tracer.layer_metrics(trace.spans, trace.counts, import_s)
    tally["problems"] += _riccati_problems(workload, scenarios)
    return dict(tally, metrics=metrics, verify_s=verify_s)


def main(argv):
    mode, workdir, workload = argv[:3]
    if mode == "setup":
        result = mode_setup(workdir, workload)
    elif mode == "time":
        result = mode_time(workdir, workload, float(argv[3]))
    elif mode == "trace":
        result = mode_trace(workdir, workload)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
