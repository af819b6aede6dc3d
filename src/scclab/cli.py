"""Command line driver for the laboratory's experiments.

Each subcommand runs one experiment kind end-to-end: it validates the
configuration (reporting every violated constraint), computes, and only
then writes results.csv, results.json, and a manifest.json with the full
configuration echo next to them.  A run that fails writes no results,
only diagnostics.json on a numerical failure.  Every kind's runner is a
pure function of the configuration, computed with BLAS on one thread,
so re-running a manifest's configuration reproduces the result files
byte for byte at any BLAS thread count.  The three Monte Carlo kinds
(local-law-sweep, tw-edge, rigidity-scaling) sample their pairs through
edge_stats.TrialLog alike: a failed pair is resampled and counted in
results.json's "failures", and the failure that takes the count past one
percent of the run's pairs stops the run there, with exit code 3.  Their
trials run through TrialLog.map, one process per CPU the run may use,
with the same output as one process; manifest.json's environment gives
the number of processes as "trial_processes".

Exit codes: 0 success, 2 validation failure (including an unreadable or
malformed --config file, or a config kind other than the subcommand),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._linalg import one_blas_thread
from .config import KINDS, ExperimentConfig, build_config, validate
from .edge_stats import (
    ExperimentReport,
    TrialLog,
    rigidity_experiment,
    sample_pair,
    tw_experiment,
)
from .errors import DomainError, NumericalError, ParameterError, reject
from .linearized_resolvent import local_law_errors
from .scc_core import canonical_factor, ccc_eigenvalues, rigidity_profile
from .spectral_model import classical_locations, density, make_model, support_mass

def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_density_table(config: ExperimentConfig):
    model = make_model(config.c1, config.c2)
    xs = np.linspace(model.lambda_minus, model.lambda_plus, config.x_points)
    fs = density(model, xs)
    rows = [(repr(float(x)), repr(float(f))) for x, f in zip(xs, fs)]
    results = {
        "lambda_minus": model.lambda_minus,
        "lambda_plus": model.lambda_plus,
        "c_tw": model.c_tw,
        "mass": support_mass(model),
        "points": config.x_points,
    }
    return ("x", "density"), rows, results, None, None


def _run_quantiles(config: ExperimentConfig):
    model = make_model(config.c1, config.c2)
    gamma = classical_locations(model, config.q)
    rows = [(j + 1, repr(float(g))) for j, g in enumerate(gamma)]
    results = {
        "q": config.q,
        "gamma_first": float(gamma[0]),
        "gamma_last": float(gamma[-1]),
        "lambda_plus": model.lambda_plus,
        "monotone": bool(np.all(np.diff(gamma) < 0)) if config.q > 1 else True,
    }
    return ("j", "gamma"), rows, results, None, None


def _run_spectrum(config: ExperimentConfig):
    n = config.n
    p, q = config.dims()
    model = config.model()
    pair = sample_pair(config.law, p, q, n, config.seed,
                       beta=config.beta, c_phi=config.c_phi)
    result = ccc_eigenvalues(pair)
    gamma = classical_locations(model, q)
    dev = rigidity_profile(result, model, keep_fraction=1.0)
    rows = [(i + 1, repr(float(lam)), repr(float(g)), repr(float(d)))
            for i, (lam, g, d) in enumerate(zip(result.eigenvalues, gamma, dev))]
    results = {
        "n": n, "p": p, "q": q,
        "top_eigenvalues": [float(x) for x in result.eigenvalues[: min(5, q)]],
        "min_eig_xx": result.min_eig_xx,
        "min_eig_yy": result.min_eig_yy,
        "lambda_plus": model.lambda_plus,
    }
    checks = {"min_eig_xx_min": result.min_eig_xx, "min_eig_yy_min": result.min_eig_yy}
    return ("index", "lambda", "gamma", "normalized_deviation"), rows, results, checks, None


def _run_local_law_sweep(config: ExperimentConfig):
    n = config.n
    p, q = config.dims()
    model = config.model()
    es = np.linspace(config.e_min, config.e_max, config.e_points)
    if config.eta_scale == "log":
        etas = np.geomspace(config.eta_min, config.eta_max, config.eta_points)
    else:
        etas = np.linspace(config.eta_min, config.eta_max, config.eta_points)
    header = ("trial", "E", "eta", "entrywise_err", "aniso_err",
              "avg_err_1", "avg_err_2", "avg_err_3", "avg_err_4", "avg_err_m",
              "psi", "benchmark_entrywise", "benchmark_averaged")

    def sweep(log, trial):
        # one key is a pair, whitened and decomposed once, and all of its points
        factor = log.draw(canonical_factor, n, 4, trial)
        points = []
        for E in es:
            for eta in etas:
                rep = local_law_errors(factor.pair, model, complex(E, eta), seed=config.seed,
                                       epsilon=config.epsilon, factor=factor)
                row = (trial, repr(float(E)), repr(float(eta)),
                       repr(rep.entrywise_err), repr(rep.aniso_err),
                       *(repr(e) for e in rep.avg_err),
                       repr(rep.psi),
                       repr(rep.benchmarks["entrywise"]),
                       repr(rep.benchmarks["averaged"]))
                points.append((row, rep.to_json_dict() | {"trial": trial}, rep.checks))
        return points

    log = TrialLog(config, config.trials)
    points = [point for pair in log.map(sweep, range(config.trials)) for point in pair]
    rows, reports, point_checks = zip(*points)
    checks = log.checks()
    worst = max(r["entrywise_err"] / r["benchmarks"]["entrywise"] for r in reports)
    results = {
        "n": n, "p": p, "q": q, "trials": config.trials, "failures": log.failures,
        "grid": {"E": [float(e) for e in es], "eta": [float(e) for e in etas]},
        "worst_entrywise_over_benchmark": worst,
        "reports": reports,
    }
    checks |= {f"{key}_max": max(c[key] for c in point_checks)
               for key in ("identity_residual", "trace_identity")}
    return header, rows, results, checks, log.processes


def _report_outputs(report: ExperimentReport):
    return (report.csv_header, report.csv_rows, report.to_json_dict(), report.checks,
            report.processes)


# the drivers are looked up by their module-global names at call time, so
# a caller that rebinds those names (a tracer, a test) sees every run
def _run_tw_edge(config: ExperimentConfig):
    return _report_outputs(tw_experiment(config))


def _run_rigidity(config: ExperimentConfig):
    return _report_outputs(rigidity_experiment(config))


_RUNNERS = {
    "density-table": _run_density_table,
    "quantiles": _run_quantiles,
    "spectrum": _run_spectrum,
    "local-law-sweep": _run_local_law_sweep,
    "tw-edge": _run_tw_edge,
    "rigidity-scaling": _run_rigidity,
}


def _environment(processes: int | None) -> dict:
    """Library versions, BLAS build, thread settings and trial processes of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "cpu_count": os.cpu_count(),
        "threads": {key: value for key, value in sorted(os.environ.items())
                    if key.endswith("_NUM_THREADS")},
    } | ({} if processes is None else {"trial_processes": processes})


def run(config: ExperimentConfig, out_dir) -> dict:
    """Validate, compute, then write results plus manifest.  Returns results.json's payload.

    Each kind's runner maps the config to (csv header, csv rows,
    results.json payload, checks or None, trial processes or None) and
    writes nothing, so a run that raises leaves no output behind.  It
    runs with BLAS on one thread, so results.* do not depend on the BLAS
    thread count either.  The checks (self-check residuals, conditioning)
    go to the manifest only, as do the "environment" (library versions,
    BLAS, CPU count, *_NUM_THREADS settings and, for a Monte Carlo kind,
    the number of processes that computed its trials) and the timings,
    so results.* stay a function of the config.
    """
    reject(validate(config))
    start = time.perf_counter()
    with one_blas_thread():
        header, rows, results, checks, processes = _RUNNERS[config.kind](config)
    out = Path(out_dir)
    write_start = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "results.csv", header, rows)
    _write_json(out / "results.json", results)
    end = time.perf_counter()
    manifest = {
        "config": dataclasses.asdict(config),
        "code_version": __version__,
        "seed": config.seed,
        "timings": {"total_s": end - start, "write_s": end - write_start},
        "environment": _environment(processes),
        "outputs": ["results.csv", "results.json"],
    }
    if checks is not None:
        manifest["checks"] = checks
    _write_json(out / "manifest.json", manifest)
    return results


def _parse_override(text: str):
    if "=" not in text:
        raise ParameterError(f"override must look like key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _read_config(path: Path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParameterError(f"config file {path} must hold a JSON object, "
                             f"got {type(raw).__name__}")
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scclab",
        description="Numerical laboratory for null-model canonical correlation spectra",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", type=Path, default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="master seed in [0, 2**64)")
        sp.add_argument("--out", type=Path, default=None, help="output directory")
        sp.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field")
    args = parser.parse_args(argv)

    try:
        raw = _read_config(args.config) if args.config is not None else {}
        if args.seed is not None:
            raw["seed"] = args.seed
        for item in args.override:
            key, value = _parse_override(item)
            raw[key] = value
        config = build_config(args.kind, raw)
    except ParameterError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out if args.out is not None else Path(f"out-{config.kind}")
    try:
        results = run(config, out_dir)
    except (ParameterError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "diagnostics.json", {
            "error": type(exc).__name__,
            "message": str(exc),
            "achieved": getattr(exc, "achieved", None),
            "config": dataclasses.asdict(config),
        })
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    keys = ", ".join(sorted(results)[:6])
    print(f"wrote {out_dir}/results.csv, results.json, manifest.json (summary keys: {keys})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
