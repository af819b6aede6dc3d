"""Command line driver for the laboratory's experiments.

Each experiment kind runs end-to-end from one command: it validates the
configuration (reporting every violated constraint), computes, and only
then writes results.csv, results.json, and a manifest.json with the full
configuration echo next to them.  A run that fails writes no results,
only diagnostics.json on a numerical failure.  Every kind's runner is a
pure function of the configuration, so re-running a manifest's
configuration reproduces the result files byte for byte.  The three
Monte Carlo kinds (local-law-sweep, tw-edge, rigidity-scaling) sample
their pairs through edge_stats.TrialLog alike: a failed pair is
resampled and counted in results.json's "failures", and the failure that
takes the count past one percent of the run's pairs stops the run there,
with exit code 3.  Their trials run through TrialLog.map, one process per
CPU the run may use, with the same output as one process; manifest.json's
environment gives the number of processes as "trial_processes".  Every
kind's runner returns one edge_stats.ExperimentReport, from which run
writes the three files.  An --out that is a file, or lies under one, is a
validation failure found before anything is computed.

run owns its process and applies three settings to it, which the forked
trial processes inherit and manifest.json's environment records (the
last two move no computed value):
  - BLAS on one thread (_linalg.one_blas_thread), so results.* do not
    depend on the BLAS thread count ("blas_threads");
  - the C allocator's thresholds pinned (_linalg.steady_heap), so the
    memory that repeated trials and local-law points free stays mapped
    instead of being faulted in again ("steady_heap");
  - no OpenSSL: the first numpy.random import loads secrets, hmac and
    hashlib, and hashlib's OpenSSL backend (_hashlib) maps libcrypto,
    about 3.4 MB resident, though every stream is seeded explicitly and
    nothing is hashed.  Where _hashlib is not loaded yet, run blocks it
    (None in sys.modules), so hashlib takes its built-in algorithms
    ("hashlib_openssl", false).  Importing scclab or this module does
    not, so a host program keeps OpenSSL's hashes.

Exit codes: 0 success, 2 validation failure (including an unreadable or
malformed --config file, an unknown kind, or a config kind other than
the one named), 3 numerical failure.
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

from . import __version__
from ._linalg import lapacke_routines, one_blas_thread, openblas_runtime, steady_heap
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
from .scc_core import canonical_factor, ccc_eigenvalues, rigidity_profile, sample_covariances
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
    return ExperimentReport(("x", "density"), rows, results)


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
    return ExperimentReport(("j", "gamma"), rows, results)


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
    # the one run that reports the exact smallest Gram eigenvalues; the
    # spectrum's guard only bounds them
    Sxx, Syy, _ = sample_covariances(pair)
    results = {
        "n": n, "p": p, "q": q,
        "top_eigenvalues": [float(x) for x in result.eigenvalues[: min(5, q)]],
        "min_eig_xx": float(np.linalg.eigvalsh(Sxx)[0]),
        "min_eig_yy": float(np.linalg.eigvalsh(Syy)[0]),
        "lambda_plus": model.lambda_plus,
    }
    checks = {"min_eig_xx_bound_min": result.min_eig_xx_bound,
              "min_eig_yy_bound_min": result.min_eig_yy_bound}
    return ExperimentReport(("index", "lambda", "gamma", "normalized_deviation"), rows,
                            results, checks)


def _run_local_law_sweep(config: ExperimentConfig):
    n = config.n
    p, q = config.dims()
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
                rep = local_law_errors(factor, complex(E, eta), seed=config.seed,
                                       epsilon=config.epsilon)
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
    return ExperimentReport(header, rows, results, checks, log.processes)


# the drivers are looked up by their module-global names at call time, so
# a caller that rebinds those names (a tracer, a test) sees every run
_RUNNERS = {
    "density-table": _run_density_table,
    "quantiles": _run_quantiles,
    "spectrum": _run_spectrum,
    "local-law-sweep": _run_local_law_sweep,
    "tw-edge": lambda config: tw_experiment(config),
    "rigidity-scaling": lambda config: rigidity_experiment(config),
}


def _environment(processes: int | None, pinned: bool, steady: bool) -> dict:
    """numpy's version, BLAS build and runtime, process settings and trial processes of this run.

    numpy is the only third-party library a run loads.  pinned says whether
    one_blas_thread found an OpenBLAS to run on one thread, steady
    whether steady_heap pinned the allocator's thresholds; whether
    hashlib's OpenSSL backend is loaded is read here, as the manifest is
    written.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")} | openblas_runtime(),
        "cpu_count": os.cpu_count(),
        "threads": {key: value for key, value in sorted(os.environ.items())
                    if key.endswith("_NUM_THREADS")},
        "blas_threads": 1 if pinned else None,
        "steady_heap": steady,
        "hashlib_openssl": sys.modules.get("_hashlib") is not None,
        "lapacke": lapacke_routines(),
    } | ({} if processes is None else {"trial_processes": processes})


def _out_dir_violations(out: Path) -> list[str]:
    """The --out rule: the nearest existing path of out and its parents is a directory."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if existing.is_dir():
        return []
    where = "is" if existing == out else f"lies under {existing}, which is"
    return [f"--out {out} {where} not a directory"]


def run(config: ExperimentConfig, out_dir) -> dict:
    """Validate, compute, then write results plus manifest.  Returns results.json's payload.

    Each kind's runner maps the config to an ExperimentReport and writes
    nothing, so a run that raises leaves no output behind; an out_dir
    that is a file, or lies under one, is rejected with the config.  It
    runs with BLAS on one thread, so results.* do not depend on the BLAS
    thread count either, with the allocator's thresholds pinned by
    steady_heap, so the memory its repeated trials and points free stays
    mapped, and with hashlib's OpenSSL backend blocked where it is not
    loaded yet; this process owns all three settings.  The report's checks
    (self-check residuals, conditioning) go to the manifest only, as do
    the "environment" (library versions, the BLAS build and the
    configuration and core of the OpenBLAS that runs, CPU count,
    *_NUM_THREADS settings, the BLAS thread count in force, 1 where an
    OpenBLAS was pinned and null otherwise, whether steady_heap took
    effect, whether hashlib's OpenSSL backend was loaded, the LAPACKE
    routines found in numpy's OpenBLAS, and, for a Monte Carlo kind, the
    number of processes that computed its trials) and the timings, so
    results.* stay a function of the config.
    """
    out = Path(out_dir)
    reject(validate(config) + _out_dir_violations(out))
    start = time.perf_counter()
    steady = steady_heap()
    sys.modules.setdefault("_hashlib", None)    # before the first numpy.random import
    with one_blas_thread() as pinned:
        report = _RUNNERS[config.kind](config)
    write_start = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "results.csv", report.csv_header, report.csv_rows)
    _write_json(out / "results.json", report.results)
    end = time.perf_counter()
    manifest = {
        "config": dataclasses.asdict(config),
        "code_version": __version__,
        "seed": config.seed,
        "timings": {"total_s": end - start, "write_s": end - write_start},
        "environment": _environment(report.processes, pinned, steady),
        "outputs": ["results.csv", "results.json"],
    }
    if report.checks is not None:
        manifest["checks"] = report.checks
    _write_json(out / "manifest.json", manifest)
    return report.results


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
    parser.add_argument("kind", choices=KINDS, help="the experiment to run")
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed in [0, 2**64)")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--override", action="append", default=[],
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
