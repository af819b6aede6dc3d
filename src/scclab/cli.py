"""Command line driver for the laboratory's experiments.

Each subcommand runs one experiment kind end-to-end: it validates the
configuration (reporting every violated constraint and writing nothing
on failure), executes, and writes results.csv, results.json, and a
manifest.json with the full configuration echo next to them.  Outputs
are a pure function of the configuration, so re-running a manifest's
configuration reproduces the result files byte for byte.

Exit codes: 0 success, 2 validation failure (including an unreadable or
malformed --config file), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import KINDS, ExperimentConfig, build_config, validate
from .edge_stats import (
    ExperimentReport,
    derived_seed,
    rigidity_experiment,
    sample_pair,
    tw_experiment,
)
from .errors import DomainError, NumericalError, ParameterError
from .linearized_resolvent import local_law_errors
from .scc_core import canonical_factor, ccc_eigenvalues, write_spectrum_csv
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


def _run_density_table(config: ExperimentConfig, out: Path) -> dict:
    model = make_model(config.c1, config.c2)
    xs = np.linspace(model.lambda_minus, model.lambda_plus, config.x_points)
    fs = density(model, xs)
    rows = [(repr(float(x)), repr(float(f))) for x, f in zip(xs, fs)]
    _write_csv(out / "results.csv", ("x", "density"), rows)
    summary = {
        "lambda_minus": model.lambda_minus,
        "lambda_plus": model.lambda_plus,
        "c_tw": model.c_tw,
        "mass": support_mass(model),
        "points": config.x_points,
    }
    _write_json(out / "results.json", summary)
    return summary


def _run_quantiles(config: ExperimentConfig, out: Path) -> dict:
    model = make_model(config.c1, config.c2)
    gamma = classical_locations(model, config.q)
    rows = [(j + 1, repr(float(g))) for j, g in enumerate(gamma)]
    _write_csv(out / "results.csv", ("j", "gamma"), rows)
    summary = {
        "q": config.q,
        "gamma_first": float(gamma[0]),
        "gamma_last": float(gamma[-1]),
        "lambda_plus": model.lambda_plus,
        "monotone": bool(np.all(np.diff(gamma) < 0)) if config.q > 1 else True,
    }
    _write_json(out / "results.json", summary)
    return summary


def _run_spectrum(config: ExperimentConfig, out: Path) -> dict:
    n = config.n
    p, q = config.dims()
    model = config.model()
    pair = sample_pair(config.law, p, q, n, config.seed,
                       beta=config.beta, c_phi=config.c_phi)
    result = ccc_eigenvalues(pair)
    write_spectrum_csv(result, model, out / "results.csv")
    summary = {
        "n": n, "p": p, "q": q,
        "top_eigenvalues": [float(x) for x in result.eigenvalues[: min(5, q)]],
        "min_eig_xx": result.min_eig_xx,
        "min_eig_yy": result.min_eig_yy,
        "lambda_plus": model.lambda_plus,
    }
    _write_json(out / "results.json", summary)
    return summary | {"checks": {"min_eig_xx_min": result.min_eig_xx,
                                 "min_eig_yy_min": result.min_eig_yy}}


def _run_local_law_sweep(config: ExperimentConfig, out: Path) -> dict:
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
    rows = []
    reports = []
    point_checks = []
    conditioning = []
    for trial in range(config.trials):
        seed_t = derived_seed(config.seed, 4, trial)
        pair = sample_pair(config.law, p, q, n, seed_t,
                           beta=config.beta, c_phi=config.c_phi)
        factor = canonical_factor(pair)     # whiten and decompose once per pair
        conditioning.append((factor.min_eig_xx, factor.min_eig_yy))
        for E in es:
            for eta in etas:
                rep = local_law_errors(pair, model, complex(E, eta), seed=config.seed,
                                       epsilon=config.epsilon, factor=factor)
                rows.append((trial, repr(float(E)), repr(float(eta)),
                             repr(rep.entrywise_err), repr(rep.aniso_err),
                             *(repr(e) for e in rep.avg_err),
                             repr(rep.psi),
                             repr(rep.benchmarks["entrywise"]),
                             repr(rep.benchmarks["averaged"])))
                reports.append(rep.to_json_dict() | {"trial": trial})
                point_checks.append(rep.checks)
    _write_csv(out / "results.csv", header, rows)
    worst = max(r["entrywise_err"] / r["benchmarks"]["entrywise"] for r in reports)
    summary = {
        "n": n, "p": p, "q": q, "trials": config.trials,
        "grid": {"E": [float(e) for e in es], "eta": [float(e) for e in etas]},
        "worst_entrywise_over_benchmark": worst,
        "reports": reports,
    }
    _write_json(out / "results.json", summary)
    checks = {f"{key}_max": max(c[key] for c in point_checks)
              for key in ("identity_residual", "trace_identity")}
    checks["min_eig_xx_min"] = min(xx for xx, _ in conditioning)
    checks["min_eig_yy_min"] = min(yy for _, yy in conditioning)
    return summary | {"checks": checks}


def _write_report(report: ExperimentReport, out: Path) -> dict:
    _write_csv(out / "results.csv", report.csv_header, report.csv_rows)
    _write_json(out / "results.json", report.to_json_dict())
    return report.metrics | {"checks": report.checks}


def _run_tw_edge(config: ExperimentConfig, out: Path) -> dict:
    return _write_report(tw_experiment(config), out)


def _run_rigidity(config: ExperimentConfig, out: Path) -> dict:
    return _write_report(rigidity_experiment(config), out)


_RUNNERS = {
    "density-table": _run_density_table,
    "quantiles": _run_quantiles,
    "spectrum": _run_spectrum,
    "local-law-sweep": _run_local_law_sweep,
    "tw-edge": _run_tw_edge,
    "rigidity-scaling": _run_rigidity,
}


def _environment() -> dict:
    """Library versions, BLAS build and thread settings of this process."""
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
    }


def run(config: ExperimentConfig, out_dir) -> dict:
    """Validate, execute, and write results plus manifest.  Returns a summary.

    A runner may return its self-check residuals or conditioning under
    "checks"; they go to the manifest only, as does the "environment"
    (library versions, BLAS, CPU count, *_NUM_THREADS settings), so
    results.* stay a function of the config.
    """
    violations = validate(config)
    if violations:
        raise ParameterError("; ".join(violations))
    out = Path(out_dir)
    missing = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        summary = _RUNNERS[config.kind](config, out)
    except (ParameterError, DomainError):
        # exit code 2 promises no outputs: drop what this run created
        if missing:
            shutil.rmtree(missing[-1])
        raise
    elapsed = time.perf_counter() - start
    checks = summary.pop("checks", None)
    manifest = {
        "config": dataclasses.asdict(config) | {"factors": list(config.factors)},
        "code_version": __version__,
        "seed": config.seed,
        "timings": {"total_s": elapsed},
        "environment": _environment(),
        "outputs": ["results.csv", "results.json"],
    }
    if checks is not None:
        manifest["checks"] = checks
    _write_json(out / "manifest.json", manifest)
    return summary


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
        sp.add_argument("--seed", type=int, default=None, help="unsigned 64-bit master seed")
        sp.add_argument("--out", type=Path, default=None, help="output directory")
        sp.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field")
    args = parser.parse_args(argv)

    try:
        raw = _read_config(args.config) if args.config is not None else {}
        raw.pop("kind", None)
        if args.seed is not None:
            raw["seed"] = args.seed
        for item in args.override:
            key, value = _parse_override(item)
            raw[key] = value
        config = build_config(args.kind, raw)
    except (ParameterError, TypeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out if args.out is not None else Path(f"out-{config.kind}")
    try:
        summary = run(config, out_dir)
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
            "config": dataclasses.asdict(config) | {"factors": list(config.factors)},
        })
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    keys = ", ".join(sorted(summary)[:6])
    print(f"wrote {out_dir}/results.csv, results.json, manifest.json (summary keys: {keys})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
