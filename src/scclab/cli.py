"""Command line driver for the laboratory's experiments.

Each subcommand runs one experiment kind end-to-end: it validates the
configuration (reporting every violated constraint and writing nothing
on failure), executes, and writes results.csv, results.json, and a
manifest.json with the full configuration echo next to them.  Outputs
are a pure function of the configuration, so re-running a manifest's
configuration reproduces the result files byte for byte.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .edge_stats import (
    RigidityConfig,
    TwEdgeConfig,
    derived_seed,
    rigidity_experiment,
    sample_pair,
    tw_experiment,
)
from .errors import DomainError, NumericalError, ParameterError
from .linearized_resolvent import local_law_errors
from .scc_core import ccc_eigenvalues, write_spectrum_csv
from .spectral_model import classical_locations, density, make_model, support_mass

_KINDS = (
    "density-table",
    "quantiles",
    "spectrum",
    "local-law-sweep",
    "tw-edge",
    "rigidity-scaling",
)

_LAWS = ("gaussian", "rademacher", "uniform", "pareto")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat configuration covering every experiment kind.

    Fields not used by a kind are ignored by it; validate() checks only
    what the requested kind will consume.
    """

    kind: str
    c1: float = 0.3
    c2: float = 0.2
    n: int = 200
    q: int = 100                      # quantile count for kind=quantiles
    law: str = "gaussian"
    beta: float | None = None
    c_phi: float | None = None
    trials: int = 100
    k_max: int = 3
    seed: int = 0
    n_goe: int | None = None
    threads: int = 1
    n0: int = 200                     # rigidity base size
    factors: tuple = (1, 2, 4)
    x_points: int = 201               # density table resolution
    e_min: float = 0.3
    e_max: float = 0.9
    e_points: int = 3
    eta_min: float = 0.1
    eta_max: float = 1.0
    eta_points: int = 3
    eta_scale: str = "log"
    epsilon: float = 0.05


def build_config(kind: str, raw: dict) -> ExperimentConfig:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    raw = dict(raw)
    raw["kind"] = kind
    if "factors" in raw:
        raw["factors"] = tuple(raw["factors"])
    return ExperimentConfig(**raw)


def validate(config: ExperimentConfig) -> list[str]:
    """Collect every violated constraint; an empty list means runnable."""
    v = []
    if config.kind not in _KINDS:
        v.append(f"kind {config.kind!r} is not one of {_KINDS}")
        return v
    if not (0.0 < config.c2 <= config.c1):
        v.append(f"aspect ratios must satisfy 0 < c2 <= c1, got c1={config.c1}, c2={config.c2}")
    if not (config.c1 + config.c2 < 1.0):
        v.append(f"aspect ratios must satisfy c1 + c2 < 1, got c1+c2={config.c1 + config.c2}")
    if not (0 <= config.seed < 2 ** 64):
        v.append(f"seed must be an unsigned 64-bit integer, got {config.seed}")
    if config.threads < 1:
        v.append(f"threads must be >= 1, got {config.threads}")
    if config.law not in _LAWS:
        v.append(f"law {config.law!r} is not one of {_LAWS}")
    if config.law == "pareto":
        if config.beta is None:
            v.append("law 'pareto' requires beta")
        elif not config.beta > 2.0:
            v.append(f"tail exponent must satisfy beta > 2, got beta={config.beta}")
    if config.c_phi is not None and not (0.0 < config.c_phi < 0.5):
        v.append(f"truncation exponent must satisfy 0 < c_phi < 1/2, got {config.c_phi}")

    needs_dims = config.kind in ("spectrum", "local-law-sweep", "tw-edge")
    if needs_dims:
        p, q = round(config.c1 * config.n), round(config.c2 * config.n)
        if config.n < 4 or p < 1 or q < 1 or p >= config.n or q >= config.n:
            v.append(
                f"dimensions must satisfy 0 < p, q < n, got p={p}, q={q}, n={config.n}"
            )
        elif config.kind == "tw-edge" and not (1 <= config.k_max <= q):
            v.append(f"k_max must lie in [1, q={q}], got {config.k_max}")
    if config.kind == "tw-edge" and config.trials < 2:
        v.append(f"tw-edge needs trials >= 2, got {config.trials}")
    if config.kind == "rigidity-scaling":
        if config.trials < 3:
            v.append(f"rigidity-scaling needs trials >= 3, got {config.trials}")
        if config.n0 < 4 or round(config.c2 * config.n0) < 2:
            v.append(f"rigidity base size n0={config.n0} too small for c2={config.c2}")
        if any(f < 1 for f in config.factors):
            v.append(f"factors must be positive integers, got {config.factors}")
    if config.kind == "quantiles" and config.q < 1:
        v.append(f"quantile count must be >= 1, got {config.q}")
    if config.kind == "density-table" and config.x_points < 2:
        v.append(f"density table needs at least 2 points, got {config.x_points}")
    if config.kind == "local-law-sweep":
        if not (0.0 < config.epsilon < 1.0):
            v.append(f"spectral window parameter must lie in (0, 1), got {config.epsilon}")
        else:
            eta_floor = config.n ** (-1.0 + config.epsilon)
            if config.eta_min < eta_floor:
                v.append(
                    f"eta_min = {config.eta_min} below the admissible floor "
                    f"n^(-1+eps) = {eta_floor:.4e} of the spectral window"
                )
            if config.eta_max > 1.0 / config.epsilon:
                v.append(
                    f"eta_max = {config.eta_max} above the admissible ceiling "
                    f"1/eps = {1.0 / config.epsilon:.4e} of the spectral window"
                )
            if not (config.epsilon <= config.e_min <= config.e_max <= 1.0):
                v.append(
                    f"energy range [{config.e_min}, {config.e_max}] must lie inside "
                    f"[eps, 1] = [{config.epsilon}, 1]"
                )
        if config.eta_min > config.eta_max:
            v.append(f"eta_min {config.eta_min} exceeds eta_max {config.eta_max}")
        if config.e_points < 1 or config.eta_points < 1:
            v.append("grid needs at least one point per axis")
        if config.eta_scale not in ("log", "linear"):
            v.append(f"eta_scale must be 'log' or 'linear', got {config.eta_scale!r}")
        if config.trials < 1:
            v.append(f"local-law-sweep needs trials >= 1, got {config.trials}")
    return v


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
    p, q = round(config.c1 * n), round(config.c2 * n)
    model = make_model(p / n, q / n)
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
    return summary


def _run_local_law_sweep(config: ExperimentConfig, out: Path) -> dict:
    n = config.n
    p, q = round(config.c1 * n), round(config.c2 * n)
    model = make_model(p / n, q / n)
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
    for trial in range(config.trials):
        seed_t = derived_seed(config.seed, 4, trial)
        pair = sample_pair(config.law, p, q, n, seed_t,
                           beta=config.beta, c_phi=config.c_phi)
        for E in es:
            for eta in etas:
                rep = local_law_errors(pair, model, complex(E, eta),
                                       seed=config.seed, epsilon=config.epsilon)
                rows.append((trial, repr(float(E)), repr(float(eta)),
                             repr(rep.entrywise_err), repr(rep.aniso_err),
                             *(repr(e) for e in rep.avg_err),
                             repr(rep.psi),
                             repr(rep.benchmarks["entrywise"]),
                             repr(rep.benchmarks["averaged"])))
                reports.append(rep.to_json_dict() | {"trial": trial})
    _write_csv(out / "results.csv", header, rows)
    worst = max(r["entrywise_err"] / r["benchmarks"]["entrywise"] for r in reports)
    summary = {
        "n": n, "p": p, "q": q, "trials": config.trials,
        "grid": {"E": [float(e) for e in es], "eta": [float(e) for e in etas]},
        "worst_entrywise_over_benchmark": worst,
        "reports": reports,
    }
    _write_json(out / "results.json", summary)
    return summary


def _run_tw_edge(config: ExperimentConfig, out: Path) -> dict:
    tw_config = TwEdgeConfig(
        n=config.n, c1=config.c1, c2=config.c2, trials=config.trials,
        law=config.law, beta=config.beta, c_phi=config.c_phi,
        k_max=config.k_max, seed=config.seed, n_goe=config.n_goe,
        threads=config.threads,
    )
    report = tw_experiment(tw_config)
    _write_csv(out / "results.csv", report.csv_header, report.csv_rows)
    _write_json(out / "results.json", report.to_json_dict())
    return report.metrics


def _run_rigidity(config: ExperimentConfig, out: Path) -> dict:
    rig_config = RigidityConfig(
        n0=config.n0, c1=config.c1, c2=config.c2, trials=config.trials,
        law=config.law, beta=config.beta, c_phi=config.c_phi,
        factors=tuple(config.factors), seed=config.seed, threads=config.threads,
    )
    report = rigidity_experiment(rig_config)
    _write_csv(out / "results.csv", report.csv_header, report.csv_rows)
    _write_json(out / "results.json", report.to_json_dict())
    return report.metrics


_RUNNERS = {
    "density-table": _run_density_table,
    "quantiles": _run_quantiles,
    "spectrum": _run_spectrum,
    "local-law-sweep": _run_local_law_sweep,
    "tw-edge": _run_tw_edge,
    "rigidity-scaling": _run_rigidity,
}


def run(config: ExperimentConfig, out_dir) -> dict:
    """Validate, execute, and write results plus manifest.  Returns a summary."""
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
    manifest = {
        "config": dataclasses.asdict(config) | {"factors": list(config.factors)},
        "code_version": __version__,
        "seed": config.seed,
        "timings": {"total_s": elapsed},
        "outputs": ["results.csv", "results.json"],
    }
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scclab",
        description="Numerical laboratory for null-model canonical correlation spectra",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _KINDS:
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", type=Path, default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="unsigned 64-bit master seed")
        sp.add_argument("--out", type=Path, default=None, help="output directory")
        sp.add_argument("--threads", type=int, default=None, help="parallelism degree")
        sp.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field")
    args = parser.parse_args(argv)

    raw: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            raw.update(json.load(fh))
    raw.pop("kind", None)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.threads is not None:
        raw["threads"] = args.threads
    try:
        for item in args.override:
            key, value = _parse_override(item)
            raw[key] = value
        config = build_config(args.kind, raw)
    except (ParameterError, TypeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    violations = validate(config)
    if violations:
        for item in violations:
            print(f"validation error: {item}", file=sys.stderr)
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
