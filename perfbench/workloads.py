"""The benchmark's workloads: generated CLI invocations and their output checks.

Each workload is a list of CLI invocations built from the benchmark seed.
The configs use only fields every experiment kind keeps (no `threads`,
no `n_goe`), so the same workload runs unchanged across refactors of the
config type.  The checks hold for every seed: they test shapes, finiteness,
orderings and budgets, never a statistical gate at reduced trial count.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

_FAILURE_BUDGET = 0.01


@dataclass(frozen=True)
class Invocation:
    """One `scclab <kind> --config ... --seed ...` call."""

    kind: str
    config: dict
    work: int        # work units completed: trials, trials x sizes, or points
    pairs: int       # pair-trials requested from the sampler


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    expected_spans: tuple[str, ...]   # layer functions the traced run must see


def _edge_mc(tiny: bool) -> Workload:
    # Criterion 7's setting at reduced trial count: many small spectra.
    n, trials = (40, 4) if tiny else (400, 100)
    base = {"c1": 0.3, "c2": 0.2, "n": n, "trials": trials, "k_max": 3}
    return Workload(
        name="edge-mc",
        invocations=(
            Invocation("tw-edge", base | {"law": "gaussian"}, trials, trials),
            Invocation("tw-edge", base | {"law": "pareto", "beta": 4.5}, trials, trials),
        ),
        expected_spans=(
            "edge_stats.tw_experiment", "edge_stats.run_edge_trials",
            "edge_stats.goe_reference", "edge_stats.ks_two_sample",
            "edge_stats.sample_pair", "sampler.sample_gaussian",
            "sampler.sample_heavy_tail", "scc_core.ccc_eigenvalues",
            "scc_core.whitened_cross",
        ),
    )


def _local_law(tiny: bool) -> Workload:
    # Few pairs, several (E, eta) points per pair: the linearized resolvent
    # at d = p + q + 2n = 1000 dominates and sets the memory high-water mark.
    n, trials = (40, 1) if tiny else (400, 2)
    config = {"c1": 0.3, "c2": 0.2, "n": n, "law": "gaussian", "trials": trials,
              "e_min": 0.3, "e_max": 0.8, "e_points": 2,
              "eta_min": 0.1, "eta_max": 1.0, "eta_points": 2,
              "eta_scale": "log", "epsilon": 0.05}
    return Workload(
        name="local-law",
        invocations=(Invocation("local-law-sweep", config, trials * 4, trials),),
        expected_spans=(
            "edge_stats.sample_pair", "sampler.sample_gaussian",
            "linearized_resolvent.local_law_errors",
            "linearized_resolvent.blocks_via_schur", "linearized_resolvent.build_H",
            "scc_core.whitened_cross", "spectral_model.make_model",
            "spectral_model.pi_limit", "spectral_model.stieltjes",
            "spectral_model.psi_control",
        ),
    )


def _rigidity(tiny: bool) -> Workload:
    # Cold classical locations for q = 40, 80, 160, then few large spectra.
    n0, trials = (40, 3) if tiny else (200, 20)
    factors = [1, 2, 4]
    config = {"c1": 0.3, "c2": 0.2, "n0": n0, "factors": factors,
              "trials": trials, "law": "gaussian"}
    pairs = trials * len(factors)
    return Workload(
        name="rigidity",
        invocations=(Invocation("rigidity-scaling", config, pairs, pairs),),
        expected_spans=(
            "edge_stats.rigidity_experiment", "edge_stats.sample_pair",
            "sampler.sample_gaussian", "scc_core.ccc_eigenvalues",
            "scc_core.rigidity_profile", "spectral_model.classical_locations",
            "spectral_model.classical_location",
        ),
    )


WORKLOADS = {"edge-mc": _edge_mc, "local-law": _local_law, "rigidity": _rigidity}


def make(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](tiny)


def argv(inv: Invocation, config_path: Path, seed: int, out: Path) -> list[str]:
    return [inv.kind, "--config", str(config_path), "--seed", str(seed), "--out", str(out)]


# ---------------------------------------------------------------- output checks

def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _nonfinite_numbers(value, where: str) -> list[str]:
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{where} is {value}"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nonfinite_numbers(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _nonfinite_numbers(v, f"{where}[{i}]")]
    return []


def _float_columns(rows, first: int) -> list[str]:
    for row in rows:
        for cell in row[first:]:
            if not math.isfinite(float(cell)):
                return [f"non-finite value {cell!r} in results.csv"]
    return []


def _check_tw_edge(config: dict, header, rows, summary) -> list[str]:
    trials, k_max = config["trials"], config["k_max"]
    problems = []
    if header != ["source", "trial", "k", "value"]:
        problems.append(f"unexpected header {header}")
    if len(rows) != 2 * trials * k_max:
        problems.append(f"{len(rows)} rows, expected {2 * trials * k_max}")
    problems += _float_columns(rows, 3)
    top: dict = {}
    for source, trial, k, value in rows:
        top.setdefault((source, trial), []).append((int(k), float(value)))
    for key, values in top.items():
        ordered = [v for _, v in sorted(values)]
        if any(b > a for a, b in zip(ordered, ordered[1:])):
            problems.append(f"rescaled top-k values increase within {key}")
            break
    failures = summary["metrics"]["failures"]
    if failures > _FAILURE_BUDGET * trials:
        problems.append(f"{failures} failed trials exceed the 1% budget of {trials}")
    return problems


def _check_local_law(config: dict, header, rows, summary) -> list[str]:
    points = config["trials"] * config["e_points"] * config["eta_points"]
    problems = []
    if header[:3] != ["trial", "E", "eta"] or len(header) != 13:
        problems.append(f"unexpected header {header}")
    if len(rows) != points or len(summary["reports"]) != points:
        problems.append(f"{len(rows)} rows and {len(summary['reports'])} reports, "
                        f"expected {points}")
    return problems + _float_columns(rows, 1)


def _check_rigidity(config: dict, header, rows, summary) -> list[str]:
    expected = len(config["factors"]) * config["trials"]
    problems = []
    if header != ["n", "trial", "fixed_index_dev", "edge_dev", "profile_max"]:
        problems.append(f"unexpected header {header}")
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    ns = [config["n0"] * f for f in config["factors"]]
    if summary["metrics"]["ns"] != ns:
        problems.append(f"swept sizes {summary['metrics']['ns']}, expected {ns}")
    return problems + _float_columns(rows, 2)


_CHECKS = {
    "tw-edge": _check_tw_edge,
    "local-law-sweep": _check_local_law,
    "rigidity-scaling": _check_rigidity,
}


def check_outputs(inv: Invocation, out: Path) -> list[str]:
    """Every problem found in one invocation's output directory."""
    missing = [f for f in ("results.csv", "results.json", "manifest.json")
               if not (out / f).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    header, rows = _read_csv(out / "results.csv")
    with open(out / "results.json") as fh:
        summary = json.load(fh)
    try:
        problems = _CHECKS[inv.kind](inv.config, header, rows, summary)
    except (KeyError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
    return problems + _nonfinite_numbers(summary, "results.json")
