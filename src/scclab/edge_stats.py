"""Edge fluctuation experiments: rescaled top eigenvalues vs a GOE reference.

The top squared sample canonical correlations, recentered at the upper
support edge and rescaled by

    n**(2/3) (lambda_k - lambda_plus) / c_tw,

converge jointly to the law of the correspondingly rescaled top GOE
eigenvalues n**(2/3) (mu_k - 2).  The experiments here sample both sides
by Monte Carlo and compare them with a two-sample Kolmogorov-Smirnov
statistic, and verify eigenvalue rigidity by fitting the n-decay of
|lambda_j - gamma_j| at a fixed index j and at the edge.

The GOE reference is drawn from the symmetric tridiagonal reduction of
the Gaussian orthogonal ensemble (Gaussian diagonal, chi-distributed
off-diagonal with decreasing degrees of freedom), which has exactly the
GOE eigenvalue law at every n but costs O(n) memory per draw; it is
validated against a dense GOE eigensolve in the test suite.

Both drivers take the one ExperimentConfig and check it with its
validator before sampling.  Trials are keyed by (experiment seed, trial
index), so a run can be split or merged and still produce identical
output; failed trials are resampled on a derived key and counted, and a
failure rate above one percent aborts the experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .config import ExperimentConfig, validate
from .errors import NumericalError, ParameterError, ScclabError
from .sampler import (
    LAWS,
    DataPair,
    sample_bounded,
    sample_gaussian,
    sample_heavy_tail,
    truncate_center_rescale,
)
from .scc_core import SpectrumResult, ccc_eigenvalues, rigidity_profile
from .spectral_model import SpectralModel, classical_locations

__all__ = [
    "EdgeSamples",
    "ExperimentReport",
    "sample_pair",
    "tw_rescale",
    "goe_reference",
    "ks_two_sample",
    "derived_seed",
    "run_edge_trials",
    "tw_experiment",
    "rigidity_experiment",
]

_MAX_RETRIES = 50
_FAILURE_BUDGET = 0.01
_UPPER_TAIL_CUT = 3.0


def sample_pair(law: str, p: int, q: int, n: int, seed: int,
                beta: float | None = None, c_phi: float | None = None) -> DataPair:
    """Dispatch to the named sampler, optionally applying the truncation pipeline."""
    if law == "gaussian":
        pair = sample_gaussian(p, q, n, seed)
    elif law in ("rademacher", "uniform"):
        pair = sample_bounded(p, q, n, seed, law=law)
    elif law == "pareto":
        if beta is None:
            raise ParameterError("law 'pareto' requires a tail exponent beta")
        pair = sample_heavy_tail(p, q, n, seed, beta)
    else:
        raise ParameterError(f"unknown law {law!r}; choose from {LAWS}")
    if c_phi is not None:
        pair = truncate_center_rescale(pair, c_phi)
    return pair


def tw_rescale(result: SpectrumResult, model: SpectralModel, k_max: int = 3) -> np.ndarray:
    """Edge-rescaled top eigenvalues n**(2/3) (lambda_k - lambda_plus) / c_tw."""
    if not (1 <= k_max <= result.q):
        raise ParameterError(f"k_max must lie in [1, q], got {k_max} with q={result.q}")
    lam = result.eigenvalues[:k_max]
    return result.n ** (2.0 / 3.0) * (lam - model.lambda_plus) / model.c_tw


@dataclass(eq=False)
class EdgeSamples:
    """Rescaled edge statistics, one row per trial, one column per k.

    min_eig_xx and min_eig_yy are the smallest Gram-block eigenvalues over
    the accepted spectra (infinite when no spectrum was taken).
    """

    values: np.ndarray
    n: int
    k_max: int
    law: str
    seed: int
    failures: int = 0
    min_eig_xx: float = math.inf
    min_eig_yy: float = math.inf

    @property
    def trials(self) -> int:
        return self.values.shape[0]


def derived_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def _goe_top(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Top k eigenvalues of an edge-at-2 GOE matrix via its tridiagonal form."""
    diag = rng.standard_normal(n) * math.sqrt(2.0)
    off = np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1)))
    w = eigvalsh_tridiagonal(diag, off, select="i", select_range=(n - k, n - 1))
    return w[::-1] / math.sqrt(n)


def goe_reference(n_goe: int, trials: int, k_max: int = 3, seed: int = 0) -> EdgeSamples:
    """Monte Carlo reference sample of rescaled top GOE eigenvalues."""
    if n_goe < k_max + 1:
        raise ParameterError(f"n_goe = {n_goe} too small for k_max = {k_max}")
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    values = []
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(2, trial))))
        values.append(n_goe ** (2.0 / 3.0) * (_goe_top(n_goe, k_max, rng) - 2.0))
    return EdgeSamples(values=np.array(values), n=n_goe, k_max=k_max,
                       law="goe", seed=seed, failures=0)


def ks_two_sample(a, b) -> float:
    """Classical two-sample Kolmogorov-Smirnov statistic via a merged sort."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ParameterError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@dataclass(eq=False)
class ExperimentReport:
    """Aggregated Monte Carlo output with full reproducibility metadata.

    checks holds the conditioning of the accepted spectra
    (min_eig_xx_min, min_eig_yy_min); it describes the computation rather
    than the result, so to_json_dict leaves it out.
    """

    kind: str
    params: dict
    metrics: dict
    csv_header: tuple
    csv_rows: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params, "metrics": self.metrics}


def _require_valid(config: ExperimentConfig, kind: str) -> None:
    if config.kind != kind:
        raise ParameterError(f"expected a {kind!r} config, got kind {config.kind!r}")
    violations = validate(config)
    if violations:
        raise ParameterError("; ".join(violations))


def _resampled_spectrum(config: ExperimentConfig, n: int,
                        *key: int) -> tuple[SpectrumResult, int]:
    """Spectrum of one trial at size n, and the number of failed attempts before it.

    Attempt r samples the pair seeded by (seed, *key, r), so a trial's
    spectrum depends only on its key.  A failed spectrum is resampled;
    _MAX_RETRIES failures in a row abort the run.
    """
    p, q = config.dims(n)
    for retry in range(_MAX_RETRIES):
        pair = sample_pair(config.law, p, q, n, derived_seed(config.seed, *key, retry),
                           beta=config.beta, c_phi=config.c_phi)
        try:
            return ccc_eigenvalues(pair), retry
        except ScclabError:
            continue
    raise NumericalError(f"trial {key[-1]} failed {_MAX_RETRIES} resampling attempts")


def run_edge_trials(config: ExperimentConfig, indices) -> EdgeSamples:
    """Edge statistics for an explicit set of trial indices.

    Per-trial seeds depend only on (experiment seed, trial index, retry),
    so splitting the index range across calls and concatenating the rows
    in index order reproduces a single full run exactly.
    """
    _require_valid(config, "tw-edge")
    model = config.model()
    values, failures = [], 0
    min_xx = min_yy = math.inf
    for trial in indices:
        result, retries = _resampled_spectrum(config, config.n, 1, trial)
        values.append(tw_rescale(result, model, config.k_max))
        failures += retries
        min_xx, min_yy = min(min_xx, result.min_eig_xx), min(min_yy, result.min_eig_yy)
    return EdgeSamples(values=np.array(values), n=config.n, k_max=config.k_max,
                       law=config.law, seed=config.seed, failures=failures,
                       min_eig_xx=min_xx, min_eig_yy=min_yy)


def _check_failure_budget(failures: int, trials: int) -> None:
    if failures > _FAILURE_BUDGET * trials:
        raise NumericalError(
            f"{failures} failed trials out of {trials} exceeds the "
            f"{_FAILURE_BUDGET:.0%} budget",
            achieved=failures / trials,
        )


def tw_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the edge experiment and compare against the GOE reference.

    Emits per-k means, variances, and KS statistics, plus a descriptive
    upper-tail-mass comparison of the top-1 statistic (heavy-tailed input
    below the fourth-moment condition tends to overshoot the edge).
    """
    ccc = run_edge_trials(config, range(config.trials))     # validates the config
    _check_failure_budget(ccc.failures, config.trials)
    n_goe = config.n_goe if config.n_goe is not None else config.n
    goe = goe_reference(n_goe, config.trials, config.k_max, config.seed)

    ks = [ks_two_sample(ccc.values[:, k], goe.values[:, k]) for k in range(config.k_max)]
    tail_ccc = float(np.mean(ccc.values[:, 0] > _UPPER_TAIL_CUT))
    tail_goe = float(np.mean(goe.values[:, 0] > _UPPER_TAIL_CUT))
    tail_sd = math.sqrt(max(tail_goe * (1.0 - tail_goe), 1.0 / config.trials) / config.trials)
    heavy_flag = tail_ccc > tail_goe + 2.0 * tail_sd + 2.0 / config.trials

    model = config.model()
    metrics = {
        "ccc_mean": [float(m) for m in ccc.values.mean(axis=0)],
        "ccc_var": [float(v) for v in ccc.values.var(axis=0, ddof=1)],
        "goe_mean": [float(m) for m in goe.values.mean(axis=0)],
        "goe_var": [float(v) for v in goe.values.var(axis=0, ddof=1)],
        "ks": [float(k) for k in ks],
        "failures": ccc.failures,
        "upper_tail_mass_ccc": tail_ccc,
        "upper_tail_mass_goe": tail_goe,
        "heavy_upper_tail": bool(heavy_flag),
        "lambda_plus": model.lambda_plus,
        "c_tw": model.c_tw,
    }
    p, q = config.dims()
    params = {
        "n": config.n, "p": p, "q": q, "c1": config.c1, "c2": config.c2,
        "law": config.law, "beta": config.beta, "c_phi": config.c_phi,
        "trials": config.trials, "k_max": config.k_max, "seed": config.seed,
        "n_goe": n_goe,
    }
    rows = []
    for t in range(config.trials):
        for k in range(config.k_max):
            rows.append(("ccc", t, k + 1, repr(float(ccc.values[t, k]))))
    for t in range(config.trials):
        for k in range(config.k_max):
            rows.append(("goe", t, k + 1, repr(float(goe.values[t, k]))))
    return ExperimentReport(
        kind="tw-edge", params=params, metrics=metrics,
        csv_header=("source", "trial", "k", "value"), csv_rows=rows,
        checks={"min_eig_xx_min": ccc.min_eig_xx, "min_eig_yy_min": ccc.min_eig_yy},
    )


def rigidity_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Fit the n-decay of eigenvalue deviations from their classical locations.

    The sweep runs n = n0 * factors.  Two deviations are tracked: the
    edge gap |lambda_1 - lambda_plus| and the gap at one fixed eigenvalue
    index j* = q(n0)/2, whose predicted decay is n**(-2/3) at fixed j.
    (At the index q(n)/2 that grows with n the predicted decay is
    faster, n**(-1) up to logarithms, so the fixed index is what makes
    the edge exponent identifiable across the sweep.)  Medians over
    trials are fitted log-log against n.  Failed spectra are resampled
    and counted; more than one percent of all trials aborts the sweep.
    """
    _require_valid(config, "rigidity-scaling")
    ns = [config.n0 * f for f in config.factors]
    j_star = max(1, config.dims(config.n0)[1] // 2)

    bulk_median, edge_median, profile_p95 = [], [], []
    rows = []
    failures = 0
    min_xx = min_yy = math.inf
    for i_n, n in enumerate(ns):
        model = config.model(n)
        gamma = classical_locations(model, config.dims(n)[1])
        bulk, edge, prof = [], [], []
        for trial in range(config.trials):
            result, retries = _resampled_spectrum(config, n, 3, i_n, trial)
            failures += retries
            min_xx, min_yy = min(min_xx, result.min_eig_xx), min(min_yy, result.min_eig_yy)
            bulk.append(abs(result.eigenvalues[j_star - 1] - gamma[j_star - 1]))
            edge.append(abs(result.eigenvalues[0] - model.lambda_plus))
            prof.append(float(rigidity_profile(result, model).max()))
        bulk_median.append(float(np.median(bulk)))
        edge_median.append(float(np.median(edge)))
        profile_p95.append(float(np.quantile(prof, 0.95)))
        for t in range(config.trials):
            rows.append((n, t, repr(float(bulk[t])), repr(float(edge[t])), repr(float(prof[t]))))

    _check_failure_budget(failures, config.trials * len(ns))

    log_n = np.log(np.array(ns, dtype=float))
    bulk_slope = float(np.polyfit(log_n, np.log(bulk_median), 1)[0])
    edge_slope = float(np.polyfit(log_n, np.log(edge_median), 1)[0])

    metrics = {
        "ns": ns,
        "fixed_index": j_star,
        "bulk_median": bulk_median,
        "edge_median": edge_median,
        "profile_p95": profile_p95,
        "bulk_exponent": bulk_slope,
        "edge_exponent": edge_slope,
        "failures": failures,
    }
    params = {
        "n0": config.n0, "factors": list(config.factors), "c1": config.c1,
        "c2": config.c2, "law": config.law, "beta": config.beta,
        "c_phi": config.c_phi, "trials": config.trials, "seed": config.seed,
    }
    return ExperimentReport(
        kind="rigidity-scaling", params=params, metrics=metrics,
        csv_header=("n", "trial", "fixed_index_dev", "edge_dev", "profile_max"),
        csv_rows=rows,
        checks={"min_eig_xx_min": min_xx, "min_eig_yy_min": min_yy},
    )
