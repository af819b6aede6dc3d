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
off-diagonal with decreasing degrees of freedom; Dumitriu and Edelman,
2002), which has exactly the GOE eigenvalue law at every n but costs
O(n) memory per draw; it is validated against a dense GOE eigensolve in
the test suite.  Each trial draws from its own stream; the tridiagonals
of _GOE_BLOCK trials at a time are solved together by numpy Sturm-count
multisection (_linalg.tridiagonal_top), which agrees with LAPACK's
bisection to a few ulps and keeps scipy.linalg off the import path.

Both drivers take the one ExperimentConfig and check it with its
validator before sampling.  Every Monte Carlo experiment of the
laboratory, the CLI's local-law sweep included, samples its pairs
through one TrialLog.  A trial's pair is keyed by the experiment seed,
a tag of its kind, its trial index (after the size index for rigidity)
and the retry, so a run can be split or merged and still produce
identical output; a pair whose computation fails is resampled on the
next retry and counted.  The one bound on failures is a budget of one
percent of the run's pair-trials: the failure that exceeds it aborts
the experiment at once, and no trial after it is computed.  The
TrialLog also keeps the smallest Gram-block eigenvalues over the
accepted pairs, the conditioning every Monte Carlo manifest reports.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._linalg import tridiagonal_top
from .config import ExperimentConfig, k_max_violations, validate
from .errors import NumericalError, ParameterError, ScclabError, reject
from .sampler import (
    DataPair,
    law_violations,
    sample_bounded,
    sample_gaussian,
    sample_heavy_tail,
    truncate_center_rescale,
)
from .scc_core import SpectrumResult, ccc_eigenvalues, rigidity_profile
from .spectral_model import SpectralModel, classical_locations

__all__ = [
    "TrialLog",
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

_FAILURE_BUDGET = 0.01
_UPPER_TAIL_CUT = 3.0
_GOE_BLOCK = 256    # trials whose tridiagonals are solved in one batch


def sample_pair(law: str, p: int, q: int, n: int, seed: int,
                beta: float | None = None, c_phi: float | None = None) -> DataPair:
    """Dispatch to the named sampler, optionally applying the truncation pipeline."""
    reject(law_violations(law, beta))
    if law == "gaussian":
        pair = sample_gaussian(p, q, n, seed)
    elif law == "pareto":
        pair = sample_heavy_tail(p, q, n, seed, beta)
    else:
        pair = sample_bounded(p, q, n, seed, law=law)
    if c_phi is not None:
        pair = truncate_center_rescale(pair, c_phi)
    return pair


def tw_rescale(result: SpectrumResult, model: SpectralModel, k_max: int = 3) -> np.ndarray:
    """Edge-rescaled top eigenvalues n**(2/3) (lambda_k - lambda_plus) / c_tw.

    k_max is checked against the min(p, q) values the spectrum holds.
    """
    reject(k_max_violations(k_max, len(result.eigenvalues)))
    lam = result.eigenvalues[:k_max]
    return result.n ** (2.0 / 3.0) * (lam - model.lambda_plus) / model.c_tw


@dataclass(eq=False)
class EdgeSamples:
    """Rescaled edge statistics, one row per trial, one column per k.

    trials is the TrialLog that sampled the rows and model the limit
    model whose lambda_plus and c_tw rescaled them; both are None for the
    GOE reference.
    """

    values: np.ndarray
    trials: TrialLog | None = None
    model: SpectralModel | None = None


def derived_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(eq=False)
class TrialLog:
    """The trial policy of a Monte Carlo run: resample, count, budget.

    trials is the run's pair-trial count, which sets the failure budget
    of one percent of it.  failures counts the pairs whose computation
    failed; min_eig_xx and min_eig_yy are the smallest Gram-block
    eigenvalues over the accepted results (infinite before the first).
    """

    config: ExperimentConfig
    trials: int
    failures: int = 0
    min_eig_xx: float = math.inf
    min_eig_yy: float = math.inf

    def draw(self, compute: Callable, n: int, *key: int):
        """The first compute(pair) that succeeds on the trial keyed by key.

        Attempt r samples the pair of size n seeded by (seed, *key, r), so
        a trial's result depends only on its key.  A ScclabError from
        compute counts as a failure and resamples; the failure that takes
        failures past one percent of trials aborts the run with a
        NumericalError, so a run tries at most floor(0.01 trials) + 1
        failed pairs.  The result, a SpectrumResult or a CanonicalFactor,
        must carry min_eig_xx and min_eig_yy.
        """
        config = self.config
        p, q = config.dims(n)
        for retry in itertools.count():
            pair = sample_pair(config.law, p, q, n, derived_seed(config.seed, *key, retry),
                               beta=config.beta, c_phi=config.c_phi)
            try:
                result = compute(pair)
            except ScclabError:
                self.failures += 1
                if self.failures > _FAILURE_BUDGET * self.trials:
                    raise NumericalError(
                        f"{self.failures} failed trials out of {self.trials} exceeds the "
                        f"{_FAILURE_BUDGET:.0%} budget",
                        achieved=self.failures / self.trials,
                    )
                continue
            self.min_eig_xx = min(self.min_eig_xx, result.min_eig_xx)
            self.min_eig_yy = min(self.min_eig_yy, result.min_eig_yy)
            return result

    def checks(self) -> dict:
        """The conditioning minima over the accepted results."""
        return {"min_eig_xx_min": self.min_eig_xx, "min_eig_yy_min": self.min_eig_yy}


@functools.lru_cache(maxsize=8)
def _goe_values(n_goe: int, trials: int, k_max: int, seed: int) -> np.ndarray:
    """Rescaled top k_max eigenvalues of edge-at-2 GOE matrices, one row per trial."""
    values = np.empty((trials, k_max))
    diag = np.empty((min(trials, _GOE_BLOCK), n_goe))
    off = np.empty((min(trials, _GOE_BLOCK), n_goe - 1))
    dof = np.arange(n_goe - 1, 0, -1)
    for start in range(0, trials, _GOE_BLOCK):
        block = range(start, min(start + _GOE_BLOCK, trials))
        for row, trial in enumerate(block):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(2, trial))))
            diag[row] = rng.standard_normal(n_goe) * math.sqrt(2.0)
            off[row] = np.sqrt(rng.chisquare(dof))
        top = tridiagonal_top(diag[: len(block)], off[: len(block)], k_max)
        values[block.start: block.stop] = n_goe ** (2.0 / 3.0) * (top / math.sqrt(n_goe) - 2.0)
    values.setflags(write=False)
    return values


def goe_size_violations(n_goe: int, k_max: int) -> list[str]:
    """The violated GOE reference size constraint n_goe >= k_max + 1, if any."""
    return [] if n_goe >= k_max + 1 else [f"n_goe = {n_goe} too small for k_max = {k_max}"]


def goe_reference(n_goe: int, trials: int, k_max: int = 3, seed: int = 0) -> EdgeSamples:
    """Monte Carlo reference sample of rescaled top GOE eigenvalues.

    The draws are memoized on (n_goe, trials, k_max, seed): every call
    returns a fresh EdgeSamples whose values are the one read-only array
    drawn for those arguments.
    """
    reject(goe_size_violations(n_goe, k_max))
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    return EdgeSamples(values=_goe_values(n_goe, trials, k_max, seed))


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
    reject(validate(config))


def run_edge_trials(config: ExperimentConfig, indices) -> EdgeSamples:
    """Edge statistics for an explicit set of trial indices.

    Per-trial seeds depend only on (experiment seed, trial index, retry),
    so splitting the index range across calls and concatenating the rows
    in index order reproduces a single full run exactly.  The failure
    budget is one percent of config.trials whatever the indices, so a
    partial run stops only where the full run, whose failures include
    the partial run's, would also stop.
    """
    _require_valid(config, "tw-edge")
    model = config.model()
    log = TrialLog(config, config.trials)
    values = [tw_rescale(log.draw(ccc_eigenvalues, config.n, 1, trial), model, config.k_max)
              for trial in indices]
    return EdgeSamples(values=np.array(values), trials=log, model=model)


def tw_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the edge experiment and compare against the GOE reference.

    Emits per-k means, variances, and KS statistics, plus a descriptive
    upper-tail-mass comparison of the top-1 statistic (heavy-tailed input
    below the fourth-moment condition tends to overshoot the edge).
    """
    ccc = run_edge_trials(config, range(config.trials))     # validates the config
    checks = ccc.trials.checks()
    goe = goe_reference(config.n, config.trials, config.k_max, config.seed)

    ks = [ks_two_sample(ccc.values[:, k], goe.values[:, k]) for k in range(config.k_max)]
    tail_ccc = float(np.mean(ccc.values[:, 0] > _UPPER_TAIL_CUT))
    tail_goe = float(np.mean(goe.values[:, 0] > _UPPER_TAIL_CUT))
    tail_sd = math.sqrt(max(tail_goe * (1.0 - tail_goe), 1.0 / config.trials) / config.trials)
    heavy_flag = tail_ccc > tail_goe + 2.0 * tail_sd + 2.0 / config.trials

    metrics = {
        "ccc_mean": [float(m) for m in ccc.values.mean(axis=0)],
        "ccc_var": [float(v) for v in ccc.values.var(axis=0, ddof=1)],
        "goe_mean": [float(m) for m in goe.values.mean(axis=0)],
        "goe_var": [float(v) for v in goe.values.var(axis=0, ddof=1)],
        "ks": [float(k) for k in ks],
        "failures": ccc.trials.failures,
        "upper_tail_mass_ccc": tail_ccc,
        "upper_tail_mass_goe": tail_goe,
        "heavy_upper_tail": bool(heavy_flag),
        "lambda_plus": ccc.model.lambda_plus,
        "c_tw": ccc.model.c_tw,
    }
    p, q = config.dims()
    params = {
        "n": config.n, "p": p, "q": q, "c1": config.c1, "c2": config.c2,
        "law": config.law, "beta": config.beta, "c_phi": config.c_phi,
        "trials": config.trials, "k_max": config.k_max, "seed": config.seed,
        "n_goe": config.n,
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
        checks=checks,
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
    and counted; the failure that takes them past one percent of all
    trials aborts the sweep.
    """
    _require_valid(config, "rigidity-scaling")
    ns = [config.n0 * f for f in config.factors]
    j_star = max(1, config.dims(config.n0)[1] // 2)

    bulk_median, edge_median, profile_p95 = [], [], []
    rows = []
    log = TrialLog(config, config.trials * len(config.factors))
    for i_n, n in enumerate(ns):
        model = config.model(n)
        gamma = classical_locations(model, config.dims(n)[1])
        bulk, edge, prof = [], [], []
        for trial in range(config.trials):
            result = log.draw(ccc_eigenvalues, n, 3, i_n, trial)
            bulk.append(abs(result.eigenvalues[j_star - 1] - gamma[j_star - 1]))
            edge.append(abs(result.eigenvalues[0] - model.lambda_plus))
            prof.append(float(rigidity_profile(result, model).max()))
        bulk_median.append(float(np.median(bulk)))
        edge_median.append(float(np.median(edge)))
        profile_p95.append(float(np.quantile(prof, 0.95)))
        for t in range(config.trials):
            rows.append((n, t, repr(float(bulk[t])), repr(float(edge[t])), repr(float(prof[t]))))

    checks = log.checks()

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
        "failures": log.failures,
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
        checks=checks,
    )
