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
the test suite.  Each trial draws from its own stream, and its top
eigenvalues are found by LAPACK's bisection (_linalg.tridiagonal_top,
dstebz in numpy's OpenBLAS), one trial at a time.  goe_reference
returns them rescaled, as one memoized read-only (trials, k_max) array,
and run_edge_trials the sample side's rows with the TrialLog and the
limit model behind them.

Both drivers take the one ExperimentConfig and check it with its
validator before sampling.  Every Monte Carlo experiment of the
laboratory, the CLI's local-law sweep included, samples its pairs
through one TrialLog.  A trial's pair is keyed by the experiment seed,
a tag of its kind, its trial index (after the size index for rigidity)
and the retry, so a run can be split or merged and still produce
identical output; a pair whose computation fails is resampled on the
next retry and counted.  The one bound on failures is a budget of one
percent of the run's pair-trials: the failure that exceeds it aborts
the experiment at once, and no trial after it is counted.  The
TrialLog also keeps the smallest lower bounds on the Gram-block
eigenvalues over the accepted pairs, the conditioning every Monte Carlo
manifest reports.

TrialLog.map computes a run's trials on every CPU the process may use:
one process per CPU, this one and forked children, every one with BLAS
on one thread, takes the next key from one shared queue whenever it is
free, and the records of every key are folded into the log in key
order.  Since a trial depends only on its key, the output, the failure
count and the budget error are those of one process computing every
trial in turn.  CPU affinity (taskset) is the only control of the
process count.  tw_experiment's GOE reference is one more key of its
trial map, second in the queue, so it is drawn in another process while
the trials run, and goe_reference then reads it from its memo.
rigidity_experiment maps once over every (size, trial) key of its
sweep, and takes its medians and quantile by sorting (_median,
_quantile), since numpy's median and quantile import numpy.ma on first
use.

Both drivers return an ExperimentReport, the one record every CLI runner
returns: the csv header and rows, the results.json payload, and the
checks and process count that go to the manifest only.
"""

from __future__ import annotations

import copy
import fcntl
import itertools
import math
import os
import pickle
import signal
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._linalg import one_blas_thread, tridiagonal_top
from .config import ExperimentConfig, k_max_violations, validate
from .errors import NumericalError, ParameterError, ScclabError, reject
from .sampler import (
    DataPair,
    law_violations,
    sample_bounded,
    sample_gaussian,
    sample_heavy_tail,
    seed_violations,
    truncate_center_rescale,
)
from .scc_core import SpectrumResult, ccc_eigenvalues, rigidity_profile
from .spectral_model import SpectralModel, classical_locations

__all__ = [
    "TrialLog",
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
_GOE_MEMO_SIZE = 8  # GOE references goe_reference keeps


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


def derived_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def _processes() -> int:
    """The number of CPUs this process may run on, one trial process each."""
    return len(os.sched_getaffinity(0))


@dataclass(eq=False)
class TrialLog:
    """The trial policy of a Monte Carlo run: resample, count, budget.

    trials is the run's pair-trial count, which sets the failure budget
    of one percent of it.  failures counts the pairs whose computation
    failed; min_eig_xx_bound and min_eig_yy_bound are the smallest of the
    results' lower bounds on their Gram-block eigenvalues (infinite before
    the first accepted result).
    processes is the largest number of processes a map of this log used.
    map's processes compute its keys on their copies of this log and
    fold their records into it.
    """

    config: ExperimentConfig
    trials: int
    failures: int = 0
    min_eig_xx_bound: float = math.inf
    min_eig_yy_bound: float = math.inf
    processes: int = 1

    def draw(self, compute: Callable, n: int, *key: int):
        """The first compute(pair) that succeeds on the trial keyed by key.

        Attempt r samples the pair of size n seeded by (seed, *key, r), so
        a trial's result depends only on its key.  A ScclabError from
        compute counts as a failure and resamples; the failure that takes
        failures past one percent of trials aborts the run with a
        NumericalError, so a run tries at most floor(0.01 trials) + 1
        failed pairs.  The result, a SpectrumResult or a CanonicalFactor,
        must carry min_eig_xx_bound and min_eig_yy_bound.
        """
        config = self.config
        p, q = config.dims(n)
        for retry in itertools.count():
            pair = sample_pair(config.law, p, q, n, derived_seed(config.seed, *key, retry),
                               beta=config.beta, c_phi=config.c_phi)
            try:
                result = compute(pair)
            except ScclabError:
                self._fail()
                continue
            self.min_eig_xx_bound = min(self.min_eig_xx_bound, result.min_eig_xx_bound)
            self.min_eig_yy_bound = min(self.min_eig_yy_bound, result.min_eig_yy_bound)
            return result

    def _fail(self) -> None:
        """Count a failed pair; the one that takes failures past the budget raises."""
        self.failures += 1
        if self.failures > _FAILURE_BUDGET * self.trials:
            raise NumericalError(
                f"{self.failures} failed trials out of {self.trials} exceeds the "
                f"{_FAILURE_BUDGET:.0%} budget",
                achieved=self.failures / self.trials,
            )

    def checks(self) -> dict:
        """The conditioning minima over the accepted results."""
        return {"min_eig_xx_bound_min": self.min_eig_xx_bound,
                "min_eig_yy_bound_min": self.min_eig_yy_bound}

    def map(self, work: Callable, keys) -> list:
        """[work(log, key) for key in keys], on every CPU this process may use.

        work computes the trial keyed by key and draws its pairs from log.
        One process per CPU (os.sched_getaffinity) takes the keys from one
        shared queue (_KeyQueue), the next key whenever it is free: this
        process takes the first key before it forks the others, each
        process computes on its own copy of this log, and every process
        runs with BLAS on one thread; where no OpenBLAS is found to pin,
        every key is computed here.  A key whose work raises drains the
        queue, so no process starts another.  numpy.random is imported
        before the fork, so the children inherit it instead of each
        importing it on its first key.  Each process records, per
        key, its result, its failures, the conditioning minima and the
        error it raised; the forked children send theirs back pickled.
        The records are then folded into this log in key order: the fold
        counts a key's failures before it takes the key's result, and an
        error a key raised is raised again when the fold reaches it.  So
        the results, failures, minima and errors, the budget error at the
        same failure included, are those of computing every key here in
        turn.  No child outlives the call.
        """
        keys = list(keys)
        import numpy.random  # noqa: F401  (not at module level, where every import would pay it)
        with one_blas_thread() as pinned, _KeyQueue(len(keys)) as queue:
            count = max(1, min(_processes(), len(keys))) if pinned else 1
            first = queue.take()        # the first key is computed here
            children = []       # (pid, read end of its pipe), in fork order
            try:
                for _ in range(count - 1):
                    children.append(self._fork(work, keys, queue, children))
                records = copy.copy(self)._take(work, keys, queue, first)
                results = self._fold(records, children, len(keys))
            finally:
                for pid, pipe in children:
                    os.close(pipe)
                    os.kill(pid, signal.SIGKILL)    # no-op on a child that has exited
                    os.waitpid(pid, 0)
        self.processes = max(self.processes, count)
        return results

    def _take(self, work: Callable, keys: list, queue: _KeyQueue, index: int | None,
              parent: int | None = None) -> dict:
        """Compute keys[index], then each key taken from queue, on this log.

        Returns {index: (result, failures, min_eig_xx_bound,
        min_eig_yy_bound, error)}, the minima as this log holds them after
        the key.  A key whose work raises drains the queue.  A forked
        child passes the pid of its parent, and stops with status 1
        before its next key once that is no longer its parent.
        """
        records = {}
        while index is not None:
            if parent is not None and os.getppid() != parent:
                os._exit(1)
            before, error, result = self.failures, None, None
            try:
                result = work(self, keys[index])
            except Exception as exc:        # raised again where the fold reaches this key
                error = exc
                queue.drain()
            records[index] = (result, self.failures - before,
                              self.min_eig_xx_bound, self.min_eig_yy_bound, error)
            index = queue.take()
        return records

    def _fork(self, work: Callable, keys: list, queue: _KeyQueue,
              siblings: list) -> tuple[int, int]:
        """Take keys from queue in a forked child; (its pid, the read end of its pipe).

        The child writes its pickled records to the pipe and exits with
        status 0; one that cannot, exits with status 1 and writes nothing.
        """
        parent = os.getpid()
        read, write = os.pipe()
        pid = os.fork()
        if pid:
            os.close(write)
            return pid, read
        status = 1
        try:
            os.close(read)
            for _, pipe in siblings:
                os.close(pipe)
            data = pickle.dumps(self._take(work, keys, queue, queue.take(), parent))
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)

    def _fold(self, records: dict, children: list, size: int) -> list:
        """Fold the records of keys 0 .. size - 1 into this log, in key order; the results.

        A child's records are read when the fold reaches a key that no
        record read so far holds, so an error is raised without waiting
        for a child whose keys all lie after it.
        """
        unread, results = iter(children), []
        for index in range(size):
            while index not in records:
                pid, pipe = next(unread)    # every key before an error was taken
                with open(pipe, "rb", closefd=False) as reader:
                    data = reader.read()
                if not data:
                    raise RuntimeError(f"trial process {pid} ended without its results")
                records.update(pickle.loads(data))
            result, failed, min_eig_xx_bound, min_eig_yy_bound, error = records[index]
            for _ in range(failed):
                self._fail()
            if error is not None:
                raise error
            results.append(result)
            self.min_eig_xx_bound = min(self.min_eig_xx_bound, min_eig_xx_bound)
            self.min_eig_yy_bound = min(self.min_eig_yy_bound, min_eig_yy_bound)
        return results


class _KeyQueue:
    """The index of the next key of a map, shared by its forked processes.

    The index is 8 bytes of an anonymous file in the temporary directory
    (tempfile.TemporaryFile) that the children inherit, read and
    advanced under a POSIX record lock (lockf), which excludes the other
    processes, so no index is handed out twice; the file has no size to
    fill.  It is not a Linux memfd because every map opens the queue,
    the serial map of a host without memfd_create too.
    """

    def __init__(self, size: int):
        self.size = size
        self.file = tempfile.TemporaryFile(buffering=0)
        self.fd = self.file.fileno()

    def __enter__(self) -> _KeyQueue:
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()

    def take(self) -> int | None:
        """The next index, or None once every index is taken or the queue drained."""
        return self._advance(False)

    def drain(self) -> None:
        """Take every index left, so no process starts another key."""
        self._advance(True)

    def _advance(self, to_end: bool) -> int | None:
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            index = int.from_bytes(os.pread(self.fd, 8, 0), "little")   # 0 in the new file
            following = self.size if to_end else min(index + 1, self.size)
            os.pwrite(self.fd, following.to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)
        return index if index < self.size else None


def _goe_values(n_goe: int, trials: int, k_max: int, seed: int) -> np.ndarray:
    """Rescaled top k_max eigenvalues of edge-at-2 GOE matrices, one row per trial."""
    values = np.empty((trials, k_max))
    dof = np.arange(n_goe - 1, 0, -1)
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(2, trial))))
        diag = rng.standard_normal(n_goe) * math.sqrt(2.0)
        off = np.sqrt(rng.chisquare(dof))
        top = tridiagonal_top(diag[None], off[None], k_max)[0]
        values[trial] = n_goe ** (2.0 / 3.0) * (top / math.sqrt(n_goe) - 2.0)
    return values


_GOE_MEMO: dict = {}    # (n_goe, trials, k_max, seed) -> read-only values, the last 8 drawn


def _remember_goe(key: tuple, values: np.ndarray) -> None:
    values.setflags(write=False)
    _GOE_MEMO[key] = values
    if len(_GOE_MEMO) > _GOE_MEMO_SIZE:
        del _GOE_MEMO[next(iter(_GOE_MEMO))]


def goe_size_violations(n_goe: int, k_max: int) -> list[str]:
    """The violated GOE reference edge-depth constraint 1 <= k_max < n_goe, if any."""
    return [] if 1 <= k_max < n_goe else [
        f"k_max must lie in [1, n_goe - 1 = {n_goe - 1}], got {k_max}"]


def goe_reference(n_goe: int, trials: int, k_max: int = 3, seed: int = 0) -> np.ndarray:
    """Monte Carlo reference sample of rescaled top GOE eigenvalues.

    One row per trial, one column per k.  The draws are memoized on
    (n_goe, trials, k_max, seed), the last eight drawn: every call
    returns the one read-only array drawn for those arguments.
    run_edge_trials draws a tw-edge run's reference beside its trials
    into the same memo, so the call that follows it draws nothing.
    """
    reject(goe_size_violations(n_goe, k_max) + seed_violations(seed))
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    key = (n_goe, trials, k_max, seed)
    if key not in _GOE_MEMO:
        _remember_goe(key, _goe_values(*key))
    return _GOE_MEMO[key]


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
    """The output of one experiment run, as the CLI writes it.

    csv_header and csv_rows make results.csv and results is the exact
    results.json payload.  checks (self-check residuals, conditioning)
    and processes (the number of processes that computed a Monte Carlo
    run's trials) describe the computation rather than the result, so
    they go to the manifest only; None leaves them out of it.
    """

    csv_header: tuple
    csv_rows: list
    results: dict
    checks: dict | None = None
    processes: int | None = None


def _require_valid(config: ExperimentConfig, kind: str) -> None:
    if config.kind != kind:
        raise ParameterError(f"expected a {kind!r} config, got kind {config.kind!r}")
    reject(validate(config))


def run_edge_trials(config: ExperimentConfig,
                    indices) -> tuple[np.ndarray, TrialLog, SpectralModel]:
    """(rows, log, model): edge statistics for an explicit set of trial indices.

    rows holds the rescaled top k_max eigenvalues, one row per index, log
    is the TrialLog that sampled them and model the config's limit model,
    whose lambda_plus and c_tw rescaled them, built once per call.
    Per-trial seeds depend only on (experiment seed, trial index, retry),
    so splitting the index range across calls and concatenating the rows
    in index order reproduces a single full run exactly.  The failure
    budget is one percent of config.trials whatever the indices, so a
    partial run stops only where the full run, whose failures include
    the partial run's, would also stop.  Where goe_reference has not
    memoized the run's GOE reference (n, trials, k_max and seed of the
    config), it is drawn into that memo as one more key of the trial
    map, second in the queue, so another process draws it while the
    trials run.
    """
    _require_valid(config, "tw-edge")
    model = config.model()
    log = TrialLog(config, config.trials)
    reference = (config.n, config.trials, config.k_max, config.seed)

    def rescaled(log, trial):
        if trial is None:       # the key of the GOE reference
            return _goe_values(*reference)
        return tw_rescale(log.draw(ccc_eigenvalues, config.n, 1, trial), model, config.k_max)

    keys = list(indices)
    drawn = reference not in _GOE_MEMO
    if drawn:
        keys.insert(1, None)        # second: another process takes it while this one takes key 0
    values = log.map(rescaled, keys)
    if drawn:
        _remember_goe(reference, values.pop(keys.index(None)))
    return np.array(values), log, model


def tw_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the edge experiment and compare against the GOE reference.

    Emits per-k means, variances, and KS statistics, plus a descriptive
    upper-tail-mass comparison of the top-1 statistic (heavy-tailed input
    below the fourth-moment condition tends to overshoot the edge).
    """
    ccc, log, model = run_edge_trials(config, range(config.trials))     # validates the config
    goe = goe_reference(config.n, config.trials, config.k_max, config.seed)

    ks = [ks_two_sample(ccc[:, k], goe[:, k]) for k in range(config.k_max)]
    tail_ccc = float(np.mean(ccc[:, 0] > _UPPER_TAIL_CUT))
    tail_goe = float(np.mean(goe[:, 0] > _UPPER_TAIL_CUT))
    tail_sd = math.sqrt(max(tail_goe * (1.0 - tail_goe), 1.0 / config.trials) / config.trials)
    heavy_flag = tail_ccc > tail_goe + 2.0 * tail_sd + 2.0 / config.trials

    metrics = {
        "ccc_mean": [float(m) for m in ccc.mean(axis=0)],
        "ccc_var": [float(v) for v in ccc.var(axis=0, ddof=1)],
        "goe_mean": [float(m) for m in goe.mean(axis=0)],
        "goe_var": [float(v) for v in goe.var(axis=0, ddof=1)],
        "ks": [float(k) for k in ks],
        "failures": log.failures,
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
        "n_goe": config.n,
    }
    rows = []
    for t in range(config.trials):
        for k in range(config.k_max):
            rows.append(("ccc", t, k + 1, repr(float(ccc[t, k]))))
    for t in range(config.trials):
        for k in range(config.k_max):
            rows.append(("goe", t, k + 1, repr(float(goe[t, k]))))
    results = {"kind": "tw-edge", "params": params, "metrics": metrics}
    return ExperimentReport(("source", "trial", "k", "value"), rows, results,
                            log.checks(), log.processes)


def _median(values) -> float:
    """np.median of values, bit for bit but for the sign of a zero; NaN if any is NaN."""
    ordered = np.sort(np.asarray(values, dtype=float))
    half = len(ordered) // 2
    if np.isnan(ordered[-1]):       # the sort puts NaNs last
        return float(ordered[-1])
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2.0)


def _quantile(values, q: float) -> float:
    """np.quantile(values, q), linear method, bit for bit but for the sign of a zero.

    As numpy's, it is NaN if any value is NaN.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    position = (len(ordered) - 1) * q
    below = math.floor(position)
    if np.isnan(ordered[-1]) or below >= len(ordered) - 1:
        return float(ordered[-1])
    gamma = position - below
    lower, upper = float(ordered[below]), float(ordered[below + 1])
    step = upper - lower
    return upper - step * (1.0 - gamma) if gamma >= 0.5 else lower + step * gamma


def rigidity_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Fit the n-decay of eigenvalue deviations from their classical locations.

    The sweep runs n = n0 * factors.  Two deviations are tracked: the
    edge gap |lambda_1 - lambda_plus| and the gap at one fixed eigenvalue
    index j* = q(n0)/2, whose predicted decay is n**(-2/3) at fixed j.
    (At the index q(n)/2 that grows with n the predicted decay is
    faster, n**(-1) up to logarithms, so the fixed index is what makes
    the edge exponent identifiable across the sweep.)  Medians over
    trials are fitted log-log against n.  Every size's model and
    classical locations are computed first, so the forked trial
    processes inherit them, and one trial map then covers the keys
    (size index, trial), size by size.  Failed spectra are resampled and
    counted; the failure that takes them past one percent of all trials
    aborts the sweep.
    """
    _require_valid(config, "rigidity-scaling")
    ns = [config.n0 * f for f in config.factors]
    j_star = max(1, config.dims(config.n0)[1] // 2)
    models = [config.model(n) for n in ns]
    gammas = [classical_locations(model, config.dims(n)[1]) for model, n in zip(models, ns)]

    def deviations(log, key):
        i_n, trial = key
        model = models[i_n]
        result = log.draw(ccc_eigenvalues, ns[i_n], 3, i_n, trial)
        return (abs(result.eigenvalues[j_star - 1] - gammas[i_n][j_star - 1]),
                abs(result.eigenvalues[0] - model.lambda_plus),
                float(rigidity_profile(result, model).max()))

    trials = config.trials
    log = TrialLog(config, trials * len(ns))
    swept = log.map(deviations, itertools.product(range(len(ns)), range(trials)))
    bulk_median, edge_median, profile_p95 = [], [], []
    rows = []
    for i_n, n in enumerate(ns):
        bulk, edge, prof = zip(*swept[i_n * trials: (i_n + 1) * trials])
        bulk_median.append(_median(bulk))
        edge_median.append(_median(edge))
        profile_p95.append(_quantile(prof, 0.95))
        for t in range(trials):
            rows.append((n, t, repr(float(bulk[t])), repr(float(edge[t])), repr(float(prof[t]))))

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
    results = {"kind": "rigidity-scaling", "params": params, "metrics": metrics}
    return ExperimentReport(("n", "trial", "fixed_index_dev", "edge_dev", "profile_max"),
                            rows, results, log.checks(), log.processes)
