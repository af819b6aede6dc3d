"""Edge statistics: rescaling, GOE reference, KS machinery, experiments."""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from scclab import _linalg, edge_stats
from scclab import config as config_module
from scclab import (
    DomainError,
    ExperimentConfig,
    NumericalError,
    ParameterError,
    SpectrumResult,
    TrialLog,
    ccc_eigenvalues,
    derived_seed,
    goe_reference,
    ks_two_sample,
    make_model,
    run_edge_trials,
    rigidity_experiment,
    sample_gaussian,
    sample_pair,
    tw_experiment,
    tw_rescale,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _result(eigs, n):
    eigs = np.asarray(eigs, dtype=float)
    return SpectrumResult(eigenvalues=eigs, p=2 * len(eigs), q=len(eigs), n=n,
                          min_eig_xx_bound=1.0, min_eig_yy_bound=1.0)


class TestRescale:
    def test_hand_values(self, model_thin):
        # an eigenvalue exactly at the edge maps to 0; one displaced by
        # c_tw n^(-2/3) maps to 1
        n = 64
        lp, ctw = model_thin.lambda_plus, model_thin.c_tw
        res = _result([lp + ctw * n ** (-2 / 3), lp, 0.1], n)
        out = tw_rescale(res, model_thin, k_max=3)
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)
        assert out[2] < 0.0

    def test_k_max_validation(self, model_thin):
        res = _result([0.5, 0.4], 50)
        with pytest.raises(ParameterError):
            tw_rescale(res, model_thin, k_max=3)
        with pytest.raises(ParameterError):
            tw_rescale(res, model_thin, k_max=0)

    def test_k_max_checked_against_the_spectrum(self, model_thin):
        # with p < q the spectrum holds p values, so k_max is bounded by p
        res = ccc_eigenvalues(sample_gaussian(6, 10, 40, seed=3))
        with pytest.raises(ParameterError, match=r"\[1, q=6\], got 8"):
            tw_rescale(res, model_thin, k_max=8)
        assert tw_rescale(res, model_thin, k_max=6).shape == (6,)


class TestSeeds:
    def test_derived_seed_deterministic(self):
        assert derived_seed(7, 1, 2, 3) == derived_seed(7, 1, 2, 3)
        assert derived_seed(7, 1, 2, 3) != derived_seed(7, 1, 2, 4)
        assert derived_seed(7, 1, 2, 3) != derived_seed(8, 1, 2, 3)
        assert 0 <= derived_seed(7, 5) < 2 ** 64


class TestTrialLog:
    CONFIG = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, seed=8)

    def test_failed_attempt_resampled_and_counted(self):
        pairs, results = [], []

        def fails_once(pair):
            pairs.append(pair)
            if len(pairs) == 1:
                raise NumericalError("injected failure")
            results.append(ccc_eigenvalues(pair))
            return results[-1]

        log = TrialLog(self.CONFIG, 100)
        assert log.draw(fails_once, 60, 1, 5) is results[0]
        assert log.draw(fails_once, 60, 1, 6) is results[1]
        # trial 5 is the pair on its retry-1 key; trial 6 succeeds at once
        for pair, key in zip(pairs, [(1, 5, 0), (1, 5, 1), (1, 6, 0)]):
            expected = sample_pair("gaussian", 18, 12, 60, derived_seed(8, *key))
            assert np.array_equal(pair.X, expected.X) and np.array_equal(pair.Y, expected.Y)
        assert log.failures == 1
        assert (log.min_eig_xx_bound, log.min_eig_yy_bound) == (
            min(r.min_eig_xx_bound for r in results), min(r.min_eig_yy_bound for r in results))
        assert log.checks() == {"min_eig_xx_bound_min": log.min_eig_xx_bound,
                                "min_eig_yy_bound_min": log.min_eig_yy_bound}
        # a log of 99 trials allows no failure: the first one stops it
        pairs.clear()
        log = TrialLog(self.CONFIG, 99)
        with pytest.raises(NumericalError, match="1 failed trials out of 99 exceeds"):
            log.draw(fails_once, 60, 1, 5)
        assert len(pairs) == log.failures == 1

    def test_always_failing_trial_stops_at_budget(self):
        # the budget is the only bound on failed attempts: floor(0.01 T) + 1 of them
        pairs = []

        def always_fails(pair):
            pairs.append(pair)
            raise NumericalError("injected failure")

        for trials, attempts in ((100, 2), (250, 3)):
            pairs.clear()
            log = TrialLog(self.CONFIG, trials)
            with pytest.raises(NumericalError) as info:
                log.draw(always_fails, 60, 1, 3)
            assert len(pairs) == log.failures == attempts
            assert str(info.value) == (f"{attempts} failed trials out of {trials} "
                                       f"exceeds the 1% budget")
            assert info.value.achieved == attempts / trials


class TestTrialMap:
    """TrialLog.map at two processes, taking keys from one queue: this process takes key 0."""

    CONFIG = ExperimentConfig("tw-edge", n=40, c1=0.3, c2=0.2, seed=8)

    @pytest.fixture(autouse=True)
    def two_processes(self, monkeypatch):
        monkeypatch.setattr(edge_stats, "_processes", lambda: 2)
        yield
        with pytest.raises(ChildProcessError):        # no child is left behind
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _top(fail=()):
        # the top eigenvalue of trial key's pair; the pairs of the keys in
        # fail are singular on their first attempt
        seeds = {derived_seed(8, 1, key, 0) for key in fail}

        def compute(pair):
            if pair.meta.seed in seeds:
                raise NumericalError("injected failure")
            return ccc_eigenvalues(pair)

        return lambda log, key: log.draw(compute, 40, 1, key).eigenvalues[0]

    def test_results_failures_and_minima_as_one_process(self, monkeypatch):
        work = self._top(fail=[3, 150])
        serial = TrialLog(self.CONFIG, 200)
        expected = [work(serial, key) for key in range(200)]
        logs = []
        for processes in (1, 2):
            monkeypatch.setattr(edge_stats, "_processes", lambda: processes)
            logs.append(TrialLog(self.CONFIG, 200))
            assert logs[-1].map(work, range(200)) == expected
        assert [log.processes for log in logs] == [1, 2]
        for log in logs:
            assert log.failures == serial.failures == 2 and log.checks() == serial.checks()

    def test_fewer_keys_than_processes(self):
        log = TrialLog(self.CONFIG, 100)
        assert log.map(lambda log, key: key, []) == []
        assert log.map(lambda log, key: key, [7]) == [7] and log.processes == 1

    @pytest.mark.parametrize("fail", [[150, 160, 170], [3, 160, 170]])
    def test_budget_error_as_one_process(self, monkeypatch, fail):
        # where one process meets all three failures its own budget check
        # trips; where they are spread, the fold finds the third
        for processes in (2, 3):
            monkeypatch.setattr(edge_stats, "_processes", lambda: processes)
            with pytest.raises(NumericalError) as info:
                TrialLog(self.CONFIG, 200).map(self._top(fail), range(200))
            assert str(info.value) == "3 failed trials out of 200 exceeds the 1% budget"
            assert info.value.achieved == 0.015

    def test_child_error_raised_after_earlier_failures(self):
        # key 9's error comes back whole from whichever process computed
        # it, after key 8's failure has been counted
        top = self._top(fail=[8])

        def work(log, key):
            if key == 9:
                raise DomainError("injected domain error")
            return top(log, key)

        log = TrialLog(self.CONFIG, 100)
        with pytest.raises(DomainError, match="injected domain error"):
            log.map(work, range(4, 10))
        assert log.failures == 1

    def test_parent_error_stops_children(self):
        # the child's key would take a minute; the error of key 0, which
        # this process computes, is first in key order and ends it
        parent = os.getpid()

        def work(log, key):
            if os.getpid() != parent:
                time.sleep(60)
            raise DomainError("injected domain error")

        start = time.monotonic()
        with pytest.raises(DomainError):
            TrialLog(self.CONFIG, 100).map(work, range(4))
        assert time.monotonic() - start < 30

    def test_child_without_results_raises(self, tmp_path):
        # a result that cannot be pickled never reaches the parent; the
        # parent holds key 0 until the child has computed a key
        parent, computed = os.getpid(), tmp_path / "computed"

        def work(log, key):
            if os.getpid() != parent:
                computed.touch()
                return lambda: key
            deadline = time.monotonic() + 30
            while not computed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return key

        with pytest.raises(RuntimeError, match="ended without its results"):
            TrialLog(self.CONFIG, 100).map(work, range(4))
        assert computed.exists()

    def test_orphaned_child_stops_before_next_trial(self, tmp_path):
        # a take loop run for a parent that is not this process's parent
        # ends with status 1 before computing a trial
        marker = tmp_path / "computed"
        pid = os.fork()
        if pid == 0:
            try:
                with edge_stats._KeyQueue(1) as queue:
                    TrialLog(self.CONFIG, 100)._take(lambda log, key: marker.touch(), [0],
                                                     queue, queue.take(), parent=-1)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 1 and not marker.exists()

    @pytest.mark.parametrize("processes", [2, 3])
    def test_every_key_computed_once_first_here(self, tmp_path, monkeypatch, processes):
        monkeypatch.setattr(edge_stats, "_processes", lambda: processes)
        computed = tmp_path / "computed"

        def work(log, key):
            with open(computed, "a") as out:
                out.write(f"{os.getpid()} {key}\n")
            return os.getpid(), key

        log = TrialLog(self.CONFIG, 100)
        results = log.map(work, range(500))
        assert [key for _, key in results] == list(range(500)) and log.processes == processes
        assert results[0][0] == os.getpid()
        lines = sorted((int(key), int(pid)) for pid, key in
                       (line.split() for line in computed.read_text().splitlines()))
        assert lines == [(key, pid) for pid, key in results]

    def test_many_keys_finish(self):
        # a queue of four-byte keys written to a 64 KiB pipe before the
        # fork would deadlock past 16 384 of them, so this runs under a timeout
        probe = ("from scclab import ExperimentConfig, TrialLog, edge_stats\n"
                 "edge_stats._processes = lambda: 2\n"
                 "log = TrialLog(ExperimentConfig('tw-edge', n=40, c1=0.3, c2=0.2), 100)\n"
                 "assert log.map(lambda log, key: key, range(20000)) == list(range(20000))\n"
                 "print(log.processes)\n")
        env = os.environ | {"PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2"]

    def test_children_inherit_numpy_random(self):
        # numpy.random is imported once, before the fork, so no process
        # pays its import on its first key; a fresh interpreter, since
        # this test process has imported it already
        probe = ("import os, sys, time\n"
                 "from scclab import ExperimentConfig, TrialLog, edge_stats\n"
                 "edge_stats._processes = lambda: 2\n"
                 "def work(log, key):\n"
                 "    loaded = 'numpy.random' in sys.modules\n"
                 "    import numpy.random\n"
                 "    time.sleep(0.01)\n"
                 "    return os.getpid(), loaded\n"
                 "log = TrialLog(ExperimentConfig('tw-edge', n=40, c1=0.3, c2=0.2), 100)\n"
                 "assert 'numpy.random' not in sys.modules\n"
                 "first = {}\n"
                 "for pid, loaded in log.map(work, range(20)):\n"
                 "    first.setdefault(pid, loaded)\n"
                 "print(log.processes, len(first), all(first.values()))\n")
        env = os.environ | {"PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "2", "True"]

    @pytest.mark.parametrize("processes", [2, 3])
    def test_error_drains_the_queue(self, tmp_path, monkeypatch, processes):
        # after key 20 raises, no process starts a key past 20 + processes
        monkeypatch.setattr(edge_stats, "_processes", lambda: processes)
        started = tmp_path / "started"

        def work(log, key):
            with open(started, "a") as out:
                out.write(f"{key}\n")
            if key == 20:
                raise DomainError("injected domain error")
            time.sleep(0.005)
            return key

        with pytest.raises(DomainError, match="injected domain error"):
            TrialLog(self.CONFIG, 100).map(work, range(200))
        keys = [int(key) for key in started.read_text().split()]
        assert sorted(keys) == list(range(max(keys) + 1))
        assert 20 <= max(keys) <= 20 + processes


class TestGoeReference:
    def test_deterministic(self):
        a = goe_reference(100, 20, k_max=2, seed=5)
        b = goe_reference(100, 20, k_max=2, seed=5)
        assert np.array_equal(a, b)
        c = goe_reference(100, 20, k_max=2, seed=6)
        assert not np.array_equal(a, c)

    def test_memoized_read_only(self):
        a = goe_reference(100, 20, k_max=2, seed=5)
        b = goe_reference(100, 20, k_max=2, seed=5)
        assert a is b
        assert np.array_equal(a, edge_stats._goe_values(100, 20, 2, 5))
        with pytest.raises(ValueError):
            a[0, 0] = 0.0

    def test_ordering_and_shape(self):
        samples = goe_reference(200, 25, k_max=3, seed=1)
        assert samples.shape == (25, 3)
        assert np.all(np.diff(samples, axis=1) <= 0)

    def test_matches_dense_construction(self):
        # oracle: full dense GOE matrices, eigenvalues by symmetric solver
        n, trials = 150, 1500
        rng = np.random.default_rng(77)
        dense = np.empty(trials)
        for t in range(trials):
            A = rng.standard_normal((n, n))
            M = (A + A.T) / np.sqrt(2.0)
            dense[t] = n ** (2 / 3) * (np.linalg.eigvalsh(M)[-1] / np.sqrt(n) - 2.0)
        tri = goe_reference(n, trials, k_max=1, seed=77)[:, 0]
        assert abs(dense.mean() - tri.mean()) < 0.1
        assert ks_two_sample(dense, tri) < 0.08

    def test_top_eigenvalue_near_two(self):
        # the unrescaled top eigenvalue concentrates at the edge value 2
        samples = goe_reference(800, 200, k_max=1, seed=9)
        lam1 = 2.0 + samples[:, 0] / 800 ** (2 / 3)
        assert abs(np.median(lam1) - 2.0) < 0.05

    def test_validation(self):
        with pytest.raises(ParameterError):
            goe_reference(3, 10, k_max=3)
        with pytest.raises(ParameterError):
            goe_reference(100, 0)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ParameterError, match=f"unsigned 64-bit integer, got {seed}"):
                goe_reference(50, 4, 3, seed)

    @pytest.mark.parametrize("k_max", [0, -1, 50])
    def test_edge_depth_outside_one_to_n_goe(self, k_max):
        with pytest.raises(ParameterError, match=rf"k_max must lie in \[1, n_goe - 1 = 49\], "
                                                 rf"got {k_max}"):
            goe_reference(50, 4, k_max=k_max)
        assert goe_reference(50, 4, k_max=49).shape == (4, 49)


class TestKolmogorovSmirnov:
    def test_hand_case(self):
        assert ks_two_sample([0.0, 1.0], [0.5]) == pytest.approx(0.5)

    def test_identical_samples(self):
        x = np.arange(10.0)
        assert ks_two_sample(x, x) == 0.0

    def test_disjoint_samples(self):
        assert ks_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_against_library_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(137)
        b = rng.standard_normal(211) + 0.3
        ours = ks_two_sample(a, b)
        ref = ks_2samp(a, b).statistic
        assert ours == pytest.approx(ref, abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            ks_two_sample([], [1.0])


class TestEdgeTrials:
    CFG = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=24, law="gaussian",
                           seed=8)

    def test_split_merge_equals_full(self):
        full, *_ = run_edge_trials(self.CFG, range(24))
        first, *_ = run_edge_trials(self.CFG, range(12))
        second, *_ = run_edge_trials(self.CFG, range(12, 24))
        assert np.array_equal(full, np.vstack([first, second]))

    def test_trial_seed_exchangeability(self):
        # any single trial can be recomputed in isolation
        full, *_ = run_edge_trials(self.CFG, range(24))
        alone, *_ = run_edge_trials(self.CFG, [17])
        assert np.array_equal(full[17], alone[0])

    def test_law_dispatch_validation(self):
        with pytest.raises(ParameterError):
            sample_pair("cauchy", 5, 3, 20, seed=0)
        with pytest.raises(ParameterError):
            sample_pair("pareto", 5, 3, 20, seed=0)       # beta missing


class TestTwExperiment:
    def test_report_structure(self):
        cfg = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=30, law="gaussian",
                               seed=8)
        rep = tw_experiment(cfg)
        assert rep.results["kind"] == "tw-edge"
        assert len(rep.results["metrics"]["ks"]) == 3
        assert len(rep.csv_rows) == 2 * 30 * 3
        assert rep.csv_header == ("source", "trial", "k", "value")
        assert rep.results["params"]["n_goe"] == 60
        assert rep.results["metrics"]["failures"] == 0
        assert set(rep.results) == {"kind", "params", "metrics"}

    def test_model_built_once_per_run(self, monkeypatch):
        built, real = [], config_module.make_model
        monkeypatch.setattr(config_module, "make_model",
                            lambda *a: built.append(a) or real(*a))
        cfg = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=3, law="gaussian",
                               seed=8)
        rep = tw_experiment(cfg)
        assert built == [(18 / 60, 12 / 60)]
        assert rep.results["metrics"]["lambda_plus"] == make_model(18 / 60, 12 / 60).lambda_plus

    def test_conditioning_is_minimum_over_trials(self):
        cfg = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=5, law="gaussian",
                               seed=8)
        rep = tw_experiment(cfg)
        assert rep.results["metrics"]["failures"] == 0
        spectra = [ccc_eigenvalues(sample_pair("gaussian", 18, 12, 60,
                                               derived_seed(8, 1, trial, 0)))
                   for trial in range(5)]
        assert rep.checks == {"min_eig_xx_bound_min": min(r.min_eig_xx_bound for r in spectra),
                              "min_eig_yy_bound_min": min(r.min_eig_yy_bound for r in spectra)}

    def test_rescaled_statistics_in_range(self):
        # Gaussian data at moderate size: rescaled means land near the
        # reference and the KS distance is already moderate
        cfg = ExperimentConfig("tw-edge", n=200, c1=0.3, c2=0.2, trials=400, law="gaussian",
                               seed=14)
        rep = tw_experiment(cfg)
        metrics = rep.results["metrics"]
        assert abs(metrics["ccc_mean"][0] - metrics["goe_mean"][0]) < 0.5
        assert metrics["ks"][0] < 0.15
        assert not metrics["heavy_upper_tail"]

    def test_heavy_tail_flag_below_moment_condition(self):
        # far below the fourth-moment condition the top statistic acquires
        # upper-tail mass the GOE reference does not have
        cfg = ExperimentConfig("tw-edge", n=200, c1=0.3, c2=0.2, trials=800, law="pareto",
                               beta=2.5, seed=14)
        rep = tw_experiment(cfg)
        metrics = rep.results["metrics"]
        assert metrics["heavy_upper_tail"]
        assert metrics["upper_tail_mass_ccc"] > metrics["upper_tail_mass_goe"]

    def test_reference_drawn_once_beside_the_trials(self, tmp_path, monkeypatch):
        # the reference is one more key of the trial map, drawn by the
        # process that takes it; a second run of the same (n, trials,
        # k_max, seed) reads it from goe_reference's memo
        drawn, real = tmp_path / "drawn", edge_stats._goe_values

        def spy(*args):
            with open(drawn, "a") as out:
                out.write(f"{args}\n")
            return real(*args)

        monkeypatch.setattr(edge_stats, "_goe_values", spy)
        monkeypatch.setattr(edge_stats, "_GOE_MEMO", {})
        monkeypatch.setattr(edge_stats, "_processes", lambda: 2)
        cfg = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=30, law="gaussian",
                               seed=21)
        reps = [tw_experiment(cfg), tw_experiment(replace(cfg, law="pareto", beta=4.5))]
        assert drawn.read_text().splitlines() == ["(60, 30, 3, 21)"]
        expected = real(60, 30, 3, 21)
        assert np.array_equal(goe_reference(60, 30, 3, 21), expected)
        for rep in reps:
            assert rep.results["metrics"]["goe_mean"] == [float(m) for m in
                                                          expected.mean(axis=0)]

    def test_serial_map_on_a_host_without_memfd(self, monkeypatch):
        # a host whose os has no memfd_create and no /proc/self/maps, as
        # with macOS Accelerate wheels: no OpenBLAS is found to pin, so
        # the map computes every key in this process, and dtrtri and
        # dstebz take their numpy routes
        cfg = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=30, law="gaussian",
                               seed=8)
        expected = tw_experiment(cfg).results["metrics"]
        monkeypatch.delattr(os, "memfd_create", raising=False)
        monkeypatch.setattr(_linalg, "_openblas_libraries", lambda: ())
        monkeypatch.setattr(edge_stats, "_GOE_MEMO", {})
        _linalg._lapacke.cache_clear()
        try:
            rep = tw_experiment(cfg)
        finally:
            _linalg._lapacke.cache_clear()
        assert rep.processes == 1
        metrics = rep.results["metrics"]
        assert metrics["failures"] == expected["failures"] == 0
        for key in ("ccc_mean", "goe_mean"):
            assert np.allclose(metrics[key], expected[key], rtol=0.0, atol=1e-9)

    def test_failure_budget_aborts(self, monkeypatch, one_trial_process):
        # tiny Rademacher matrices hit singular Gram blocks often enough to
        # blow the 1% resampling budget; the run stops at the first failure,
        # the first attempt of trial 29, and computes no spectrum after it
        calls = []
        monkeypatch.setattr(edge_stats, "ccc_eigenvalues",
                            lambda pair: calls.append(pair) or ccc_eigenvalues(pair))
        cfg = ExperimentConfig("tw-edge", n=10, c1=0.5, c2=0.3, trials=40, law="rademacher",
                               seed=0, k_max=2)
        with pytest.raises(NumericalError, match="1 failed trials out of 40") as info:
            tw_experiment(cfg)
        assert info.value.achieved == 0.025
        assert len(calls) == 30

    def test_trials_validation(self):
        cfg = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=1, law="gaussian")
        with pytest.raises(ParameterError):
            tw_experiment(cfg)

    def test_config_validated_before_sampling(self, monkeypatch):
        # every violation is reported at once, and no trial runs first
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(edge_stats, "sample_pair", no_sampling)
        cfg = ExperimentConfig("tw-edge", n=60, trials=1, k_max=13)
        with pytest.raises(ParameterError, match=r"\[1, q=12\], got 13.*trials >= 2"):
            tw_experiment(cfg)
        with pytest.raises(ParameterError, match="'tw-edge' config"):
            tw_experiment(ExperimentConfig("rigidity-scaling"))


class TestOrderStatistics:
    """The rigidity sweep's median and 95 % quantile are numpy's, by a sort."""

    @staticmethod
    def _samples():
        rng = np.random.default_rng(23)
        for size in range(1, 26):
            yield rng.standard_normal(size)
            yield rng.integers(-3, 4, size).astype(float)           # ties
            yield rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-12, 12, size)

    @staticmethod
    def _bits(value):
        return np.float64(value).tobytes()

    def test_bit_for_bit_as_numpy(self):
        for values in self._samples():
            # a tuple of numpy scalars, as the sweep passes them
            scalars = tuple(values)
            median, quantile = edge_stats._median(scalars), edge_stats._quantile(scalars, 0.95)
            assert type(median) is float and type(quantile) is float
            assert self._bits(median) == self._bits(np.median(values)), values
            assert self._bits(quantile) == self._bits(np.quantile(values, 0.95)), values

    def test_nan_in_nan_out(self):
        for values in self._samples():
            for index in {0, len(values) // 2, len(values) - 1}:
                spoiled = values.copy()
                spoiled[index] = np.nan
                assert np.isnan(edge_stats._median(spoiled))
                assert np.isnan(edge_stats._quantile(spoiled, 0.95))


class TestRigidityExperiment:
    # 50 trials at each of two sizes: the 1% budget allows one failure
    CONFIG = ExperimentConfig("rigidity-scaling", n0=20, c1=0.3, c2=0.2, trials=50,
                              factors=(1, 2), seed=4)

    @staticmethod
    def _failing_first(monkeypatch, count):
        calls = [0]

        def flaky(pair):
            calls[0] += 1
            if calls[0] <= count:
                raise NumericalError("injected failure")
            return ccc_eigenvalues(pair)

        monkeypatch.setattr(edge_stats, "ccc_eigenvalues", flaky)
        return calls

    def test_failures_counted(self, monkeypatch, one_trial_process):
        assert rigidity_experiment(self.CONFIG).results["metrics"]["failures"] == 0
        self._failing_first(monkeypatch, 1)
        assert rigidity_experiment(self.CONFIG).results["metrics"]["failures"] == 1

    def test_failure_budget_aborts(self, monkeypatch, one_trial_process):
        calls = self._failing_first(monkeypatch, 2)
        with pytest.raises(NumericalError, match="2 failed trials out of 100"):
            rigidity_experiment(self.CONFIG)
        assert calls[0] == 2                  # stopped at the second failure

    @pytest.mark.parametrize("processes", [2, 3])
    def test_one_fork_round_per_sweep(self, monkeypatch, processes):
        # one map covers every (size, trial) key, so the sweep forks its
        # trial processes once, not once per size
        forks, fork = [], TrialLog._fork

        def spy(self, *args):
            forks.append(args)
            return fork(self, *args)

        monkeypatch.setattr(TrialLog, "_fork", spy)
        monkeypatch.setattr(edge_stats, "_processes", lambda: processes)
        assert rigidity_experiment(self.CONFIG).processes == processes
        assert len(forks) == processes - 1
        with pytest.raises(ChildProcessError):        # no child is left behind
            os.waitpid(-1, os.WNOHANG)

    def test_config_validated(self):
        with pytest.raises(ParameterError, match="trials >= 3"):
            rigidity_experiment(replace(self.CONFIG, trials=2))
        with pytest.raises(ParameterError, match="two distinct"):
            rigidity_experiment(replace(self.CONFIG, factors=(2,)))
        with pytest.raises(ParameterError, match="'rigidity-scaling' config"):
            rigidity_experiment(replace(self.CONFIG, kind="tw-edge"))
