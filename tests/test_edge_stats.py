"""Edge statistics: rescaling, GOE reference, KS machinery, experiments."""

import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from scclab import config as config_module
from scclab import edge_stats
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


def _result(eigs, n):
    eigs = np.asarray(eigs, dtype=float)
    return SpectrumResult(eigenvalues=eigs, p=2 * len(eigs), q=len(eigs), n=n,
                          min_eig_xx=1.0, min_eig_yy=1.0)


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
        assert (log.min_eig_xx, log.min_eig_yy) == (min(r.min_eig_xx for r in results),
                                                    min(r.min_eig_yy for r in results))
        assert log.checks() == {"min_eig_xx_min": log.min_eig_xx,
                                "min_eig_yy_min": log.min_eig_yy}
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
    """TrialLog.map at two processes: the parent's share is keys[:n // 2]."""

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
    def test_budget_error_as_one_process(self, fail):
        # all three failures in the child's share trip its own budget
        # check; with one in the parent's, the fold finds the third
        with pytest.raises(NumericalError) as info:
            TrialLog(self.CONFIG, 200).map(self._top(fail), range(200))
        assert str(info.value) == "3 failed trials out of 200 exceeds the 1% budget"
        assert info.value.achieved == 0.015

    def test_child_error_raised_after_earlier_failures(self):
        # the child's error comes back whole, after the failure its share
        # met before it has been counted
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
        # the child's share would take a minute; the parent's error ends it
        parent = os.getpid()

        def work(log, key):
            if os.getpid() != parent:
                time.sleep(60)
            raise DomainError("injected domain error")

        start = time.monotonic()
        with pytest.raises(DomainError):
            TrialLog(self.CONFIG, 100).map(work, range(4))
        assert time.monotonic() - start < 30

    def test_child_without_results_raises(self):
        # a result that cannot be pickled never reaches the parent
        parent = os.getpid()

        def work(log, key):
            return key if os.getpid() == parent else (lambda: key)

        with pytest.raises(RuntimeError, match="ended without its results"):
            TrialLog(self.CONFIG, 100).map(work, range(4))

    def test_orphaned_child_stops_before_next_trial(self, tmp_path):
        # a share run for a parent that is not this process's parent ends
        # with status 1 before computing a trial
        marker = tmp_path / "computed"
        pid = os.fork()
        if pid == 0:
            try:
                TrialLog(self.CONFIG, 100)._share(lambda log, key: marker.touch(), [0],
                                                  parent=-1)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 1 and not marker.exists()


class TestGoeReference:
    def test_deterministic(self):
        a = goe_reference(100, 20, k_max=2, seed=5)
        b = goe_reference(100, 20, k_max=2, seed=5)
        assert np.array_equal(a.values, b.values)
        c = goe_reference(100, 20, k_max=2, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_memoized_read_only(self):
        a = goe_reference(100, 20, k_max=2, seed=5)
        b = goe_reference(100, 20, k_max=2, seed=5)
        assert a is not b
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, edge_stats._goe_values.__wrapped__(100, 20, 2, 5))
        with pytest.raises(ValueError):
            a.values[0, 0] = 0.0

    def test_ordering_and_shape(self):
        samples = goe_reference(200, 25, k_max=3, seed=1)
        assert samples.values.shape == (25, 3)
        assert np.all(np.diff(samples.values, axis=1) <= 0)

    def test_matches_dense_construction(self):
        # oracle: full dense GOE matrices, eigenvalues by symmetric solver
        n, trials = 150, 1500
        rng = np.random.default_rng(77)
        dense = np.empty(trials)
        for t in range(trials):
            A = rng.standard_normal((n, n))
            M = (A + A.T) / np.sqrt(2.0)
            dense[t] = n ** (2 / 3) * (np.linalg.eigvalsh(M)[-1] / np.sqrt(n) - 2.0)
        tri = goe_reference(n, trials, k_max=1, seed=77).values[:, 0]
        assert abs(dense.mean() - tri.mean()) < 0.1
        assert ks_two_sample(dense, tri) < 0.08

    def test_top_eigenvalue_near_two(self):
        # the unrescaled top eigenvalue concentrates at the edge value 2
        samples = goe_reference(800, 200, k_max=1, seed=9)
        lam1 = 2.0 + samples.values[:, 0] / 800 ** (2 / 3)
        assert abs(np.median(lam1) - 2.0) < 0.05

    def test_validation(self):
        with pytest.raises(ParameterError):
            goe_reference(3, 10, k_max=3)
        with pytest.raises(ParameterError):
            goe_reference(100, 0)


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
        full = run_edge_trials(self.CFG, range(24))
        first = run_edge_trials(self.CFG, range(12))
        second = run_edge_trials(self.CFG, range(12, 24))
        merged = np.vstack([first.values, second.values])
        assert np.array_equal(full.values, merged)

    def test_trial_seed_exchangeability(self):
        # any single trial can be recomputed in isolation
        full = run_edge_trials(self.CFG, range(24))
        alone = run_edge_trials(self.CFG, [17])
        assert np.array_equal(full.values[17], alone.values[0])

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
        assert rep.kind == "tw-edge"
        assert len(rep.metrics["ks"]) == 3
        assert len(rep.csv_rows) == 2 * 30 * 3
        assert rep.csv_header == ("source", "trial", "k", "value")
        assert rep.params["n_goe"] == 60
        assert rep.metrics["failures"] == 0
        d = rep.to_json_dict()
        assert set(d) == {"kind", "params", "metrics"}

    def test_model_built_once_per_run(self, monkeypatch):
        built, real = [], config_module.make_model
        monkeypatch.setattr(config_module, "make_model",
                            lambda *a: built.append(a) or real(*a))
        cfg = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=3, law="gaussian",
                               seed=8)
        rep = tw_experiment(cfg)
        assert built == [(18 / 60, 12 / 60)]
        assert rep.metrics["lambda_plus"] == make_model(18 / 60, 12 / 60).lambda_plus

    def test_conditioning_is_minimum_over_trials(self):
        cfg = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=5, law="gaussian",
                               seed=8)
        rep = tw_experiment(cfg)
        assert rep.metrics["failures"] == 0
        spectra = [ccc_eigenvalues(sample_pair("gaussian", 18, 12, 60,
                                               derived_seed(8, 1, trial, 0)))
                   for trial in range(5)]
        assert rep.checks == {"min_eig_xx_min": min(r.min_eig_xx for r in spectra),
                              "min_eig_yy_min": min(r.min_eig_yy for r in spectra)}

    def test_rescaled_statistics_in_range(self):
        # Gaussian data at moderate size: rescaled means land near the
        # reference and the KS distance is already moderate
        cfg = ExperimentConfig("tw-edge", n=200, c1=0.3, c2=0.2, trials=400, law="gaussian",
                               seed=14)
        rep = tw_experiment(cfg)
        assert abs(rep.metrics["ccc_mean"][0] - rep.metrics["goe_mean"][0]) < 0.5
        assert rep.metrics["ks"][0] < 0.15
        assert not rep.metrics["heavy_upper_tail"]

    def test_heavy_tail_flag_below_moment_condition(self):
        # far below the fourth-moment condition the top statistic acquires
        # upper-tail mass the GOE reference does not have
        cfg = ExperimentConfig("tw-edge", n=200, c1=0.3, c2=0.2, trials=800, law="pareto",
                               beta=2.5, seed=14)
        rep = tw_experiment(cfg)
        assert rep.metrics["heavy_upper_tail"]
        assert rep.metrics["upper_tail_mass_ccc"] > rep.metrics["upper_tail_mass_goe"]

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
        assert rigidity_experiment(self.CONFIG).metrics["failures"] == 0
        self._failing_first(monkeypatch, 1)
        assert rigidity_experiment(self.CONFIG).metrics["failures"] == 1

    def test_failure_budget_aborts(self, monkeypatch, one_trial_process):
        calls = self._failing_first(monkeypatch, 2)
        with pytest.raises(NumericalError, match="2 failed trials out of 100"):
            rigidity_experiment(self.CONFIG)
        assert calls[0] == 2                  # stopped at the second failure

    def test_config_validated(self):
        with pytest.raises(ParameterError, match="trials >= 3"):
            rigidity_experiment(replace(self.CONFIG, trials=2))
        with pytest.raises(ParameterError, match="two distinct"):
            rigidity_experiment(replace(self.CONFIG, factors=(2,)))
        with pytest.raises(ParameterError, match="'rigidity-scaling' config"):
            rigidity_experiment(replace(self.CONFIG, kind="tw-edge"))
