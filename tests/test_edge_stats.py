"""Edge statistics: rescaling, GOE reference, KS machinery, experiments."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from scclab import edge_stats
from scclab import (
    ExperimentConfig,
    NumericalError,
    ParameterError,
    SpectrumResult,
    ccc_eigenvalues,
    derived_seed,
    goe_reference,
    ks_two_sample,
    make_model,
    run_edge_trials,
    rigidity_experiment,
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


class TestSeeds:
    def test_derived_seed_deterministic(self):
        assert derived_seed(7, 1, 2, 3) == derived_seed(7, 1, 2, 3)
        assert derived_seed(7, 1, 2, 3) != derived_seed(7, 1, 2, 4)
        assert derived_seed(7, 1, 2, 3) != derived_seed(8, 1, 2, 3)
        assert 0 <= derived_seed(7, 5) < 2 ** 64


class TestGoeReference:
    def test_deterministic(self):
        a = goe_reference(100, 20, k_max=2, seed=5)
        b = goe_reference(100, 20, k_max=2, seed=5)
        assert np.array_equal(a.values, b.values)
        c = goe_reference(100, 20, k_max=2, seed=6)
        assert not np.array_equal(a.values, c.values)

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

    def test_failure_budget_aborts(self):
        # tiny Rademacher matrices hit singular Gram blocks often enough to
        # blow the 1% resampling budget
        cfg = ExperimentConfig("tw-edge", n=10, c1=0.5, c2=0.3, trials=40, law="rademacher",
                               seed=0, k_max=2)
        with pytest.raises(NumericalError):
            tw_experiment(cfg)

    def test_trials_validation(self):
        cfg = ExperimentConfig("tw-edge", n=60, c1=0.3, c2=0.2, trials=1, law="gaussian")
        with pytest.raises(ParameterError):
            tw_experiment(cfg)

    def test_config_validated_before_sampling(self, monkeypatch):
        # every violation is reported at once, and no trial runs first
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(edge_stats, "sample_pair", no_sampling)
        cfg = ExperimentConfig("tw-edge", n=60, trials=1, n_goe=3, k_max=3)
        with pytest.raises(ParameterError, match="trials >= 2.*n_goe = 3 too small"):
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

    def test_failures_counted(self, monkeypatch):
        assert rigidity_experiment(self.CONFIG).metrics["failures"] == 0
        self._failing_first(monkeypatch, 1)
        assert rigidity_experiment(self.CONFIG).metrics["failures"] == 1

    def test_failure_budget_aborts(self, monkeypatch):
        self._failing_first(monkeypatch, 2)
        with pytest.raises(NumericalError, match="budget"):
            rigidity_experiment(self.CONFIG)

    def test_config_validated(self):
        with pytest.raises(ParameterError, match="trials >= 3"):
            rigidity_experiment(replace(self.CONFIG, trials=2))
        with pytest.raises(ParameterError, match="two distinct"):
            rigidity_experiment(replace(self.CONFIG, factors=(2,)))
        with pytest.raises(ParameterError, match="'rigidity-scaling' config"):
            rigidity_experiment(replace(self.CONFIG, kind="tw-edge"))
