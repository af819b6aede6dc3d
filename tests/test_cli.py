"""Command line driver: validation, execution, reproducibility, exit codes."""

import csv
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from scclab import (
    DomainError,
    NumericalError,
    ParameterError,
    SingularityError,
    canonical_factor,
    ccc_eigenvalues,
    classical_locations,
    cli,
    derived_seed,
    edge_stats,
    linearized_resolvent,
    local_law_errors,
    make_model,
    sample_gaussian,
    sample_heavy_tail,
    sample_pair,
    scc_core,
    truncate_center_rescale,
    tw_rescale,
)
from scclab.cli import ExperimentConfig, build_config, main, validate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestValidate:
    def test_clean_config_passes(self):
        cfg = ExperimentConfig(kind="spectrum", c1=0.3, c2=0.2, n=100)
        assert validate(cfg) == []

    def test_ratio_sum_violation_cited(self):
        cfg = ExperimentConfig(kind="spectrum", c1=0.6, c2=0.5)
        msgs = validate(cfg)
        assert any("c1 + c2 < 1" in m for m in msgs)

    def test_ratio_order_violation_cited(self):
        cfg = ExperimentConfig(kind="spectrum", c1=0.2, c2=0.4)
        msgs = validate(cfg)
        assert any("0 < c2 <= c1" in m for m in msgs)

    def test_tail_exponent_violation_cited(self):
        cfg = ExperimentConfig(kind="tw-edge", law="pareto", beta=2.0)
        msgs = validate(cfg)
        assert any("beta > 2" in m for m in msgs)
        cfg = ExperimentConfig(kind="tw-edge", law="pareto", beta=None)
        assert any("requires beta" in m for m in validate(cfg))

    def test_eta_floor_violation_cited(self):
        cfg = ExperimentConfig(kind="local-law-sweep", n=100, eta_min=1e-5,
                               epsilon=0.05)
        msgs = validate(cfg)
        assert any("n^(-1+eps)" in m for m in msgs)

    def test_eta_ceiling_violation_cited(self):
        cfg = ExperimentConfig(kind="local-law-sweep", n=100, eta_max=100.0,
                               epsilon=0.05)
        msgs = validate(cfg)
        assert any("1/eps" in m for m in msgs)

    def test_multiple_violations_all_reported(self):
        cfg = ExperimentConfig(kind="tw-edge", c1=0.7, c2=0.8, law="nope",
                               trials=1, seed=-3)
        msgs = validate(cfg)
        assert len(msgs) >= 4

    def test_unknown_kind(self):
        cfg = ExperimentConfig(kind="mystery")
        assert validate(cfg)

    def test_truncation_exponent_range(self):
        cfg = ExperimentConfig(kind="spectrum", c_phi=0.6)
        assert any("c_phi" in m for m in validate(cfg))

    @pytest.mark.parametrize("kind, size", [
        ("spectrum", "n"), ("tw-edge", "n"), ("local-law-sweep", "n"),
        ("rigidity-scaling", "n0"),
    ])
    def test_aspect_ratios_checked_at_run_sizes(self, kind, size):
        # nominal c1 + c2 = 0.99, but p/n + q/n = 5/10 + 5/10 = 1 at n = 10,
        # the ratios every run builds its limit model at
        cfg = ExperimentConfig(kind=kind, c1=0.5, c2=0.49, **{size: 10})
        msgs = validate(cfg)
        assert any(m.startswith("at n = 10, p = 5, q = 5:") and "c1 + c2 < 1" in m
                   for m in msgs)

    def test_mistyped_fields_all_reported(self):
        cfg = ExperimentConfig(kind="spectrum", n=60.5, c1="wide", seed=True)
        msgs = validate(cfg)
        assert len(msgs) == 3
        assert any(m.startswith("n must be an integer") for m in msgs)
        assert any(m.startswith("c1 must be a real number") for m in msgs)

    def test_non_list_factors_reported_with_the_rest(self):
        cfg = build_config("rigidity-scaling", {"factors": 4, "n0": 60.5})
        assert validate(cfg) == ["n0 must be an integer, got 60.5",
                                 "factors must be a list of integers, got 4"]


def _gaussian(p=3, q=2, n=10):
    return sample_gaussian(p, q, n, seed=0)


def _local_law(z, epsilon=0.05):
    pair = _gaussian(30, 20, 100)
    return local_law_errors(pair, make_model(0.3, 0.2), z, epsilon=epsilon)


class TestOneMessagePerRule:
    """validate reports a rule in the words the library raises it with."""

    @pytest.mark.parametrize("kind, fields, error, library_call", [
        ("spectrum", {"c1": 0.6, "c2": 0.5}, ParameterError, lambda: make_model(0.6, 0.5)),
        ("spectrum", {"n": 2}, ParameterError, lambda: _gaussian(1, 0, 2)),
        ("spectrum", {"seed": -1}, ParameterError,
         lambda: sample_gaussian(3, 2, 10, seed=-1)),
        ("spectrum", {"law": "nope"}, ParameterError, lambda: sample_pair("nope", 3, 2, 10, 0)),
        ("spectrum", {"law": "pareto"}, ParameterError,
         lambda: sample_pair("pareto", 3, 2, 10, 0)),
        ("spectrum", {"law": "pareto", "beta": 2.0}, ParameterError,
         lambda: sample_heavy_tail(3, 2, 10, 0, beta=2.0)),
        ("spectrum", {"c_phi": 0.6}, ParameterError,
         lambda: truncate_center_rescale(_gaussian(), 0.6)),
        ("tw-edge", {"n": 60, "k_max": 13}, ParameterError,
         lambda: tw_rescale(ccc_eigenvalues(_gaussian(18, 12, 60)), make_model(0.3, 0.2), 13)),
        ("local-law-sweep", {"n": 100, "eta_min": 1e-5}, DomainError,
         lambda: _local_law(complex(0.5, 1e-5))),
        ("local-law-sweep", {"n": 100, "eta_max": 100.0}, DomainError,
         lambda: _local_law(complex(0.5, 100.0))),
        ("local-law-sweep", {"n": 100, "e_min": 0.01}, DomainError,
         lambda: _local_law(complex(0.01, 0.5))),
        ("local-law-sweep", {"n": 100, "epsilon": 1.5}, DomainError,
         lambda: _local_law(complex(0.5, 0.5), epsilon=1.5)),
    ], ids=["aspect", "dims", "seed", "law", "beta-missing", "beta", "c_phi", "k_max",
            "eta-floor", "eta-ceiling", "energy", "epsilon"])
    def test_same_text(self, kind, fields, error, library_call):
        with pytest.raises(error) as info:
            library_call()
        assert validate(ExperimentConfig(kind=kind, **fields)) == [str(info.value)]


class TestBundledConfigs:
    @pytest.mark.parametrize("name,kind", [
        ("density_table.json", "density-table"),
        ("quantiles.json", "quantiles"),
        ("spectrum.json", "spectrum"),
        ("local_law_sweep.json", "local-law-sweep"),
        ("tw_edge.json", "tw-edge"),
        ("rigidity_scaling.json", "rigidity-scaling"),
    ])
    def test_config_validates(self, name, kind):
        with open(CONFIG_DIR / name) as fh:
            raw = json.load(fh)
        cfg = build_config(kind, raw)
        assert validate(cfg) == []

    def test_unknown_key_rejected(self):
        from scclab import ParameterError
        with pytest.raises(ParameterError):
            build_config("spectrum", {"frobnicate": 1})


class TestMain:
    def test_density_table_success(self, tmp_path):
        out = tmp_path / "dt"
        code = main(["density-table", "--out", str(out),
                     "--override", "c1=0.4", "--override", "c2=0.2",
                     "--override", "x_points=21"])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "results.json").exists()
        summary = json.loads((out / "results.json").read_text())
        assert summary["mass"] == pytest.approx(1.0, abs=1e-6)
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 22

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "q"
        code = main(["quantiles", "--out", str(out), "--seed", "11",
                     "--override", "q=25"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["kind"] == "quantiles"
        assert manifest["config"]["q"] == 25
        assert manifest["outputs"] == ["results.csv", "results.json"]
        assert "code_version" in manifest
        assert manifest["timings"]["total_s"] >= 0.0
        assert 0.0 <= manifest["timings"]["write_s"] <= manifest["timings"]["total_s"]

    @pytest.mark.parametrize("kind, overrides", [
        ("density-table", ["x_points=5"]),
        ("quantiles", ["q=5"]),
        ("spectrum", ["n=60"]),
        ("local-law-sweep", ["n=40", "trials=1", "e_points=1", "eta_points=1"]),
        ("tw-edge", ["n=60", "trials=4", "k_max=2"]),
        ("rigidity-scaling", ["n0=40", "trials=3", "factors=[1,2]"]),
    ])
    def test_environment_in_manifest_only(self, tmp_path, monkeypatch, kind, overrides):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out = tmp_path / "env"
        args = [kind, "--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "manifest.json", "results.csv", "results.json"]
        env = json.loads((out / "manifest.json").read_text())["environment"]
        monte_carlo = kind in ("local-law-sweep", "tw-edge", "rigidity-scaling")
        assert set(env) == {"numpy", "scipy", "blas", "cpu_count", "threads"} | (
            {"trial_processes"} if monte_carlo else set())
        if monte_carlo:
            assert 1 <= env["trial_processes"] <= len(os.sched_getaffinity(0))
        assert set(env["blas"]) == {"name", "version"}
        assert env["cpu_count"] == os.cpu_count()
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert all(key.endswith("_NUM_THREADS") for key in env["threads"])
        results = json.loads((out / "results.json").read_text())
        assert not {"environment", "numpy", "scipy", "blas", "threads"} & set(results)

    def test_spectrum_csv_format_and_round_trip(self, tmp_path):
        out = tmp_path / "spec"
        assert main(["spectrum", "--out", str(out), "--seed", "5", "--override", "n=100",
                     "--override", "c1=0.4", "--override", "c2=0.2"]) == 0
        res = ccc_eigenvalues(sample_gaussian(40, 20, 100, seed=5))
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "lambda", "gamma", "normalized_deviation"]
        assert len(rows) == 1 + res.q
        # repr round trip preserves the eigenvalues bit for bit
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i + 1
            assert float(row[1]) == res.eigenvalues[i]
        gamma = classical_locations(make_model(0.4, 0.2), res.q)
        assert float(rows[1][2]) == gamma[0]

    def test_rerun_byte_identical(self, tmp_path):
        args = ["spectrum", "--seed", "3", "--override", "n=100"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "results.json").read_bytes() == (out_b / "results.json").read_bytes()

    def test_validation_failure_exit_2_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = main(["tw-edge", "--out", str(out),
                     "--override", "c1=0.6", "--override", "c2=0.5"])
        assert code == 2
        assert not out.exists()
        assert "c1 + c2" in capsys.readouterr().err

    def test_mid_run_domain_error_exit_2_no_outputs(self, tmp_path, monkeypatch):
        def failing(config):
            raise DomainError("injected mid-run failure")

        monkeypatch.setitem(cli._RUNNERS, "quantiles", failing)
        fresh = tmp_path / "new" / "q"
        assert main(["quantiles", "--out", str(fresh)]) == 2
        assert not (tmp_path / "new").exists()
        # a directory that existed before the run is left in place
        existing = tmp_path / "existing"
        existing.mkdir()
        assert main(["quantiles", "--out", str(existing)]) == 2
        assert existing.is_dir()
        assert not any(existing.iterdir())

    def test_mid_run_numerical_error_exit_3_only_diagnostics(self, tmp_path, monkeypatch):
        def failing(config):
            raise NumericalError("injected mid-run failure", achieved=0.5)

        monkeypatch.setitem(cli._RUNNERS, "quantiles", failing)
        out = tmp_path / "q"
        assert main(["quantiles", "--out", str(out)]) == 3
        assert [f.name for f in out.iterdir()] == ["diagnostics.json"]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "NumericalError" and diag["achieved"] == 0.5

    def test_law_of_wrong_type_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bad"
        assert main(["spectrum", "--out", str(out), "--override", 'law=["gaussian"]']) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "known laws" in err

    def test_trace_identity_failure_exit_3_with_diagnostics(self, tmp_path, monkeypatch):
        real = linearized_resolvent.blocks_via_schur

        def perturbed(*args, **kwargs):
            bundle = real(*args, **kwargs)
            return dataclasses.replace(bundle, m4=bundle.m4 + 1e-6)

        monkeypatch.setattr(linearized_resolvent, "blocks_via_schur", perturbed)
        out = tmp_path / "ll"
        assert main(["local-law-sweep", "--out", str(out), "--override", "n=40",
                     "--override", "trials=1", "--override", "e_points=1",
                     "--override", "eta_points=1"]) == 3
        assert [f.name for f in out.iterdir()] == ["diagnostics.json"]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "NumericalError" and "trace identity" in diag["message"]
        assert diag["achieved"] == pytest.approx(1e-6, rel=1e-3)

    def test_bad_override_exit_2(self, tmp_path):
        out = tmp_path / "bad"
        assert main(["spectrum", "--out", str(out), "--override", "nonsense"]) == 2
        assert main(["spectrum", "--out", str(out), "--override", "frob=1"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind,override", [
        ("tw-edge", "trials=2.5"),
        ("spectrum", "n=60.5"),
        ("rigidity-scaling", "n0=60.5"),
        ("tw-edge", "k_max=2.5"),
        ("quantiles", "q=2.5"),
        ("rigidity-scaling", "factors=[1.5,2]"),
        ("rigidity-scaling", "factors=4"),
    ])
    def test_non_integer_field_exit_2_no_outputs(self, tmp_path, capsys, kind, override):
        out = tmp_path / "bad"
        assert main([kind, "--out", str(out), "--override", override]) == 2
        assert not out.exists()
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("factors", ["[]", "[2]", "[2,2]"])
    def test_rigidity_needs_two_sizes_exit_2(self, tmp_path, capsys, factors):
        out = tmp_path / "rig"
        code = main(["rigidity-scaling", "--out", str(out), "--override", "n0=20",
                     "--override", "trials=3", "--override", f"factors={factors}"])
        assert code == 2
        assert not out.exists()
        assert "two distinct sizes" in capsys.readouterr().err

    def test_threads_rejected_exit_2(self, tmp_path):
        out = tmp_path / "tw"
        small = ["--override", "n=40", "--override", "trials=4"]
        assert main(["tw-edge", "--out", str(out), "--override", "threads=2", *small]) == 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"threads": 2}))
        assert main(["tw-edge", "--out", str(out), "--config", str(cfg_path), *small]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["tw-edge", "--out", str(out), "--threads", "2", *small])
        assert exc.value.code == 2
        assert not out.exists()

    def test_numerical_failure_exit_3_with_diagnostics(self, tmp_path, monkeypatch,
                                                       one_trial_process):
        # configuration known to blow the resampling failure budget: its
        # first failure, the first attempt of trial 29, already does, and
        # the run computes no spectrum after it
        spectra = []
        monkeypatch.setattr(edge_stats, "ccc_eigenvalues",
                            lambda pair: spectra.append(pair) or ccc_eigenvalues(pair))
        out = tmp_path / "fail"
        code = main(["tw-edge", "--out", str(out), "--seed", "0",
                     "--override", "n=10", "--override", "c1=0.5",
                     "--override", "c2=0.3", "--override", "trials=40",
                     "--override", "law=\"rademacher\"", "--override", "k_max=2"])
        assert code == 3
        assert len(spectra) == 30
        assert [f.name for f in out.iterdir()] == ["diagnostics.json"]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "NumericalError"
        assert "1 failed trials out of 40" in diag["message"]
        assert diag["achieved"] == 0.025

    @pytest.mark.parametrize("source", ["file", "override"])
    def test_mismatched_kind_exit_2_no_outputs(self, tmp_path, capsys, source):
        out = tmp_path / "q"
        args = ["quantiles", "--out", str(out), "--override", "q=5"]
        if source == "file":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"kind": "rigidity-scaling"}))
            args += ["--config", str(cfg_path)]
        else:
            args += ["--override", "kind=\"tw-edge\""]
        assert main(args) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("validation error: config kind") and "'quantiles'" in err

    def test_config_file_with_override(self, tmp_path):
        # a kind that matches the subcommand, as a manifest's config echo has, runs
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "quantiles", "c1": 0.4, "c2": 0.2, "q": 10}))
        out = tmp_path / "q"
        code = main(["quantiles", "--config", str(cfg_path), "--out", str(out),
                     "--override", "q=5", "--override", "kind=\"quantiles\""])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 6                 # header plus five quantiles

    @pytest.mark.parametrize("name,content,message", [
        ("missing.json", None, "cannot read config file"),
        ("malformed.json", "{\"c1\": 0.4,", "not valid JSON"),
        ("list.json", "[0.4, 0.2]", "must hold a JSON object, got list"),
    ])
    def test_bad_config_file_exit_2_no_outputs(self, tmp_path, capsys, name, content,
                                               message):
        cfg_path = tmp_path / name
        if content is not None:
            cfg_path.write_text(content)
        out = tmp_path / "q"
        assert main(["quantiles", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and message in err

    def test_local_law_sweep_runs(self, tmp_path):
        args = ["local-law-sweep", "--seed", "2", "--override", "n=80",
                "--override", "trials=1", "--override", "e_points=2",
                "--override", "eta_points=2"]
        out, rerun = tmp_path / "ll", tmp_path / "ll-rerun"
        assert main(args + ["--out", str(out)]) == 0
        summary = json.loads((out / "results.json").read_text())
        assert summary["worst_entrywise_over_benchmark"] < 50.0
        assert len(summary["reports"]) == 4
        # self-check residuals go to the manifest, never to results.*
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        assert set(checks) == {"identity_residual_max", "trace_identity_max",
                               "min_eig_xx_min", "min_eig_yy_min"}
        assert 0.0 < checks["identity_residual_max"] <= 1e-6
        assert 0.0 <= checks["trace_identity_max"] <= 1e-10
        assert "checks" not in summary
        assert all("checks" not in report for report in summary["reports"])
        assert main(args + ["--out", str(rerun)]) == 0
        for name in ("results.csv", "results.json"):
            assert (out / name).read_bytes() == (rerun / name).read_bytes()

    # 100 pairs of one (E, eta) point each: the 1% budget allows one failure
    SWEEP = ["local-law-sweep", "--seed", "6", "--override", "n=40",
             "--override", "trials=100", "--override", "e_points=1",
             "--override", "eta_points=1"]

    @staticmethod
    def _factor_failing_first(monkeypatch, count):
        pairs = []

        def flaky(pair):
            pairs.append(pair)
            if len(pairs) <= count:
                raise SingularityError("injected singular block", min_eigenvalue=0.0)
            return canonical_factor(pair)

        monkeypatch.setattr(cli, "canonical_factor", flaky)
        return pairs

    def test_local_law_failed_pair_resampled_and_counted(self, tmp_path, monkeypatch,
                                                         one_trial_process):
        pairs = self._factor_failing_first(monkeypatch, 1)
        assert main(self.SWEEP + ["--out", str(tmp_path / "ll")]) == 0
        summary = json.loads((tmp_path / "ll" / "results.json").read_text())
        assert summary["failures"] == 1
        assert len(summary["reports"]) == 100 and len(pairs) == 101
        # the failed trial 0 is resampled on its retry-1 key
        retry = sample_pair("gaussian", 12, 8, 40, derived_seed(6, 4, 0, 1))
        assert np.array_equal(pairs[1].X, retry.X) and np.array_equal(pairs[1].Y, retry.Y)

    def test_local_law_failure_budget_exit_3_only_diagnostics(self, tmp_path, monkeypatch):
        pairs = self._factor_failing_first(monkeypatch, 2)
        points = []
        monkeypatch.setattr(cli, "local_law_errors", lambda *a, **k: points.append(a))
        out = tmp_path / "ll"
        assert main(self.SWEEP + ["--out", str(out)]) == 3
        # the second failure, trial 0's retry, stops the sweep before any point
        assert len(pairs) == 2 and points == []
        assert [f.name for f in out.iterdir()] == ["diagnostics.json"]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert "2 failed trials out of 100" in diag["message"]
        assert diag["achieved"] == 0.02

    def test_local_law_factors_once_per_pair_conditioning_in_manifest(self, tmp_path,
                                                                      monkeypatch,
                                                                      one_trial_process):
        seen = []
        real = scc_core.whitened_cross
        monkeypatch.setattr(scc_core, "whitened_cross",
                            lambda pair: seen.append(real(pair)) or seen[-1])
        args = ["local-law-sweep", "--seed", "4", "--override", "n=40",
                "--override", "trials=3", "--override", "e_points=2",
                "--override", "eta_points=2"]
        out, rerun = tmp_path / "ll", tmp_path / "ll-rerun"
        assert main(args + ["--out", str(out)]) == 0
        assert len(seen) == 3                   # trials, not trials x points
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        for key in ("xx", "yy"):
            value = checks[f"min_eig_{key}_min"]
            assert 0.0 < value < math.inf
            assert value == min(getattr(wc, f"min_eig_{key}") for wc in seen)
        assert "min_eig" not in (out / "results.json").read_text()
        assert main(args + ["--out", str(rerun)]) == 0
        for name in ("results.csv", "results.json"):
            assert (out / name).read_bytes() == (rerun / name).read_bytes()

    def test_rigidity_runs(self, tmp_path):
        out = tmp_path / "rig"
        code = main(["rigidity-scaling", "--out", str(out), "--seed", "1",
                     "--override", "n0=60", "--override", "trials=4",
                     "--override", "factors=[1,2]"])
        assert code == 0
        summary = json.loads((out / "results.json").read_text())
        assert summary["metrics"]["ns"] == [60, 120]
        assert len(summary["metrics"]["bulk_median"]) == 2

    @pytest.mark.parametrize("kind, overrides", [
        ("tw-edge", ["n=60", "trials=6", "k_max=2"]),
        ("rigidity-scaling", ["n0=40", "trials=3", "factors=[1,2]"]),
        ("spectrum", ["n=100"]),
    ])
    def test_conditioning_in_manifest_only(self, tmp_path, kind, overrides):
        args = [kind, "--seed", "3"]
        for item in overrides:
            args += ["--override", item]
        out, rerun = tmp_path / "run", tmp_path / "rerun"
        assert main(args + ["--out", str(out)]) == 0
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        assert set(checks) == {"min_eig_xx_min", "min_eig_yy_min"}
        assert all(0.0 < value < math.inf for value in checks.values())
        assert "checks" not in json.loads((out / "results.json").read_text())
        assert main(args + ["--out", str(rerun)]) == 0
        for name in ("results.csv", "results.json"):
            assert (out / name).read_bytes() == (rerun / name).read_bytes()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTrialProcesses:
    """A Monte Carlo run gives the same outputs from one process as from two.

    Failures are injected on the seeds of chosen keys, so a pair fails
    the same way in whichever process computes it.  With two processes
    the parent computes the first half of each map's trials and a forked
    child the second; the failing keys fall in both halves.
    """

    # kind, overrides (200 pairs: the budget allows two failures), the
    # failing keys, and the computation the failures are injected into
    RUNS = {
        "tw-edge": (["n=40", "trials=200", "k_max=2"],
                    [(1, 10, 0), (1, 160, 0), (1, 170, 0)], edge_stats, "ccc_eigenvalues"),
        "rigidity-scaling": (["n0=20", "trials=100", "factors=[1,2]"],
                             [(3, 0, 10, 0), (3, 1, 60, 0), (3, 1, 70, 0)],
                             edge_stats, "ccc_eigenvalues"),
        "local-law-sweep": (["n=40", "trials=200", "e_points=1", "eta_points=1"],
                            [(4, 10, 0), (4, 160, 0), (4, 170, 0)], cli, "canonical_factor"),
    }

    @staticmethod
    def _run(kind, failing, processes, out, monkeypatch, capsys):
        overrides, keys, module, name = TestTrialProcesses.RUNS[kind]
        seeds = {derived_seed(9, *key) for key in keys[:failing]}
        real = getattr(module, name)

        def compute(pair):
            if pair.meta.seed in seeds:
                raise SingularityError("injected singular block", min_eigenvalue=0.0)
            return real(pair)

        monkeypatch.setattr(module, name, compute)
        monkeypatch.setattr(edge_stats, "_processes", lambda: processes)
        args = [kind, "--seed", "9", "--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        code = main(args)
        monkeypatch.undo()
        _no_child_left()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("kind", list(RUNS))
    def test_same_outputs_from_two_processes(self, tmp_path, monkeypatch, capsys, kind):
        runs = [self._run(kind, 2, processes, tmp_path / str(processes), monkeypatch, capsys)
                for processes in (1, 2)]
        assert runs[0] == runs[1] == (0, "")
        manifests = [json.loads((tmp_path / str(processes) / "manifest.json").read_text())
                     for processes in (1, 2)]
        assert [m["environment"]["trial_processes"] for m in manifests] == [1, 2]
        assert manifests[0]["checks"] == manifests[1]["checks"]
        for name in ("results.csv", "results.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        summary = json.loads((tmp_path / "1" / "results.json").read_text())
        assert summary.get("failures", summary.get("metrics", {}).get("failures")) == 2

    @pytest.mark.parametrize("kind", list(RUNS))
    def test_same_budget_failure_from_two_processes(self, tmp_path, monkeypatch, capsys,
                                                    kind):
        runs = [self._run(kind, 3, processes, tmp_path / str(processes), monkeypatch, capsys)
                for processes in (1, 2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 3 and "3 failed trials out of 200" in runs[0][1]
        for processes in (1, 2):
            assert [f.name for f in (tmp_path / str(processes)).iterdir()] == [
                "diagnostics.json"]
        assert ((tmp_path / "1" / "diagnostics.json").read_bytes()
                == (tmp_path / "2" / "diagnostics.json").read_bytes())
