"""Command line driver: validation, execution, reproducibility, exit codes."""

import json
import math
from pathlib import Path

import pytest

from scclab import DomainError, cli
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

    def test_goe_size_collected_with_other_violations(self):
        cfg = ExperimentConfig(kind="tw-edge", n=60, n_goe=3, k_max=3, trials=1)
        msgs = validate(cfg)
        assert any("n_goe = 3 too small for k_max = 3" in m for m in msgs)
        assert any("trials >= 2" in m for m in msgs)

    def test_mistyped_fields_all_reported(self):
        cfg = ExperimentConfig(kind="spectrum", n=60.5, c1="wide", seed=True)
        msgs = validate(cfg)
        assert len(msgs) == 3
        assert any(m.startswith("n must be an integer") for m in msgs)
        assert any(m.startswith("c1 must be a real number") for m in msgs)


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
        def failing(config, out):
            (out / "results.csv").write_text("partial\n")
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

    def test_numerical_failure_exit_3_with_diagnostics(self, tmp_path):
        # configuration known to blow the resampling failure budget
        out = tmp_path / "fail"
        code = main(["tw-edge", "--out", str(out), "--seed", "0",
                     "--override", "n=10", "--override", "c1=0.5",
                     "--override", "c2=0.3", "--override", "trials=40",
                     "--override", "law=\"rademacher\"", "--override", "k_max=2"])
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "NumericalError"
        assert not (out / "results.csv").exists()

    def test_config_file_with_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"c1": 0.4, "c2": 0.2, "q": 10}))
        out = tmp_path / "q"
        code = main(["quantiles", "--config", str(cfg_path),
                     "--out", str(out), "--override", "q=5"])
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
        assert set(checks) == {"identity_residual_max", "trace_identity_max"}
        assert 0.0 < checks["identity_residual_max"] <= 1e-6
        assert 0.0 <= checks["trace_identity_max"] <= 1e-10
        assert "checks" not in summary
        assert all("checks" not in report for report in summary["reports"])
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
