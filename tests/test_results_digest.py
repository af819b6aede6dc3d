"""tools/results_digest.py: the digests of a config's results.* files."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from scclab import cli

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("results_digest",
                                               ROOT / "tools" / "results_digest.py")
results_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(results_digest)


def test_digests_equal_a_direct_cli_run(tmp_path, capsys):
    config = ROOT / "configs" / "quantiles.json"
    assert results_digest.main([str(config)]) == 0
    printed = capsys.readouterr().out
    assert cli.main(["quantiles", "--config", str(config), "--out", str(tmp_path)]) == 0
    sums = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("results.csv", "results.json")]
    assert printed == f"quantiles.json  quantiles  {sums[0]}  {sums[1]}\n"


def test_failed_run_stops_the_tool(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"kind": "quantiles", "c1": 0.3, "c2": 0.2, "q": 0}))
    with pytest.raises(SystemExit, match="quantiles exited with code 2"):
        results_digest.digest_line(config)


def test_workload_digests_equal_direct_cli_runs(tmp_path, capsys, monkeypatch):
    workloads = results_digest._load_workloads()
    expected = []
    for name in workloads.WORKLOADS:
        for i, inv in enumerate(workloads.make(name, tiny=True).invocations):
            config, out = tmp_path / f"{name}.{i}.json", tmp_path / f"{name}.{i}"
            config.write_text(json.dumps(inv.config))
            assert cli.main([inv.kind, "--config", str(config), "--seed", "5",
                             "--out", str(out)]) == 0
            sums = [hashlib.sha256((out / result).read_bytes()).hexdigest()
                    for result in ("results.csv", "results.json")]
            expected.append(f"{name}.{i}  {inv.kind}  {sums[0]}  {sums[1]}")
    assert [line.split()[0] for line in expected] == ["edge-mc.0", "edge-mc.1", "local-law.0",
                                                      "rigidity.0"]
    assert list(results_digest.workload_lines(5, tiny=True)) == expected

    # --workload-seed digests the workloads after the configs
    real = results_digest.workload_lines
    monkeypatch.setattr(results_digest, "workload_lines", lambda seed: real(seed, tiny=True))
    capsys.readouterr()
    config = ROOT / "configs" / "quantiles.json"
    assert results_digest.main(["--workload-seed", "5", str(config)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("quantiles.json  quantiles  ") and printed[1:] == expected
