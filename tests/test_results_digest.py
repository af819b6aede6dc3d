"""tools/results_digest.py: the digests of a config's results.* files."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
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


# one small config per kind, at sizes where OpenBLAS splits the products
# of spectrum, tw-edge, rigidity-scaling and local-law-sweep over two
# threads: run with the BLAS thread count left as set, their digests
# differ between one thread and two
BLAS_SIZED = {
    "density-table": {"x_points": 5},
    "quantiles": {"q": 5},
    "spectrum": {"n": 400},
    "local-law-sweep": {"n": 400, "trials": 1, "e_points": 1, "eta_points": 1},
    "tw-edge": {"n": 400, "trials": 4},
    "rigidity-scaling": {"n0": 200, "trials": 3, "factors": [1, 2]},
}


def test_digests_do_not_depend_on_blas_threads(tmp_path):
    configs = []
    for kind, fields in BLAS_SIZED.items():
        configs.append(tmp_path / f"{kind}.json")
        configs[-1].write_text(json.dumps({"kind": kind} | fields))
    printed = []
    for threads in ("1", "2"):
        env = os.environ | {"OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
                                   else []))}
        proc = subprocess.run([sys.executable, str(ROOT / "tools" / "results_digest.py"),
                               *map(str, configs)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert len(printed[0].splitlines()) == len(BLAS_SIZED)
    assert printed[0] == printed[1]
