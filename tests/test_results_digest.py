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
