"""The benchmark harness still runs: every workload at tiny size, traced and not.

The traced runs fail when a function the benchmark expects to see is
renamed or moved, so this catches such a change in the test suite rather
than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
