"""The CLI pays at import only for the scipy modules its runs use.

Classical locations come from a numpy bisection and quadrature imports
scipy.integrate on first use, so neither importing the CLI nor computing
classical locations nor writing a manifest may load the root finder, the
quadrature or the special functions they pull in.  Each check runs in a
fresh interpreter, because this test process has imported them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.special")
loaded = {}
import scclab.cli
loaded["import scclab.cli"] = [m for m in HEAVY if m in sys.modules]
from scclab import classical_locations, make_model
classical_locations(make_model(0.3, 0.2), 160)
loaded["classical_locations q=160"] = [m for m in HEAVY if m in sys.modules]
if scclab.cli.main(["quantiles", "--override", "q=40", "--out", sys.argv[1]]) != 0:
    sys.exit("quantiles run failed")
loaded["quantiles run"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(loaded))
"""


def test_no_heavy_scipy_on_cli_path(tmp_path):
    env = os.environ | {"PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path / "q")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import scclab.cli": [], "classical_locations q=160": [],
                      "quantiles run": []}
