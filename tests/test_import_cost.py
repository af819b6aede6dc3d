"""No step of the CLI loads any scipy module.

Classical locations come from a numpy bisection, the GOE edge reference
from a numpy Sturm-count solver and the density's total mass from a
numpy trapezoid rule, so neither importing the CLI, nor computing
classical locations, nor a run of any kind, density-table included, may
load scipy or any of its modules, the root finder, the quadrature, the
special functions and scipy.linalg (HEAVY) among them; nor does the
manifest name a scipy version.  Nor may they load numpy.ma, which numpy
2's median, quantile and unique import on first use (the rigidity sweep
sorts instead); where numpy itself loads it at import, as numpy 1.x
does, every step is compared with that state.  Each check runs in a
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
from pathlib import Path
HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.special", "scipy.linalg")
loaded = {}
def modules():
    named = [m for m in HEAVY + ("numpy.ma",) if m in sys.modules]
    return named + sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and m not in HEAVY)
import numpy
loaded["import numpy"] = modules()
import scclab.cli
loaded["import scclab.cli"] = modules()
from scclab import classical_locations, make_model
classical_locations(make_model(0.3, 0.2), 160)
loaded["classical_locations q=160"] = modules()
RUNS = {
    "quantiles": ["q=40"],
    "tw-edge": ["n=40", "trials=4"],
    "rigidity-scaling": ["n0=40", "trials=3", "factors=[1,2]"],
    "local-law-sweep": ["n=40", "trials=1", "e_points=1", "eta_points=1"],
    "spectrum": ["n=40"],
    "density-table": ["x_points=5"],
}
for kind, overrides in RUNS.items():
    out = Path(sys.argv[1]) / kind
    args = [kind, "--out", str(out)]
    for item in overrides:
        args += ["--override", item]
    if scclab.cli.main(args) != 0:
        sys.exit(kind + " run failed")
    loaded[kind + " run"] = modules()
    environment = json.loads((out / "manifest.json").read_text())["environment"]
    loaded[kind + " manifest"] = "scipy" not in environment
print(json.dumps(loaded))
"""


def test_no_heavy_scipy_on_cli_path(tmp_path):
    env = os.environ | {"PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path / "q")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    # numpy alone: nothing, or numpy.ma where numpy imports it with itself
    base = loaded["import numpy"]
    assert base in ([], ["numpy.ma"])
    kinds = ("quantiles", "tw-edge", "rigidity-scaling", "local-law-sweep", "spectrum",
             "density-table")
    assert loaded == {step: base for step in (
        "import numpy", "import scclab.cli", "classical_locations q=160",
        *(kind + " run" for kind in kinds))} | {kind + " manifest": True for kind in kinds}
