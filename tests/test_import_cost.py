"""No step of the CLI loads any scipy module, nor OpenSSL's libcrypto.

Classical locations come from a numpy bisection, the GOE edge reference
from LAPACK's dstebz in numpy's own OpenBLAS and the density's total
mass from a numpy trapezoid rule, so neither importing the CLI, nor computing
classical locations, nor a run of any kind, density-table included, may
load scipy or any of its modules, the root finder, the quadrature, the
special functions and scipy.linalg (HEAVY) among them; nor does the
manifest name a scipy version.  Nor may they load numpy.ma, which numpy
2's median, quantile and unique import on first use (the rigidity sweep
sorts instead); where numpy itself loads it at import, as numpy 1.x
does, every step is compared with that state.

numpy.random's first import loads secrets, hmac and hashlib, and
hashlib's OpenSSL backend, _hashlib, maps libcrypto.  A run blocks
_hashlib before that import, so after a run of any kind _hashlib is None
in sys.modules, no libcrypto is mapped (read from /proc/self/maps on
Linux) and hashlib logged no missing built-in hash while the run
imported it.  Importing scclab or scclab.cli alone must not block it,
so a host program keeps OpenSSL's hashes: _hashlib stays out of
sys.modules and as findable as before.  Nor may importing scclab or
scclab.cli import numpy.random: a Monte Carlo run imports it before its
trial processes fork, and an import at module level would add it to the
import cost of every run.  numpy 2 does not import it with numpy; where
numpy itself does, each step is compared with that state.  Each check
runs in a fresh interpreter, because this test process has imported all
of these already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import contextlib, importlib.util, io, json, sys
from pathlib import Path
HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.special", "scipy.linalg")
loaded, openssl, random = {}, {}, {}
def modules():
    named = [m for m in HEAVY + ("numpy.ma",) if m in sys.modules]
    return named + sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and m not in HEAVY)
def libcrypto_mapped():
    if not sys.platform.startswith("linux"):
        return None
    with open("/proc/self/maps") as fh:
        return "libcrypto" in fh.read()
findable = importlib.util.find_spec("_hashlib") is not None
import numpy
loaded["import numpy"] = modules()
random["import numpy"] = "numpy.random" in sys.modules
import scclab
openssl["import scclab"] = "_hashlib" in sys.modules
random["import scclab"] = "numpy.random" in sys.modules
import scclab.cli
loaded["import scclab.cli"] = modules()
openssl["import scclab.cli"] = "_hashlib" in sys.modules
random["import scclab.cli"] = "numpy.random" in sys.modules
openssl["findable"] = (importlib.util.find_spec("_hashlib") is not None) == findable
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
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = scclab.cli.main(args)
    if code != 0:
        sys.exit(kind + " run failed: " + err.getvalue())
    loaded[kind + " run"] = modules()
    openssl[kind + " run"] = [sys.modules.get("_hashlib") is None, libcrypto_mapped(),
                              "code for hash" in err.getvalue()]
    environment = json.loads((out / "manifest.json").read_text())["environment"]
    loaded[kind + " manifest"] = "scipy" not in environment
    openssl[kind + " manifest"] = environment["hashlib_openssl"]
print(json.dumps({"loaded": loaded, "openssl": openssl, "random": random}))
"""

KINDS = ("quantiles", "tw-edge", "rigidity-scaling", "local-law-sweep", "spectrum",
         "density-table")


def test_no_heavy_scipy_on_cli_path(tmp_path):
    env = os.environ | {"PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path / "q")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    loaded, openssl, random = probe["loaded"], probe["openssl"], probe["random"]
    # numpy alone: nothing, or numpy.ma where numpy imports it with itself
    base = loaded["import numpy"]
    assert base in ([], ["numpy.ma"])
    assert loaded == {step: base for step in (
        "import numpy", "import scclab.cli", "classical_locations q=160",
        *(kind + " run" for kind in KINDS))} | {kind + " manifest": True for kind in KINDS}
    # importing leaves numpy.random as numpy alone left it
    assert random == dict.fromkeys(("import numpy", "import scclab", "import scclab.cli"),
                                   random["import numpy"])
    # importing leaves _hashlib alone; every run leaves it blocked, libcrypto
    # unmapped (None off Linux) and no hashlib logging on stderr
    mapped = False if sys.platform.startswith("linux") else None
    assert openssl == {"import scclab": False, "import scclab.cli": False, "findable": True} | {
        kind + " run": [True, mapped, False] for kind in KINDS} | {
        kind + " manifest": False for kind in KINDS}
