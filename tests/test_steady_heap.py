"""steady_heap keeps repeated spectra on a mapped heap and changes no value.

The allocator's thresholds are process-wide and the test process has had
them pinned by earlier CLI runs, so the check runs in a fresh
interpreter: 20 spectra at (p, q, n) = (120, 80, 400) before the call
and the same 20 seeds after it, then the minor page faults of 20 more
spectra after 5 warm-up ones.  Under glibc's dynamic thresholds each of
those spectra re-faults a few hundred pages of the memory the one
before it freed.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, resource
from scclab import ccc_eigenvalues, sample_gaussian
from scclab._linalg import steady_heap

def spectrum(seed):
    return ccc_eigenvalues(sample_gaussian(120, 80, 400, seed)).eigenvalues.tobytes()

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

before = [spectrum(seed) for seed in range(20)]
steady = steady_heap()
after = [spectrum(seed) for seed in range(20)]
for seed in range(5):
    spectrum(seed)
per_spectrum = []
for seed in range(20):
    start = faults()
    spectrum(seed)
    per_spectrum.append(faults() - start)
print(json.dumps({"steady": steady, "same": before == after, "faults": per_spectrum}))
"""


def test_repeated_spectra_same_bytes_and_no_refaults():
    env = os.environ | {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    if not probe["steady"]:
        pytest.skip("the C library has no mallopt to pin the heap with")
    assert probe["same"]
    faults = probe["faults"]
    assert sum(faults) <= 5 * len(faults), faults
