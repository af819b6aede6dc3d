"""Print the sha256 of the results.csv and results.json of each config's run.

    PYTHONPATH=src python3 tools/results_digest.py [CONFIG ...]

Each CONFIG, by default every configs/*.json, is run through
scclab.cli.main into a temporary directory.  Its kind is the config's
"kind" field if it has one, and otherwise its file name with "-" for "_"
(local_law_sweep.json runs local-law-sweep).  One line per run is printed:
the config's file name, the kind and the two digests.  The CLI's own
messages go to stderr.

The scclab that is imported, the first on PYTHONPATH, is the one run, so
running this in two checkouts and diffing the outputs shows whether their
results.* are byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import scclab.cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RESULTS = ("results.csv", "results.json")


def digest_line(config: Path) -> str:
    """Run one config and return its line of digests; a failed run raises SystemExit."""
    kind = json.loads(config.read_text()).get("kind", config.stem.replace("_", "-"))
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(sys.stderr):
            code = scclab.cli.main([kind, "--config", str(config), "--out", out])
        if code != 0:
            raise SystemExit(f"{config}: {kind} exited with code {code}")
        sums = [hashlib.sha256((Path(out) / name).read_bytes()).hexdigest() for name in RESULTS]
    return f"{config.name}  {kind}  " + "  ".join(sums)


def main(argv: list[str]) -> int:
    for config in [Path(arg) for arg in argv] or sorted(CONFIGS.glob("*.json")):
        print(digest_line(config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
