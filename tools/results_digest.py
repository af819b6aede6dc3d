"""Print the sha256 of the results.csv and results.json of each run.

    PYTHONPATH=src python3 tools/results_digest.py [--workload-seed N] [CONFIG ...]

Each CONFIG, by default every configs/*.json, is run through
scclab.cli.main into a temporary directory.  Its kind is the config's
"kind" field if it has one, and otherwise its file name with "-" for "_"
(local_law_sweep.json runs local-law-sweep).  With --workload-seed N,
every invocation of the benchmark's workloads (perfbench/workloads.py,
at the sizes the benchmark runs) is run next, with --seed N as the
benchmark passes it.  One line per run is printed: the config's file
name or the invocation's name (edge-mc.1 is the second invocation of
edge-mc), the kind and the two digests.  The CLI's own messages go to
stderr.

The scclab that is imported, the first on PYTHONPATH, is the one run, so
running this in two checkouts and diffing the outputs shows whether their
results.* are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import scclab.cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
RESULTS = ("results.csv", "results.json")


def _digests(name: str, argv_for) -> str:
    """Run scclab.cli.main(argv_for(out)) into a temporary out; its line of digests.

    A failed run raises SystemExit.
    """
    with tempfile.TemporaryDirectory() as out:
        argv = argv_for(out)
        with contextlib.redirect_stdout(sys.stderr):
            code = scclab.cli.main(argv)
        if code != 0:
            raise SystemExit(f"{name}: {argv[0]} exited with code {code}")
        sums = [hashlib.sha256((Path(out) / result).read_bytes()).hexdigest()
                for result in RESULTS]
    return f"{name}  {argv[0]}  " + "  ".join(sums)


def digest_line(config: Path) -> str:
    """Run one config and return its line of digests; a failed run raises SystemExit."""
    kind = json.loads(config.read_text()).get("kind", config.stem.replace("_", "-"))
    return _digests(config.name, lambda out: [kind, "--config", str(config), "--out", out])


def _load_workloads():
    """perfbench/workloads.py, loaded under its own name so perfbench's import is untouched."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def workload_lines(seed: int, tiny: bool = False):
    """The digest line of each benchmark workload invocation, run at seed as perfbench does."""
    workloads = _load_workloads()
    for name in workloads.WORKLOADS:
        for i, inv in enumerate(workloads.make(name, tiny).invocations):
            with tempfile.TemporaryDirectory() as tmp:
                config = Path(tmp) / "config.json"
                config.write_text(json.dumps(inv.config))
                yield _digests(f"{name}.{i}",
                               lambda out: workloads.argv(inv, config, seed, Path(out)))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="results_digest.py")
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="also digest the benchmark's workload invocations at this seed")
    parser.add_argument("configs", nargs="*", type=Path)
    args = parser.parse_args(argv)
    for config in args.configs or sorted(CONFIGS.glob("*.json")):
        print(digest_line(config), flush=True)
    if args.workload_seed is not None:
        for line in workload_lines(args.workload_seed):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
