"""Print, pin or check the sha256 of the results.csv and results.json of each run.

    PYTHONPATH=src python3 tools/results_digest.py [--workload-seed N] [CONFIG ...]
    PYTHONPATH=src python3 tools/results_digest.py --write | --check

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

--write runs the pinned runs, configs/density_table.json,
configs/quantiles.json, configs/spectrum.json and the workload
invocations at seed 1, and writes their digests to DIGESTS.json at the
repository root, with the environment they were computed in: the numpy
version and the configuration and core name of numpy's OpenBLAS, which
picks its kernels per CPU.  --check runs them again and compares: exit
status 0 when every digest matches, 1 when one differs (each differing
run is printed), and 2, with the reason, when this environment is not
the pinned one, where the digests cannot be compared.
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

import numpy as np

import scclab.cli
from scclab._linalg import openblas_runtime

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DIGESTS = ROOT / "DIGESTS.json"
RESULTS = ("results.csv", "results.json")
PINNED_CONFIGS = ("density_table.json", "quantiles.json", "spectrum.json")
PINNED_SEED = 1


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


def environment() -> dict:
    """The numpy version and the configuration and core name of numpy's ILP64 OpenBLAS.

    The OpenBLAS entries are null where no loaded library exports them.
    """
    runtime = openblas_runtime()
    return {"numpy": np.__version__, "openblas_config": runtime["config"],
            "openblas_corename": runtime["corename"]}


def pinned_lines(tiny: bool = False) -> list[str]:
    """The digest lines of the pinned runs: the pinned configs, then the workloads at seed 1."""
    lines = [digest_line(CONFIGS / name) for name in PINNED_CONFIGS]
    return lines + list(workload_lines(PINNED_SEED, tiny))


def _runs(lines: list[str]) -> dict:
    """DIGESTS.json's "runs": each digest line as name -> {kind, results.csv, results.json}."""
    return {name: dict(zip(("kind", *RESULTS), rest))
            for name, *rest in (line.split() for line in lines)}


def write(path: Path = DIGESTS, tiny: bool = False) -> None:
    """Run the pinned runs and write their digests and environment to path."""
    pinned = {"environment": environment(), "workload_seed": PINNED_SEED,
              "runs": _runs(pinned_lines(tiny))}
    path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def check(path: Path = DIGESTS, tiny: bool = False) -> tuple[int, list[str]]:
    """(exit status, messages) of comparing the pinned runs with the digests in path.

    Status 2, with the differing environment entries, where this is not
    the pinned environment; nothing is run then.  Otherwise 0, or 1 with
    one message per run whose digests differ or that is missing from
    either side.
    """
    pinned = json.loads(path.read_text())
    here = environment()
    differ = [f"{key}: pinned {pinned['environment'].get(key)!r}, here {value!r}"
              for key, value in here.items() if pinned["environment"].get(key) != value]
    if differ:
        return 2, ["not the pinned environment, digests not compared: " + "; ".join(differ)]
    runs = _runs(pinned_lines(tiny))
    messages = [f"{name}: pinned {pinned['runs'].get(name)}, here {runs.get(name)}"
                for name in sorted(set(runs) | set(pinned["runs"]))
                if runs.get(name) != pinned["runs"].get(name)]
    return (1 if messages else 0), messages


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="results_digest.py")
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="also digest the benchmark's workload invocations at this seed")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help=f"pin the digests of the pinned runs in {DIGESTS.name}")
    mode.add_argument("--check", action="store_true",
                      help=f"compare the pinned runs with {DIGESTS.name}")
    parser.add_argument("configs", nargs="*", type=Path)
    args = parser.parse_args(argv)
    if args.write:
        write()
        print(f"wrote {DIGESTS}")
        return 0
    if args.check:
        status, messages = check()
        for message in messages:
            print(message)
        return status
    for config in args.configs or sorted(CONFIGS.glob("*.json")):
        print(digest_line(config), flush=True)
    if args.workload_seed is not None:
        for line in workload_lines(args.workload_seed):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
