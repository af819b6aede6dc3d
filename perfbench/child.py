"""One scclab CLI invocation in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds the CLI argv, whether to trace, the run id and the path of the
report to write.  The report gives the CLOCK_MONOTONIC instant at which
`import scclab.cli` had finished (the parent subtracts its spawn instant),
the seconds spent inside `cli.main`, its exit code and, when traced, the
spans and oracle findings.  Nothing but the standard library is imported
before scclab, so the set-up time is what a CLI user pays.
"""

import json
import sys
import time

import scclab.cli

READY = time.monotonic()


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    entry = scclab.cli.main
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
        entry = tracer.wrap("cli.main", entry)
    start = time.perf_counter()
    rc = entry(spec["argv"])
    wall = time.perf_counter() - start
    report = {"ready": READY, "wall_s": wall, "rc": rc}
    if tracer is not None:
        report.update(tracer.report())
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
