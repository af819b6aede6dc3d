"""scclab benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload edge-mc --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run repeats the workload's CLI invocations until `--seconds` is spent.
Every invocation is a fresh interpreter (`perfbench/child.py`) with BLAS
pinned to one thread, because CLI users pay interpreter start-up and the
memoized classical locations on every run, and a warm process would hide
them.  Untraced repetitions give the end-to-end metrics; with `--trace 1`
traced and untraced repetitions alternate, the traced ones give the
per-layer metrics and the difference of the two is the tracing overhead.

Every invocation's outputs are checked (`workloads.check_outputs`), every
repetition must reproduce the first one's `results.*` bytes, and traced
repetitions add exact oracles and a coverage guard (`tracing`).  The last
stdout line is the result object; the line before it holds the machine
context and the sample count behind each median.  A fuller record, with
every sample and every span, is written under `.perfbench/results/`.
`--smoke` runs all workloads at tiny sizes and checks the result schema
against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
RUN_BUDGET_S = 170.0      # every run must end within 180 s
MIN_REPS = 3

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "sampler.pair_ms.gaussian.p50": "ms",
    "sampler.pair_ms.gaussian.p95": "ms",
    "sampler.pair_ms.pareto.p50": "ms",
    "sampler.pair_ms.pareto.p95": "ms",
    "sampler.calls": "count",
    "sampler.mb_generated": "MB",
    "scc_core.spectrum_ms.n400": "ms",
    "scc_core.spectrum_ms.n800": "ms",
    "scc_core.whitened_cross_calls": "count",
    "scc_core.whitened_cross_per_local_law": "ratio",
    "scc_core.failures": "count",
    "edge_stats.goe_ms_per_trial": "ms",
    "edge_stats.ks_ms": "ms",
    "edge_stats.trial_failures": "count",
    "edge_stats.attempts_per_trial": "ratio",
    "spectral_model.quantiles_ms.q40": "ms",
    "spectral_model.quantiles_ms.q80": "ms",
    "spectral_model.quantiles_ms.q160": "ms",
    "spectral_model.stieltjes_us": "us",
    "spectral_model.pi_limit_ms": "ms",
    "linearized_resolvent.schur_ms": "ms",
    "linearized_resolvent.local_law_ms": "ms",
    "linearized_resolvent.compare_self_ms": "ms",
    "linearized_resolvent.identity_residual_max": "ratio",
    "linearized_resolvent.trace_identity_max": "ratio",
    "cli.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "share.cli": "%",
    "share.sampler": "%",
    "share.scc_core": "%",
    "share.edge_stats": "%",
    "share.spectral_model": "%",
    "share.linearized_resolvent": "%",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "failed_frac": "ratio",
}
LAYER_NAMES = [k.split(".", 1)[1] for k in PER_LAYER if k.startswith("share.")]


@dataclass
class Child:
    """Outcome of one invocation process."""

    problems: list = field(default_factory=list)
    setup_s: float = math.nan
    wall_s: float = math.nan
    rss_mib: float = math.nan
    bytes_written: int = 0
    digest: str = ""
    spans: list = field(default_factory=list)


@dataclass
class Rep:
    traced: bool
    children: list

    @property
    def ok(self) -> bool:
        return not any(c.problems for c in self.children)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(BLAS_ENV)
    return env


def _run_child(spec: dict, work: Path, deadline: float) -> tuple[int | None, float, float]:
    """Spawn child.py on SPEC; return (exit code or None on timeout, spawn instant, RSS MiB)."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(work / "child.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), str(spec_path)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, spawned, usage.ru_maxrss / 1024.0
            if time.monotonic() > deadline:
                return None, spawned, math.nan
            time.sleep(0.01)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def run_invocation(inv: workloads.Invocation, seed: int, traced: bool, run_id: str,
                   work: Path, deadline: float) -> Child:
    child = Child()
    work.mkdir(parents=True)
    out, report_path = work / "out", work / "report.json"
    (work / "config.json").write_text(json.dumps(inv.config))
    spec = {"argv": workloads.argv(inv, work / "config.json", seed, out),
            "trace": traced, "run_id": run_id, "report": str(report_path)}
    rc, spawned, child.rss_mib = _run_child(spec, work, deadline)
    if rc != 0 or not report_path.is_file():
        log = (work / "child.log").read_text()[-2000:]
        child.problems.append(f"{run_id} {inv.kind}: exit {rc}\n{log}")
        return child
    report = json.loads(report_path.read_text())
    child.setup_s = report["ready"] - spawned
    child.wall_s = report["wall_s"]
    child.spans = report.get("spans", [])
    child.problems += [f"{run_id} oracle: {p}" for p in report.get("problems", [])]
    child.problems += [f"{run_id} {inv.kind}: {p}" for p in workloads.check_outputs(inv, out)]
    digest = hashlib.sha256()
    for name in ("results.csv", "results.json"):
        if (out / name).is_file():
            digest.update((out / name).read_bytes())
    child.digest = digest.hexdigest()
    child.bytes_written = sum(f.stat().st_size for f in out.iterdir() if f.is_file())
    shutil.rmtree(work)
    return child


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
            work: Path) -> list[Rep]:
    """Repeat the workload until SECONDS are spent (at least MIN_REPS, 2 when traced)."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    reps: list[Rep] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        index = len(reps)
        reps.append(Rep(traced, [
            run_invocation(inv, seed, traced, f"r{index}i{i}", work / f"r{index}i{i}", deadline)
            for i, inv in enumerate(workload.invocations)]))
        elapsed = time.monotonic() - start
        typical = elapsed / len(reps)
        enough = len(reps) >= (2 if trace else MIN_REPS)
        if elapsed + typical > RUN_BUDGET_S or (enough and elapsed + typical > seconds):
            break
    return reps


# ---------------------------------------------------------------- metrics

def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def _p95(xs) -> float:
    xs = list(xs)
    if len(xs) < 2:
        return float(xs[0]) if xs else 0.0
    return float(statistics.quantiles(xs, n=20, method="inclusive")[18])


def end_to_end(workload: workloads.Workload, reps: list[Rep]) -> tuple[dict, dict]:
    """Medians over untraced repetitions, and the samples behind them."""
    good = [r for r in reps if not r.traced and r.ok]
    work = sum(inv.work for inv in workload.invocations)
    samples = {
        "wall_s": [r.wall_s for r in good],
        "setup_s": [c.setup_s for r in good for c in r.children],
        "work_per_s": [work / r.wall_s for r in good],
        "peak_rss_mib": [max(c.rss_mib for c in r.children) for r in good],
    }
    return {k: _median(v) for k, v in samples.items()}, samples


def _span_table(rep: Rep) -> dict:
    """name -> [(duration ms, self ms, attrs)] for every span of one repetition."""
    table = defaultdict(list)
    for child in rep.children:
        inner = [0] * len(child.spans)
        for _, start, end, parent, _, _ in child.spans:
            if parent >= 0:
                inner[parent] += end - start
        for i, (name, start, end, _, _, attrs) in enumerate(child.spans):
            table[name].append(((end - start) / 1e6, (end - start - inner[i]) / 1e6, attrs))
    return table


def _matching(spans, match: dict) -> list:
    return [s for s in spans if all(s[2].get(k) == v for k, v in match.items())]


def per_layer(workload: workloads.Workload, reps: list[Rep]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions, plus coverage problems."""
    traced = [r for r in reps if r.traced and r.ok]
    tables = [_span_table(r) for r in traced]
    pairs = sum(inv.pairs for inv in workload.invocations)
    pair, schur = "edge_stats.sample_pair", "linearized_resolvent.blocks_via_schur"
    local_law = "linearized_resolvent.local_law_errors"

    def spans(name, **match):
        """(ms, self ms, attrs) of every traced call of NAME whose attrs match."""
        return _matching([s for t in tables for s in t.get(name, ())], match)

    def ms(name, **match):
        return [s[0] for s in spans(name, **match)]

    def per_rep(fn):
        return _median(fn(t) for t in tables)

    def count(t, name, **match):
        return len(_matching(t.get(name, ()), match))

    def cold_ms(t, name, **match):
        first = _matching(t.get(name, ()), match)
        return first[0][0] if first else 0.0

    def sampler(t):
        return [s for name, ss in t.items() if name.startswith("sampler.") for s in ss]

    self_by_layer = defaultdict(float)
    for t in tables:
        for name, ss in t.items():
            self_by_layer[name.split(".")[0]] += sum(s[1] for s in ss)
    root = sum(ms("cli.main")) or 1.0
    untraced = [r.wall_s for r in reps if not r.traced and r.ok]

    metrics = {
        "sampler.pair_ms.gaussian.p50": _median(ms(pair, law="gaussian")),
        "sampler.pair_ms.gaussian.p95": _p95(ms(pair, law="gaussian")),
        "sampler.pair_ms.pareto.p50": _median(ms(pair, law="pareto")),
        "sampler.pair_ms.pareto.p95": _p95(ms(pair, law="pareto")),
        "sampler.calls": per_rep(lambda t: len(sampler(t))),
        "sampler.mb_generated": per_rep(lambda t: sum(s[2].get("bytes", 0) for s in sampler(t)) / 1e6),
        "scc_core.spectrum_ms.n400": _median(ms("scc_core.ccc_eigenvalues", n=400)),
        "scc_core.spectrum_ms.n800": _median(ms("scc_core.ccc_eigenvalues", n=800)),
        "scc_core.whitened_cross_calls": per_rep(lambda t: count(t, "scc_core.whitened_cross")),
        "scc_core.whitened_cross_per_local_law": per_rep(
            lambda t: count(t, "scc_core.whitened_cross") / count(t, local_law)
            if count(t, local_law) else 0.0),
        "scc_core.failures": per_rep(lambda t: count(t, "scc_core.ccc_eigenvalues", error=True)),
        "edge_stats.goe_ms_per_trial": _median(
            d / a["trials"] for d, _, a in spans("edge_stats.goe_reference")),
        "edge_stats.ks_ms": _median(ms("edge_stats.ks_two_sample")),
        "edge_stats.trial_failures": per_rep(lambda t: count(t, pair) - pairs),
        "edge_stats.attempts_per_trial": per_rep(lambda t: count(t, pair) / pairs),
        "spectral_model.stieltjes_us": 1e3 * _median(ms("spectral_model.stieltjes")),
        "spectral_model.pi_limit_ms": _median(ms("spectral_model.pi_limit")),
        "linearized_resolvent.schur_ms": _median(ms(schur)),
        "linearized_resolvent.local_law_ms": _median(ms(local_law)),
        "linearized_resolvent.compare_self_ms": _median(s[1] for s in spans(local_law)),
        "linearized_resolvent.identity_residual_max": max(
            (s[2]["residual"] for s in spans(schur)), default=0.0),
        "linearized_resolvent.trace_identity_max": max(
            (s[2]["trace_identity"] for s in spans(schur)), default=0.0),
        "cli.self_ms": per_rep(lambda t: sum(s[1] for s in t.get("cli.main", ()))),
        "cli.bytes_written": _median(sum(c.bytes_written for c in r.children)
                                     for r in reps if r.ok),
        "trace.overhead_s": _median(r.wall_s for r in traced) - _median(untraced),
        "trace.spans": per_rep(lambda t: sum(len(ss) for ss in t.values())),
        "failed_frac": _failed(reps) / _attempted(reps),
    }
    for q in (40, 80, 160):
        metrics[f"spectral_model.quantiles_ms.q{q}"] = per_rep(
            lambda t: cold_ms(t, "spectral_model.classical_locations", q=q))
    for layer in LAYER_NAMES:
        metrics[f"share.{layer}"] = 100.0 * self_by_layer[layer] / root

    problems = [] if traced else ["no traced repetition completed"]
    seen = {name for t in tables for name in t}
    missing = [name for name in workload.expected_spans if name not in seen]
    if traced and missing:
        problems.append(f"trace coverage: no span recorded for {missing}")
    return metrics, problems


def _attempted(reps: list[Rep]) -> int:
    return sum(len(r.children) for r in reps)


def _failed(reps: list[Rep]) -> int:
    return sum(1 for r in reps for c in r.children if c.problems)


def reproducibility(workload: workloads.Workload, reps: list[Rep]) -> list[str]:
    """results.* of every repetition must match the first one byte for byte."""
    problems = []
    for i in range(len(workload.invocations)):
        digests = {r.children[i].digest for r in reps if r.ok}
        if len(digests) > 1:
            problems.append(f"invocation {i}: results.* differ between repetitions")
    return problems


def machine_context() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record (the result object is `record["result"]`)."""
    workload = workloads.make(name, tiny)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        reps = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values, samples = end_to_end(workload, reps)
    problems = [p for r in reps for c in r.children for p in c.problems]
    problems += reproducibility(workload, reps)
    if trace:
        values, layer_problems = per_layer(workload, reps)
        problems += layer_problems
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": _attempted(reps),
        "failed": _failed(reps),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    spans = [c.spans for r in reps if r.traced for c in r.children]
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "tiny": tiny, "repetitions": len(reps), "samples": samples,
            "problems": problems, "result": result, "spans": spans}


# ---------------------------------------------------------------- entry points

def _schema_problems(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append("run not correct or had failures")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"metrics {got} differ from BENCHMARK.json {want}")
    for k, v in result["metrics"].items():
        if set(v) != {"value", "unit"} or not isinstance(v["value"], (int, float)) \
                or not math.isfinite(v["value"]):
            problems.append(f"metric {k} malformed: {v}")
    return problems


def smoke() -> int:
    """All workloads at tiny sizes, untraced and traced, checked against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    status = 0 if sorted(declared) == sorted(workloads.WORKLOADS) else 1
    if status:
        print(f"FAIL workloads {declared} differ from {sorted(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run(name, seed=1, seconds=0, trace=trace, tiny=True)
            problems = record["problems"] + _schema_problems(
                record["result"], spec["per_layer" if trace else "end_to_end"])
            print(f"{'FAIL' if problems else 'ok  '} {name} trace={int(trace)} "
                  f"reps={record['repetitions']}" + "".join(f"\n    {p}" for p in problems))
            status |= bool(problems)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check the output schema")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "scclab" / "cli.py").is_file():
        print(f"scclab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    record = run(args.workload, args.seed % 2 ** 64, args.seconds, bool(args.trace))
    record["context"] = machine_context()
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"context": record["context"], "record": str(path.relative_to(ROOT)),
                      "sample_counts": {k: len(v) for k, v in record["samples"].items()}}))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
