"""algact benchmark: time to verdict on four CLI workloads.

    python3 perfbench/run.py --workload family --seed 1 --seconds 20 --trace 0

Drives `algact.cli.main(argv)` in this process as a closed loop with one
client: the next invocation starts when the previous one has returned.  The
documents come from the seeded generators in workloads.py; none repeats
within a run, and every report is checked against the answer its
construction implies.

--trace 0 measures the end-to-end metrics.  Their timings are in reference
seconds: each wall time is scaled by the speed of a fixed kernel timed just
before and after it (speed.py), so that the drifting speed of a shared host
does not show as a change of the program; the unscaled figures are printed
too.  setup_s is the median of SETUP_REPEATS set-ups, each timed from the
start of its own process: this one, and fresh interpreters started after the
timed loop with --setup-only, so every sample pays for a cold import.

--trace 1 runs the same documents once untraced and once with every public
function of the algact layers wrapped from outside the package, then runs
the cliff probes, and reports the per-layer metrics; the spans of the last
traced run of each workload are written to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat the metrics with
their sample counts and list every failed input.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from harness import Harness  # noqa: E402
from probes import run_probes  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Well above the slowest invocation the seed makes on these workloads
# (under one second), so only a cliff or a hang reaches it.
INVOCATION_TIMEOUT_S = 30.0
# A p90 needs at least ten samples beyond it.
MIN_INVOCATIONS = 110
SETUP_REPEATS = 5
PRELOADED_CASES = 16
# Ends a run that a pathological slowdown would stretch past 180 s, the most
# one run may take, whatever MIN_INVOCATIONS says.
WALL_LIMIT_S = 120.0

# Small cases run before timing, so lazily built state and caches are warm.
WARMUP = {
    "family": ["analyze/scalar/n3/d5", "ring/n2/g1/d5"],
    "level": ["groupoid/sqrt3/index2187"],
    "conjugacy": ["toral/n8/conjugate", "ring/degree/6-8"],
    "ideal": ["polyideal/2x2", "poly/same/2x3"],
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "docs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Run:
    metrics: dict
    units: dict
    results: list  # (case, outcome) per invocation measured
    notes: dict  # metric -> sample count or base, for the printed summary
    shares: list | None = None  # traced: self-time share of each prediction row


@contextlib.contextmanager
def scratch_dir():
    """A directory for the documents of one process, removed afterwards."""
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _warmup_cases(workload, seed):
    rng = random.Random(f"{workload}:warmup:{seed}")
    shapes = {shape.label: shape for shape in workloads.WORKLOADS[workload]}
    return [shapes[label].build(rng) for label in WARMUP[workload]]


def setup(workload, seed, workdir, start):
    """Import algact, generate the first inputs and warm up.  Returns the
    harness, the case stream and the reference seconds since `start`."""
    cli = importlib.import_module("algact.cli")
    stream = workloads.cases(workload, seed)
    preloaded = [next(stream) for _ in range(PRELOADED_CASES)]
    harness = Harness(cli, workdir, INVOCATION_TIMEOUT_S)
    for case in _warmup_cases(workload, seed):
        harness.invoke(case)
    elapsed = time.perf_counter() - start
    # The first runs of the kernel in a fresh interpreter are slow.
    after = statistics.median(speed.kernel() for _ in range(5))
    return harness, itertools.chain(preloaded, stream), elapsed * speed.scale(after, after)


def cold_setup_s(workload, seed):
    """Set-up time of a fresh interpreter that runs this script with
    --setup-only."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--setup-only"]
    child = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return float(child.stdout.split()[-1])


def run_loop(harness, stream, busy_s, min_invocations, deadline):
    """Closed loop: invoke until the invocations have taken `busy_s` seconds
    and at least `min_invocations` ran, or the wall-clock deadline passed."""
    results = []
    busy = 0.0
    before = speed.kernel()
    while (busy < busy_s or len(results) < min_invocations) and time.perf_counter() < deadline:
        case = next(stream)
        outcome = harness.invoke(case)
        after = speed.kernel()
        outcome.scale = speed.scale(before, after)
        before = after
        busy += outcome.seconds
        results.append((case, outcome))
    return results


def _report_failures(results, workload, seed):
    failed = [(case, outcome) for case, outcome in results if outcome.problem]
    if not failed:
        return
    OUT.mkdir(exist_ok=True)
    path = OUT / f"failures-{workload}-seed{seed}.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(
            [{"label": c.label, "argv": c.argv, "docs": c.docs, "problem": o.problem} for c, o in failed],
            fh, indent=1,
        )
    print(f"  {len(failed)} failed invocations, inputs written to {path.relative_to(ROOT)}:")
    for case, outcome in failed[:20]:
        print(f"    {case.label}: {outcome.problem}")
        print(f"      argv {case.argv} docs {json.dumps(case.docs)[:400]}")


def end_to_end(results, setup_times, cycle, unscaled=False):
    """`docs_per_s` is the median over complete passes through the shapes
    (`cycle` invocations each, all with the same mix) of correct invocations
    per second, so a burst of load from outside slows one pass, not the
    metric.  Timings are in reference seconds, or in wall seconds with
    `unscaled`."""
    def took(outcome):
        return outcome.seconds if unscaled else outcome.reference_s

    latencies = [took(outcome) for _, outcome in results]
    passes = [results[i:i + cycle] for i in range(0, len(results) - cycle + 1, cycle)] or [results]
    rates = [sum(1 for _, o in p if not o.problem) / sum(took(o) for _, o in p) for p in passes]
    return {
        "setup_s": statistics.median(setup_times),
        "docs_per_s": statistics.median(rates),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(harness, results):
    """Invoke the same cases again with every layer wrapped."""
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i, (case, _) in enumerate(results, start=1):
            tracer.invocation = i
            traced.append((case, harness.invoke(case)))
    finally:
        tracer.uninstall()
    return tracer, traced


def measure(workload, seed, seconds, trace, quick=False):
    """One run.  `quick` shrinks every fixed count and timeout so that the
    self-test finishes in seconds."""
    min_invocations = 3 if quick else MIN_INVOCATIONS
    cycle = len(workloads.WORKLOADS[workload])
    with scratch_dir() as workdir:
        harness, stream, setup_time = setup(workload, seed, workdir, _PROCESS_START)
        if not trace:
            deadline = time.perf_counter() + WALL_LIMIT_S
            results = run_loop(harness, stream, seconds, min_invocations, deadline)
            setup_times = [setup_time]
            setup_times += [cold_setup_s(workload, seed) for _ in range(1 if quick else SETUP_REPEATS - 1)]
            notes = {name: f"n={len(results)}" for name in END_TO_END_UNITS}
            notes.update({"setup_s": f"n={len(setup_times)}", "peak_rss_mb": "n=1",
                          "docs_per_s": f"n={max(1, len(results) // cycle)} passes"})
            return Run(end_to_end(results, setup_times, cycle), END_TO_END_UNITS, results, notes)
        # A quarter of the time, and one pass over every shape at least.  The
        # tighter deadline leaves room for the traced pass and the probes.
        deadline = time.perf_counter() + WALL_LIMIT_S / 4
        untraced = run_loop(harness, stream, seconds / 4, cycle, deadline)
        tracer, traced = traced_pass(harness, untraced)
        overhead = sum(o.seconds for _, o in traced) / sum(o.seconds for _, o in untraced)
        algact = importlib.import_module("algact")
        probes = run_probes(algact, seed, timeout_scale=0.02 if quick else 1.0)
        summary = tracer.summary()
        metrics, bases = layers.per_layer_metrics(summary, len(traced), overhead, probes)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.jsonl.gz")
        notes = {name: f"n={len(traced)}" for name in metrics}
        notes.update({name: f"base: {base}" for name, base in bases.items()})
        notes.update({name: "one call" for name in probes})
        return Run(metrics, layers.metric_units(), traced, notes, layers.prediction_shares(summary))


def _print_human(workload, seed, run):
    busy = sum(o.seconds for _, o in run.results)
    failed = sum(1 for _, o in run.results if o.problem)
    mode = "traced" if run.shares is not None else "untraced"
    print(f"workload {workload}, seed {seed}, {mode}: closed loop, 1 client, "
          f"{len(run.results)} invocations, {busy:.2f} s inside cli.main")
    for name, value in run.metrics.items():
        print(f"  {name:52s} {value:14.6g} {run.units[name]:9s} ({run.notes[name]})")
    if run.shares is None:
        wall = end_to_end(run.results, [math.nan], len(workloads.WORKLOADS[workload]), unscaled=True)
        scales = [o.scale for _, o in run.results]
        print(f"  unscaled wall clock: docs_per_s {wall['docs_per_s']:.6g} 1/s, latency_p50_s "
              f"{wall['latency_p50_s']:.6g} s, latency_p90_s {wall['latency_p90_s']:.6g} s; "
              f"speed scale median {statistics.median(scales):.4g}, range "
              f"{min(scales):.4g}-{max(scales):.4g}")
    print(f"  {'failed_ratio':52s} {failed / len(run.results):14.6g} {'ratio':9s} "
          f"(base: {failed} failed of {len(run.results)} attempted)")
    for row, share in zip(layers.PREDICTIONS, run.shares or []):
        role = next((k for k in ("on", "little", "none") if workload in row[k]), "unmarked")
        print(f"  prediction [{role:8s}] {share:6.1%} of self time, should move "
              f"{'/'.join(row['moves'])}: {', '.join(sorted({m.rpartition('.')[0] for m in row['metrics']}))}")
    _report_failures(run.results, workload, seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)
    if not (SRC / "algact" / "cli.py").is_file():
        print(f"algact sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        with scratch_dir() as workdir:
            print(setup(args.workload, args.seed, workdir, _PROCESS_START)[2])
        return 0
    run = measure(args.workload, args.seed, args.seconds, args.trace)
    _print_human(args.workload, args.seed, run)
    failed = sum(1 for _, o in run.results if o.problem)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": run.units[name]} for name, value in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
