"""Quick self-test of the benchmark harness (about a minute):

    python3 perfbench/selftest.py

Checks, for every workload, that the same seed gives the same inputs, that
an untraced and a traced run emit every metric BENCHMARK.json names, that a
deliberately wrong expected answer is reported as a failure, and that the
invocation timeout turns a slow call into a failure instead of a hang.
"""

import copy
import importlib
import itertools
import json
import shutil
import sys

import run
import workloads
from harness import Harness

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _corrupt(expect):
    """A copy of `expect` with one checked field changed."""
    wrong = copy.deepcopy(expect)
    for key in ("dimensions", "dimension", "index", "rank", "status"):
        if key in wrong:
            value = wrong[key]
            wrong[key] = value + ["0"] if isinstance(value, list) else (value + 1 if isinstance(value, int) else "wrong")
            return wrong
    raise AssertionError(f"no field to corrupt in {sorted(expect)}")


def check_workload(workload, harness):
    first = [(c.argv, c.docs) for c in itertools.islice(workloads.cases(workload, 7), 5)]
    again = [(c.argv, c.docs) for c in itertools.islice(workloads.cases(workload, 7), 5)]
    assert first == again, f"{workload}: seed 7 gave different inputs on two calls"

    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    untraced = run.measure(workload, 1, 0.2, 0, quick=True)
    assert set(untraced.metrics) == names, f"{workload}: untraced metrics {sorted(untraced.metrics)} != {sorted(names)}"
    assert not any(o.problem for _, o in untraced.results), f"{workload}: {[o.problem for _, o in untraced.results]}"

    names = {m["name"] for m in BENCHMARK["per_layer"]}
    traced = run.measure(workload, 1, 0.2, 1, quick=True)
    assert set(traced.metrics) == names, f"{workload}: traced metrics differ by {sorted(set(traced.metrics) ^ names)}"

    for case in itertools.islice(workloads.cases(workload, 3), len(workloads.WORKLOADS[workload])):
        assert harness.invoke(case).problem is None, f"{workload}: {case.label} failed"
        case.expect = _corrupt(case.expect)
        assert harness.invoke(case).problem, f"{workload}: wrong answer for {case.label} was not caught"


def check_timeout(harness):
    case = next(c for c in workloads.cases("ideal", 1) if c.label == "polyideal/3x4")
    outcome = Harness(harness.cli, harness.workdir, 1e-3).invoke(case)
    assert outcome.problem and outcome.problem.startswith("timeout"), outcome


def main():
    sys.path.insert(0, str(run.SRC))
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        harness = Harness(importlib.import_module("algact.cli"), workdir, run.INVOCATION_TIMEOUT_S)
        for workload in sorted(workloads.WORKLOADS):
            check_workload(workload, harness)
            print(f"ok {workload}")
        check_timeout(harness)
        print("ok timeout")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
