"""Smoke test of the API the benchmark in perfbench/ drives.

The probes call library functions directly (for example
`constructible_family(action, 6)` and `commalg_conditions(gens, names)`), and
the harness runs whole CLI invocations and checks each report against the
answer its input was built to have.  A changed call form or report shape
fails here instead of in a benchmark run.  No timing is asserted.
"""

import itertools
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import algact  # noqa: E402
from algact import cli  # noqa: E402
from harness import Harness  # noqa: E402
from probes import TIMEOUTS, run_probes  # noqa: E402
import workloads  # noqa: E402


def test_probes_run_with_their_call_forms():
    # A probe whose call raises anything but its timeout makes run_probes raise.
    seconds = run_probes(algact, 1, timeout_scale=0.02)
    assert set(seconds) == set(TIMEOUTS)


def test_one_case_per_workload_passes_its_check(tmp_path):
    harness = Harness(cli, tmp_path, timeout_s=30.0)
    for workload in workloads.WORKLOADS:
        case = next(workloads.cases(workload, 3))
        outcome = harness.invoke(case)
        assert outcome.problem is None, (workload, case.label, outcome.problem)


def test_every_level_shape_passes_its_check(tmp_path):
    # One full pass of the level stream runs each shape once: every level
    # shape of the benchmark goes through level_map.
    harness = Harness(cli, tmp_path, timeout_s=30.0)
    shapes = {shape.label for shape in workloads.LEVEL}
    for case in itertools.islice(workloads.cases("level", 3), len(workloads.LEVEL)):
        outcome = harness.invoke(case)
        assert outcome.problem is None, (case.label, outcome.problem)
        shapes.discard(case.label)
    assert not shapes
