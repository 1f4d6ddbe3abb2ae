"""Self-tests of the benchmark.

    python3 -m pytest -q bench/tests

Tiny runs of every workload in both modes print every metric that
BENCHMARK.json names, with its unit; a corrupted report counts as a
failure; traced and untraced runs print identical reports.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    lines = tiny_run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert "metric fail_ratio 0 ratio" in lines


def test_plan_depends_only_on_seed():
    expected = workloads.load_expected()
    for w in workloads.WORKLOADS:
        a = workloads.make_plan(w, 5, 1, expected)
        assert a == workloads.make_plan(w, 5, 1, expected)
        assert a != workloads.make_plan(w, 6, 1, expected)
        assert all(workloads.key(argv) in expected for round_ in a for argv in round_)


def test_corrupted_report_counts_as_failed():
    expected = workloads.load_expected()
    plan = [[workloads.kernel_argv(6), workloads.monoid_argv("3,3")]]
    records = run.run_worker(plan, False, 120)["records"]
    assert run.check_records(records, expected) == (0, [])
    flipped = [list(r) for r in records]
    flipped[0][4] = dict(flipped[0][4], verdict="fail")
    digest = [list(r) for r in records]
    digest[1][3] = "0" * 64
    short = [list(r) for r in records]
    short[0][4] = dict(short[0][4], **{"results.cases.passed": 0})
    for bad in (flipped, digest, short):
        failed, notes = run.check_records(bad, expected)
        assert failed == 1 and notes
    assert run.check_records(records, expected, digest)[0] == 1


def test_traced_and_untraced_digests_agree():
    plan = [workloads.make_plan("verify-modules", 2, 1, workloads.load_expected())[0][:4]]
    plan.append([workloads.spectrum_argv(5, 2, 4, 0)])
    traced = run.run_worker(plan, True, 120)
    untraced = run.run_worker(plan, False, 120)
    assert [r[3] for r in traced["records"]] == [r[3] for r in untraced["records"]]
    assert traced["trace"]["spans"]


def test_refuses_optimized_interpreter():
    proc = subprocess.run(
        [sys.executable, "-O", "bench/run.py", "--workload", "monoid", "--seconds", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout


def test_reference_time_takes_out_machine_speed():
    unit = calibrate.REF_UNIT_S
    ref = unit * calibrate.REPS
    assert calibrate.ref_time(3.0, ref, ref) == pytest.approx(3.0)
    # a machine at half speed doubles the command, its slices and samples
    assert calibrate.ref_time(2.0, 2 * ref, 2 * ref, [2 * unit] * 5) == pytest.approx(1.0)
    with calibrate.Probe() as probe:
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:
            pass
    assert len(probe.samples) >= 5 and all(s > 0 for s in probe.samples)
