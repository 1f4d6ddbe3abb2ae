"""grlat benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload kernel-cyclic --seed 1 --seconds 16 --trace 0

Run from the repository root.  The plan of ``grlat`` commands is made from
the seed (see ``workloads.py``) and run in a closed loop by one fresh
worker interpreter (``worker.py``): one command after another through
``grlat.cli.main(argv)``, no threads.  ``--seconds`` sets the run's work:
whole rounds worth that many seconds at the seed commit.  Every time
the metrics report is in reference seconds: the wall time rescaled by
the machine speed sampled around and during it, which takes out changes
of the shared machine's speed (see ``calibrate.py``).  Every
report is checked: exit code 0, verdict ``pass``, the expected counts,
and a stdout digest equal to the one recorded at the seed commit.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the plan
traced (see ``tracer.py``), replays the same commands untraced for the
overhead ratio and prints the per-layer metrics.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Lines before it record the environment and each metric's sample counts.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 9
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
RUN_LIMIT_S = 170  # the whole run, workers included, ends within this


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(BENCH_DIR), env.get("PYTHONPATH")]))
    return env


def run_worker(plan, trace, timeout, probe=True):
    job = json.dumps({"plan": plan, "trace": trace, "probe": probe})
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        input=job,
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


# Run in each fresh interpreter: a calibration slice, ``import grlat.cli``
# under the speed probe, another slice.  Prints what the parent needs to
# take the calibration's own time out of the spawn-to-imported interval.
SETUP_CODE = """
import json, time
import calibrate
t0 = time.monotonic()
before = calibrate.slice_s()
t1 = time.monotonic()
with calibrate.Probe() as probe:
    import grlat.cli
t2 = time.monotonic()
print(json.dumps([t2, t1 - t0 + probe.spent_s, before, calibrate.slice_s(), probe.samples]))
"""


def setup_times(count):
    """(wall, reference) seconds from spawning a fresh interpreter until
    ``grlat.cli`` is imported, one of each per spawn, without the
    calibration's own time.  CLOCK_MONOTONIC is shared by all processes."""
    times, refs = [], []
    for _ in range(count):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=60,
            check=True,
        )
        imported, calibration_s, before, after, samples = json.loads(out.stdout)
        times.append(imported - t0 - calibration_s)
        refs.append(calibrate.ref_time(times[-1], before, after, samples))
    return times, refs


def tail(times):
    """(value, percentile) of the highest percentile that still has
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def check_records(records, expected, replay=None):
    """(failed count, first few problems) over worker records.  With the
    records of an untraced ``replay`` of the same plan, a command whose
    two digests differ fails too."""
    failed, notes = 0, []
    for i, (argv, code, _wall, sha, fields, *_) in enumerate(records):
        found = workloads.problems(argv, code, sha, fields, expected)
        if replay is not None and replay[i][3] != sha:
            found.append("traced and untraced stdout differ")
        if found:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{workloads.key(argv)}: {'; '.join(found)}")
    return failed, notes


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment():
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy,
        "commit": git_commit(),
        "loadavg_start": loadavg(),
    }


def timings(walls, setup, items):
    """items_per_s, cmd_p50_s, cmd_tail_s and setup_s from command and
    set-up times, with the tail's percentile."""
    tail_s, tail_pct = tail(walls)
    return {
        "items_per_s": items / sum(walls),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail_s,
        "setup_s": statistics.median(setup),
    }, tail_pct


def end_to_end(records, setup):
    """Metrics in reference seconds, and notes that give sample counts
    and the same figures in plain wall seconds."""
    items = sum(workloads.items_of(r[0], r[4]) for r in records)
    ref, tail_pct = timings([r[5] for r in records], setup[1], items)
    wall, _ = timings([r[2] for r in records], setup[0], items)
    units = {"items_per_s": "1/s", "cmd_p50_s": "s", "cmd_tail_s": "s", "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in ref.items()}
    notes = {
        "items": items,
        "cmd_p50_s": {"samples": len(records)},
        "cmd_tail_s": {"percentile": round(tail_pct, 1), "samples": len(records)},
        "setup_s": {"spawns": len(setup[0])},
        "wall": wall,
    }
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("run.py: refusing to run under python -O: grlat's correctness checks are asserts")
    if not (SRC / "grlat" / "cli.py").is_file():
        sys.exit(f"run.py: no grlat sources under {SRC}; run from a checkout of the repository")

    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    expected = workloads.load_expected()
    plan = workloads.make_plan(args.workload, args.seed, args.seconds, expected)
    if args.trace:
        # The probe's handler would run inside traced spans, so neither
        # run samples speed during commands and the overhead ratio
        # compares like with like.
        traced = run_worker(plan, True, deadline - time.monotonic(), probe=False)
        records = traced["records"]
        replay = run_worker(plan, False, deadline - time.monotonic(), probe=False)
        failed, problems = check_records(records, expected, replay["records"])
        samples = sum(workloads.items_of(r[0], r[4]) for r in records if r[0][0] == "spectrum")
        metrics = tracer.layer_metrics(
            traced["trace"],
            sum(r[2] for r in records),
            sum(r[5] for r in records) / sum(r[5] for r in replay["records"]),
            samples,
        )
        notes = {}
    else:
        setup_times(1)  # compiles bytecode on a fresh checkout; not measured
        setup = setup_times(SETUP_SPAWNS)
        untraced = run_worker(plan, False, deadline - time.monotonic())
        records = untraced["records"]
        failed, problems = check_records(records, expected)
        metrics, notes = end_to_end(records, setup)
        metrics["peak_rss_mib"] = (untraced["peak_rss_kib"] / 1024, "MiB")
    attempted = len(records)
    env["loadavg_end"] = loadavg()
    notes["fail_ratio"] = failed / attempted
    notes["problems"] = problems

    print("env " + json.dumps(env))
    print("notes " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric fail_ratio {notes['fail_ratio']:.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
