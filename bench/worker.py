"""Benchmark worker: runs a plan of ``grlat`` commands in one fresh
interpreter, one after another, through ``grlat.cli.main(argv)``.

Reads ``{"plan": [[argv, ...], ...], "trace": bool, "probe": bool}`` as
JSON on stdin: a plan is a list of rounds, run in full.  Writes one
JSON object to stdout: per-command records, peak RSS and, when tracing,
the span aggregates and counters.  A record is ``[argv, exit code,
wall seconds, stdout sha256, report fields, reference seconds]``: the
wall time leaves out the speed probe's own time, and the reference time
rescales it by the machine speed sampled around the command and, with
``probe``, during it (see ``calibrate.py``).

Run by ``run.py``; ``PYTHONPATH`` must reach ``src``.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import calibrate

# keys of a TSV report that the checks in workloads.py read
FIELDS = (
    "verdict",
    "results.cases.total",
    "results.cases.passed",
    "results.passes.oracle_identity",
    "config.samples",
)


def parse_fields(out):
    fields = {}
    for line in out.splitlines():
        name, _, value = line.partition("\t")
        if name in FIELDS:
            fields[name] = int(value) if value.lstrip("-").isdigit() else value
    return fields


def run_one(main, argv):
    """Run one command; returns (exit code, wall seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    wall = time.perf_counter() - t0
    return code, wall, out.getvalue()


def run_plan(plan, trace, probe):
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    from grlat.cli import main

    probe = calibrate.Probe() if probe else contextlib.nullcontext()
    records, before = [], calibrate.slice_s()
    for argv in (argv for round_ in plan for argv in round_):
        with probe:
            code, wall, out = run_one(main, argv)
        samples = getattr(probe, "samples", ())
        wall -= getattr(probe, "spent_s", 0.0)
        after = calibrate.slice_s()
        sha = hashlib.sha256(out.encode()).hexdigest()
        records.append([argv, code, wall, sha, parse_fields(out), calibrate.ref_time(wall, before, after, samples)])
        before = after
    result = {
        "records": records,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def main():
    if sys.flags.optimize:
        sys.exit("worker: refusing to run under python -O: grlat's correctness checks are asserts")
    job = json.load(sys.stdin)
    result = run_plan(job["plan"], job["trace"], job["probe"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
