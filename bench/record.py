"""Record ``expected.json``: stdout digest, item count and wall time of
every command any benchmark plan can contain.

    python3 bench/record.py

Run from the repository root at the commit whose reports are the
reference.  Reports are byte-identical by contract, so the digests hold
for every later commit; the wall times only sort commands into strata
(``workloads.strata``) and should be recorded again only with a change
that redefines the benchmark.
"""

import json
import sys

import run
import workloads


def main():
    plan = [argv for w in workloads.WORKLOADS for stratum in workloads.universe(w) for argv in stratum]
    # The plan runs twice in one worker: the digests of the two passes must
    # agree, and times come from the second pass, after lazy imports and
    # caches have settled.
    records = run.run_worker([plan, plan], False, timeout=3600)["records"]
    first, second = records[: len(plan)], records[len(plan) :]
    commands, bad = {}, []
    for (argv, code, _, sha0, *_), (_, _, wall, sha, fields, _) in zip(first, second):
        if code != 0 or fields.get("verdict") != "pass" or sha0 != sha:
            bad.append(f"{workloads.key(argv)} (exit {code})")
        commands[workloads.key(argv)] = {
            "sha256": sha,
            "items": workloads.items_of(argv, fields),
            "ms": round(wall * 1000, 1),
        }
    if bad:
        sys.exit("record.py: failed or unstable: " + ", ".join(bad))
    env = run.environment()
    del env["loadavg_start"]
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"recorded": env, "commands": commands}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(commands)} commands to {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
