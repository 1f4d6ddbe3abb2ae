"""The four benchmark workloads: which ``grlat`` commands each one runs,
how a seed turns them into a plan, and how each command's report is
checked.

Every workload is a list of strata, and a plan is a sequence of rounds:
each round takes the next command of every stratum (the seed shuffles
each stratum once) and runs them in a seeded order.  A run is a fixed
number of whole rounds, as many as fit the run's seconds by the times
recorded at the seed commit.  So every run of a workload does the same
mix of work and the same number of commands, however fast the program,
and its time percentiles compare the same order statistic across
commits.

For spectrum a stratum is one (p, r, samples) shape and the seed draws
its sample seeds.  The catalogue workloads make every command its own
stratum: a round is the whole catalogue in a seeded order.  Their command
costs span three decades, and drawing a seeded subset per size band made
the end-to-end metrics of two seeds differ by 15-50%.

Every command a plan can contain has a stdout digest, item count and
wall time recorded at the seed commit in ``expected.json`` (see
``record.py``).  The digest and item count are what each report is
checked against; the recorded time only sizes the plan.
"""

import json
from pathlib import Path
from random import Random

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("kernel-cyclic", "spectrum", "verify-modules", "monoid")

# kernel-cyclic: `verify N --checks kernel` for cyclic N in 2..81, the
# criterion-6 range.  A sweep's work grows like rows * N^2 (rows = report
# rows).  The 24 orders above this cap, all composites from 42 up, take
# 0.7-7 s each at the seed commit; with them a run would hold a handful
# of commands.  The primes up to 79 stay, so matrices up to
# 158 x 79 are still met.  All 80 orders are recorded in expected.json,
# so the cap can be moved without recording again.
KERNEL_ORDERS = range(2, 82)
KERNEL_SIZE_CAP = 80_000

# verify-modules: criterion 4/5's module catalogue (9, 27, 3,3, 15) plus
# small groups of the same kinds: cyclic and noncyclic p-groups (which
# also run the unit check) and mixed-prime groups, whose triviality rows
# run Hensel lifting and sympy's factorization.  Left out: 3,9 (about
# 10 s, half a run) and 5,5 (3 s), which would leave too few commands in
# a run; 2,6, nine of whose triviality rows (p=2, chi=1) fail at the
# seed commit, so it exits 2; and 2, so that the count is odd: with an
# even count the median command time falls between the copies of two
# different groups and jumps with their order.
MODULE_GROUPS = (
    "3", "4", "5", "7", "8", "9", "25", "27", "2,2", "2,4", "3,3",
    "6", "10", "12", "14", "15", "21",
)

# monoid: the noncyclic groups of criterion 3's catalogue.  Left out:
# 2,2,4, which alone peaks at 311 MiB, so the run's peak RSS would depend
# on whether the seed drew it; and 2,2,2,2 (4 s, a fifth of a run).  The
# memory peak, about 240 MiB, comes from 3,3,3 and 4,8.
MONOID_GROUPS = (
    "3,3", "2,4", "5,5", "4,8", "3,3,3", "7,7", "2,32", "3,6", "2,6",
    "6,6", "2,30", "2,2,12", "10,10", "3,21", "2,50", "4,12", "3,9",
    "2,2,18",
)

# spectrum: one stratum per (p, r, samples); each draws its --seed from a
# fixed pool of sample seeds.
SPECTRUM_SHAPES = ((5, 2, 4), (5, 2, 8), (5, 2, 16), (3, 3, 4), (3, 3, 8), (3, 3, 16))
SPECTRUM_SEED_POOL = range(64)


def is_p_group(spec):
    order = 1
    for f in spec.split(","):
        order *= int(f)
    p = next(d for d in range(2, order + 1) if order % d == 0)
    while order % p == 0:
        order //= p
    return order == 1


def kernel_argv(n):
    return ["verify", str(n), "--checks", "kernel"]


def module_argv(spec):
    checks = "tate,ext,triviality,unit" if is_p_group(spec) else "tate,ext,triviality"
    return ["verify", spec, "--checks", checks]


def monoid_argv(spec):
    return ["monoid", spec]


def spectrum_argv(p, r, samples, seed):
    return ["spectrum", "--p", str(p), "--r", str(r), "--samples", str(samples), "--seed", str(seed)]


def key(argv):
    return " ".join(argv)


def universe(workload):
    """The strata of ``workload`` before any seed is applied, as argv lists."""
    if workload == "spectrum":
        return [[spectrum_argv(p, r, k, s) for s in SPECTRUM_SEED_POOL] for p, r, k in SPECTRUM_SHAPES]
    if workload == "kernel-cyclic":
        argvs = [kernel_argv(n) for n in KERNEL_ORDERS]
    elif workload == "verify-modules":
        argvs = [module_argv(g) for g in MODULE_GROUPS]
    elif workload == "monoid":
        argvs = [monoid_argv(g) for g in MONOID_GROUPS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [argvs]


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def strata(workload, expected):
    """The strata a plan draws from: per-shape seed pools for spectrum,
    one command each for the catalogue workloads."""
    groups = universe(workload)
    if workload == "spectrum":
        return groups
    argvs = groups[0]
    if workload == "kernel-cyclic":
        argvs = [a for a in argvs if expected[key(a)]["items"] * int(a[1]) ** 2 <= KERNEL_SIZE_CAP]
    return [[a] for a in argvs]


def make_plan(workload, seed, seconds, expected):
    """The seeded rounds of one run, each a list of argv lists."""
    rng = Random(f"{workload}:{seed}")
    pools = [list(s) for s in strata(workload, expected)]
    for pool in pools:
        rng.shuffle(pool)
    plan, spent_ms = [], 0.0
    while True:
        round_ = [pool[len(plan) % len(pool)] for pool in pools]
        rng.shuffle(round_)
        round_ms = sum(expected[key(a)]["ms"] for a in round_)
        if plan and spent_ms + round_ms / 2 > seconds * 1000:
            return plan
        plan.append(round_)
        spent_ms += round_ms


# ---------------------------------------------------------------------------
# report checks


def items_of(argv, fields):
    """Verified items in one report: rows for verify, samples for
    spectrum, one group for monoid."""
    if argv[0] == "verify":
        return int(fields.get("results.cases.total", 0))
    if argv[0] == "spectrum":
        return int(fields.get("config.samples", 0))
    return 1


def problems(argv, code, sha256, fields, expected):
    """Everything wrong with one command's outcome; empty when it passed."""
    out = []
    want = expected.get(key(argv))
    if want is None:
        return ["no recorded digest"]
    if code != 0:
        out.append(f"exit code {code}")
    if fields.get("verdict") != "pass":
        out.append(f"verdict {fields.get('verdict')!r}")
    if argv[0] == "verify":
        total, passed = fields.get("results.cases.total"), fields.get("results.cases.passed")
        if total is None or total != passed:
            out.append(f"cases passed {passed} of {total}")
    if argv[0] == "spectrum":
        if fields.get("results.passes.oracle_identity") != fields.get("config.samples"):
            out.append("oracle identity short of samples")
    if items_of(argv, fields) != want["items"]:
        out.append(f"items {items_of(argv, fields)} != recorded {want['items']}")
    if sha256 != want["sha256"]:
        out.append("stdout digest differs from the recorded one")
    return out
