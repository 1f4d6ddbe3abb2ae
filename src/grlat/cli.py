"""Command line surface: monoid analysis, verification sweeps, spectrum
batches, and ingestion of externally computed class-group tables.

Exit codes are a contract: 0 all checks pass, 2 at least one check
failed, 64 usage error, 65 capacity exceeded, 66 malformed input data.
Reports contain integers and fixed strings only, so identical flags and
seed reproduce byte-identical output.
"""

import argparse
import csv
import functools
import gc
import json
import math
import os
import sys
from importlib import resources

from .abelian import ELEMENT_CAP, is_prime, make_group, p_split, prime_factors
from .cohomology import prediction_verdict, triviality_criterion
from .errors import (
    CapacityError,
    GrlatError,
    InvalidFactorError,
    ScopeError,
    UnitNotFoundError,
)
from .grouprings import check_ring_order, group_ring, inertia_module
from .lattices import (
    verify_extension_sequence,
    verify_kernel_presentation,
    verify_unit_transport,
)
from .monoid import analyze_monoid, build_pair_sets
from .spectrum import _check_scope, predicted_membership, sample_spectrum, verify_claims

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_USAGE = 64
EXIT_CAPACITY = 65
EXIT_DATA = 66

VERIFY_CHECKS = ("tate", "kernel", "ext", "triviality", "unit")
# the sweeps refused past RING_ORDER_CAP: kernel and ext work in the
# group ring Z[G]; unit builds no ring at all, but keeps the cap until
# verify has a cost bound of its own (ROADMAP, open item 2)
RING_CHECKS = frozenset({"kernel", "ext", "unit"})
CHECK_ALIASES = {"propfree": "triviality"}


class DataError(GrlatError):
    """Malformed input table (bad header, non-integer cell, bad prime)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which collides with the
    # check-failure code; usage problems must exit 64
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_group_spec(spec: str):
    try:
        factors = [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise InvalidFactorError(f"group spec {spec!r} is not a comma-separated integer list")
    # refuse an oversized group before make_group factors its factors;
    # a factor below 1 is make_group's usage error, whatever the product
    order = math.prod(factors)
    if order > ELEMENT_CAP and all(f >= 1 for f in factors):
        raise CapacityError(f"group of order {order} exceeds element cap {ELEMENT_CAP}")
    return make_group(factors)


def fmt_elem(elem) -> str:
    return ":".join(str(c) for c in elem.coords)


def fmt_sub(sub) -> str:
    if sub.is_trivial:
        return "e"
    return ";".join(":".join(str(c) for c in row) for row in sub.basis)


def _flag(ok: bool) -> str:
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# subcommands


def cmd_monoid(args) -> dict:
    group = parse_group_spec(args.group)
    report = analyze_monoid(group, args.bound)
    checks = [
        ["decomposition_law", _flag(report.decomposition_ok)],
        ["injective_on_irreducibles", _flag(report.injective_on_irreducibles)],
        ["irreducibility", _flag(report.irreducibility_ok)],
        ["counts_consistent", _flag(report.counts_consistent)],
    ]
    if report.bounded_injectivity_expected:
        checks.append(["bounded_injectivity", _flag(report.bounded_injectivity_ok)])
    return {
        "command": "monoid",
        "config": {"group": args.group, "bound": report.bound, "bound_reduced": int(report.bound_reduced)},
        "results": {
            "counts": report.family.counts,
            "verdict": report.verdict,
            "checks": checks,
        },
        "verdict": _flag(report.all_checks_pass),
    }


class _SweepInputs:
    """What the sweeps of one verify command read: its index sets, and one
    inertia module per (I, phi) pair.  The modules are kept for the
    second sweep only when both tate and triviality run; otherwise each
    is built when its pair is reached and dropped after it.  It lives only
    as long as the command."""

    def __init__(self, fam, names):
        self.fam = fam
        self._kept = [] if {"tate", "triviality"} <= set(names) else None

    def modules(self):
        """The inertia module of each pair, in the order of fam.stilde."""
        built = (inertia_module(pair.inertia, pair.frob) for pair in self.fam.stilde)
        if self._kept is None:
            return built
        if not self._kept:
            self._kept.extend(built)
        return self._kept


def _tate_rows(inputs):
    # the statuses of a pair depend on H only through (H meet D, #(H meet
    # I)): D is the stabiliser of coordinate 0, and H meet D and c decide
    # the verdict (cohomology.prediction_verdict)
    fam = inputs.fam
    rows = []
    names = [fmt_sub(h) for h in fam.subgroups]
    for pair, proj, mod in zip(fam.stilde, fam.projection, inputs.modules()):
        dec = fam.s_pairs[proj].dec
        inertia_name, frob_name = fmt_sub(pair.inertia), fmt_elem(pair.frob)
        statuses = {}
        for h, name in zip(fam.subgroups, names):
            key = (fam.meet(h, dec), fam.meet(h, pair.inertia).order)
            if key not in statuses:
                verdicts = prediction_verdict(mod, dec, *key)
                statuses[key] = "pass" if verdicts == ("pass", "pass") else ";".join(verdicts)
            rows.append(["tate", inertia_name, frob_name, name, statuses[key]])
    return rows


def _kernel_rows(inputs):
    ring = group_ring(inputs.fam.group)
    rows = []
    for pair in inputs.fam.stilde:
        rep = verify_kernel_presentation(ring, pair.inertia, pair.frob)
        rows.append(["kernel", fmt_sub(pair.inertia), fmt_elem(pair.frob), "-", _flag(rep.ok)])
    return rows


def _ext_rows(inputs):
    # the backward representative depends on the inertia group alone, so
    # each inertia group is checked once and its verdict printed per pair
    ring = group_ring(inputs.fam.group)
    rows = []
    verdicts = {}
    for pair in inputs.fam.stilde:
        if pair.inertia not in verdicts:
            verdicts[pair.inertia] = _flag(verify_extension_sequence(ring, pair.inertia).ok)
        rows.append(["ext", fmt_sub(pair.inertia), fmt_elem(pair.frob), "-", verdicts[pair.inertia]])
    return rows


def _triviality_rows(inputs):
    primes = sorted(prime_factors(inputs.fam.group.order))
    rows = []
    for pair, mod in zip(inputs.fam.stilde, inputs.modules()):
        for p in primes:
            rep = triviality_criterion(mod, pair.inertia, pair.frob, p)
            for row in rep.rows:
                chi = ":".join(str(b) for b in row.chi.values) or "1"
                rows.append(
                    [
                        "triviality",
                        fmt_sub(pair.inertia),
                        fmt_elem(pair.frob),
                        f"p={p} chi={chi}",
                        _flag(row.agree),
                    ]
                )
    return rows


def _unit_rows(inputs):
    fam = inputs.fam
    rows = []
    # equal projections: the same inertia and decomposition subgroups,
    # paired within each projection's index list, in (i, j) order
    members = {}
    for i, proj in enumerate(fam.projection):
        members.setdefault(proj, []).append(i)
    pairs = sorted(
        (i, j) for same in members.values() for n, i in enumerate(same) for j in same[n + 1 :]
    )
    for i, j in pairs:
        a, b = fam.stilde[i], fam.stilde[j]
        try:
            ok = verify_unit_transport(fam.group, a.inertia, a.frob, b.frob)
        except UnitNotFoundError:
            ok = False
        rows.append(
            ["unit", fmt_sub(a.inertia), f"{fmt_elem(a.frob)}~{fmt_elem(b.frob)}", "-", _flag(ok)]
        )
    return rows


def _parse_checks(group, spec):
    if spec is None:
        names = ["tate", "ext", "triviality"]
        if group.is_cyclic:
            names.insert(1, "kernel")
        if len(prime_factors(group.order)) == 1:
            names.append("unit")
        return names
    names = []
    for tok in spec.split(","):
        tok = tok.strip()
        tok = CHECK_ALIASES.get(tok, tok)
        if tok not in VERIFY_CHECKS:
            raise ScopeError(f"unknown check {tok!r}; choose from {','.join(VERIFY_CHECKS)}")
        if tok not in names:
            names.append(tok)
    # refused before any index set is built
    if "kernel" in names and not group.is_cyclic:
        raise ScopeError("kernel check requires a cyclic group")
    if "unit" in names and len(prime_factors(group.order)) != 1:
        raise ScopeError("unit transport requires a group of prime power order")
    return names


def cmd_verify(args) -> dict:
    group = parse_group_spec(args.group)
    names = _parse_checks(group, args.checks)
    # refused before any sweep runs, not when the first ring sweep is reached
    if RING_CHECKS.intersection(names):
        check_ring_order(group.order)
    sweeps = {
        "tate": _tate_rows,
        "kernel": _kernel_rows,
        "ext": _ext_rows,
        "triviality": _triviality_rows,
        "unit": _unit_rows,
    }
    inputs = _SweepInputs(build_pair_sets(group), names)
    rows = []
    for name in names:
        rows.extend(sweeps[name](inputs))
    passed = sum(r[-1] == "pass" for r in rows)
    checks = [[name, _flag(all(r[-1] == "pass" for r in rows if r[0] == name))] for name in names]
    return {
        "command": "verify",
        "config": {"group": args.group, "checks": ",".join(names)},
        "results": {
            "cases": {"total": len(rows), "passed": passed},
            "rows": rows,
            "checks": checks,
        },
        "verdict": _flag(passed == len(rows)),
    }


def cmd_spectrum(args) -> dict:
    # a bad n is a usage error, refused first; sample_spectrum then
    # refuses a ring past the ring cap, a bad p, r, --coeff-exp or
    # --samples and a run past the cost cap, all before its first draw
    if args.n < 1:
        raise ScopeError("n must be at least 1")
    samples = sample_spectrum(args.p, args.r, args.coeff_exp, args.samples, args.seed)
    histogram = {}
    oracle = claims = rejections = 0
    for s in samples:
        histogram[s.total] = histogram.get(s.total, 0) + 1
        oracle += s.total == s.snf_total
        claims += verify_claims(s).ok
        rejections += s.attempts - 1
    # membership depends on the total alone: one test per distinct total
    membership = sum(
        k for total, k in histogram.items() if predicted_membership(total, args.p, args.r, args.n)
    )
    count = len(samples)
    checks = [
        ["oracle_identity", _flag(oracle == count)],
        ["membership", _flag(membership == count)],
        ["claims", _flag(claims == count)],
    ]
    return {
        "command": "spectrum",
        "config": {
            "p": args.p,
            "r": args.r,
            "n": args.n,
            "samples": args.samples,
            "coeff_exp": args.coeff_exp,
            "seed": args.seed,
        },
        "results": {
            "histogram": [[total, histogram[total]] for total in sorted(histogram)],
            "attained": sorted(histogram),
            "passes": {
                "oracle_identity": oracle,
                "membership": membership,
                "claims": claims,
                "rejections": rejections,
            },
            "checks": checks,
        },
        "verdict": _flag(all(c[1] == "pass" for c in checks)),
    }


def _read_records(path):
    if path == "@bundled":
        data = resources.files("grlat.data").joinpath("classgroups_p3_r2.csv").read_bytes()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise DataError(f"cannot read {path}: {e.strerror}")
    # decoded a line at a time, so an undecodable byte is reported at its row
    rows = []
    try:
        for cells in csv.reader(line.decode("utf-8") for line in data.splitlines(keepends=True)):
            rows.append(cells)
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"row {len(rows)}: {e}")
    if not rows:
        raise DataError("row 0: empty file")
    if [h.strip() for h in rows[0]] != ["q", "field_tag", "ord_value"]:
        raise DataError("row 0: header must be q,field_tag,ord_value")
    records = []
    for rownum, cells in enumerate(rows[1:], start=1):
        if not cells:
            continue
        if len(cells) != 3:
            raise DataError(f"row {rownum}: expected 3 cells, got {len(cells)}")
        try:
            q = int(cells[0])
            ord_value = int(cells[2])
        except ValueError:
            raise DataError(f"row {rownum}: q and ord_value must be integers")
        if not is_prime(q):
            raise DataError(f"row {rownum}: q={q} is not prime")
        if ord_value < 0:
            raise DataError(f"row {rownum}: ord_value must be nonnegative")
        records.append((rownum, q, cells[1].strip(), ord_value))
    return records


def cmd_ingest(args) -> dict:
    # refused before the table is read, even when it has no rows
    _check_scope(args.p, args.r)
    records = _read_records(args.table)
    rows = []
    attained = set()
    congruence = membership = 0
    for rownum, q, tag, ord_value in records:
        # q is prime, so q - 1 >= 1; v_p(q - 1) >= r is q = 1 mod p^r
        cong_ok = p_split(q - 1, args.p)[0] >= args.r
        memb_ok = predicted_membership(ord_value, args.p, args.r, 1)
        congruence += cong_ok
        membership += memb_ok
        attained.add(ord_value)
        status = "pass" if cong_ok and memb_ok else ("fail:congruence" if not cong_ok else "fail:membership")
        rows.append([rownum, q, tag, ord_value, status])
    count = len(records)
    checks = [
        ["congruence", _flag(congruence == count)],
        ["membership", _flag(membership == count)],
    ]
    return {
        "command": "ingest",
        "config": {"table": args.table, "p": args.p, "r": args.r},
        "results": {
            "rowcount": count,
            "attained": sorted(attained),
            "passes": {"congruence": congruence, "membership": membership},
            "rows": rows,
            "checks": checks,
        },
        "verdict": _flag(all(c[1] == "pass" for c in checks)),
    }


# ---------------------------------------------------------------------------
# report emission


def _tsv_value(key: str, value, out) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _tsv_value(f"{key}.{k}" if key else k, v, out)
    elif isinstance(value, list) and value and isinstance(value[0], (list, tuple)):
        for row in value:
            out.write(key + "\t" + "\t".join(str(c) for c in row) + "\n")
    elif isinstance(value, list):
        out.write(key + "\t" + ",".join(str(c) for c in value) + "\n")
    else:
        out.write(f"{key}\t{value}\n")


def emit_tsv(report: dict, out) -> None:
    _tsv_value("", report, out)


def emit(report: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps(report, indent=2) + "\n")
    else:
        emit_tsv(report, out)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    # built once per process; argparse's formatters leave reference cycles
    # while it is built, collected here so that no call of main leaves any
    parser = _Parser(prog="grlat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_monoid = sub.add_parser("monoid", parents=[], help="freeness analysis of one group")
    p_monoid.add_argument("group", help="comma-separated invariant factors, e.g. 9 or 3,6")
    p_monoid.add_argument("--bound", type=int, default=None, help="injectivity sum bound (default 3, auto-shrunk)")
    p_monoid.add_argument("--json", action="store_true")
    p_monoid.set_defaults(func=cmd_monoid)

    p_verify = sub.add_parser("verify", help="identity sweeps over all inertia data of one group")
    p_verify.add_argument("group")
    p_verify.add_argument(
        "--checks",
        default=None,
        help="comma list from tate,kernel,ext,triviality,unit (default: all applicable)",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_spec = sub.add_parser("spectrum", help="sampled valuation totals vs the predicted set")
    p_spec.add_argument("--p", type=int, required=True)
    p_spec.add_argument("--r", type=int, required=True)
    p_spec.add_argument("--n", type=int, default=1, help="membership parameter (default 1)")
    p_spec.add_argument("--samples", type=int, default=100)
    p_spec.add_argument("--coeff-exp", type=int, default=5, dest="coeff_exp")
    p_spec.add_argument("--seed", type=int, default=0)
    p_spec.add_argument("--json", action="store_true")
    p_spec.set_defaults(func=cmd_spectrum)

    p_ingest = sub.add_parser("ingest", help="validate an ord-value table against the predicted set")
    p_ingest.add_argument("table", help="CSV path with header q,field_tag,ord_value, or @bundled")
    p_ingest.add_argument("--p", type=int, required=True)
    p_ingest.add_argument("--r", type=int, required=True)
    p_ingest.add_argument("--json", action="store_true")
    p_ingest.set_defaults(func=cmd_ingest)
    gc.collect()
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except DataError as e:
        print(f"grlat: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except CapacityError as e:
        print(f"grlat: capacity exceeded: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InvalidFactorError, ScopeError) as e:
        print(f"grlat: usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except GrlatError as e:
        # a check the results depend on failed inside a computation
        print(f"grlat: check failed: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CHECK
    try:
        emit(report, args.json, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (grlat ... | head): the verdict still decides the
        # exit code, and stdout goes to devnull so that the flush at
        # interpreter exit cannot raise again (Python docs, signal: "Note
        # on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if report["verdict"] == "pass" else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
