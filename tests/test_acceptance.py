"""Acceptance gate: nine criteria, one printed pass/fail line each.

Every comparison is an exact integer comparison (zero tolerance).  The
only pinned nonstructural quantities are the per-criterion wall-clock
budgets, measured with a monotonic clock on the full sweep.  Frozen
case counts pin the sweep sizes themselves so a silently shrunken sweep
cannot pass.
"""

import json
import time
from itertools import combinations

import pytest

from grlat.abelian import decomposition_subgroup, enumerate_subgroups, make_group, prime_factors
from grlat.cli import main
from grlat.cohomology import (
    prediction_data,
    prediction_verdict,
    tate_cohomology,
    tate_key,
    triviality_criterion,
)
from grlat.grouprings import GroupRing, inertia_module
from grlat.lattices import (
    verify_extension_sequence,
    verify_kernel_presentation,
    verify_unit_transport,
)
from grlat.monoid import analyze_monoid, build_sets, cardinality_formulas
from grlat.spectrum import predicted_membership, sample_spectrum, verify_claims
from reference import ref_dense, ref_subquotient

# five-group module catalogue for the cohomology criteria
MODULE_CATALOGUE = ([9], [27], [3, 3], [15], [3, 9])

# order <= 100 catalogue for the beta-structure criterion: cyclic,
# noncyclic prime-power, and mixed noncyclic groups, FREE and NOT-FREE
CATALOGUE_100 = (
    [9], [12], [15], [27], [30], [45], [64], [97], [100],
    [3, 3], [2, 4], [3, 9], [2, 2, 4], [5, 5], [4, 8], [2, 2, 2, 2],
    [3, 3, 3], [7, 7], [2, 32],
    [3, 6], [2, 6], [6, 6], [2, 30], [2, 2, 12], [10, 10], [3, 21],
    [2, 50], [4, 12], [2, 2, 18],
)

# every abelian p-group of order <= 27, for the unit-transport sweep
P_GROUPS_27 = (
    [2], [4], [2, 2], [8], [2, 4], [2, 2, 2],
    [16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2],
    [3], [9], [3, 3], [27], [3, 9], [3, 3, 3],
    [5], [25], [5, 5], [7], [11], [13], [17], [19], [23],
)


@pytest.fixture
def announce(capfd):
    def _announce(criterion, ok, detail):
        line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
    return _announce


def run_cli(argv, capfd):
    code = main(argv)
    return code, capfd.readouterr().out


def test_criterion_1_monoid_cardinalities(announce, capfd):
    budget = 10.0
    results = {}
    times = {}
    for spec in ("9", "30", "3,6"):
        t0 = time.monotonic()
        code, out = run_cli(["monoid", spec, "--json"], capfd)
        times[spec] = time.monotonic() - t0
        results[spec] = (code, json.loads(out))
    ok = True
    code, rep = results["9"]
    ok &= code == 0 and rep["results"]["verdict"] == "FREE"
    ok &= rep["results"]["counts"]["s"] == 3 and rep["results"]["counts"]["t"] == 3
    code, rep = results["30"]
    ok &= code == 0 and rep["results"]["verdict"] == "FREE"
    ok &= rep["results"]["counts"]["s"] == 19 and rep["results"]["counts"]["t"] == 12
    code, rep = results["3,6"]
    ok &= code == 0 and rep["results"]["verdict"] == "NOT-FREE"
    ok &= rep["results"]["counts"]["s_prime"] > rep["results"]["counts"]["t"]
    ok &= rep["verdict"] == "pass"
    slowest = max(times.values())
    ok &= slowest < budget
    announce(
        1,
        ok,
        "monoid cardinalities: 9 (3,3,FREE), 30 (19,12,FREE), "
        f"3,6 (NOT-FREE, 28>23); slowest run {slowest:.1f}s of {budget:.0f}s",
    )
    assert ok, results


def test_criterion_2_cardinality_formula_sweep(announce):
    budget = 60.0
    t0 = time.monotonic()
    mismatches = []
    for n in range(2, 201):
        g = make_group([n])
        fam = build_sets(g)
        s_val, t_val = cardinality_formulas(g)
        if s_val != fam.counts["s"] or t_val != fam.counts["t"]:
            mismatches.append(n)
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < budget
    announce(
        2,
        ok,
        f"closed-form (#S,#T) equals enumeration for all cyclic orders 2..200; "
        f"{elapsed:.1f}s of {budget:.0f}s",
    )
    assert ok, mismatches


def test_criterion_3_beta_structure_catalogue(announce):
    budget = 300.0
    t0 = time.monotonic()
    failures = []
    for facs in CATALOGUE_100:
        g = make_group(facs)
        rep = analyze_monoid(g)
        if not rep.all_checks_pass:
            failures.append((facs, "checks"))
        if g.is_cyclic and (rep.bound != 3 or rep.bound_reduced or not rep.bounded_injectivity_ok):
            failures.append((facs, "bound"))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < budget
    announce(
        3,
        ok,
        f"decomposition law, injectivity, irreducibility on {len(CATALOGUE_100)} groups "
        f"(sum bound 3 on cyclic); {elapsed:.1f}s of {budget:.0f}s",
    )
    assert ok, failures


def test_criterion_4_tate_closed_form(announce):
    budget = 120.0
    t0 = time.monotonic()
    cases = 0
    failures = []
    for facs in MODULE_CATALOGUE:
        g = make_group(facs)
        subs = enumerate_subgroups(g)
        for pair in build_sets(g).stilde:
            dec = decomposition_subgroup(pair.inertia, pair.frob)
            mod = inertia_module(pair.inertia, pair.frob)
            for h in subs:
                cases += 1
                t = tate_cohomology(mod, h)
                big, c = prediction_data(dec, tate_key(pair.inertia, h))
                # (Z/c)[G/B] is (Z/c)^[G:B] as an abelian group
                invariants = (c,) * (g.order // big.order) if c > 1 else ()
                verdicts = prediction_verdict(mod, tate_cohomology(mod, h, 0), big, c)
                for side, verdict in zip((t.h0, t.hminus1), verdicts):
                    if ref_subquotient(ref_dense(mod), *side).invariants() != invariants:
                        failures.append((facs, pair, h, "invariants"))
                    elif verdict != "pass":
                        failures.append((facs, pair, h, verdict))
    elapsed = time.monotonic() - t0
    ok = not failures and cases == 668 and elapsed < budget
    announce(
        4,
        ok,
        f"brute-force Tate pair equals closed form on {cases} (inertia, frob, H) cases "
        f"over 5 groups; {elapsed:.1f}s of {budget:.0f}s",
    )
    assert ok, failures[:5]


def test_criterion_5_triviality_equivalence(announce):
    budget = 120.0
    t0 = time.monotonic()
    rows = 0
    failures = []
    for facs in MODULE_CATALOGUE:
        g = make_group(facs)
        for pair in build_sets(g).stilde:
            mod = inertia_module(pair.inertia, pair.frob)
            for p in sorted(prime_factors(g.order)):
                rep = triviality_criterion(mod, pair.inertia, pair.frob, p)
                rows += len(rep.rows)
                if not rep.all_agree:
                    failures.append((facs, pair, p))
    elapsed = time.monotonic() - t0
    ok = not failures and rows == 115 and elapsed < budget
    announce(
        5,
        ok,
        f"component triviality equals its predicted condition on {rows} "
        f"(pair, p, chi) rows over 5 groups; {elapsed:.1f}s of {budget:.0f}s",
    )
    assert ok, failures


def test_criterion_6_lattice_identities(announce):
    budget = 120.0
    t0 = time.monotonic()
    failures = []
    kernel_cases = 0
    for n in range(2, 82):
        g = make_group([n])
        ring = GroupRing(g)
        for pair in build_sets(g).stilde:
            kernel_cases += 1
            if not verify_kernel_presentation(ring, pair.inertia, pair.frob).ok:
                failures.append(("kernel", n, pair))
    ext_cases = 0
    for facs in MODULE_CATALOGUE:
        g = make_group(facs)
        ring = GroupRing(g)
        # the backward representative depends on the inertia group alone:
        # each pair counts and takes its inertia group's verdict
        ext_ok = {}
        for pair in build_sets(g).stilde:
            ext_cases += 1
            if pair.inertia not in ext_ok:
                ext_ok[pair.inertia] = verify_extension_sequence(ring, pair.inertia).ok
            if not ext_ok[pair.inertia]:
                failures.append(("ext", facs, pair))
    unit_cases = 0
    for facs in P_GROUPS_27:
        g = make_group(facs)
        by_class = {}
        for pair in build_sets(g).stilde:
            key = (pair.inertia.basis, decomposition_subgroup(pair.inertia, pair.frob).basis)
            by_class.setdefault(key, []).append(pair)
        for pairs in by_class.values():
            for a, b in combinations(pairs, 2):
                unit_cases += 1
                if not verify_unit_transport(g, a.inertia, a.frob, b.frob):
                    failures.append(("unit", facs, a, b))
    elapsed = time.monotonic() - t0
    counts_ok = (kernel_cases, ext_cases, unit_cases) == (2114, 88, 242)
    ok = not failures and counts_ok and elapsed < budget
    announce(
        6,
        ok,
        f"kernel presentation on {kernel_cases} cyclic pairs, extension tower on "
        f"{ext_cases}, unit transport on {unit_cases}; {elapsed:.1f}s of {budget:.0f}s",
    )
    assert ok, (failures[:5], kernel_cases, ext_cases, unit_cases)


def spectrum_run(p, r, allowed, tail_start):
    t0 = time.monotonic()
    samples = sample_spectrum(p, r, coeff_exp=5, count=1000, seed=7)
    elapsed = time.monotonic() - t0
    oracle = all(s.total == s.snf_total for s in samples)
    in_set = all(s.total in allowed or s.total >= tail_start for s in samples)
    member = all(predicted_membership(s.total, p, r, 1) for s in samples)
    claims = [verify_claims(s) for s in samples]
    dichotomy = all(c.dichotomy_ok and c.ok for c in claims)
    attained = sorted({s.total for s in samples})
    return oracle, in_set and member, dichotomy, attained, elapsed


def test_criterion_7_spectrum(announce):
    budget = 30.0
    oracle, in_set, dichotomy, attained, elapsed = spectrum_run(3, 2, {2, 4, 6}, 7)
    ok = oracle and in_set and dichotomy and elapsed < budget
    ok &= {2, 4, 6}.issubset(attained)
    ok &= len([v for v in attained if v > 6]) >= 3
    announce(
        7,
        ok,
        "p=3 r=2 n=1000 seed=7: oracle identity 1000/1000, totals in {2,4,6} or >6, "
        f"attained {attained}, dichotomy holds; {elapsed:.1f}s of {budget:.0f}s",
    )
    assert ok, attained


@pytest.mark.parametrize(
    "p,r,allowed,tail",
    [(3, 3, {3, 6, 9}, 10), (5, 2, {2, 4, 6, 8, 10}, 11)],
    ids=["p3r3", "p5r2"],
)
def test_criterion_7_spectrum_repeats(announce, p, r, allowed, tail):
    budget = 30.0
    oracle, in_set, dichotomy, attained, elapsed = spectrum_run(p, r, allowed, tail)
    ok = oracle and in_set and dichotomy and elapsed < budget
    announce(
        7,
        ok,
        f"p={p} r={r} n=1000 seed=7: oracle identity, totals in {sorted(allowed)} "
        f"or >={tail}, attained {attained}; {elapsed:.1f}s of {budget:.0f}s",
    )
    assert ok, attained


def test_criterion_8_ingest_fixture(announce, capfd, tmp_path):
    budget = 10.0
    t0 = time.monotonic()
    code, out = run_cli(["ingest", "@bundled", "--p", "3", "--r", "2", "--json"], capfd)
    rep = json.loads(out)
    ok = code == 0 and rep["verdict"] == "pass"
    ok &= rep["results"]["attained"] == [2, 4, 6, 7, 8, 9, 10, 11]
    ok &= rep["results"]["passes"]["membership"] == rep["results"]["rowcount"]
    adversarial = tmp_path / "adversarial.csv"
    adversarial.write_text(
        "q,field_tag,ord_value\n19,-4,1\n37,-8,3\n73,-20,5\n", encoding="utf-8"
    )
    code2, out2 = run_cli(["ingest", str(adversarial), "--p", "3", "--r", "2"], capfd)
    ok &= code2 == 2 and "fail:membership" in out2
    elapsed = time.monotonic() - t0
    ok &= elapsed < budget
    announce(
        8,
        ok,
        "bundled table attains exactly {2,4,6,7,8,9,10,11} with all rows passing; "
        f"odd small orders exit 2; {elapsed:.1f}s of {budget:.0f}s",
    )
    assert ok, (code, code2)


def test_criterion_9_determinism(announce, capfd):
    commands = [
        ["monoid", "9"],
        ["monoid", "30", "--json"],
        ["monoid", "3,6"],
        ["verify", "9"],
        ["verify", "9", "--json"],
        ["verify", "3,3"],
        ["spectrum", "--p", "3", "--r", "2", "--samples", "1000", "--seed", "7"],
        ["spectrum", "--p", "3", "--r", "2", "--samples", "1000", "--seed", "7", "--json"],
        ["spectrum", "--p", "5", "--r", "2", "--samples", "120", "--seed", "7"],
        ["ingest", "@bundled", "--p", "3", "--r", "2"],
        ["ingest", "@bundled", "--p", "3", "--r", "2", "--json"],
    ]
    unstable = []
    for argv in commands:
        first = run_cli(argv, capfd)
        second = run_cli(argv, capfd)
        if first != second:
            unstable.append(argv)
    ok = not unstable
    announce(
        9,
        ok,
        f"all {len(commands)} report commands byte-identical across re-runs "
        "(TSV and JSON, fixed seeds)",
    )
    assert ok, unstable
