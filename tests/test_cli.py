"""Command-line surface: exit codes, report formats, determinism.

Exit code contract: 0 all checks pass, 2 a check failed, 64 usage,
65 capacity, 66 malformed data.  Reports are integer-valued throughout,
so repeated runs must be byte identical.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import grlat
from grlat import abelian, cli, monoid, spectrum
from grlat import intmat as im
from grlat.abelian import make_group
from grlat.cli import main
from grlat.errors import ContainmentError
from grlat.grouprings import inertia_module
from grlat.monoid import build_pair_sets, build_sets
import reference


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_monoid_free_group(capsys):
    code, out, _ = run(["monoid", "9"], capsys)
    assert code == 0
    assert "results.verdict\tFREE" in out
    assert "verdict\tpass" in out


def test_monoid_not_free_group(capsys):
    code, out, _ = run(["monoid", "3,6"], capsys)
    assert code == 0
    assert "results.verdict\tNOT-FREE" in out
    assert "verdict\tpass" in out


def test_monoid_json_roundtrip(capsys):
    code, out, _ = run(["monoid", "9", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "monoid"
    assert report["results"]["verdict"] == "FREE"
    assert report["verdict"] == "pass"
    assert report["config"]["bound"] == 3
    assert report["config"]["bound_reduced"] == 0


def test_bad_group_spec(capsys):
    code, _, err = run(["monoid", "abc"], capsys)
    assert code == 64 and "usage error" in err
    code, _, err = run(["monoid", "0"], capsys)
    assert code == 64


def test_argparse_errors_use_usage_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--p", "3"])  # missing --r
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 64


def test_verify_default_checks_cyclic(capsys):
    code, out, _ = run(["verify", "9"], capsys)
    assert code == 0
    assert "verdict\tpass" in out
    # cyclic prime-power group: every check applies by default
    assert "config.checks\ttate,kernel,ext,triviality,unit" in out


def test_verify_default_checks_mixed(capsys):
    code, out, _ = run(["verify", "3,3", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    checks = report["config"]["checks"].split(",")
    assert "kernel" not in checks  # needs a cyclic group
    assert "tate" in checks and "triviality" in checks
    assert report["verdict"] == "pass"


def test_verify_unknown_check(capsys):
    code, _, err = run(["verify", "9", "--checks", "bogus"], capsys)
    assert code == 64 and "usage error" in err


def test_verify_builds_index_sets_once(capsys, monkeypatch):
    calls = []

    def counted(group):
        calls.append(group)
        return build_pair_sets(group)

    # every binding of enumerate_subgroups in the package counts its calls
    enumerations = []
    original = abelian.enumerate_subgroups

    def counted_enumeration(group, *args):
        enumerations.append(group)
        return original(group, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("grlat") and getattr(module, "enumerate_subgroups", None) is original:
            monkeypatch.setattr(module, "enumerate_subgroups", counted_enumeration)
    build_pair_sets(make_group([9]))
    alone = len(enumerations)
    enumerations.clear()

    monkeypatch.setattr(cli, "build_pair_sets", counted)
    code, out, _ = run(["verify", "9"], capsys)
    assert code == 0
    assert "config.checks\ttate,kernel,ext,triviality,unit" in out
    assert len(calls) == 1
    assert len(enumerations) == alone > 0


@pytest.mark.parametrize(
    "spec, checks, builds",
    [("12", "tate,triviality", 16), ("2,2,8", "triviality", 259)],
    ids=["12-tate,triviality", "2,2,8-triviality"],
)
def test_verify_builds_one_inertia_module_per_pair(spec, checks, builds, capsys, monkeypatch):
    # one build per (I, phi) pair for the whole command; per-pair modules
    # took 48 builds on 12 (16 pairs for tate plus 16 pairs x 2 primes for
    # triviality) and 259 on 2,2,8 (259 pairs x 1 prime)
    calls = []
    original = inertia_module

    def counted(inertia, frob):
        calls.append((inertia, frob))
        return original(inertia, frob)

    for name, module in list(sys.modules.items()):
        if name.startswith("grlat") and getattr(module, "inertia_module", None) is original:
            monkeypatch.setattr(module, "inertia_module", counted)
    code, out, _ = run(["verify", spec, "--checks", checks], capsys)
    assert code == 0
    stilde = build_sets(make_group([int(f) for f in spec.split(",")])).stilde
    assert calls == [(pair.inertia, pair.frob) for pair in stilde]
    assert len(calls) == builds


@pytest.mark.parametrize("checks", ["triviality", "tate"])
def test_a_lone_module_sweep_holds_one_inertia_module_at_a_time(checks, capsys, monkeypatch):
    # only tate and triviality together share the modules; a lone sweep
    # releases a pair's module once the next pair's is built.  Holding all
    # of them raised the peak of verify 2,2,2,2,2 --checks triviality from
    # 21.1 to 29.1 MiB
    built, alive = [], []
    original = inertia_module

    def tracked(inertia, frob):
        alive.append(sum(ref() is not None for ref in built))
        module = original(inertia, frob)
        built.append(weakref.ref(module))
        return module

    monkeypatch.setattr(cli, "inertia_module", tracked)
    code, _, _ = run(["verify", "12", "--checks", checks], capsys)
    assert code == 0
    assert len(built) == 16
    assert max(alive) <= 1


# the criterion-4 catalogue, then noncyclic 2-groups with many subgroups
# per key class
KEYED_TATE_GROUPS = ([9], [27], [3, 3], [15], [3, 9], [2, 4], [2, 2, 2], [2, 2, 4])


@pytest.mark.parametrize("perturbed", [False, True], ids=["as-is", "c-shifted"])
@pytest.mark.parametrize("factors", KEYED_TATE_GROUPS, ids=lambda f: ",".join(map(str, f)))
def test_keyed_tate_rows_match_the_per_row_sweep(factors, perturbed, monkeypatch):
    # the keyed sweep takes B from prediction_data and c from tate_key and
    # reads its verdicts off the orbit of coordinate 0; the reference
    # takes (B, c) from ref_prediction_data and the verdict of the dense
    # route's whole pairs, one (pair, H) at a time.
    # perturbed: each verdict sees c + 1 wherever c > 1 and B is a proper
    # subgroup, a fault that reads both parts of the key, so rows that
    # share only H + I or only #(H meet I) can get different statuses
    if perturbed:
        real, real_ref = cli.prediction_verdict, reference.ref_pair_verdict

        def shifted(module, block, big, c):
            return real(module, block, big, c + (c > 1 and big.order < big.group.order))

        def shifted_ref(module, pair, big, c):
            return real_ref(module, pair, big, c + (c > 1 and big.order < big.group.order))

        monkeypatch.setattr(cli, "prediction_verdict", shifted)
        monkeypatch.setattr(reference, "ref_pair_verdict", shifted_ref)
    fam = build_sets(make_group(factors))
    want = reference.ref_tate_rows(fam)
    assert cli._tate_rows(cli._SweepInputs(fam, ["tate"])) == want
    statuses = {row[-1] for row in want}
    assert statuses == ({"pass", "fail;fail"} if perturbed else {"pass"})


def test_verify_tate_takes_each_key_once_per_inertia_group(capsys, monkeypatch):
    # 2,2,8: 259 pairs over 37 inertia groups, 38 subgroups.  One key per
    # (I, H), 1406 in all, each one join, plus one join for B per
    # (D, H + I) of the command, 859 of them; one B join per computed key
    # made 6360, and a key join per (pair, H) and a second join per
    # computed key 19,750
    keys, joins = [], []
    real_key, real_join = cli.tate_key, abelian.Subgroup.join

    def counted_key(inertia, sub):
        keys.append((inertia, sub))
        return real_key(inertia, sub)

    def counted_join(self, other):
        joins.append(None)
        return real_join(self, other)

    monkeypatch.setattr(cli, "tate_key", counted_key)
    monkeypatch.setattr(abelian.Subgroup, "join", counted_join)
    code, _, _ = run(["verify", "2,2,8", "--checks", "tate"], capsys)
    assert code == 0
    assert len(keys) == len(set(keys)) == 1406
    assert len(joins) <= 2265


def test_tate_rows_take_no_subquotient_or_smith_form(monkeypatch):
    # 2,2,8: every module is written down in Smith coordinates before the
    # sweeps; the tate rows then read each Tate group off its lattice
    # pair, and the triviality rows read every chi-component off the
    # Tate pairs of the closed-form p-part: no Smith form in any of them
    fam = build_pair_sets(make_group([2, 2, 8]))
    inputs = cli._SweepInputs(fam, ["tate", "triviality"])
    calls = []
    real_snf = im.snf_with_transform

    def snf(*args, **kwargs):
        calls.append(args)
        return real_snf(*args, **kwargs)

    monkeypatch.setattr(im, "snf_with_transform", snf)
    assert len(inputs.modules()) == len(fam.stilde)
    assert calls == []
    rows = cli._tate_rows(inputs)
    assert len(rows) == len(fam.stilde) * len(fam.subgroups) and {r[-1] for r in rows} == {"pass"}
    assert calls == []
    rows = cli._triviality_rows(inputs)
    assert rows and {r[-1] for r in rows} == {"pass"}
    assert calls == []


@pytest.mark.parametrize("spec", ["2,2,8", "256"])
def test_tate_rows_multiply_no_matrices_and_search_no_generator(spec, monkeypatch):
    # the inertia modules are written and validated as monomials, and a
    # tate row composes them: no dense product or vector-matrix product
    # (intmat has no matrix power at all), and no coset walk in a row
    # (the generator search of the whole-pair verdict walked
    # hnf_residues, which the modules use to list their coordinates)
    assert not hasattr(im, "mat_pow")
    calls = []

    def spy(*names):
        for name in names:
            monkeypatch.setattr(im, name, lambda *args, name=name: calls.append(name))

    spy("mat_mul", "vec_mat")
    fam = build_pair_sets(cli.parse_group_spec(spec))
    inputs = cli._SweepInputs(fam, ["tate", "triviality"])
    assert len(inputs.modules()) == len(fam.stilde)
    spy("hnf_residues")
    rows = cli._tate_rows(inputs)
    assert len(rows) == len(fam.stilde) * len(fam.subgroups) and {r[-1] for r in rows} == {"pass"}
    assert calls == []


def test_verify_builds_no_target_tuples_or_cyclic_quotients(capsys, monkeypatch):
    # the sweeps read the subgroups and the pairs; the target tuples, the
    # quotients G/H tested for cyclicity and the loci are the monoid's
    tuples, quotients = [], []
    real_init = monoid.LocalTuple.__init__
    real_quotient = abelian.Subgroup.quotient_is_cyclic.fget

    def counted_init(self, *args):
        tuples.append(args)
        real_init(self, *args)

    def counted_quotient(self):
        quotients.append(self)
        return real_quotient(self)

    monkeypatch.setattr(monoid.LocalTuple, "__init__", counted_init)
    monkeypatch.setattr(abelian.Subgroup, "quotient_is_cyclic", property(counted_quotient))
    code, out, _ = run(["verify", "12", "--checks", "tate"], capsys)
    assert code == 0 and "verdict\tpass" in out
    assert tuples == [] and quotients == []


def test_closed_pipe_ends_with_the_verdict_and_no_traceback():
    # a reader that leaves after one line of a 203 KB report
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "grlat", "verify", "2,2,2,2,2", "--checks", "ext"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"command\tverify\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_OK
    assert err == b""


@pytest.mark.parametrize("spec, checks", [("3,3", "tate,kernel"), ("6", "tate,unit")])
def test_inapplicable_check_refused_before_any_sweep(spec, checks, capsys, monkeypatch):
    def never(group):
        raise AssertionError("index sets built for a refused command")

    monkeypatch.setattr(cli, "build_pair_sets", never)
    code, out, err = run(["verify", spec, "--checks", checks], capsys)
    assert code == 64 and out == ""
    assert "usage error" in err


def test_verify_inapplicable_check(capsys):
    code, _, err = run(["verify", "3,3", "--checks", "kernel"], capsys)
    assert code == 64


def test_verify_propfree_alias(capsys):
    code_alias, out_alias, _ = run(["verify", "9", "--checks", "propfree"], capsys)
    code_plain, out_plain, _ = run(["verify", "9", "--checks", "triviality"], capsys)
    assert code_alias == code_plain == 0
    assert out_alias == out_plain
    assert "config.checks\ttriviality" in out_alias


@pytest.mark.parametrize("spec", ["2,6", "3,6"])
def test_verify_triviality_noncyclic_mixed_prime(spec, capsys):
    # at p = 2 (p = 3) the first factor has no prime-to-p part, so the
    # characters live on the second factor alone
    code, out, _ = run(["verify", spec, "--checks", "triviality"], capsys)
    assert code == 0
    assert "verdict\tpass" in out


def test_failed_internal_check_exits_2_without_traceback(capsys, monkeypatch):
    def broken_sweep(fam):
        raise ContainmentError("relations not stable under generator 0")

    monkeypatch.setattr(cli, "_triviality_rows", broken_sweep)
    code, out, err = run(["verify", "9", "--checks", "triviality"], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err == "grlat: check failed: ContainmentError: relations not stable under generator 0\n"


@pytest.mark.parametrize("spec", ["30", "32"])
def test_verify_decides_every_tate_row(spec, capsys):
    # some Tate groups here were too large for the exhaustive coset walk
    # of the whole-pair verdict; the block verdict decides every row by
    # three exact tests
    code, out, _ = run(["verify", spec], capsys)
    assert code == 0
    assert "undecided" not in out


def test_verify_byte_identical_repeat(capsys):
    first = run(["verify", "9"], capsys)
    second = run(["verify", "9"], capsys)
    assert first == second
    jfirst = run(["verify", "9", "--json"], capsys)
    jsecond = run(["verify", "9", "--json"], capsys)
    assert jfirst == jsecond


def test_spectrum_report(capsys):
    code, out, _ = run(
        ["spectrum", "--p", "3", "--r", "2", "--samples", "12", "--seed", "7", "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["passes"]["oracle_identity"] == 12
    assert report["results"]["passes"]["claims"] == 12
    assert all(t % 2 == 0 or t > 6 for t in report["results"]["attained"])


@pytest.mark.parametrize(
    "spec, checks", [("4097", None), ("4097", "kernel"), ("4097", "tate,ext"), ("8192", "unit")]
)
def test_oversized_ring_refused_before_any_sweep(spec, checks, capsys, monkeypatch):
    def never(group):
        raise AssertionError("index sets built for a refused command")

    monkeypatch.setattr(cli, "build_pair_sets", never)
    argv = ["verify", spec] + (["--checks", checks] if checks else [])
    code, out, err = run(argv, capsys)
    assert code == 65 and out == ""
    assert f"group of order {spec} exceeds ring cap 4096" in err


@pytest.mark.parametrize("spec, checks", [("4096", None), ("4097", "tate,triviality")])
def test_ring_cap_admits_its_own_order_and_ringless_sweeps(spec, checks, monkeypatch):
    # the pre-flight check passes, so the command goes on to its index sets
    class Reached(Exception):
        pass

    def reached(group):
        raise Reached

    monkeypatch.setattr(cli, "build_pair_sets", reached)
    with pytest.raises(Reached):
        main(["verify", spec] + (["--checks", checks] if checks else []))


def test_default_verify_past_the_ring_cap_is_refused_at_once():
    # the default checks start with tate, whose sweep at this order runs past a minute
    done, elapsed = run_fresh(["verify", "4097"])
    assert done.returncode == 65 and done.stdout == b""
    assert b"exceeds ring cap" in done.stderr
    assert elapsed < 5.0


def test_spectrum_usage_errors(capsys):
    code, _, err = run(["spectrum", "--p", "4", "--r", "2"], capsys)
    assert code == 64 and "usage error" in err
    code, _, _ = run(["spectrum", "--p", "3", "--r", "0"], capsys)
    assert code == 64
    for count in ("0", "-5"):
        code, out, err = run(["spectrum", "--p", "3", "--r", "2", "--samples", count], capsys)
        assert code == 64 and "usage error" in err and out == ""


def run_fresh(argv):
    """`python -m grlat argv` in a fresh interpreter, and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "grlat", *argv],
        capture_output=True,
        env=env,
        timeout=10,
    )
    return done, time.monotonic() - t0


@pytest.mark.parametrize(
    "argv",
    [
        # 3^40 coefficients would be drawn before the ring is built
        ["--p", "3", "--r", "40", "--samples", "1"],
        # trial division of an 18-digit prime would run for minutes
        ["--p", "1000000000000000003", "--r", "1"],
    ],
)
def test_oversized_spectrum_ring_is_refused_at_once(argv):
    done, _ = run_fresh(["spectrum", *argv])
    assert done.returncode == 65
    assert done.stdout == b""
    assert b"exceeds ring cap" in done.stderr


# runs whose estimated cost passes spectrum.SPECTRUM_COST_CAP: about
# 30 min of samples at p = 79, a 1.6e9-bit coefficient bound, 10^18
# samples, and one sample of a ring whose packed rows would take GBs
COSTLY_RUNS = [
    ["--p", "79", "--r", "1", "--samples", "10000"],
    ["--p", "3", "--r", "3", "--coeff-exp", "1000000000"],
    ["--p", "3", "--r", "1", "--samples", str(10**18)],
    ["--p", "1009", "--r", "1", "--samples", "1"],
]


@pytest.mark.parametrize("argv", COSTLY_RUNS)
def test_spectrum_run_past_the_cost_cap_is_refused_at_once(argv, capsys, monkeypatch):
    done, elapsed = run_fresh(["spectrum", *argv])
    assert done.returncode == 65 and done.stdout == b""
    assert b"exceeds spectrum cost cap" in done.stderr
    assert elapsed < 2.0
    # and in-process, before the first sample is built
    monkeypatch.setattr(spectrum, "build_sample", pytest.fail)
    code, out, err = run(["spectrum", *argv], capsys)
    assert code == 65 and out == "" and "exceeds spectrum cost cap" in err


def test_spectrum_bad_n_is_refused_before_drawing():
    # 1000 samples at p = 79 would take minutes to draw
    done, elapsed = run_fresh(["spectrum", "--p", "79", "--r", "1", "--samples", "1000", "--n", "0"])
    assert done.returncode == 64 and done.stdout == b""
    assert b"n must be at least 1" in done.stderr
    assert elapsed < 5.0


def test_spectrum_oracle_mismatch_fails_the_check(capsys, monkeypatch):
    # a broken character side must reach the report and the exit code
    real = spectrum.char_valuation
    monkeypatch.setattr(spectrum, "char_valuation", lambda x, i: real(x, i) + 1)
    code, out, _ = run(["spectrum", "--p", "3", "--r", "2", "--samples", "4", "--seed", "1"], capsys)
    assert code == 2
    assert "results.passes.oracle_identity\t0" in out
    assert "results.checks\toracle_identity\tfail" in out
    assert "verdict\tfail" in out


def test_spectrum_smith_side_mismatch_fails_the_check(capsys, monkeypatch):
    # a broken Smith side must reach the report and the exit code too
    real = spectrum.smith_valuations

    def off_by_one(*args):
        vals = list(real(*args))
        vals[0] += 1
        return vals

    monkeypatch.setattr(spectrum, "smith_valuations", off_by_one)
    code, out, _ = run(["spectrum", "--p", "3", "--r", "2", "--samples", "4", "--seed", "1"], capsys)
    assert code == 2
    assert "results.passes.oracle_identity\t0" in out
    assert "results.checks\toracle_identity\tfail" in out
    assert "verdict\tfail" in out


def test_ingest_bundled_table(capsys):
    code, out, _ = run(["ingest", "@bundled", "--p", "3", "--r", "2"], capsys)
    assert code == 0
    assert "results.attained\t2,4,6,7,8,9,10,11" in out
    assert "verdict\tpass" in out


def write_table(tmp_path, rows, header="q,field_tag,ord_value"):
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return str(path)


def test_ingest_data_errors(tmp_path, capsys):
    bad_header = write_table(tmp_path, ["19,-4,2"], header="q,tag,ord")
    code, _, err = run(["ingest", bad_header, "--p", "3", "--r", "2"], capsys)
    assert code == 66 and "row 0" in err

    non_integer = write_table(tmp_path, ["x,-4,2"])
    code, _, err = run(["ingest", non_integer, "--p", "3", "--r", "2"], capsys)
    assert code == 66 and "row 1" in err

    composite = write_table(tmp_path, ["19,-4,2", "21,-4,2"])
    code, _, err = run(["ingest", composite, "--p", "3", "--r", "2"], capsys)
    assert code == 66 and "row 2" in err

    negative = write_table(tmp_path, ["19,-4,-2"])
    code, _, err = run(["ingest", negative, "--p", "3", "--r", "2"], capsys)
    assert code == 66

    missing = str(tmp_path / "absent.csv")
    code, _, err = run(["ingest", missing, "--p", "3", "--r", "2"], capsys)
    assert code == 66


def test_ingest_undecodable_byte_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_bytes(b"q,field_tag,ord_value\n19,-4,2\n37,-8,\xff4\n")
    code, out, err = run(["ingest", str(path), "--p", "3", "--r", "2"], capsys)
    assert code == 66 and out == ""
    assert "row 2: 'utf-8' codec can't decode byte 0xff" in err


def test_ingest_oversized_cell_is_a_data_error(tmp_path, capsys):
    table = write_table(tmp_path, ["19,-4,2", "37," + "x" * 200_000 + ",4"])
    code, out, err = run(["ingest", table, "--p", "3", "--r", "2"], capsys)
    assert code == 66 and out == ""
    assert "row 2: field larger than field limit" in err


def test_ingest_check_failures(tmp_path, capsys):
    # ord 5 is odd and below the tail, so membership fails
    odd = write_table(tmp_path, ["19,-4,5"])
    code, out, _ = run(["ingest", odd, "--p", "3", "--r", "2"], capsys)
    assert code == 2
    assert "fail:membership" in out

    # 17 = 8 mod 9 breaks the congruence
    wrong_class = write_table(tmp_path, ["17,-4,2"])
    code, out, _ = run(["ingest", wrong_class, "--p", "3", "--r", "2"], capsys)
    assert code == 2
    assert "fail:congruence" in out


def test_ingest_passing_table(tmp_path, capsys):
    good = write_table(tmp_path, ["19,-4,2", "37,-8,4", "109,-20,9"])
    code, out, _ = run(["ingest", good, "--p", "3", "--r", "2"], capsys)
    assert code == 0
    assert "results.rowcount\t3" in out
    assert "results.attained\t2,4,9" in out


@pytest.mark.parametrize("p, r", [("4", "0"), ("4", "2"), ("3", "0")])
def test_ingest_flags_are_checked_on_a_header_only_table(tmp_path, capsys, p, r):
    header_only = write_table(tmp_path, [])
    code, out, err = run(["ingest", header_only, "--p", p, "--r", r], capsys)
    assert code == 64 and out == "" and "usage error" in err


@pytest.mark.parametrize("r, status", [("4", "pass"), ("5", "fail:congruence")])
def test_ingest_congruence_at_the_exact_valuation(tmp_path, capsys, r, status):
    # 163 - 1 = 2 * 3^4, and ord_value r passes membership at level r
    table = write_table(tmp_path, [f"163,-4,{r}"])
    code, out, _ = run(["ingest", table, "--p", "3", "--r", r], capsys)
    assert code == (0 if status == "pass" else 2)
    assert f"results.rows\t1\t163\t-4\t{r}\t{status}" in out


def test_ingest_huge_level_builds_no_power():
    # p^r is never built: 3^100000000 has about 48 million digits
    done, elapsed = run_fresh(["ingest", "@bundled", "--p", "3", "--r", "100000000"])
    assert done.returncode == 2
    assert b"fail:congruence" in done.stdout
    assert elapsed < 5.0


def test_ingest_large_prime_finishes(tmp_path):
    # a 31-digit prime q = 1 mod 9; trial division up to sqrt(q) never ends
    table = write_table(tmp_path, ["1000000000000000000000000000099,-4,2"])
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "grlat", "ingest", table, "--p", "3", "--r", "2"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0
    assert b"verdict\tpass" in done.stdout


@pytest.mark.parametrize(
    "p, code",
    [
        ("1000000000000000003", 2),
        # (2^31 - 1)(2^61 - 1): no factor below 2^31, so trial division never ends
        ("4951760154835678088235319297", 64),
    ],
)
def test_ingest_tests_a_large_p_at_once(p, code):
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "grlat", "ingest", "@bundled", "--p", p, "--r", "1"],
        capture_output=True,
        env=env,
        timeout=10,
    )
    assert done.returncode == code


def test_spectrum_does_not_import_sympy():
    # the ring cap keeps p <= 4096 here, where primality is trial division
    script = (
        "import contextlib, io, sys\n"
        "from grlat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['spectrum', '--p', '3', '--r', '2', '--samples', '2'])\n"
        "print(code, 'sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"0 False\n"


def test_verify_does_not_import_sympy():
    # triviality factors Phi_m mod p in the package; 12 is mixed-prime
    script = (
        "import contextlib, io, sys\n"
        "from grlat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', '6', '--checks', 'triviality']), main(['verify', '12'])]\n"
        "print(codes, 'sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"[0, 0] False\n"


@pytest.mark.parametrize("spec", ["999999999999999989", "1001,1000"])
def test_oversized_group_spec_is_refused_at_once(spec):
    # the spec's order is checked before its factors are factored; trial
    # division of the 18-digit prime would run for minutes
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "grlat", "monoid", spec],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 65
    assert b"exceeds element cap" in done.stderr


@pytest.mark.parametrize("spec", ["2,2,2,2,2,2,2", "2,2,2,2,2,2,2,2", "2,2,2,2,2,2", "1000,1000"])
def test_oversized_sweep_is_refused_at_once(spec):
    # the first two have more than SUBGROUP_CAP subgroups; the last two
    # have fewer, but more than PAIR_CAP (inertia group, subgroup) combinations
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "grlat", "monoid", spec],
        capture_output=True,
        env=env,
        timeout=5,
    )
    assert done.returncode == 65
    assert done.stdout == b""
    assert b"capacity exceeded" in done.stderr


@pytest.mark.parametrize("argv", [["monoid", "720720"], ["verify", "720720", "--checks", "triviality"]])
def test_too_many_inertia_pairs_are_refused_at_once(argv):
    # 239 inertia groups times 240 subgroups fit the pair cap, but their
    # 2,529,072 (I, phi) pairs do not
    done, elapsed = run_fresh(argv)
    assert done.returncode == 65 and done.stdout == b""
    assert b"2529072 (I, phi) pairs exceed the pair cap" in done.stderr
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify", "64", "--checks", "tate"], "5a4225905e359ee4757c2fe2576d12bb8a1e9122c867838ec10c9a85af4a2f4d"),
        (["verify", "2,16", "--checks", "tate"], "d006da521c0d336907c9222aac9da69667fb3a612bbf4144d0c3c12188993468"),
        (["verify", "100", "--checks", "triviality"], "2abfbcb5b1299e98bbad3199f71b2bd15bf4a6bf2e8953c2cc1c7884dfb0d0b6"),
        (["verify", "2,2,2", "--checks", "tate"], "2d33d37b4e0a7be9078073ccdd462559e80e50ed6ab1bf117e17468c62801f57"),
        (["verify", "2,2,4", "--checks", "tate"], "5e71449cc9c0e51346d321525e0e94f7d33774069d586586f2c5b31aeb5a3018"),
        (["verify", "2,2,2,2", "--checks", "tate"], "fab640a676cfc164e915c84dfaa4902730a970af8f31ab40ea893e565d99bec1"),
        (["verify", "2,2,8", "--checks", "tate"], "63f81c8b8a480556e040dc8bbf57e1142ebde8d17513536a3fea55a0845f1fa7"),
        (["verify", "3,27", "--checks", "tate"], "f90827864ea147809294e1484afa8624fecc20ba7b42e7554bdd615a06273157"),
        (["verify", "4,16", "--checks", "tate"], "344933ae8ceb3d4d69569e1717b93f5f0ed2e0054a2202d37133e8e561a3c07a"),
        (["verify", "256", "--checks", "tate"], "f8694eab6cecc2e05e99cc47c9922145e27bc1ae1f355719234f4cf9a9f20061"),
        (["verify", "243", "--checks", "ext"], "f2e2768599b8c8f436abd8194f5863972ec342e36fc7af7b97f98ecd713a1221"),
        (["verify", "256", "--checks", "ext"], "b1008508e64c3c67d5bc51583c310da27d7b0dec08d1c3e4450306b5a4795404"),
        (["verify", "28", "--checks", "triviality"], "4a6e86b9fbb75a54c505d2bb84147d9245ee8bb33e69217c844fe015c6c6d28f"),
        (["verify", "63", "--checks", "triviality"], "c205a9378a1108daf3b33d0e7c92c04c48d59a14d78b8ca6b98403236df53fdb"),
        (["verify", "2,2,2,2", "--checks", "ext"], "ba3f3130fb2c5e35d14724685f86c1cd933348425c352fd0c4502932c0062e73"),
        (["verify", "4,16", "--checks", "ext"], "252a41fce22094703a7c0c5af27fcc46c605a9c656ef584889aa4c95a128f0d3"),
        (["verify", "81", "--checks", "unit"], "6ddc960636daabd6f2930e364ac4e7a63486d70503613110726231e701238517"),
        (["verify", "64", "--checks", "unit"], "4136d55a3a639736f82baab81e31979b840c43bba0b61f78125cde71aef2590f"),
        (["verify", "4,16", "--checks", "unit"], "38bc1cab972ab466aed29086ee3a49afc24b371527d2be9e8c2388d87340d157"),
        (["verify", "128", "--checks", "unit"], "3a5a3a0e639f4370940e64764c40d2f1bf89917c2c9001db604c17b1f698fd1e"),
        (["verify", "256", "--checks", "unit"], "f67f886703920763cfa8dfe33497842a7d886d011400acebdb1323667072699b"),
        (["verify", "3,27", "--checks", "unit"], "192e06dba347976d64d0644f9868c6ccdd5a850a580ad39cc4d5e419e8b01f4f"),
        (["verify", "2,2,8", "--checks", "unit"], "642d4ff2ef4e62dbbe03d74ef1de8945f662657e5f199b9a98d6339c9337e72b"),
        (["verify", "243", "--checks", "triviality"], "5446b1d3197e36f6b90c4cce943104161016f36a8440d6900af8ac6105a21892"),
        (["verify", "2,2,8", "--checks", "triviality"], "1f3c230d4e3ac9fc8d4342b8ca3f9d5a7483dadbbe95cabea30f2cb7f4d21299"),
        (["verify", "256", "--checks", "triviality"], "42446ccfc0347e2a1af404620a8d5272451b18e036bdf8a3d8c72e7727042f90"),
        (["verify", "2,2,2,2,2", "--checks", "ext"], "620fa55f1fa37010fb1bd46822c93c1e1af5f657b8772f4c8291f75a423efc7c"),
        (["verify", "512", "--checks", "ext"], "f188793f0bbd3afd85325c8db7c1289846f1b378c45472987334a0bf362c94e9"),
        (["monoid", "2,2,2,2,2"], "d65ba578733a82765efd13766288c38e5f10e553cfd059e9b1d1fde2dcb5e767"),
        (["monoid", "2,2,4"], "ccb996efd8ab53ba340aa88725542730b21cf7632577cec3cc3af6bd743b4b59"),
        (["monoid", "2,2,2,2"], "46e6e897a8fc74d5b9a46ea07df3a3bcbed2c502af386b1e1c6e1011d9807502"),
        (["monoid", "2,2,2,4"], "fe4b4b3f951c404598db8b6ca5a6c1cf84f21c4d4e032620f1a80f0d0c08b27a"),
        (["monoid", "2,6,12"], "c82e9b79018ecdf705f509f1990a736c60aa1992c14ab016cd0647c68aa9f0d7"),
        (["monoid", "3,3,3,3"], "9f80912750863d3a706df899ff65bfdf2155bc95ac901ab54b6e93142ad95127"),
        (["monoid", "720"], "b54a8045729334d6f5ca780af61025e6cfaa928f6cba6cc91f8bda15bf122fe4"),
        (["monoid", "4096"], "1fefa33334c6e9e2fa7dc88d00bb28c1b30543f347b80e1211c23dcf066e4d61"),
        (["verify", "128", "--checks", "kernel"], "858e42fa2c822c2df594b8ce18a4912386fef1bec9658e87002dc06152f79557"),
        (["verify", "256", "--checks", "kernel"], "5ab4e655514eccde63cad755cab05c2133d9adec7447cecbad18d67565e8bde1"),
        (["verify", "512", "--checks", "kernel"], "6fbf90ecfb2ac959b8f2a1299938a79898a841318fa984b747552206e787a464"),
        (["verify", "1024", "--checks", "kernel"], "ebfc945599e0a65cb1702f3349bc418dbfaf0b7ccbdeb7126a0b4f30f9f6f905"),
        (
            ["spectrum", "--p", "3", "--r", "1", "--samples", "200", "--seed", "2"],
            "5d8052f43afcd73dcd5e31f11fe4feb5739e93db73e82f22af5a5608933ae9b6",
        ),
        (
            ["spectrum", "--p", "3", "--r", "4", "--samples", "3", "--seed", "5"],
            "56a4de9d75182c28a343bd4fc4ba83ef0a41df62676730b5d1ea8a79bbae6345",
        ),
        (
            ["spectrum", "--p", "7", "--r", "2", "--samples", "3", "--seed", "5"],
            "ddf04ff99f6aeef5ec99c1e8628e7b72b7e5007da8890b4c2c26ebd8e645cb7c",
        ),
        (
            ["spectrum", "--p", "79", "--r", "1", "--samples", "1", "--seed", "5"],
            "c8685e218b2b3111e610c2358702ee7f6597216a4566a9ec0406fdb0f3ab7f98",
        ),
    ],
    ids=[
        "64-tate",
        "2,16-tate",
        "100-triviality",
        "2,2,2-tate",
        "2,2,4-tate",
        "2,2,2,2-tate",
        "2,2,8-tate",
        "3,27-tate",
        "4,16-tate",
        "256-tate",
        "243-ext",
        "256-ext",
        "28-triviality",
        "63-triviality",
        "2,2,2,2-ext",
        "4,16-ext",
        "81-unit",
        "64-unit",
        "4,16-unit",
        "128-unit",
        "256-unit",
        "3,27-unit",
        "2,2,8-unit",
        "243-triviality",
        "2,2,8-triviality",
        "256-triviality",
        "2,2,2,2,2-ext",
        "512-ext",
        "2,2,2,2,2-monoid",
        "2,2,4-monoid",
        "2,2,2,2-monoid",
        "2,2,2,4-monoid",
        "2,6,12-monoid",
        "3,3,3,3-monoid",
        "720-monoid",
        "4096-monoid",
        "128-kernel",
        "256-kernel",
        "512-kernel",
        "1024-kernel",
        "3^1-spectrum",
        "3^4-spectrum",
        "7^2-spectrum",
        "79^1-spectrum",
    ],
)
def test_large_verify_reports_are_pinned(argv, digest):
    # sha256 of the reports as printed when modules were kept at rank |G/I|;
    # the rank-3 groups as printed when each Tate group was rebuilt and
    # validated from a fresh presentation; the ext sweeps as printed when
    # the backward lattice was rebuilt and checked for every pair; the
    # noncyclic ext sweeps and the unit sweep as printed when ext also
    # solved for the preimage of the nu-part and unit took a precision;
    # the 64 and 4,16 unit sweeps as printed when unit solved for u
    # modulo p^M instead of exhibiting the geometric-sum witness; the
    # 128 unit sweep as printed when a unit row also compared L w with L
    # modulo p^M after its witness; the 243 and 2,2,8 triviality sweeps
    # as printed when each inertia module was the Smith form of its orbit
    # lattice in Z[G/I]; the 256 triviality sweep as printed when every
    # module cached the matrix of each group element; 2,2,2,2,2, whose
    # 139,502 (inertia group, subgroup) combinations the pair cap accepts,
    # as printed when its (I, D) pairs were found by testing every inertia
    # group against every subgroup (ext 2426 lines); the four noncyclic
    # monoid reports the bench leaves out, as printed when beta was a
    # tuple of 0/1 entries; 2,6,12, whose membership search is the
    # largest with 2,2,2,4 and 2,2,2,2,2, as printed when every search
    # tried every generator; 720 (FREE, 91 of its 105 images with more
    # than one bit) and 4096 (one bit each) as printed when every
    # bounded check ran the packed sweep; the 2,2,2,2 and 2,2,8 tate
    # sweeps as printed on the per-row route, when every (pair, H) row
    # computed its own Tate groups instead of one per key (H + I, #(H meet I));
    # the 128 and 256 kernel sweeps as printed when [Z[G] : (N_I, g)] was
    # the HNF index of the 2n-row orbit matrix of (N_I, g), and the 512
    # kernel sweep as printed when it was read in Z[G]/(g) on dense
    # group-ring elements, every rotation row included; the 1024 kernel
    # sweep as printed when each row's index in Z[G]/(g) was the HNF index
    # of its rotation rows stacked over M times the e x e identity, and
    # each row took a Smith form to test I for cyclicity; four spectrum
    # shapes the bench leaves out, as printed when each sample was built
    # by GroupRing products and its Smith rows read off mult_matrix; the
    # 256, 3,27 and 2,2,8 unit sweeps as printed when the witness identity
    # was checked on N_I Z[G] instead of in Z[G/I]; the 512 ext sweep as
    # printed when ext took pi from the left kernel of the multiplication
    # matrix of N_I, fact (b) from a Smith form, and the backward lattice
    # from the 2n-row orbit HNF of (N_I, #I); the 3,27 and 4,16 tate
    # sweeps as printed when both kernels of a Tate row were the domain
    # half of a left kernel, read off an HNF with unimodular transform of
    # the maps stacked over the relations, and put in HNF again; the 256
    # tate sweep as printed when every row took the Tate pairs of the
    # whole module from dense matrices and searched them for a generator
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "grlat", *argv], capture_output=True, env=env, timeout=120)
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout).hexdigest() == digest


def test_main_leaves_no_cyclic_garbage():
    # the parser is built once per process, so a call of main leaves
    # nothing for the cyclic collector; a fresh interpreter starts clean
    script = (
        "import contextlib, gc, io\n"
        "from grlat.cli import main\n"
        "argvs = [['verify', '7', '--checks', 'kernel'], ['monoid', '3,3'], ['verify', '9'],\n"
        "         ['spectrum', '--p', '3', '--r', '2', '--samples', '4']]\n"
        "found = []\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(argv)\n"
        "    found.append(gc.collect())\n"
        "print(found)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"[0, 0, 0, 0]\n"


def test_package_has_no_assert():
    # every check the reports depend on must survive python -O
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(grlat.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not offenders


def test_package_is_integral():
    # every lattice and ring element is integral: no module imports fractions
    def imported(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        return []

    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(grlat.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if any(name.split(".")[0] == "fractions" for name in imported(node))
    ]
    assert not offenders


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--p", "3", "--r", "2", "--samples", "8", "--seed", "1"],
        ["verify", "9", "--checks", "kernel"],
        ["verify", "16", "--checks", "kernel"],
        ["verify", "9", "--checks", "tate,ext,triviality,unit"],
        ["verify", "2,6", "--checks", "triviality"],
        ["verify", "21", "--checks", "triviality"],
        ["verify", "28", "--checks", "triviality"],
        ["monoid", "2,2,12"],
        ["monoid", "2,2,2,2"],
        ["monoid", "720"],
        ["verify", "3,3", "--checks", "tate"],
        ["verify", "2,2,2", "--checks", "tate,ext"],
        ["verify", "2,4", "--checks", "tate,triviality"],
        ["verify", "27", "--checks", "unit"],
        ["monoid", "3,3,3"],
        ["verify", "81", "--checks", "kernel"],
        ["verify", "2,2,8", "--checks", "tate"],
        ["verify", "12", "--checks", "triviality"],
    ],
)
def test_optimized_interpreter_gives_identical_reports(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(grlat.__file__).resolve().parents[1]))
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "grlat", *argv], capture_output=True, env=env)
        for flags in ([], ["-O"])
    ]
    plain, optimized = runs
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout and plain.stdout
