"""Byte-identity of the benchmark's reports: every `verify` command of
the verify-modules catalogue (tate, ext and triviality, with unit on
p-groups) and of the kernel-cyclic catalogue (`--checks kernel` on
cyclic orders), every `spectrum` command of the spectrum pool and
every `monoid` command of the monoid catalogue is run in-process
through grlat.cli.main, and the sha256 of its report must equal the
digest recorded in bench/expected.json.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from grlat.cli import main

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())["commands"]
MODULE_SWEEPS = sorted(k for k in EXPECTED if k.startswith("verify ") and "--checks tate" in k)
KERNEL_SWEEPS = sorted(k for k in EXPECTED if k.startswith("verify ") and k.endswith("--checks kernel"))
SPECTRUM_RUNS = sorted(k for k in EXPECTED if k.startswith("spectrum "))
MONOID_RUNS = sorted(k for k in EXPECTED if k.startswith("monoid "))


def report_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_the_catalogue_has_seventeen_module_sweeps():
    assert len(MODULE_SWEEPS) == 17


def test_the_catalogue_has_eighty_kernel_sweeps():
    assert len(KERNEL_SWEEPS) == 80


def test_the_catalogue_has_384_spectrum_runs():
    assert len(SPECTRUM_RUNS) == 384


def test_the_catalogue_has_eighteen_monoid_runs():
    assert len(MONOID_RUNS) == 18


def test_every_recorded_command_is_checked():
    assert len(MODULE_SWEEPS + KERNEL_SWEEPS + SPECTRUM_RUNS + MONOID_RUNS) == len(EXPECTED)


@pytest.mark.parametrize("command", MODULE_SWEEPS)
def test_module_sweep_report_matches_the_recorded_digest(command):
    assert report_digest(command) == EXPECTED[command]["sha256"]


@pytest.mark.parametrize("command", KERNEL_SWEEPS)
def test_kernel_sweep_report_matches_the_recorded_digest(command):
    assert report_digest(command) == EXPECTED[command]["sha256"]


@pytest.mark.parametrize("command", SPECTRUM_RUNS)
def test_spectrum_report_matches_the_recorded_digest(command):
    assert report_digest(command) == EXPECTED[command]["sha256"]


@pytest.mark.parametrize("command", MONOID_RUNS)
def test_monoid_report_matches_the_recorded_digest(command):
    assert report_digest(command) == EXPECTED[command]["sha256"]
