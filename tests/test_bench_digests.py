"""Byte-identity of the module sweeps: every `verify` command of the
benchmark's verify-modules catalogue (tate, ext and triviality, with
unit on p-groups) is run in-process through grlat.cli.main, and the
sha256 of its report must equal the digest recorded in
bench/expected.json.  The file is only read.
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


def test_the_catalogue_has_seventeen_module_sweeps():
    assert len(MODULE_SWEEPS) == 17


@pytest.mark.parametrize("command", MODULE_SWEEPS)
def test_module_sweep_report_matches_the_recorded_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == EXPECTED[command]["sha256"]
