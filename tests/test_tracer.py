"""The benchmark's tracer against the package.

bench/tracer.py wraps grlat functions and the methods of a few classes
that it looks up by name (abelian.QuotientData, grouprings.FiniteModule
and others).  bench/tests is not part of this suite, so one test reads
the tracer's class table in-process and finds each class it names in
its grlat module, and another installs the tracer in a fresh
interpreter and runs two small commands under it, a verify and a
monoid: a renamed class or layer fails here rather than in a traced
benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json
import tracer
t = tracer.Tracer()
t.install()
from grlat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["verify", "9", "--checks", "tate,ext,triviality,unit"]),
        main(["monoid", "2,6"]),
    ]
calls = {}
for name, _parent, n, _total, _own in t.report()["spans"]:
    calls[name] = calls.get(name, 0) + n
print(json.dumps({"codes": codes, "calls": calls}))
"""


def test_tracer_installs_and_counts_the_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["codes"] == [0, 0]
    for span in (
        "abelian.canonical_lift",
        "abelian.decomposition_subgroup",
        "abelian.Subgroup.elements",
        "grouprings.FiniteModule.validate",
        "grouprings.GroupRing.__init__",
        "cohomology.tate_cohomology",
        "cohomology.prediction_verdict",
        "cohomology.p_part",
        "cohomology.chi_idempotent_matrix",
        "cohomology.triviality_criterion",
        "lattices.verify_unit_transport",
        "monoid.build_sets",
        "monoid.analyze_monoid",
        "abelian.enumerate_subgroups",
    ):
        assert out["calls"].get(span, 0) > 0, span


def test_every_class_the_tracer_wraps_is_in_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, classes in tracer.CLASSES.items():
        module = importlib.import_module(f"grlat.{layer}")
        for name, special in classes.items():
            cls = getattr(module, name, None)
            assert cls is not None, f"bench/tracer.py wraps grlat.{layer}.{name}, which is gone"
            for attr in special:
                assert hasattr(cls, attr), f"bench/tracer.py wraps grlat.{layer}.{name}.{attr}"
