"""Every public name of the package is reached from the package itself.

The AST of src/grlat is walked once.  Every public module-level function
and every public method of a public class must be referenced somewhere
in the package, unless ALLOWED names it with the reason it is kept.  A
function is referenced as a Name, an Attribute or an imported name; a
method only as an Attribute or an imported name, since a bare Name of
the same spelling is a local variable, not a call of the method.  Code
that no command reaches is either wired in or deleted; a routine kept
only for the tests belongs in tests/reference.py.  The check is by
name, so a reference to a different object of the same name also
counts.
"""

import ast
from pathlib import Path

import grlat

SRC = Path(grlat.__file__).resolve().parent

QUOTIENT_DATA = (
    "bench/tracer.py looks up abelian.QuotientData when it installs; both move "
    "to tests/reference.py with the tracer's next refresh (ROADMAP, open item 5)"
)

# (module, qualified name) -> why it stays without a caller in the package
ALLOWED = {
    ("lattices", "forward_rep"): "README-documented API",
    ("grouprings", "IdealLattice.integral_index"): "README-documented API",
    ("abelian", "Subgroup.from_generators"): "README-documented API",
    ("abelian", "Subgroup.trivial"): "README-documented API",
    ("abelian", "Subgroup.full"): "README-documented API",
    ("abelian", "quotient_data"): QUOTIENT_DATA,
    ("abelian", "QuotientData.proj"): QUOTIENT_DATA,
    ("monoid", "cardinality_formulas"): "acceptance criterion 2 checks the cardinality formulas with it",
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _referenced(trees):
    """(names, attributes): every identifier used as a Name, and every one
    used as an Attribute or an imported name."""
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.add(node.name.rsplit(".", 1)[-1])
    return names, attributes


def _is_used(qual, name, referenced):
    """A method counts only through an Attribute or an imported name."""
    names, attributes = referenced
    return name in attributes or ("." not in qual and name in names)


def _public(trees):
    """(module, qualified name, bare name) of every public function and
    every public method of a public class."""
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((mod, node.name, node.name))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out.append((mod, f"{node.name}.{item.name}", item.name))
    return out


def test_every_public_function_and_method_is_referenced_in_the_package():
    trees = _trees()
    used = _referenced(trees)
    unreached = [(mod, qual) for mod, qual, name in _public(trees) if not _is_used(qual, name, used)]
    assert sorted(set(unreached) - set(ALLOWED)) == []


def test_the_allowlist_names_only_unreferenced_public_names():
    trees = _trees()
    used = _referenced(trees)
    public = {(mod, qual): name for mod, qual, name in _public(trees)}
    for key, reason in ALLOWED.items():
        assert key in public, key
        assert not _is_used(key[1], public[key], used), (key, "is referenced in the package; drop it from ALLOWED")
        assert reason
