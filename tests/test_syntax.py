"""Every Python file of the project parses as Python 3.10, its oldest, and
the package defines and imports nothing that it does not use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Definitions that nothing in the package refers to, kept because the
# benchmark harness reads them by name.
UNUSED_ALLOWED = {
    # perfbench/spans.py traces it by name in TRACED
    "oracle.represent",
    # perfbench/test_perfbench.py compares product_phase.turns
    "weyl.RationalPhase.turns",
}

# Imported names that nothing in their module refers to.
IMPORTS_ALLOWED = {
    # perfbench/spans.py patches it, so that a call under either name is
    # traced
    "oracle.verify",
}


def test_allowed_entries_are_still_read_by_the_harness():
    # an entry outlives its reason once perfbench/ stops naming it: a
    # module-level name by its dotted path in spans.py, which patches it;
    # a class attribute by its name in test_perfbench.py, which reads it
    # off a value. Module-level names are not matched by attribute, since
    # `.verify` there is paradox.verify.
    spans = (ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8")
    harness_test = (ROOT / "perfbench" / "test_perfbench.py").read_text(
        encoding="utf-8")

    def named(entry: str) -> bool:
        if entry.count(".") == 1:
            return f"cvghz.{entry}" in spans
        return f".{entry.rpartition('.')[2]}" in harness_test

    assert {entry for entry in UNUSED_ALLOWED | IMPORTS_ALLOWED
            if not named(entry)} == set()


def test_sources_parse_as_python_3_10():
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))


def test_every_definition_is_used():
    # top-level functions and classes, and the non-dunder methods of the
    # classes, each counted as used once some module other than
    # __init__.py names it (as a name or an attribute)
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "cvghz").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__"))
    assert len(defined) > 50
    unused = {qual for qual, name in defined.items() if name not in used}
    assert unused == UNUSED_ALLOWED


def test_every_import_is_used():
    # every name an import binds, at any depth, is read somewhere in its
    # module; a __future__ import binds no name that code reads
    unused = set()
    for path in sorted((ROOT / "src" / "cvghz").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused.update(
                    f"{path.stem}.{name}" for name in
                    (alias.asname or alias.name.partition(".")[0]
                     for alias in node.names)
                    if name not in used)
    assert unused == IMPORTS_ALLOWED
