"""Every public function and class of the package has a caller in the program.

A caller is a reference by name (a call, an attribute or an import) from
src/cusplab, scripts/ or perfbench/.  The definition itself, the package's
re-export in cusplab/__init__.py and the tests do not count: API that only
tests call is API nothing calls.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cusplab"
PROGRAM = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + sorted(
    (ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names(node):
    """Every name `node` refers to: loaded names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in sub.names)


def _references():
    """name -> the places that refer to it, a definition's own body excluded."""
    refs = {}
    for path in PROGRAM:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            for name in _names(node):
                if name != own:
                    refs.setdefault(name, set()).add(path.relative_to(ROOT).as_posix())
    return refs


def test_every_public_function_and_class_has_a_program_caller():
    refs = _references()
    uncalled = [f"{path.name}:{node.lineno} {node.name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for node in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
                if node.name not in refs]
    assert uncalled == []


def test_the_scan_sees_the_package_and_its_callers():
    # a guard that parses nothing would pass vacuously
    refs = _references()
    assert "parse_config" in refs and "global_counting" in refs
    assert any(path.startswith("scripts/") for path in refs["weyl_study"])
    assert len(PROGRAM) >= 10
