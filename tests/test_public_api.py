"""Every public function and class of the package has a caller in the program,
and every name the program imports is used.

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


def _unused_imports(path):
    """`path:line name` of each name the module imports and never loads; a
    name in `__all__` is used (the package re-exports it)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT).as_posix()}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    modules = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(modules) >= 10     # a scan that parses nothing would pass vacuously
    assert [hit for path in modules for hit in _unused_imports(path)] == []
