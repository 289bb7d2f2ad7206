"""Checks on the library source itself."""
import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mcassort"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so an invariant that protects a
    # reported number must raise a real exception instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/mcassort: {found}"


def test_exported_names_resolve():
    # a stale __all__ entry does not fail at import, only at a star-import;
    # and every name the package re-exports is public in its own module
    missing = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"mcassort.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    package = importlib.import_module("mcassort")
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            public = importlib.import_module(f"mcassort.{node.module}").__all__
            missing += [f"mcassort.{a.name} (not in {node.module}.__all__)" for a in node.names
                        if a.name not in public or not hasattr(package, a.name)]
    assert not missing, f"exported names that do not resolve: {missing}"
