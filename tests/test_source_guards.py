"""Checks on the library source itself."""
import ast
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
