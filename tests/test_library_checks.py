"""Library checks must raise: ``python -O`` strips ``assert`` statements."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "altmat"


def test_library_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no library modules under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
