"""Static checks on the library source, read through ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "altmat"


def library_nodes():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no library modules under {SRC}"
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_library_has_no_assert_statements():
    # library checks must raise: ``python -O`` strips ``assert`` statements
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_does_not_import_fractions():
    # the rational kernels are rank_mod_p with its Bareiss fallback, on integers
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in library_nodes()
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions"
        or isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "fractions" for alias in node.names)
    ]
    assert found == []
