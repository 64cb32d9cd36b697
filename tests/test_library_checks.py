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


def test_only_the_family_builders_have_functools_caches():
    # a functools cache lives as long as its module and keeps what it returns
    # alive; any other memo sits on an instance (cached_property) and is freed
    # with it, so clearing these two caches drops every table derived from them
    caches = {"cache", "lru_cache"}
    decorated, references, renamed = [], 0, []
    for path, node in library_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) in caches:
                    decorated.append((path.name, node.name))
        elif isinstance(node, ast.Name) and node.id in caches:
            references += 1
        elif isinstance(node, ast.Attribute) and node.attr in caches:
            references += 1
        elif isinstance(node, ast.alias) and node.name in caches and node.asname:
            renamed.append(f"{path.name}: {node.name} as {node.asname}")
    assert decorated == [("families.py", "build_a"), ("families.py", "build_b")]
    # the decorators are the only places a cache is named
    assert references == len(decorated)
    assert renamed == []


def test_library_has_no_unused_imports():
    # a package __init__ imports to re-export, and __future__ imports are
    # compiler directives
    imported, used = {}, set()
    for path, node in library_nodes():
        if path.name == "__init__.py":
            continue
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[path.name, alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[path.name, alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add((path.name, node.id))
    found = [
        f"{name}:{line} {alias}"
        for (name, alias), line in imported.items()
        if (name, alias) not in used
    ]
    assert found == []
