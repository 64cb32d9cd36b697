"""Static checks on the library source, read through ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "altmat"

# public entry points that nothing in src/altmat or scripts/ calls
NO_LIBRARY_CALLER = {
    "gf2_solve": "the GF(2) solver of the public API, kept for callers of the package",
    "BitMatrix.from_rows": "builds a matrix from nested 0/1 lists, as a caller writes one",
    "BitMatrix.identity": "the identity matrix, a public constructor beside zeros and ones",
    "WeightEnumerator.as_dict": "reads an enumerator as {weight: count} for a caller",
}


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


def test_every_library_definition_has_a_caller():
    # a function, class, method or property that nothing in the library or
    # scripts names is a route only tests keep alive; it belongs in
    # tests/reference.py, or on NO_LIBRARY_CALLER if it is public API
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, functions):
                defined[node.name] = path.name
            elif isinstance(node, ast.ClassDef):
                defined[node.name] = path.name
                for item in node.body:
                    if isinstance(item, functions):
                        defined[f"{node.name}.{item.name}"] = path.name
    callers = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py"))
    named = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    # names match by spelling alone, so any variable or attribute of the
    # same name counts as a caller; dunder methods are called by the
    # interpreter, not by name
    uncalled = []
    for name, module in defined.items():
        bare = name.rpartition(".")[2]
        if bare not in named and not bare.startswith("__"):
            uncalled.append(f"{module}: {name}")
    listed = [f"{defined.get(name, '(not defined)')}: {name}" for name in NO_LIBRARY_CALLER]
    assert sorted(uncalled) == sorted(listed)
