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
    "WeightEnumerator.total": "the number of codewords counted; perfbench's certify job reads it",
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (*FUNCTIONS, ast.Lambda, ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _bound(scope):
    """Names a scope binds itself: arguments, assignment, loop and
    comprehension targets, and in a function or class its nested
    definitions and imports. A module's own definitions and imports are the
    names it calls, so there only an assignment hides a definition."""
    names = {
        node.id for node in _own_nodes(scope)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
    }
    if isinstance(scope, ast.Module):
        return names
    if isinstance(scope, (*FUNCTIONS, ast.Lambda)):
        args = scope.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        names.update(a.arg for a in every if a is not None)
    for node in _own_nodes(scope):
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _own_nodes(scope):
    """The nodes of a scope, without those of the scopes nested in it.

    A nested definition itself, its decorators and defaults, and a class's
    bases are evaluated in this scope, and so is a comprehension's first
    iterable.
    """
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (*FUNCTIONS, ast.Lambda)):
            todo += [*getattr(node, "decorator_list", ()), *node.args.defaults]
            todo += [d for d in node.args.kw_defaults if d is not None]
        elif isinstance(node, ast.ClassDef):
            todo += [*node.decorator_list, *node.bases, *node.keywords]
        elif isinstance(node, SCOPES):
            todo.append(node.generators[0].iter)
        else:
            todo += ast.iter_child_nodes(node)


def called_names(paths):
    """The names the files load where no enclosing scope binds them, and
    the attributes they read as (name of the object or None, attribute)."""
    loaded, attributes = set(), set()

    def visit(scope, hidden):
        bound = _bound(scope)
        for node in _own_nodes(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in bound and node.id not in hidden:
                    loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add((getattr(node.value, "id", None), node.attr))
            elif isinstance(node, SCOPES):
                # a class body's names are not seen by the functions inside it
                visit(node, hidden if isinstance(scope, ast.ClassDef) else hidden | bound)

    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return loaded, attributes


def uncalled_definitions(root):
    """Definitions in root/src/altmat that nothing in the library or scripts
    calls, as {name: module file}. A module-level function or class must be
    loaded by name where no local of that name hides it, or read as an
    attribute of its module; a method or property must be read as an
    attribute. Dunder methods are called by the interpreter, not by name."""
    src = root / "src" / "altmat"
    callers = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((root / "scripts").glob("*.py"))
    loaded, attributes = called_names(callers)
    methods = {attr for _, attr in attributes}
    uncalled = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                continue
            if node.name not in loaded and (path.stem, node.name) not in attributes:
                uncalled[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("__"):
                        if item.name not in methods:
                            uncalled[f"{node.name}.{item.name}"] = path.name
    return uncalled


def test_every_library_definition_has_a_caller():
    # a function, class, method or property that nothing in the library or
    # scripts calls is a route only tests keep alive; it belongs in
    # tests/reference.py, or on NO_LIBRARY_CALLER if it is public API
    uncalled = uncalled_definitions(ROOT)
    assert sorted(uncalled) == sorted(NO_LIBRARY_CALLER), uncalled


def test_a_local_of_the_same_name_is_not_a_caller(tmp_path):
    # a dead function hidden by a local variable, argument or loop target of
    # its name, and a dead method whose name is only ever a bare variable
    (tmp_path / "src" / "altmat").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "src" / "altmat" / "mod.py").write_text(
        "def stack(a):\n"
        "    return a\n\n\n"
        "def search(stack, b):\n"
        "    out = [stack for stack in b]\n"
        "    return out, stack, live(b)\n\n\n"
        "def live(b):\n"
        "    stack = [b]\n"
        "    glue = stack.pop()\n"
        "    return [glue for _ in stack], Part(b).used()\n\n\n"
        "class Part:\n"
        "    def __init__(self, b):\n"
        "        self.b = b\n\n"
        "    def glue(self):\n"
        "        return self.b\n\n"
        "    def used(self):\n"
        "        return self.b\n"
    )
    (tmp_path / "scripts" / "run.py").write_text(
        "from altmat.mod import search\n\nsearch([], [])\n"
    )
    assert uncalled_definitions(tmp_path) == {"stack": "mod.py", "Part.glue": "mod.py"}


def test_every_library_dataclass_is_frozen():
    # results are values: built once, whole, and never assigned to
    found = []
    for path, node in library_nodes():
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                keywords = dec.keywords if isinstance(dec, ast.Call) else []
                if not any(
                    k.arg == "frozen" and getattr(k.value, "value", None) is True
                    for k in keywords
                ):
                    found.append(f"{path.name}: {node.name}")
    assert found == []
