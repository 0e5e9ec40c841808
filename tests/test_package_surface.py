"""Every top-level function and class of the package is reached from a user.

The users are the `lielocal` command (every `cli._run_*` handler and
`cli.main`), the `lielocal` names that perfbench/session.py imports, the
functions that perfbench/tracer.py wraps (its TARGETS), and the imports
in the README's Python API block.  A name that only tests reach belongs in
a test oracle, not in the package.

The reach is read from the source with `ast`: a top-level definition
reaches every name its body mentions that is a top-level definition of its
module or that a `from .module import name` binds, at the top of the
module or inside the definition.  A class is reached as a whole; its
methods are not checked one by one.  perfbench/ and the README are read,
never imported.
"""

import ast
import os
import re
from functools import lru_cache

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "lielocal")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


@lru_cache(maxsize=None)
def _modules() -> dict[str, ast.Module]:
    return {name[:-3]: _parse(os.path.join(SRC, name))
            for name in sorted(os.listdir(SRC)) if name.endswith(".py")}


def _lielocal_imports(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for every `from lielocal.module import name`."""
    return {(node.module.split(".", 1)[1], alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.startswith("lielocal.")
            for alias in node.names}


def _relative_imports(nodes) -> dict[str, tuple[str, str]]:
    """local name -> (module, name) for every `from .module import name`
    among `nodes`."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in nodes
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names}


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions, classes and assigned names of a module."""
    out: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((name.id, node) for target in targets
                       for name in ast.walk(target) if isinstance(name, ast.Name))
    return out


@lru_cache(maxsize=None)
def _graph() -> dict[tuple[str, str], set]:
    """(module, name) -> the (module, name) pairs its definition mentions."""
    graph: dict[tuple[str, str], set] = {}
    for module, tree in _modules().items():
        defs = _definitions(tree)
        top_imports = _relative_imports(tree.body)
        for name, node in defs.items():
            bindings = top_imports | _relative_imports(ast.walk(node))
            graph[(module, name)] = {
                (module, sub.id) if sub.id in defs else bindings[sub.id]
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and (sub.id in defs or sub.id in bindings)}
    return graph


def _tracer_targets() -> list[str]:
    for node in _parse(os.path.join(PERFBENCH, "tracer.py")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise LookupError("perfbench/tracer.py defines no TARGETS")


def _readme_api_imports() -> set[tuple[str, str]]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"## Python API\s*```python\n(.*?)```", fh.read(), re.S)
    assert block, "README.md has no Python API block"
    return _lielocal_imports(ast.parse(block.group(1)))


def _roots() -> set[tuple[str, str]]:
    roots = {("cli", name) for name in _definitions(_modules()["cli"])
             if name.startswith("_run_") or name == "main"}
    roots |= _lielocal_imports(_parse(os.path.join(PERFBENCH, "session.py")))
    roots |= {tuple(target.split(".")[:2]) for target in _tracer_targets()}
    return roots | _readme_api_imports()


def test_roots_are_definitions():
    missing = sorted(".".join(root) for root in _roots() - set(_graph()))
    assert not missing, "no such top-level name: " + ", ".join(missing)


def test_every_function_and_class_is_reached():
    graph = _graph()
    todo = list(_roots())
    reached = set(todo)
    while todo:
        for edge in graph[todo.pop()] - reached:
            reached.add(edge)
            todo.append(edge)
    unreached = sorted(f"{module}.{node.name}" for module, tree in _modules().items()
                       for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and (module, node.name) not in reached)
    assert not unreached, "reached by no user: " + ", ".join(unreached)


def test_no_module_imports_fractions():
    importers = [module for module, tree in _modules().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "fractions"]
    assert not importers, "modules importing fractions: " + ", ".join(importers)
