"""The package namespace and its imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ihg


def test_every_export_resolves():
    missing = [name for name in ihg.__all__ if not hasattr(ihg, name)]
    assert missing == []


def test_import_loads_no_sympy():
    # sympy is a test oracle only: a fresh interpreter importing the package
    # loads no module of it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import ihg, sys; print(sorted(m for m in sys.modules"
            " if m == 'sympy' or m.startswith('sympy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports only to re-export
    src = Path(ihg.__file__).resolve().parent
    unused = {
        path.name: names
        for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}


def _private_definitions(tree: ast.Module):
    """The private module-level functions and private methods of a module,
    dunders excepted."""
    def private(node):
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.endswith("__"))

    for node in tree.body:
        if private(node):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from filter(private, node.body)


def _references(node, enclosing=()):
    """(name, enclosing function definitions) for every name, attribute
    and imported name read under node."""
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, ast.ImportFrom):
        for alias in node.names:
            yield alias.name, enclosing
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def test_every_private_helper_has_a_caller():
    # a private function or method that only its own body names is dead
    src = Path(ihg.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    references = [ref for tree in trees.values() for ref in _references(tree)]
    dead = [
        f"{module}: {node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in _private_definitions(tree)
        if not any(name == node.name and node not in enclosing
                   for name, enclosing in references)
    ]
    assert dead == []
