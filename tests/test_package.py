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


# Public names that nothing in src/ihg (its __init__ aside) or bench/*.py
# reads, each with why it stays: "paper API" (a verdict or construction a
# caller of the package asks for), "report" (a to_json_dict of a report
# type), "oracle route" (a second route that tests compare the engine's
# route with), or "ROADMAP item 13" (surface that item decides on).
_UNREFERENCED_PUBLIC = {
    "catalog: torus": "paper API",
    "coefficients: Coefficient.numeric": "oracle route",
    "coefficients: Coefficient.reduce_modulo": "ROADMAP item 13",
    "cohomology: solve_del": "paper API",
    "deformation: Deformation.specialize": "paper API",
    "deformation: Deformation.base_in_deformed": "paper API",
    "deformation: Deformation.del_t_formula": "oracle route",
    "deformation: mc_equation": "oracle route",
    "deformation: CurveOfMetrics.constant": "ROADMAP item 13",
    "deformation: CurveObstruction.to_json_dict": "ROADMAP item 13",
    "deformation: curve_obstruction": "ROADMAP item 13",
    "dsl: parse_form": "ROADMAP item 13",
    "dsl: parse_geometry": "ROADMAP item 13",
    "dsl: _Parser.parse_geometry": "ROADMAP item 13",
    "dsl: parse_coefficient": "ROADMAP item 13",
    "dsl: render_geometry": "ROADMAP item 13",
    "exterior: Form.contract_anti": "oracle route",
    "geometry: Geometry.to_json_dict": "report",
    "kuranishi: KuranishiSeries.to_json_dict": "report",
    "metrics: ConditionReport.to_json_dict": "report",
    "metrics: ObstructionReport.to_json_dict": "report",
    "metrics: all_or_none_skt": "paper API",
    "metrics: pluriclosed_obstruction": "paper API",
    "metrics: balanced_obstruction": "paper API",
    "metrics: strongly_gauduchon": "paper API",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) for the public module-level functions and
    public methods of a module."""
    def public(node):
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_"))

    for node in tree.body:
        if public(node):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in filter(public, node.body):
                yield f"{node.name}.{method.name}", method


def test_unreferenced_public_surface_is_the_allow_list():
    # a public function or method that nothing in the package or the
    # benchmark reads, outside the body of a definition of its name (its
    # own, or one that delegates to it, as a method wrapping the method of
    # the same name on each of its parts), is either on the allow-list,
    # with its reason, or dead surface to delete
    src = Path(ihg.__file__).resolve().parent
    bench = src.parent.parent / "bench"
    readers = [path for path in sorted(src.glob("*.py"))
               if path.name != "__init__.py"] + sorted(bench.glob("*.py"))
    references = [ref for path in readers
                  for ref in _references(ast.parse(path.read_text()))]
    unreferenced = {
        f"{path.stem}: {qualified}"
        for path in sorted(src.glob("*.py"))
        for qualified, node in _public_definitions(ast.parse(path.read_text()))
        if not any(name == node.name
                   and all(outer.name != name for outer in enclosing)
                   for name, enclosing in references)
    }
    assert unreferenced == set(_UNREFERENCED_PUBLIC)
    assert set(_UNREFERENCED_PUBLIC.values()) <= {
        "paper API", "report", "oracle route", "ROADMAP item 13"}


# Defaulted or variadic parameters of public functions and methods that no
# call in src/ihg (its __init__ aside) or bench/*.py sets, each with why it
# stays.
_UNSET_PARAMETERS = {
    "catalog: torus(n)": "paper API",
    "deformation: Deformation.base_in_deformed(anti)": "paper API",
    "kuranishi: kuranishi_build(depth_cap)": "safety bound, reached by tests",
}


def _settable_parameters(tree: ast.Module):
    """(qualified name, called name, node, named, parameters) for the
    public module-level functions and the public methods and __init__ of
    the classes of a module.  named lists the parameters a call fills by
    position: a method is called on an instance and __init__ by its
    class's name, so both skip their first.  parameters maps each
    defaulted or variadic parameter to its place in named, None for a
    keyword-only one, "*" and "**" for the variadic ones."""
    def entry(node, qualified, called, skip):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args][skip:]
        parameters = {name: positional.index(name) for name in
                      positional[len(positional) - len(args.defaults):]}
        parameters.update({a.arg: None for a, d in
                           zip(args.kwonlyargs, args.kw_defaults) if d})
        if args.vararg:
            parameters[args.vararg.arg] = "*"
        if args.kwarg:
            parameters[args.kwarg.arg] = "**"
        return qualified, called, node, positional, parameters

    def function(node):
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))

    for node in tree.body:
        if function(node) and not node.name.startswith("_"):
            yield entry(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for method in filter(function, node.body):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in method.decorator_list)
                if method.name == "__init__":
                    yield entry(method, f"{node.name}.__init__", node.name, 1)
                elif not method.name.startswith("_"):
                    yield entry(method, f"{node.name}.{method.name}",
                                method.name, 0 if static else 1)


def _calls(node, enclosing=()):
    """(called name, call, enclosing function definitions) for every call
    under node, named by its function's name or attribute."""
    if isinstance(node, ast.Call):
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is not None:
            yield name, node, enclosing
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, enclosing)


def _sets(call: ast.Call, parameter: str, position, named) -> bool:
    """Whether call sets the parameter: by keyword, by position, or
    through a starred argument reaching it."""
    keywords = {k.arg for k in call.keywords}
    if None in keywords:  # **mapping may hold any keyword
        return True
    if position == "**":
        return bool(keywords - set(named))
    positional = call.args
    starred = any(isinstance(a, ast.Starred) for a in positional)
    if position == "*":
        return starred or len(positional) > len(named)
    if parameter in keywords:
        return True
    return position is not None and (starred or len(positional) > position)


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    # a defaulted parameter that no call sets is a constant in disguise:
    # either on the allow-list, with its reason, or a value to inline
    src = Path(ihg.__file__).resolve().parent
    bench = src.parent.parent / "bench"
    readers = [path for path in sorted(src.glob("*.py"))
               if path.name != "__init__.py"] + sorted(bench.glob("*.py"))
    calls = [call for path in readers
             for call in _calls(ast.parse(path.read_text()))]
    unset = set()
    for path in sorted(src.glob("*.py")):
        for qualified, called, node, named, parameters in (
                _settable_parameters(ast.parse(path.read_text()))):
            for parameter, position in parameters.items():
                if not any(name == called and node not in enclosing
                           and _sets(call, parameter, position, named)
                           for name, call, enclosing in calls):
                    unset.add(f"{path.stem}: {qualified}({parameter})")
    assert unset == set(_UNSET_PARAMETERS)
