"""The library keeps only what runs: every public top-level function and
class of src/galmin is used by the package itself or by the benchmark
under perfbench/. References that only tests compare against live in
tests/oracles.py, and the library defines none of their names. No
module imports a name it never uses, nor another module's private name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "galmin"
BENCHMARK = ROOT / "perfbench"
ORACLES = ROOT / "tests" / "oracles.py"


def _public_definitions(paths) -> dict[str, str]:
    """Each public top-level function and class, with its module."""
    defs = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = path.stem
    return defs


def _bound_names(func) -> set[str]:
    """The parameters and assigned names of a function: names that shadow
    a module-level one inside it."""
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [a for a in (args.vararg, args.kwarg) if a is not None]
    bound = {a.arg for a in params}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound


def _references(tree, strings: bool) -> set[str]:
    """The names a module uses: loads of a name that no enclosing function
    rebinds, attributes (module.function, Class.method) and, with strings,
    the parts of each string that is a dotted name, such as the
    benchmark's traced layers."""
    used = set()

    def visit(node, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if not isinstance(node, ast.Lambda):
                shadowed = shadowed | _bound_names(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                used.update(parts)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return used


def test_every_public_name_has_a_user_or_is_a_named_reference():
    defs = _public_definitions(sorted(PACKAGE.glob("*.py")))
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        used |= _references(ast.parse(path.read_text()), strings=False)
    for path in sorted(BENCHMARK.glob("*.py")):
        used |= _references(ast.parse(path.read_text()), strings=True)
    unused = sorted(f"{module}.{name}" for name, module in defs.items()
                    if name not in used)
    assert unused == []


def test_no_oracle_is_also_defined_in_the_library():
    defs = _public_definitions(sorted(PACKAGE.glob("*.py")))
    oracles = _public_definitions([ORACLES])
    assert sorted(f"{defs[name]}.{name}" for name in oracles if name in defs) == []


def _imports(tree):
    """(alias, node) for each name bound by an import statement."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias, node


def _loaded_names(tree) -> set[str]:
    """Every name the module reads, such as arith in arith.BYTES_BUDGET."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_no_module_imports_a_name_it_never_uses():
    # An import kept for another reader carries a noqa with its reason;
    # __init__.py imports to re-export.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = _loaded_names(tree)
        for alias, node in _imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            bound = (alias.asname or alias.name).split(".")[0]
            if bound in used or re.search(r"# noqa: \w+\s+\S", lines[alias.lineno - 1]):
                continue
            unused.append(f"{path.stem}: {alias.name}")
    assert unused == []


def test_no_module_imports_another_modules_private_name():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for alias, node in _imports(tree):
            name = alias.name.rsplit(".", 1)[-1]
            if name.startswith("_") and not name.startswith("__"):
                private.append(f"{path.stem}: {alias.name}")
            if isinstance(node, ast.Import) or node.module is None:
                modules.add(alias.asname or alias.name.split(".")[0])
        # A private name read through an imported module, as in arith._x.
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                private.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert private == []
