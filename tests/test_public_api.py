"""The package's public surface.  A module-level name is public when it has
no leading underscore; no module narrows that with ``__all__``, and no module
imports another's private name.  Every public function and class, and every
public method and property of a public class, has a caller in the package,
the top level holds the quick start, the exception classes
fall into the two families that the exit codes tell apart, and the test
oracles stay out of the package."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import ccmabeam

PACKAGE = Path(ccmabeam.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

# what README's quick start names, and the types optimize returns
TOP_LEVEL = [
    "ArrayConfig",
    "build_geometry",
    "Direction",
    "LossConfig",
    "optimize",
    "OptimizeResult",
    "DesignParams",
    "MetricCurves",
    "RunRecord",
    "__version__",
]

# called from outside the package only: the console script
ENTRY_POINTS = {("cli", "main")}


def used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attribute names that ``tree`` uses outside the node ``skip``;
    an import binds a name but does not use it."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def public_definitions(module: str, tree: ast.Module):
    """(dotted name, node) of the module-level functions and classes without a
    leading underscore, and of the methods and properties of those classes."""
    for own in tree.body:
        if not isinstance(own, (ast.FunctionDef, ast.ClassDef)) or own.name.startswith("_"):
            continue
        if (module, own.name) not in ENTRY_POINTS:
            yield own.name, own
        if isinstance(own, ast.ClassDef):
            for member in own.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{own.name}.{member.name}", member


def uncalled_public_definitions() -> list[str]:
    """Public definitions whose name nothing in the package uses outside them."""
    uncalled = []
    for module, tree in MODULES.items():
        for dotted, own in public_definitions(module, tree):
            if not any(
                own.name in used_names(other, own if other is tree else None)
                for other in MODULES.values()
            ):
                uncalled.append(f"{module}.{dotted}")
    return uncalled


def test_every_exported_function_and_class_has_a_caller():
    """Methods and properties of public classes included."""
    assert uncalled_public_definitions() == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_only_the_top_level_assigns_all(module):
    """``ccmabeam.__all__`` is the quick start; a module's public names are
    those without a leading underscore."""
    assigns = any(
        isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
        for node in ast.walk(MODULES[module])
    )
    assert assigns == (module == "__init__")


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_a_private_name(module):
    for node in ast.walk(MODULES[module]):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("ccmabeam"):
            continue
        private = [
            alias.name for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
        assert private == [], ast.unparse(node)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_exceptions_fall_into_the_two_exit_code_families(module):
    """``main`` exits 1 on any ``ValueError`` and 2 on any ``ArithmeticError``,
    so a ``ValueError`` subclass would tell nothing apart; every exception
    class the package defines is an ``ArithmeticError``."""
    mod = importlib.import_module("ccmabeam" if module == "__init__" else f"ccmabeam.{module}")
    errors = [
        cls for _, cls in inspect.getmembers(mod, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == mod.__name__
    ]
    for cls in errors:
        assert not issubclass(cls, ValueError), cls
        assert issubclass(cls, ArithmeticError), cls


def test_top_level_is_the_quick_start():
    assert ccmabeam.__all__ == TOP_LEVEL
    for name in TOP_LEVEL:
        assert hasattr(ccmabeam, name), name


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_the_oracles(module):
    for node in ast.walk(MODULES[module]):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        else:
            continue
        assert not any("oracles" in name.split(".") for name in names), ast.unparse(node)
