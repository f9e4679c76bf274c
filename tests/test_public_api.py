"""The package's public surface: every public module-level function and
class has a caller in the package, the top level holds the quick start, and the test
oracles stay out of the package."""

import ast
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


def uncalled_public_definitions() -> list[str]:
    """Module-level functions and classes without a leading underscore that
    nothing in the package uses, whether or not ``__all__`` lists them."""
    uncalled = []
    for module, tree in MODULES.items():
        for own in tree.body:
            if not isinstance(own, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = own.name
            if name.startswith("_") or (module, name) in ENTRY_POINTS:
                continue
            if not any(
                name in used_names(other, own if other is tree else None)
                for other in MODULES.values()
            ):
                uncalled.append(f"{module}.{name}")
    return uncalled


def test_every_exported_function_and_class_has_a_caller():
    assert uncalled_public_definitions() == []


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
