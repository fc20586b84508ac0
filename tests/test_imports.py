import ast
import sys
from pathlib import Path

import tcplab

SRC = Path(tcplab.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_modules_have_no_unused_imports():
    # the package's __init__ imports in order to re-export
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 6
    unused = {p.name: _unused_imports(ast.parse(p.read_text())) for p in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The modules an import statement names, relative ones with their dots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_subdivision_imports_only_the_stdlib_numpy_tensors_and_model():
    # the solver and the property checks import the subdivision, so an
    # import of either from it would be circular
    names = _imported_modules(ast.parse((SRC / "subdivision.py").read_text()))
    outside = {name for name in names
               if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"} and name not in {".tensors", ".model"}}
    assert outside == set() and {".tensors", ".model"} <= names


def test_solver_and_properties_use_only_the_subdivision_entry_points():
    allowed = {"_r0_certificate", "_leaf_starts", "_copositive_leaves", "LEAF_EDGE"}
    for name in ("solver.py", "properties.py"):
        tree = ast.parse((SRC / name).read_text())
        taken = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "subdivision" and node.level == 1:
                taken.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                assert "subdivision" not in {alias.name for alias in node.names}, name
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("tcplab.subdivision") for alias in node.names), name
        assert taken and taken <= allowed, (name, taken - allowed)
