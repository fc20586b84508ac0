import ast
import importlib
import sys
from pathlib import Path

import tcplab
import tcplab.model

SRC = Path(tcplab.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
    allowed = {"_r0_certificate", "_leaf_starts", "_copositive_leaves", "_monotone_pieces", "LEAF_EDGE"}
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


def test_solver_and_subdivision_draw_nothing_at_random():
    # a solve's output depends on (A, a) alone: neither module uses
    # np.random or default_rng, and no code there reads a .seed attribute
    # but SolverConfig's own check of its field
    for name in ("solver.py", "subdivision.py"):
        tree = ast.parse((SRC / name).read_text())
        config = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SolverConfig"]
        skipped = {id(node) for cls in config for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"random", "default_rng"}, (name, node.lineno)
                assert node.attr != "seed" or id(node) in skipped, (name, node.lineno)
            elif isinstance(node, ast.Name):
                assert node.id != "default_rng", (name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                assert "random" not in (node.module or "") and "default_rng" not in {a.name for a in node.names}, name
            elif isinstance(node, ast.Import):
                assert not any("random" in alias.name for alias in node.names), name


def _module_level_names(tree: ast.Module) -> dict[str, int]:
    """Names a module's top-level def, class or assignment binds, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update((n.id, node.lineno) for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_every_module_level_name_is_read_or_exported():
    # a name that no module reads and __init__ does not export is dead code;
    # the package reaches its modules' names only by name or by import, never
    # as module attributes.  __version__ is for packaging tools.
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = {"__version__"}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = {name: [f"{n} (line {line})" for n, line in sorted(_module_level_names(tree).items()) if n not in read]
              for name, tree in trees.items()}
    assert {name: names for name, names in unread.items() if names} == {}


def test_bernstein_is_the_only_coefficient_kernel():
    # every Bernstein coefficient, the form's too, comes from _bernstein: no
    # other function of the subdivision multiplies matrices
    tree = ast.parse((SRC / "subdivision.py").read_text())
    callers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "matmul" and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"}
    assert callers == {"_bernstein"}


def test_every_name_the_bench_tracer_wraps_exists():
    # bench/spans.py wraps package names it looks up by string; its lists
    # are read from its source, not run, so a renamed or deleted name shows
    # here and not only in a traced benchmark pass
    lists = {target.id: ast.literal_eval(node.value) for node in ast.parse(SPANS.read_text()).body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name) and target.id in {"BOUNDARIES", "METHODS"}}
    assert lists["BOUNDARIES"] and lists["METHODS"]
    missing = [f"{home}.{attr}" for _, home, attr in lists["BOUNDARIES"]
               if not hasattr(importlib.import_module(home), attr)]
    missing += [f"FaceSystem.{attr}" for _, attr in lists["METHODS"] if attr not in vars(tcplab.model.FaceSystem)]
    assert missing == []
    assert callable(importlib.import_module("tcplab.experiments")._map_samples)
