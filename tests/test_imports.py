import ast
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
