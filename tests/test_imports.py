"""Every module of the package and of its tests uses each name it imports."""

import ast
from pathlib import Path

_TESTS = Path(__file__).resolve().parent
_SRC = _TESTS.parent / "src" / "hilbfock"


def _unused_imports(path: Path):
    """Imported names that no ``Name`` node of the module reads; a name
    used only inside a quoted annotation counts as unused."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # the package's __init__.py is skipped: its imports are its re-exports
    paths = [p for p in sorted(_SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(_TESTS.glob("*.py"))
    found = {
        str(path.relative_to(_TESTS.parent)): _unused_imports(path) for path in paths
    }
    assert {name: unused for name, unused in found.items() if unused} == {}
