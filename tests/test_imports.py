"""Every module of the package and of its tests uses each name it imports,
and the package reads or exports each function and class it defines."""

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


def test_exports_match_all():
    # every exported name resolves, and __init__.py imports exactly them
    import hilbfock

    assert [n for n in hilbfock.__all__ if not hasattr(hilbfock, n)] == []
    tree = ast.parse((_SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert imported == set(hilbfock.__all__) - defined


def _unread_definitions(paths):
    """Module-level functions and classes of ``paths`` that no module
    reads, as ``module.name``.  A definition of module m is read when m
    reads its name as a ``Name``, when another module imports it from m,
    or when another module reads it as the attribute of an ``Attribute``;
    a decorated definition is read by its decorator."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                read.update((other, node.attr) for other in trees if other != module)
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                read.update((source, alias.name) for alias in node.names)
    return sorted(
        "%s.%s" % (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.decorator_list
        and (module, node.name) not in read
    )


def test_no_unread_definitions():
    # the package's exports count as read through the imports of __init__.py
    assert _unread_definitions(sorted(_SRC.glob("*.py"))) == []
