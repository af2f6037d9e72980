"""Layering: a module of the package uses only the public names of the
other modules, so a private name can change without breaking a caller."""

import ast
from pathlib import Path

import qelm_lab

SOURCES = sorted(Path(qelm_lab.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_uses(path: Path):
    """Each private name ``path`` imports from a package module, or reads
    off a package module it imported as a name."""
    tree = ast.parse(path.read_text(), str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qelm_lab")):
            for alias in node.names:
                if _private(alias.name):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"
                if node.module is None:  # from . import circuit as circ
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _private(node.attr):
                yield f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"


def test_no_module_uses_a_private_name_of_another():
    assert len(SOURCES) > 10
    assert [use for path in SOURCES for use in _private_uses(path)] == []
