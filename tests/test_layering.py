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


def _json_error_handlers(path: Path):
    """Each ``except`` clause of ``path`` that names JSONDecodeError."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(c, "attr", getattr(c, "id", None)) == "JSONDecodeError" for c in caught):
                yield f"{path.name}:{node.lineno} catches JSONDecodeError"


def test_only_schema_handles_malformed_json():
    handlers = [h for path in SOURCES for h in _json_error_handlers(path)]
    assert [h for h in handlers if not h.startswith("schema.py:")] == []
    assert len(handlers) == 1  # schema.json_file's
