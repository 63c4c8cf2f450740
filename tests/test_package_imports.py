"""The package's modules import no private name from one another, and its
export list names only what the package holds."""

import ast
from pathlib import Path

import wlra

SRC = Path(__file__).resolve().parents[1] / "src" / "wlra"


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    source = "." * node.level + (node.module or "")
                    yield f"{path.name}:{node.lineno}: from {source} import {alias.name}"


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules under {SRC}"
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []


def test_every_exported_name_resolves_once():
    assert len(wlra.__all__) == len(set(wlra.__all__))
    assert [name for name in wlra.__all__ if not hasattr(wlra, name)] == []
