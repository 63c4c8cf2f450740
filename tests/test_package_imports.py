"""The package's modules import no private name from one another, import
nothing unused but what the benchmark's tracer wraps, and its export list
names only what the package holds; every np.take into a buffer clips."""

import ast
from pathlib import Path

import wlra

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wlra"


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


def _unused_imports(path):
    """The names path imports (__future__ aside) and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def _traced_names():
    """module.name for every module attribute bench/layers.py's tracer wraps."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text())
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "_TARGETS" for t in node.targets)]
    return {f"{owner.id}.{attr.value}" for owner, attr, *_ in (t.elts for t in targets.elts)
            if isinstance(owner, ast.Name)}


def test_every_unused_import_is_one_the_tracer_wraps():
    # A module imports a name it never reads only so the tracer can wrap it
    # there; once the tracer stops wrapping it, the import is stale.
    unused = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py" for name in _unused_imports(path)}
    assert unused - _traced_names() == set()


def _takes_into_a_buffer_without_clip(path):
    """np.take calls in path that pass out= but not mode="clip"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "take" and getattr(node.func.value, "id", None) == "np"):
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        mode = keywords.get("mode")
        if "out" in keywords and not (isinstance(mode, ast.Constant) and mode.value == "clip"):
            yield f"{path.name}:{node.lineno}"


def test_every_take_into_a_buffer_clips():
    # With the default mode="raise", np.take writes into a fresh copy of out
    # and copies it back, so the buffer it was given saves nothing.
    calls = [line for path in sorted(SRC.glob("*.py"))
             for line in _takes_into_a_buffer_without_clip(path)]
    assert calls == []
