"""Package-wide guards: every import is used, Poly's storage stays inside
poly.py, every traced name exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uhfree"
TRACER = ROOT / "perfbench" / "tracer.py"


def unused_imports(path: Path) -> list[str]:
    """Module-level imports of a source file that it never names, bar __all__."""
    tree = ast.parse(path.read_text())
    imported = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    # an attribute chain such as json.dumps starts at a Name, so it counts
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


def test_no_unused_imports():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in unused_imports(path)]
    assert found == []


def private_poly_access(path: Path) -> list[str]:
    """Reads of Poly's integer storage or calls of its unchecked constructors."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        storage = node.attr in ("_num", "_den", "_view")
        constructor = node.attr in ("_of", "_reduced") and (
            isinstance(node.value, ast.Name) and node.value.id == "Poly"
        )
        if storage or constructor:
            found.append(f"{path.name}:{node.lineno} {node.attr}")
    return found


def test_poly_storage_is_private_to_poly():
    found = [
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "poly.py"
        for entry in private_poly_access(path)
    ]
    assert found == []


def test_every_tracer_target_resolves(monkeypatch):
    # perfbench/run.py --trace patches these names; load the tracer without
    # writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, path, _ in tracer.TARGETS:
        importlib.import_module(f"uhfree.{path.split('.')[0]}")
    for name, path, _ in tracer.TARGETS:
        assert callable(tracer._resolve(path)), (name, path)
