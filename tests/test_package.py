"""Package-wide guards: every import is used, every traced name exists."""

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
