"""Package-wide guards: every import is used, no module imports a layer
above it, Poly's storage stays inside poly.py, every traced name exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
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


# A module may import only modules of a lower layer; modules of one layer are peers.
LAYER = {
    "poly": 0,
    "superlie": 1,
    "presentation": 2,
    "normalform": 3,
    "stringbridge": 3,
    "emptiness": 3,
    "morphisms": 4,
    "cli": 5,
}


def package_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) for every uhfree module a source file imports, in functions too."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # relative imports are inside the package; `from . import x` names a module
            module = ".".join(filter(None, ["uhfree" if node.level else "", node.module]))
            if module == "uhfree":
                names = [f"uhfree.{alias.name}" for alias in node.names]
            else:
                names = [module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "uhfree" and len(parts) > 1 and parts[1] in LAYER:
                found.append((node.lineno, parts[1]))
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == sorted(LAYER)


def test_no_module_imports_a_layer_above_it():
    found = [
        f"{path.name}:{line} imports {target}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem in LAYER
        for line, target in package_imports(path)
        if LAYER[target] >= LAYER[path.stem]
    ]
    assert found == []


def private_poly_access(path: Path) -> list[str]:
    """Reads of Poly's integer storage or calls of its unchecked constructors."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        storage = node.attr in ("_num", "_den")
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


# perfbench/trace_child.py imports the tracer and uhfree.cli alone, then installs
# the tracer; the layers that cli loads on first use must resolve from there
TRACE_CHILD_IMPORTS = """
import tracer
import uhfree.cli

for name, path, _ in tracer.TARGETS:
    assert callable(tracer._resolve(path)), (name, path)
t = tracer.Tracer()
t.install()
t.uninstall()
"""


def _run_python(code: str, *paths: Path) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter with paths and src/ on PYTHONPATH."""
    pythonpath = [*map(str, paths), str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        # -B: no bytecode written next to the files it imports
        [sys.executable, "-B", "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_tracer_target_resolves_after_importing_only_the_cli():
    run = _run_python(TRACE_CHILD_IMPORTS, TRACER.parent)
    assert run.returncode == 0, run.stderr


# pyproject.toml declares no runtime dependency: sympy, numpy and mpmath are
# installed for the tests only, so importing the CLI, loading all four of its
# lazy layers and taking a gcd must load none of them
NO_RUNTIME_DEPENDENCY = """
import sys
import uhfree.cli as cli
from uhfree.poly import Poly, poly_gcd

cli.normalform.verified_report, cli.morphisms.iso_test
cli.stringbridge.check_intertwining, cli.emptiness.emptiness_certificate
x = Poly.var(2, 0)
poly_gcd(x * x - 1, x + 1)
print(sorted({name.partition(".")[0] for name in sys.modules} & {"sympy", "numpy", "mpmath"}))
"""


def test_no_runtime_dependency_is_loaded():
    run = _run_python(NO_RUNTIME_DEPENDENCY)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
