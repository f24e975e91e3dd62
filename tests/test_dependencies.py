"""hermlab runs on its declared dependencies alone."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _cli_probe(probe, argv):
    """Run ``probe`` with ``argv`` in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)


_ALL_SUITES = ["--metric", "iwasawa", "--points", "3", "--suite", "all", "--oracle", "--format", "json"]


def test_every_suite_runs_without_scipy():
    # a None entry in sys.modules makes any later `import scipy` raise
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from hermlab import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    out = _cli_probe(probe, _ALL_SUITES)
    assert out.returncode == 0, out.stderr


def test_a_cli_run_loads_neither_the_jet_nor_the_form_layer(tmp_path):
    probe = (
        "import sys\n"
        "from hermlab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.startswith('hermlab')))\n"
        "sys.exit(code)\n"
    )
    out = _cli_probe(probe, _ALL_SUITES + ["--out", str(tmp_path / "report.json")])
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert {"hermlab", "hermlab.cli", "hermlab.dsl"} <= loaded
    assert not loaded & {"hermlab.jets", "hermlab.forms"}


def _third_party_imports():
    """Top-level names of the absolute imports under ``src/hermlab``, function-local ones included."""
    names = set()
    for path in (SRC / "hermlab").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "hermlab"}


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_") for spec in declared}
    assert names == _third_party_imports()


# the scalar jet and form layer: nothing but its own two modules imports it
_OBJECT_LAYER = {"jets", "forms"}
_OBJECT_LAYER_HOMES = {"jets.py", "forms.py"}


def _hermlab_modules_imported(node):
    """The hermlab submodules that an import statement loads, relative or absolute."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = importlib.util.resolve_name("." * node.level + (node.module or ""), "hermlab")
        # `from . import jets` and `from hermlab import jets` name the module as an alias
        modules = [f"{base}.{alias.name}" for alias in node.names] if base == "hermlab" else [base]
    else:
        return set()
    return {m.split(".")[1] for m in modules if m.startswith("hermlab.")}


def test_no_production_module_uses_the_jet_and_form_objects():
    # every production path computes on (value, d1, d2) arrays; a module that
    # does not import the layer cannot reach its objects, names or helpers
    users = []
    for path in sorted((SRC / "hermlab").rglob("*.py")):
        if path.name in _OBJECT_LAYER_HOMES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            layer = _hermlab_modules_imported(node) & _OBJECT_LAYER
            users += [f"{path.name}:{node.lineno} {name}" for name in sorted(layer)]
    assert not users
