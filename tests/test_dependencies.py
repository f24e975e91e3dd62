"""hermlab runs on its declared dependencies alone."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_every_suite_runs_without_scipy():
    # a None entry in sys.modules makes any later `import scipy` raise
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from hermlab import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["--metric", "iwasawa", "--points", "3", "--suite", "all", "--oracle", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


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


# the scalar jet and form objects live in these modules
_OBJECT_LAYER = {"Jet2", "JetMatrix", "Form", "fd_exterior_d"}
_OBJECT_LAYER_HOMES = {"jets.py", "forms.py", "__init__.py"}


def test_no_production_module_uses_the_jet_and_form_objects():
    # every production path computes on (value, d1, d2) arrays; names in code
    # count (imports, attributes, calls), words in docstrings do not
    users = []
    for path in sorted((SRC / "hermlab").rglob("*.py")):
        if path.name in _OBJECT_LAYER_HOMES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names = {node.name, node.asname}
            users += [f"{path.name}:{node.lineno} {name}" for name in names & _OBJECT_LAYER]
    assert not users
