"""Every callable the benchmark tracer wraps still exists under its name,
and a report of every suite with the oracle still calls each callable of
the compare, FD, conformal and nilker layers."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    # the same lookup as Tracer.install: import the module, walk the class
    # path with getattr, then read the attribute from the owner's __dict__
    missing = []
    for targets in _layers().values():
        for target in targets:
            module_name, _, qualname = target.partition(":")
            owner = importlib.import_module(module_name)
            *classes, attr = qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            if not callable(owner.__dict__.get(attr)):
                missing.append(target)
    assert not missing


@pytest.mark.parametrize(
    "layers",
    [
        ("compare.directions", "compare.rigidity"),
        ("fd.jet",),
        ("conformal.transform",),
        ("nilker.kernel",),
    ],
    ids=lambda layers: layers[0].partition(".")[0],
)
def test_run_calls_every_traced_target(monkeypatch, capsys, layers):
    # a layer whose callables the suites no longer call reads 0 in every
    # traced round; count calls the way Tracer.install wraps them, under
    # every name in the package that refers to the function
    from hermlab import cli

    targets = [target for layer in layers for target in _layers()[layer]]
    calls = dict.fromkeys(targets, 0)
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("hermlab") and m]
    for target in targets:
        module_name, _, attr = target.partition(":")
        original = getattr(importlib.import_module(module_name), attr)

        def counted(*args, _target=target, _original=original, **kwargs):
            calls[_target] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    argv = ["--metric", "iwasawa", "--suite", "all", "--oracle", "--points", "3", "--format", "csv"]
    code = cli.main(argv)
    capsys.readouterr()
    assert code == 0
    assert all(calls.values()), calls
