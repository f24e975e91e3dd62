"""Every callable the benchmark tracer wraps still exists under its name,
a report of every suite with the oracle still calls each callable of the
compare, FD, conformal and nilker layers, and an identities report calls
each callable of the identity layers that a suite uses."""

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


ALL_SUITES = ["--metric", "iwasawa", "--suite", "all", "--oracle"]
IDENTITIES = ["--metric", "iwasawa", "--suite", "identities"]
# targets of the identities layers that no suite calls: theta_wedge_phi_residual
# and theta2_gamma_check are tested directly only, and the normal frame's
# checks read the frame through torsion_jets_at and connection_values_at
UNREACHED = {
    "hermlab.chern:theta_wedge_phi_residual",
    "hermlab.levicivita:theta2_gamma_check",
    "hermlab.chern:NormalFrame.frame_jets",
    "hermlab.chern:NormalFrame.torsion_values_at",
}


@pytest.mark.parametrize(
    "layers,argv",
    [
        (("compare.directions", "compare.rigidity"), ALL_SUITES),
        (("fd.jet",), ALL_SUITES),
        (("conformal.transform",), ALL_SUITES),
        (("nilker.kernel",), ALL_SUITES),
        (
            (
                "chern.residuals",
                "levicivita.theta2",
                "classify.curvature_difference",
                "chern.normal_frame",
            ),
            IDENTITIES,
        ),
    ],
    ids=["compare", "fd", "conformal", "nilker", "identities"],
)
def test_run_calls_every_traced_target(monkeypatch, capsys, layers, argv):
    # a layer whose callables the suites no longer call reads 0 in every
    # traced round; count calls the way Tracer.install wraps them: a method
    # on its class, a function under every name in the package that refers
    # to it (so a table that bound a function at import time would miss it)
    from hermlab import cli

    targets = [t for layer in layers for t in _layers()[layer] if t not in UNREACHED]
    calls = dict.fromkeys(targets, 0)
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("hermlab") and m]
    for target in targets:
        module_name, _, qualname = target.partition(":")
        owner = importlib.import_module(module_name)
        *classes, attr = qualname.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]

        def counted(*args, _target=target, _original=original, **kwargs):
            calls[_target] += 1
            return _original(*args, **kwargs)

        if classes:
            monkeypatch.setattr(owner, attr, counted)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    code = cli.main(argv + ["--points", "3", "--format", "csv"])
    capsys.readouterr()
    assert code == 0
    assert all(calls.values()), calls
