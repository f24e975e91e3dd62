"""Every callable the benchmark tracer wraps still exists under its name."""

import importlib
import importlib.util
from pathlib import Path

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
