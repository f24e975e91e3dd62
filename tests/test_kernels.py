"""A report means the same under each BLAS kernel: the same exit code,
every ``passed`` and flag value, and residuals equal up to roundoff.

Worst points are not compared: where a row's residual ties across points,
roundoff can move its worst point by any distance (docs/report-schema.md).
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# OpenBLAS kernels this x86-64 host can run, forced by OPENBLAS_CORETYPE
KERNELS = ("Haswell", "Sandybridge", "Prescott")
METRICS = ("iwasawa", "random_polynomial(12)", "gkl_surface")
# |delta residual| / tolerance: 3x the largest across these kernels at 1400
# points (3.1e-6), fixed before the first run
BOUND = 1e-5

PROBE = """\
import contextlib, io, json, sys
from hermlab import cli
reports = {}
for name in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--metric", name, "--points", "40", "--suite", "all", "--oracle", "--format", "json"])
    reports[name] = [code, json.loads(out.getvalue())]
print(json.dumps(reports))
"""


def _flags(doc):
    return {k: v["value"] for k, v in doc["suites"]["classify"]["classification"]["flags"].items()}


def _checks(doc):
    """{(suite, check): (passed, residual, tolerance)}, an unbounded tolerance as inf."""
    return {
        (suite, c["name"]): (c["passed"], c["residual"], np.inf if c["tolerance"] is None else c["tolerance"])
        for suite, block in doc["suites"].items()
        for c in block["checks"]
    }


def _avx2():
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.mark.skipif(platform.machine() != "x86_64" or not _avx2(), reason="the Haswell kernel needs x86-64 with AVX2")
def test_a_report_means_the_same_under_each_blas_kernel():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    runs = [
        subprocess.Popen([sys.executable, "-c", PROBE, *METRICS], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=dict(env, OPENBLAS_CORETYPE=kernel))
        for kernel in KERNELS
    ]
    reports = []
    for run in runs:
        out, err = run.communicate()
        assert run.returncode == 0, err
        reports.append(json.loads(out))
    first, *others = reports
    for name in METRICS:
        code, doc = first[name]
        for other in others:
            other_code, other_doc = other[name]
            assert other_code == code, name
            assert other_doc["passed"] == doc["passed"] and _flags(other_doc) == _flags(doc), name
            want, got = _checks(doc), _checks(other_doc)
            assert got.keys() == want.keys(), name
            for key, (passed, residual, tol) in want.items():
                assert got[key][0] == passed, (name, key)
                assert abs(got[key][1] - residual) / tol <= BOUND, (name, key, got[key][1], residual)
