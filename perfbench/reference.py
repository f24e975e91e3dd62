"""Correctness gate: each report is compared with the one recorded for it.

``reference.json`` holds, for every report in every workload's pool, what
``hermlab.cli.main`` produced when the reference was recorded: the exit
code and each check's ``passed``, residual and tolerance, or the uncaught
exception.  A new report agrees when the exit code, the set of checks and
every ``passed`` match and every residual is within tolerance/100 of the
recorded one, so refactors that move residuals only by roundoff still pass.

Re-record (from the repository root) only when a change is meant to alter
reports, and say so in the change:  ``python3 perfbench/reference.py``
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def key(workload, report):
    return f"{workload.name}|{report.metric}|{report.seed}"


def call_main(main, argv):
    """Run ``main(argv)`` in-process; returns (seconds, outcome)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # an uncaught exception is a failed report, not a benchmark error
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, outcome(code, stdout.getvalue(), error)


def outcome(code, stdout, error):
    """Comparable summary of one ``main`` call."""
    if error is not None:
        return {"error": error}
    checks = {}
    if stdout.strip():
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return {"error": f"report is not JSON: {exc}"}
        for suite, block in report["suites"].items():
            for c in block["checks"]:
                checks[f"{suite}/{c['name']}"] = [c["passed"], c["residual"], c["tolerance"]]
    return {"exit": code, "checks": checks}


def mismatches(ref, got):
    """How ``got`` disagrees with the reference outcome ``ref`` (empty if it agrees)."""
    if ref is None:
        return ["no reference recorded for this report"]
    if "error" in ref or "error" in got:
        if ref.get("error") == got.get("error"):
            return []
        return [f"raised {got.get('error')!r}, reference raised {ref.get('error')!r}"]
    problems = []
    if got["exit"] != ref["exit"]:
        problems.append(f"exit code {got['exit']}, reference {ref['exit']}")
    if set(got["checks"]) != set(ref["checks"]):
        problems.append(f"checks {sorted(got['checks'])} != reference {sorted(ref['checks'])}")
    for name, (passed, residual, tol) in ref["checks"].items():
        if name not in got["checks"]:
            continue
        got_passed, got_residual, _ = got["checks"][name]
        if got_passed != passed:
            problems.append(f"{name}: passed={got_passed}, reference {passed}")
        if not (got_residual == residual or abs(got_residual - residual) <= tol / 100):
            problems.append(f"{name}: residual {got_residual!r}, reference {residual!r}, tol {tol!r}")
    return problems


def judge(ref, got):
    """(failed, problems) for one report.

    A report fails when it raised an uncaught exception or disagrees with
    the reference.  A raise that matches the reference is still a failure,
    but not a disagreement: ``problems`` lists disagreements only.
    """
    problems = mismatches(ref, got)
    return ("error" in got or bool(problems)), problems


def load():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["reports"]


def record():
    """Run every pool report of every workload and write ``reference.json``."""
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from hermlab import cli

    import inputs

    config_dir = Path(__file__).with_name("out") / "configs"
    reports = {}
    for workload in inputs.WORKLOADS.values():
        pool = workload.pool()
        inputs.write_configs(pool, config_dir)
        for report in pool:
            seconds, got = call_main(cli.main, workload.argv(report, config_dir))
            reports[key(workload, report)] = got
            status = got.get("error", f"exit {got.get('exit')}")
            print(f"{key(workload, report)}: {status} ({seconds:.2f} s)", file=sys.stderr, flush=True)
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reports.items()))
    REFERENCE_PATH.write_text('{"reports": {\n' + lines + "\n}}\n")


if __name__ == "__main__":
    record()
