"""Compare every benchmark pool report of two hermlab source trees.

    python3 scripts/pool_diff.py OLD_TREE NEW_TREE [--points N] [--env KEY=VALUE ...]

Each tree is the root of a hermlab checkout.  The pools and generated
metric configs come from this checkout's ``perfbench/inputs.py``; the
configs are written to a temporary directory.  Each tree runs all pool
reports of the three workloads in-process, one subprocess per tree, with
the CLI arguments the benchmark uses; ``--points N`` runs every report at
N points instead of its workload's count (say, to cross the geometry's
evaluation blocks, which the benchmark's counts never fill).  Each
``--env KEY=VALUE`` (repeatable) sets one environment variable in the NEW
tree's subprocess only, so that one tree can be compared with itself under,
say, ``OPENBLAS_CORETYPE=Sandybridge``; a value without ``=`` or without a
key is refused.  A report is compared on its exit code, the text of an
uncaught exception and its whole JSON document except ``timestamp``, float
by float (so a zero's sign counts).  Every report that differs is printed with the fields that
differ; the exit code is 0 only when no report differs.  A last line
accounts for values that moved by roundoff: the reports whose exit code
or some check's ``passed`` changed, the largest |delta residual| /
tolerance over the checks, and the checks whose ``worst_point`` moved,
with the largest residual / tolerance on either side of such a move; each
largest value names its check and report.

Each tree also runs ``ERROR_CONFIGS``, a fixed list of metric configs
whose reports end in an error (a singular entry at a sampled point, a
constraint that rejects every draw, a non-Hermitian entry pair, nesting
too deep, an unknown identifier, an infinite literal), and compares their
exit codes and stderr text, so that a change in evaluation order or in an
error message shows; any difference there also makes the exit code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """\
import contextlib, io, json, sys
tree, tasks_path, out_path = sys.argv[1:]
sys.path.insert(0, tree + "/src")
from hermlab import cli
with open(tasks_path) as fh:
    tasks = json.load(fh)
results = {}
for key, argv in tasks:
    stdout, stderr, error, code = io.StringIO(), io.StringIO(), None, None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    results[key] = {"exit": code, "error": error, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
with open(out_path, "w") as fh:
    json.dump({"hermlab": cli.__file__, "reports": results}, fh)
"""

# metric configs whose reports end in an error, each run with ERROR_ARGV
ERROR_CONFIGS = {
    # entries (0, 0) and (0, 1) are both singular at the first point: (0, 0) raises
    "singular_entry": {"n": 2, "entries": ["1 + 0*ln(re(z1))", "0*sqrt(re(z2))", "conj(0*sqrt(re(z2)))", "1"]},
    "constraint_reciprocal": {
        "n": 1, "entries": ["1"], "constraints": ["1/re(z1)"], "box": [[-0.9, -0.1, -0.9, 0.9]],
    },
    "non_hermitian": {"n": 2, "entries": ["1", "0.1*z1", "0.1*z1", "1"]},
    "nested_too_deep": {"n": 1, "entries": ["(" * 300 + "z1" + ")" * 300]},
    "unknown_identifier": {"n": 1, "entries": ["1 + foo(z1)"]},
    "infinite_literal": {"n": 1, "entries": ["1e999"]},
}
ERROR_ARGV = ("--points", "20", "--suite", "all", "--format", "json")


def error_tasks(config_dir):
    """(key, argv) of every ``ERROR_CONFIGS`` report, its config written to ``config_dir``."""
    config_dir.mkdir(parents=True, exist_ok=True)
    tasks = []
    for name, cfg in ERROR_CONFIGS.items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps({"name": name, **cfg}))
        tasks.append((f"errors|{name}", ["--metric", str(path), *ERROR_ARGV]))
    return tasks


def _leaves(x, path=""):
    """{path: repr of the leaf}; lists of named checks are keyed by name."""
    if isinstance(x, dict):
        out = {}
        for k, v in x.items():
            out.update(_leaves(v, f"{path}/{k}"))
        return out
    if isinstance(x, list) and x and all(isinstance(v, dict) and "name" in v for v in x):
        out = {}
        for v in x:
            out.update(_leaves(v, f"{path}/{v['name']}"))
        return out
    if isinstance(x, list):
        out = {}
        for i, v in enumerate(x):
            out.update(_leaves(v, f"{path}[{i}]"))
        return out
    return {path: repr(x)}


def _document(stdout):
    """The report's leaves without ``timestamp``, or the raw text if it is not JSON."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return {"<stdout>": stdout}
    doc.pop("timestamp", None)
    return _leaves(doc)


def _delta(a, b):
    try:
        return f" (delta {float(b) - float(a):.2g})"
    except (TypeError, ValueError):
        return ""


def differences(old, new):
    """Lines naming each field in which two outcomes of one report differ."""
    lines = [
        f"{field}: {old.get(field)!r} -> {new.get(field)!r}"
        for field in ("exit", "error", "stderr")
        if old.get(field) != new.get(field)
    ]
    a, b = _document(old["stdout"]), _document(new["stdout"])
    for path in sorted(set(a) | set(b)):
        if a.get(path) != b.get(path):
            lines.append(f"{path}: {a.get(path)} -> {b.get(path)}{_delta(a.get(path), b.get(path))}")
    return lines


def _checks(outcome):
    """{(suite, name): check} of an outcome's JSON report; empty if it is not one."""
    try:
        doc = json.loads(outcome["stdout"])
    except json.JSONDecodeError:
        return {}
    suites = doc.get("suites", {}) if isinstance(doc, dict) else {}
    return {(suite, check["name"]): check for suite, block in suites.items() for check in block.get("checks", [])}


def moves(reports):
    """How far the outcomes moved, over ``reports`` of (report, old outcome, new outcome).

    Returns a dict: ``changed``, the number of reports whose exit code or
    some check's ``passed`` changed; ``largest_delta_over_tol``, the largest
    |delta residual| / tolerance over the checks both sides report;
    ``moved``, the number of checks whose ``worst_point`` moved; and
    ``moved_largest_over_tol``, the largest residual / tolerance on either
    side of such a move.  ``largest_at`` and ``moved_largest_at`` name where
    each largest value is, as (report, "suite/check"), or are None while it
    is 0.  A check with no bound (``"tolerance": null``) counts its moves at
    residual / tolerance 0.
    """
    out = {"changed": 0, "largest_delta_over_tol": 0.0, "largest_at": None,
           "moved": 0, "moved_largest_over_tol": 0.0, "moved_largest_at": None}
    for report, old, new in reports:
        a, b = _checks(old), _checks(new)
        out["changed"] += old["exit"] != new["exit"] or any(
            a.get(key, {}).get("passed") != b.get(key, {}).get("passed") for key in set(a) | set(b)
        )
        for key in sorted(set(a) & set(b)):
            x, y, tol = a[key]["residual"], b[key]["residual"], a[key]["tolerance"] or float("inf")
            where = (report, "/".join(key))
            if abs(y - x) / tol > out["largest_delta_over_tol"]:
                out["largest_delta_over_tol"], out["largest_at"] = abs(y - x) / tol, where
            if a[key].get("worst_point") != b[key].get("worst_point"):
                out["moved"] += 1
                if max(x, y) / tol > out["moved_largest_over_tol"]:
                    out["moved_largest_over_tol"], out["moved_largest_at"] = max(x, y) / tol, where
    return out


def render_moves(m):
    """The roundoff part of a summary line, for :func:`moves`' ``m``."""

    def at(where):
        return f" ({where[1]} of {where[0]})" if where else ""

    return (
        f"largest |delta residual|/tolerance {m['largest_delta_over_tol']:.2g}{at(m['largest_at'])}; "
        f"{m['moved']} worst points moved, the largest at residual/tolerance "
        f"{m['moved_largest_over_tol']:.2g}{at(m['moved_largest_at'])}"
    )


def _print_differences(keys, old, new):
    """Print each of ``keys`` whose outcomes differ, with its differences; return their number."""
    differing = 0
    for key in keys:
        lines = differences(old[key], new[key])
        if lines:
            differing += 1
            print(key)
            print("\n".join(f"  {line}" for line in lines))
    return differing


def child_env(items):
    """This process's environment with each ``KEY=VALUE`` of ``items`` set."""
    return dict(os.environ) | dict(item.split("=", 1) for item in items)


def run_tree(tree, tasks_path, out_path, env=None):
    """{key: outcome} of every task, run in one subprocess on ``tree``'s sources (environment ``env``)."""
    subprocess.run([sys.executable, "-c", CHILD, str(tree), str(tasks_path), str(out_path)], check=True, env=env)
    with open(out_path) as fh:
        result = json.load(fh)
    if not Path(result["hermlab"]).resolve().is_relative_to(Path(tree).resolve()):
        sys.exit(f"{tree}: imported hermlab from {result['hermlab']}")
    return result["reports"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("--points", type=int, help="sample points per report (default: the workload's)")
    parser.add_argument("--env", action="append", default=[], metavar="KEY=VALUE",
                        help="set an environment variable in the NEW tree's subprocess (repeatable)")
    args = parser.parse_args(argv)
    for item in args.env:
        if "=" not in item or item.startswith("="):
            parser.error(f"--env takes KEY=VALUE, got {item!r}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    with tempfile.TemporaryDirectory() as tmp:
        config_dir = Path(tmp) / "configs"
        tasks = []
        for workload in inputs.WORKLOADS.values():
            if args.points is not None:
                workload = dataclasses.replace(workload, points=args.points)
            pool = workload.pool()
            inputs.write_configs(pool, config_dir)
            tasks += [
                (f"{workload.name}|{r.metric}|{r.seed}", workload.argv(r, config_dir)) for r in pool
            ]
        errors = error_tasks(Path(tmp) / "errors")
        tasks_path = Path(tmp) / "tasks.json"
        tasks_path.write_text(json.dumps(tasks + errors))
        old = run_tree(args.trees[0], tasks_path, Path(tmp) / "0.json")
        new = run_tree(args.trees[1], tasks_path, Path(tmp) / "1.json", child_env(args.env))
    differing = _print_differences([key for key, _ in tasks], old, new)
    raised = sum(1 for key, _ in tasks if old[key]["error"] is not None and old[key] == new[key])
    print(
        f"{len(tasks)} reports: {differing} differ, {len(tasks) - differing} identical "
        f"({raised} of them raise, with the same text)"
    )
    m = moves((key, old[key], new[key]) for key, _ in tasks)
    print(f"{m['changed']} reports changed their exit code or a check's passed; {render_moves(m)}")
    failing = _print_differences([key for key, _ in errors], old, new)
    print(f"{len(errors)} error inputs: {failing} differ in exit code or stderr")
    return 1 if differing or failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
