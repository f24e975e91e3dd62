"""Config ingestion, point sampling, suite runs and reporting.

Exit codes: 0 all checks passed, 1 check failure, 2 usage, config or parse
error (or an unwritable ``--out``), 3 the sampler found too few admissible
points or the metric could not be evaluated at a sampled point.  Reports
are deterministic for a fixed (source, seed) pair except for the timestamp
field.  The suites and their row tables are in :mod:`hermlab.suites`.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys

import numpy as np

from . import catalog
from .chern import chern_at  # unused: perfbench's test_tracer_wraps_names_bound_elsewhere_and_restores_them reads it
from .errors import (
    ChainExhaustedError,
    HermlabError,
    InvalidFamilyError,
    MetricSyntaxError,
)
from .geometry import sample_points
from .suites import DEFAULT_TOLERANCES, SUITES, run_suites

SCHEMA_VERSION = 1
# the largest --points accepted; a larger count is a usage error, refused
# before the sampler allocates its draws
MAX_POINTS = 10**6


# ----------------------------------------------------------------------
def load_metric(source):
    """Catalog name or path to a JSON config file."""
    if source.endswith(".json"):
        with open(source) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MetricSyntaxError(f"invalid JSON: {exc.msg}", exc.pos) from None
            except UnicodeDecodeError as exc:
                raise MetricSyntaxError("config is not UTF-8 text", exc.start) from None
        return catalog.from_config(cfg)
    return catalog.get(source)


def run(entry, count, seed, suites, tols, oracle, timestamp):
    """Execute ``suites`` ("all": every suite) on ``count`` sampled points; returns (report, exit_code).

    ``tols`` is the whole tolerance table.
    """
    suites = sorted(set(SUITES if "all" in suites else suites))
    points = sample_points(entry.metric, count, seed)

    report = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": timestamp,
        "config": {
            "metric": entry.metric.name,
            "n": entry.metric.n,
            "points": count,
            "seed": seed,
            "suites": suites,
            "oracle": oracle,
            "tolerances": {k: float(v) for k, v in sorted(tols.items())},
        },
        "suites": {},
    }

    names = suites + ["oracle"] if oracle else suites
    all_passed = True
    for name, (checks, extra) in run_suites(entry, points, tols, names, seed).items():
        passed = all(c.passed for c in checks)
        all_passed &= passed
        block = {"passed": passed, "checks": [c.as_dict() for c in checks]}
        if extra is not None:
            block["classification"] = extra
        report["suites"][name] = block

    report["passed"] = bool(all_passed)
    return report, (0 if all_passed else 1)


# ----------------------------------------------------------------------
# rendering
def render_json(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _tolerance(check):
    """A check's tolerance as a float: inf for an informational row with no bound."""
    return np.inf if check["tolerance"] is None else check["tolerance"]


def render_csv(report):
    lines = ["suite,check,residual,tolerance,passed"]
    for suite in sorted(report["suites"]):
        for c in report["suites"][suite]["checks"]:
            lines.append(
                f"{suite},{c['name']},{c['residual']:.12e},{_tolerance(c):.3e},{c['passed']}"
            )
    return "\n".join(lines) + "\n"


def render_human(report):
    cfg = report["config"]
    lines = [
        f"metric {cfg['metric']} (n={cfg['n']}), {cfg['points']} points, seed {cfg['seed']}",
        "",
    ]
    for suite in sorted(report["suites"]):
        block = report["suites"][suite]
        status = "PASS" if block["passed"] else "FAIL"
        lines.append(f"[{status}] suite {suite}")
        for c in block["checks"]:
            mark = "ok " if c["passed"] else "BAD"
            asserted = "" if c.get("asserted", True) else " (informational)"
            lines.append(
                f"  {mark} {c['name']:42s} residual {c['residual']:.3e}"
                f" tol {_tolerance(c):.1e}{asserted}"
            )
        lines.append("")
    lines.append("overall: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser():
    """The CLI's parser, built once: argparse copies the ``append`` defaults before appending."""
    parser = argparse.ArgumentParser(
        prog="hermlab",
        description="Pointwise curvature checks for Hermitian metrics on charts.",
    )
    parser.add_argument(
        "--metric",
        required=True,
        help="catalog name (see README) or path to a metric config .json",
    )
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="tolerance override, e.g. --tol identities=1e-6 (repeatable)",
    )
    parser.add_argument(
        "--suite",
        action="append",
        default=[],
        choices=list(SUITES) + ["all"],
        help="suite to run (repeatable); default classify",
    )
    parser.add_argument("--format", choices=("json", "csv", "human"), default="human")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="recompute derivative-dependent quantities by finite differences",
    )
    parser.add_argument("--out", help="write the report to this file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.points < 1:
        parser.error(f"--points must be at least 1, got {args.points}")
    if args.points > MAX_POINTS:
        parser.error(f"--points must be at most {MAX_POINTS}, got {args.points}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")

    tols = dict(DEFAULT_TOLERANCES)
    for item in args.tol:
        if "=" not in item:
            parser.error(f"--tol takes KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        if key not in DEFAULT_TOLERANCES:
            parser.error(
                f"unknown tolerance {key!r}; known: {', '.join(sorted(DEFAULT_TOLERANCES))}"
            )
        try:
            tols[key] = float(value)
        except ValueError:
            parser.error(f"--tol {key} takes a number, got {value!r}")
        if not 0 < tols[key] < np.inf:
            parser.error(f"--tol {key} must be finite and positive, got {value!r}")

    try:
        entry = load_metric(args.metric)
    except (HermlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    suites = args.suite or ["classify"]
    try:
        report, code = run(entry, args.points, args.seed, suites, tols, args.oracle, timestamp)
    except MetricSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidFamilyError, ChainExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HermlabError as exc:  # too few admissible points, or a bad sampled point
        print(f"error: {exc}", file=sys.stderr)
        return 3

    renderer = {"json": render_json, "csv": render_csv, "human": render_human}[
        args.format
    ]
    text = renderer(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
