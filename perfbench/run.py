"""hermlab benchmark: closed-loop reports through ``hermlab.cli.main``.

Run from the root of a hermlab checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One process runs one workload (``all`` runs each in its own process).  The
closed loop calls ``main`` in-process, one report after another, in whole
rounds, and checks every report against ``reference.json``.  Inputs come
from ``--seed`` (see ``inputs.py``).  The number of rounds is fixed by
``--seconds``: a run lasts about that long on the baseline machine, and two
runs of one seed attempt the same reports however fast the host is.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one round of
the workload untraced and traced, report by report, repeating the round so
the untraced half lasts about half of ``--seconds``, and prints per-layer
metrics per round.
Per-report times and spans are written to ``perfbench/out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference
import spans
import summary

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_LAUNCHES = 5
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, "src")
from hermlab import cli
for source in sys.argv[1:]:
    cli.load_metric(source)
print(time.monotonic_ns())
"""


def _unit(name):
    if name.endswith("_per_point"):
        return "calls/point"
    if name.endswith("points_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def measure_setup(root, sources):
    """Median time from launching an interpreter to having loaded ``sources``.

    The clock is CLOCK_MONOTONIC, which parent and child share.  One extra
    launch first warms the file cache and the bytecode cache, as every
    CLI call after the first finds them warm.
    """
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, *sources],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if launch:
            times.append((int(proc.stdout.split()[-1]) - start) / 1e9)
    return statistics.median(times)


class Runner:
    """Runs reports of one workload and checks each against the reference."""

    def __init__(self, cli, workload, config_dir, ref):
        self.cli = cli
        self.workload = workload
        self.config_dir = config_dir
        self.ref = ref
        self.correct = True

    def run(self, report):
        """(seconds, failed) of one ``main`` call."""
        seconds, got = reference.call_main(self.cli.main, self.workload.argv(report, self.config_dir))
        failed, problems = reference.judge(self.ref.get(reference.key(self.workload, report)), got)
        if problems:
            self.correct = False
        if failed:
            detail = "; ".join(problems[:3]) or f"{got['error']} (as recorded in the reference)"
            print(f"failed: {report.metric} --seed {report.seed}: {detail}", file=sys.stderr)
        return seconds, failed

    def warm_up(self):
        """One small untimed report, so lazy imports and first calls are paid."""
        argv = ["--metric", "euclidean", "--points", "2", *self.workload.suite_args, "--format", "json"]
        reference.call_main(self.cli.main, argv)


def run_untraced(runner, seed, seconds):
    workload = runner.workload
    times, failed, log = [], [], []
    start = time.perf_counter()
    for round_ in itertools.islice(workload.rounds(seed), workload.rounds_in(seconds)):
        for report in round_:
            t, f = runner.run(report)
            times.append(t)
            failed.append(f)
            log.append([report.metric, report.seed, t, f])
    wall = time.perf_counter() - start
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"reports-{workload.name}-seed{seed}.json").write_text(json.dumps(log) + "\n")
    points = [workload.points] * len(times)
    metrics = {
        "points_per_s": summary.points_per_s(points, failed, wall),
        "report_p50_s": summary.report_p50(times, failed, wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{workload.name}: {len(times)} reports in {wall:.2f} s (report_p50_s over all {len(times)})")
    return metrics, failed


def run_traced(runner, seed, seconds):
    workload = runner.workload
    round_ = next(workload.rounds(seed))
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    plain_points = traced_points = 0
    failed = []
    repeats = workload.rounds_in(seconds / 2)
    for _ in range(repeats):
        for report in round_:
            t, f = runner.run(report)
            plain_s += t
            plain_points += 0 if f else workload.points
            tracer.report_id += 1
            tracer.install()
            try:
                t, f = runner.run(report)
            finally:
                tracer.uninstall()
            traced_s += t
            traced_points += 0 if f else workload.points
            failed.append(f)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz")

    metrics = spans.layer_metrics(tracer.spans, workload.points * len(round_) * repeats)
    for name in metrics:
        if name.endswith(("_s", "_calls", "_draws")):
            metrics[name] /= repeats  # per round of the workload
    metrics["trace.points_per_s"] = traced_points / traced_s
    metrics["trace.untraced_points_per_s"] = plain_points / plain_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    print(
        f"{workload.name}: traced {repeats} x {len(round_)} reports; "
        f"traced/untraced time {traced_s:.2f}/{plain_s:.2f} s"
    )
    return metrics, failed


def run_workload(name, seed, seconds, trace):
    root = Path.cwd()
    if not (root / "src" / "hermlab" / "cli.py").is_file():
        print("perfbench: run from the root of a hermlab checkout (no src/hermlab/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from hermlab import cli

    workload = inputs.WORKLOADS[name]
    config_dir = OUT_DIR / "configs"
    inputs.write_configs(workload.pool(), config_dir)
    runner = Runner(cli, workload, config_dir, reference.load())
    if trace:
        runner.warm_up()
        metrics, failed = run_traced(runner, seed, seconds)
    else:
        first_round = next(workload.rounds(seed))
        sources = sorted({r.source(config_dir) for r in first_round})
        setup_s = measure_setup(root, sources)
        runner.warm_up()
        metrics, failed = run_untraced(runner, seed, seconds)
        metrics["setup_s"] = setup_s
    for key, value in sorted(metrics.items()):
        print(f"  {key:36s} {value:.6g} {_unit(key)}")
    # fail_ratio is 0 on healthy workloads, so it travels as failed/attempted
    ratio = summary.fail_ratio(failed)
    print(f"  {'fail_ratio':36s} {ratio:.6g} ratio ({sum(failed)}/{len(failed)} reports)")
    result = {
        "correct": runner.correct,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in inputs.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
