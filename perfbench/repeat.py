"""Repeat the benchmark over several seeds and print quartiles per metric.

Run from the repository root, e.g.:

    python3 perfbench/repeat.py --workload report --seeds 1 10 --seconds 25

Each seed runs ``perfbench/run.py`` in its own process, one after another.
For every metric it prints q1, median and q3 (``statistics.quantiles`` with
n=4) and the spread (q3 - q1) / median; the raw results are written to
``perfbench/out/repeat-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[seed] = json.loads(proc.stdout.splitlines()[-1])
        r = results[seed]
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"repeat-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    names = sorted(next(iter(results.values()))["metrics"])
    print(f"{'metric':36s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results.values()]
        if len(values) < 2:
            continue
        q1, med, q3, spread = summary.quartile_spread(values)
        print(f"{name:36s} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
