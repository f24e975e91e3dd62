"""Interleaved A/B timing of two hermlab source trees on one benchmark workload.

    python3 scripts/ab.py OLD_TREE NEW_TREE --workload report --seconds 60 [--seed 1]

Each tree is the root of a hermlab checkout.  Each gets one long-lived
worker process, which imports that tree's ``hermlab.cli`` once and runs one
report per request, in-process, with the CLI arguments of this checkout's
``perfbench/inputs.py`` (the generated metric configs are written to a
temporary directory).  After one untimed warm-up report on each worker, the
driver walks the workload's rounds for ``--seed`` and runs each report on
both workers in turn, OLD first at even pairs and NEW first at odd ones,
until half of ``--seconds`` of wall time has passed.  It then closes both
workers, starts them again in the other order (OLD's first in the first
half, NEW's first in the second), and goes on with the rounds for the other
half, so that neither tree gains from the order its worker started in.  The
host's speed drifts over seconds, and the two reports of a pair run within
a fraction of one, so their ratio sees little of the drift that whole-run
pairs do.

Each worker runs with ``WORKER_ENV`` added to its environment, which pins
BLAS to one thread.  The driver prints the median of the per-pair ratios
NEW/OLD with its quartiles, the median ratio in each tenth of the run, each
tree's median report time and points per second (a report that raised adds
no points), the number of pairs NEW was faster in, over the run and in each
half, and the workers' environment setting.  Each pair's two outcomes are
compared by ``pool_diff.py``'s helpers: it prints how many pairs differ, and
its roundoff summary, which names the check and report of each largest
value.  The last line of standard output is the same data as one JSON
object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pool_diff

ROOT = Path(__file__).resolve().parents[1]

# Set in each worker's environment: two workers with BLAS's default thread
# count compete for the CPUs, and their ratios spread far more than with one
# thread each.  A report's bytes do not depend on the thread count.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

WORKER = """\
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from hermlab import cli
for line in sys.stdin:
    stdout, stderr, error, code = io.StringIO(), io.StringIO(), None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(json.loads(line))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "hermlab": cli.__file__, "exit": code, "error": error,
                      "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}), flush=True)
"""


class Worker:
    """One tree's worker process: calling it with a report's argv returns (seconds, outcome)."""

    def __init__(self, tree):
        self.tree = Path(tree).resolve()
        self.proc = subprocess.Popen([sys.executable, "-c", WORKER, str(self.tree)], env=os.environ | WORKER_ENV,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, argv):
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"{self.tree}: worker exited with code {self.proc.wait()}")
        outcome = json.loads(line)
        if not Path(outcome.pop("hermlab")).resolve().is_relative_to(self.tree):
            sys.exit(f"{self.tree}: the worker imported hermlab from another tree")
        return outcome.pop("seconds"), outcome

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def interleave(old, new, tasks):
    """Yield (points, (old seconds, outcome), (new seconds, outcome)) for each (points, argv) of ``tasks``.

    Pair i runs on ``old`` first when i is even and on ``new`` first when
    it is odd.
    """
    for i, (points, argv) in enumerate(tasks):
        if i % 2:
            b = new(argv)
            a = old(argv)
        else:
            a = old(argv)
            b = new(argv)
        yield points, a, b


def run_halves(start, tasks, seconds, clock=time.monotonic):
    """The pairs of two halves of ``seconds``, each on workers that ``start(new_first)`` returns as (old, new).

    The first half starts OLD's worker first, the second NEW's.  Each half
    runs one untimed warm-up report on each worker, then takes pairs from
    ``tasks`` until its half of ``seconds`` has passed by ``clock`` (and at
    least two pairs are in), and closes both workers.
    """
    halves = []
    for new_first in (False, True):
        old, new = start(new_first)
        try:
            first = next(tasks)
            for worker in (old, new):
                worker(first[1])
            pairs, deadline = [], clock() + seconds / 2
            for pair in interleave(old, new, itertools.chain([first], tasks)):
                pairs.append(pair)
                if clock() >= deadline and len(pairs) >= 2:
                    break
        finally:
            old.close()
            new.close()
        halves.append(pairs)
    return halves


def _wins(pairs):
    return sum(b[0] < a[0] for _, a, b in pairs)


def _report(outcome):
    """The report's "metric|seed", from the JSON config an outcome printed, or None if it printed none."""
    try:
        config = json.loads(outcome["stdout"])["config"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None
    return f"{config['metric']}|{config['seed']}"


def _tree(results):
    """One tree's median report time and points per second over its (points, (seconds, outcome))."""
    seconds = [s for _, (s, _) in results]
    points = sum(p for p, (_, outcome) in results if outcome["error"] is None)
    return {"report_p50_s": statistics.median(seconds), "points_per_s": points / sum(seconds)}


def summarize(*halves):
    """The statistics of a run's pairs, given by half, as one JSON-ready dict (at least two pairs)."""
    pairs = [pair for half in halves for pair in half]
    ratios = [b[0] / a[0] for _, a, b in pairs]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    tenths = [ratios[len(ratios) * k // 10 : len(ratios) * (k + 1) // 10] for k in range(10)]
    outcomes = [(_report(a[1]), a[1], b[1]) for _, a, b in pairs]
    return {
        "pairs": len(pairs),
        "ratio": {"median": median, "q1": q1, "q3": q3},
        "tenths": [statistics.median(t) for t in tenths if t],
        "old": _tree([(p, a) for p, a, _ in pairs]),
        "new": _tree([(p, b) for p, _, b in pairs]),
        "wins": _wins(pairs),
        "halves": [{"pairs": len(half), "wins": _wins(half)} for half in halves],
        "differ": sum(bool(pool_diff.differences(a, b)) for _, a, b in outcomes),
        **pool_diff.moves(outcomes),
    }


def render(stats):
    """The summary lines of :func:`summarize`'s ``stats``."""
    r = stats["ratio"]
    lines = [
        f"{stats['pairs']} pairs: NEW/OLD median {r['median']:.3f} (IQR {r['q1']:.3f}-{r['q3']:.3f}); "
        f"NEW faster in {stats['wins']} of {stats['pairs']}",
        "median ratio by tenth: " + " ".join(f"{t:.3f}" for t in stats["tenths"]),
        "NEW faster by half (OLD's worker started first, then NEW's): "
        + ", ".join(f"{h['wins']} of {h['pairs']}" for h in stats["halves"]),
    ]
    for name in ("old", "new"):
        tree = stats[name]
        lines.append(f"{name.upper()}: report_p50_s {tree['report_p50_s']:.4f}, points_per_s {tree['points_per_s']:.1f}")
    lines.append("each worker ran with " + " ".join(f"{k}={v}" for k, v in WORKER_ENV.items()))
    lines.append(
        f"{stats['differ']} pairs differ; {stats['changed']} changed their exit code or a check's passed; "
        + pool_diff.render_moves(stats)
    )
    return lines


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="the rounds' seed (default 1)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]  # the rounds read this checkout's catalog
    import inputs

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    workload = inputs.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        inputs.write_configs(workload.pool(), tmp)
        reports = itertools.chain.from_iterable(workload.rounds(args.seed))
        tasks = ((workload.points, workload.argv(r, tmp)) for r in reports)

        def start(new_first):
            order = (1, 0) if new_first else (0, 1)
            workers = {i: Worker(args.trees[i]) for i in order}
            return workers[0], workers[1]

        halves = run_halves(start, tasks, args.seconds)
    stats = {"workload": workload.name, "seed": args.seed, "worker_env": WORKER_ENV, **summarize(*halves)}
    print("\n".join(render(stats)))
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
