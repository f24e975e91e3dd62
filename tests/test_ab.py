"""The interleaved A/B driver of ``scripts/ab.py`` on fake workers, without subprocesses or timing."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SPEC = importlib.util.spec_from_file_location("ab", SCRIPTS / "ab.py")
ab = importlib.util.module_from_spec(SPEC)
sys.path.insert(0, str(SCRIPTS))  # ab.py imports pool_diff.py beside it
try:
    SPEC.loader.exec_module(ab)
finally:
    sys.path.remove(str(SCRIPTS))

# NEW's report times; OLD takes 1 s for every report
NEW_SECONDS = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4]


def _outcome(residual=1e-10, error=None):
    doc = {"timestamp": "t", "config": {"metric": "iwasawa", "seed": 42}, "suites": {"compare": {"checks": [
        {"name": "c", "residual": residual, "tolerance": 1e-8, "passed": True, "worst_point": [[0.1, 0.0]]},
    ]}}}
    if error is not None:
        return {"exit": None, "error": error, "stdout": "", "stderr": ""}
    return {"exit": 0, "error": None, "stdout": json.dumps(doc), "stderr": ""}


class FakeWorker:
    """Answers report ``argv[0]`` with a fixed time and outcome, and logs each call."""

    def __init__(self, name, log, seconds, outcomes):
        self.name, self.log, self.seconds, self.outcomes = name, log, seconds, outcomes

    def __call__(self, argv):
        self.log.append((self.name, argv[0]))
        return self.seconds[argv[0]], self.outcomes[argv[0]]

    def close(self):
        self.log.append((self.name, "closed"))


def _pairs():
    log = []
    old = FakeWorker("old", log, [1.0] * 10, [_outcome()] * 10)
    new_outcomes = [_outcome()] * 10
    new_outcomes[3] = _outcome(error="ValueError: x")  # raises: exit and error change, no points
    new_outcomes[6] = _outcome(residual=3e-10)  # moves by 2e-10, 0.02 of its tolerance
    new = FakeWorker("new", log, NEW_SECONDS, new_outcomes)
    pairs = list(ab.interleave(old, new, [(20, [i]) for i in range(10)]))
    return log, pairs


def test_pairs_alternate_which_tree_runs_first():
    log, pairs = _pairs()
    assert log[:6] == [("old", 0), ("new", 0), ("new", 1), ("old", 1), ("old", 2), ("new", 2)]
    assert log == [(name, i) for i in range(10) for name in (("old", "new") if i % 2 == 0 else ("new", "old"))]
    # each pair keeps OLD's result first, whichever ran first
    assert [(a[0], b[0]) for _, a, b in pairs] == [(1.0, s) for s in NEW_SECONDS]


def test_summary_statistics_and_differing_reports():
    stats = ab.summarize(_pairs()[1])
    assert stats["pairs"] == 10 and stats["wins"] == 5
    # statistics.quantiles' default method: q1 at rank 2.75, q3 at rank 8.25 of 10
    assert stats["ratio"] == pytest.approx({"median": 0.95, "q1": 0.675, "q3": 1.225})
    assert stats["tenths"] == pytest.approx(NEW_SECONDS)  # one pair a tenth
    assert stats["old"] == pytest.approx({"report_p50_s": 1.0, "points_per_s": 200 / 10})
    assert stats["new"] == pytest.approx({"report_p50_s": 0.95, "points_per_s": 180 / sum(NEW_SECONDS)})
    assert stats["differ"] == 2 and stats["changed"] == 1
    assert stats["largest_delta_over_tol"] == pytest.approx(0.02) and stats["moved"] == 0
    assert stats["largest_at"] == ("iwasawa|42", "compare/c") and stats["moved_largest_at"] is None
    lines = ab.render(stats)
    assert lines[0] == "10 pairs: NEW/OLD median 0.950 (IQR 0.675-1.225); NEW faster in 5 of 10"
    assert lines[-2] == "each worker ran with OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1"
    assert lines[-1].startswith("2 pairs differ; 1 changed their exit code or a check's passed")
    assert "0.02 (compare/c of iwasawa|42)" in lines[-1]
    json.dumps(stats)  # the last line of the script's output


def test_the_second_half_starts_the_workers_in_the_other_order():
    log, started, ticks = [], [], itertools.count()

    def start(new_first):  # a worker starts when it is made
        started.append(new_first)
        made = {"old": lambda: FakeWorker("old", log, [1.0] * 10, [_outcome()] * 10),
                "new": lambda: FakeWorker("new", log, NEW_SECONDS, [_outcome()] * 10)}
        workers = {name: made[name]() for name in (("new", "old") if new_first else ("old", "new"))}
        return workers["old"], workers["new"]

    # one clock tick per reading: each half sets its deadline 3 ticks on and takes 3 pairs
    halves = ab.run_halves(start, iter([(20, [i]) for i in range(10)]), 6, clock=lambda: next(ticks))
    assert started == [False, True]
    assert [[b[0] for _, _, b in half] for half in halves] == [NEW_SECONDS[:3], NEW_SECONDS[3:6]]
    warmed = [("old", 3), ("new", 3)]  # each half warms up on its first report, which it then pairs
    assert log[6:12] == [("old", 2), ("new", 2), ("old", "closed"), ("new", "closed"), *warmed]
    stats = ab.summarize(*halves)
    assert stats["pairs"] == 6 and stats["wins"] == 5
    assert stats["halves"] == [{"pairs": 3, "wins": 3}, {"pairs": 3, "wins": 2}]  # 1.0 s is no win
    assert ab.render(stats)[2] == "NEW faster by half (OLD's worker started first, then NEW's): 3 of 3, 2 of 3"


def test_each_worker_runs_blas_on_one_thread(monkeypatch):
    seen = {}

    def popen(cmd, env=None, **kwargs):
        seen["cmd"], seen["env"] = cmd, env
        return None

    monkeypatch.setattr(ab.subprocess, "Popen", popen)
    monkeypatch.setenv("AB_PARENT", "kept")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    ab.Worker(SCRIPTS)
    assert seen["cmd"][-1] == str(SCRIPTS)
    env = seen["env"]
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] == "1"
    assert env["AB_PARENT"] == "kept"  # the rest of the environment is passed on
