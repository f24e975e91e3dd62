"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402


def span(layer, start, end, parent=-1, result=None):
    return [layer, start, end, parent, 0, result]


# ----------------------------------------------------------------------
# span arithmetic
def test_union_length_merges_overlaps_and_keeps_gaps():
    assert spans.union_length([(20, 30), (0, 10), (5, 15)]) == 25
    assert spans.union_length([(0, 10), (2, 3)]) == 10
    assert spans.union_length([]) == 0


def test_self_time_is_duration_minus_what_children_cover():
    tree = [
        span("cli.main", 0, 100),
        span("chern.chern_at", 10, 60, parent=0),
        span("dsl.evaluate", 12, 20, parent=1),
        span("jets.inverse", 25, 40, parent=1),
        span("forms.wedge", 30, 35, parent=3),
    ]
    assert spans.self_times(tree) == [50, 27, 8, 10, 5]


def test_layer_metrics_busy_time_self_time_and_counts():
    tree = [
        span("cli.main", 0, 1000),
        span("cli.sample", 0, 100, parent=0),
        span("dsl.admissible", 10, 20, parent=1, result=True),
        span("dsl.admissible", 20, 30, parent=1, result=False),
        span("dsl.admissible", 30, 40, parent=1, result=True),
        span("dsl.admissible", 40, 50, parent=1, result=True),
        span("chern.chern_at", 100, 400, parent=0),
        span("jets.inverse", 110, 150, parent=6),
        span("chern.chern_at", 400, 500, parent=0),
        # a recursive call is counted but its time is not counted twice
        span("nilker.kernel", 500, 600, parent=0),
        span("nilker.kernel", 520, 560, parent=9),
    ]
    m = spans.layer_metrics(tree, points=4)
    assert m["cli.sample_draws"] == 4
    assert m["cli.sample_accept_ratio"] == 0.75
    assert m["chern.chern_at_s"] == (260 + 100) / 1e9
    assert m["chern.chern_at_calls_per_point"] == 0.5
    assert m["jets.inverse_calls"] == 1
    assert m["nilker.kernel_calls"] == 2
    assert m["nilker.kernel_s"] == 100 / 1e9
    assert m["fd.jet_calls"] == 0


def test_tracer_wraps_names_bound_elsewhere_and_restores_them():
    from hermlab import chern, cli, conformal

    original = chern.chern_at
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.chern_at is chern.chern_at is conformal.chern_at
        assert cli.chern_at is not original
    finally:
        tracer.uninstall()
    assert cli.chern_at is original and conformal.chern_at is original


# ----------------------------------------------------------------------
# end-to-end reductions
def test_failed_report_ranks_slower_than_every_completed_one():
    assert summary.report_p50([5.0, 1.0, 2.0], [False, False, False], wall=10.0) == 2.0
    # the fastest report failed, so the median moves up
    assert summary.report_p50([1.0, 2.0, 3.0], [True, False, False], wall=10.0) == 3.0
    assert summary.report_p50([0.1, 2.0, 3.0, 4.0], [True, False, False, False], wall=10.0) == 3.5
    # a median that falls on failed reports has no finite value
    assert summary.report_p50([1.0, 2.0, 3.0], [True, True, False], wall=10.0) == 10.0


def test_points_per_s_counts_completed_reports_only():
    assert summary.points_per_s([20, 20, 20], [False, True, False], wall=4.0) == 10.0


REF = {"exit": 0, "checks": {"classify/flag_kahler": [True, 1e-9, 1e-7]}}


def outcome_with(passed=True, residual=1e-9, code=0):
    return {"exit": code, "checks": {"classify/flag_kahler": [passed, residual, 1e-7]}}


def test_fail_ratio_counts_crashes_and_disagreements():
    crash = {"error": "ValueError: real metric entry has a non-real jet"}
    cases = [
        (REF, outcome_with(), False, False),
        (REF, outcome_with(residual=1e-9 + 0.9e-9), False, False),  # within tol/100
        (REF, outcome_with(residual=1e-9 + 2e-9), True, True),
        (REF, outcome_with(passed=False), True, True),
        (REF, outcome_with(code=1), True, True),
        (crash, dict(crash), True, False),  # the recorded crash: failed, not a disagreement
        (REF, dict(crash), True, True),
        (None, outcome_with(), True, True),  # nothing recorded to compare with
    ]
    failed = []
    for ref, got, want_failed, want_problems in cases:
        f, problems = reference.judge(ref, got)
        assert f == want_failed
        assert bool(problems) == want_problems
        failed.append(f)
    assert summary.fail_ratio(failed) == 6 / 8


def test_outcome_reads_every_check_of_a_json_report():
    report = {
        "suites": {
            "classify": {"checks": [{"name": "flag_kahler", "passed": True, "residual": 0.5, "tolerance": 1e-7}]},
            "oracle": {"checks": [{"name": "torsion_vs_fd", "passed": False, "residual": 2.0, "tolerance": 1.0}]},
        }
    }
    got = reference.outcome(1, json.dumps(report), None)
    assert got == {
        "exit": 1,
        "checks": {"classify/flag_kahler": [True, 0.5, 1e-7], "oracle/torsion_vs_fd": [False, 2.0, 1.0]},
    }
    assert reference.outcome(None, "", "ValueError: x") == {"error": "ValueError: x"}
    assert "error" in reference.outcome(0, "metric euclidean (n=2)", None)


# ----------------------------------------------------------------------
# inputs
def test_rounds_repeat_for_a_seed_and_stay_inside_the_pool():
    for workload in inputs.WORKLOADS.values():
        first = list(itertools.islice(workload.rounds(7), 4))
        assert first == list(itertools.islice(workload.rounds(7), 4))
        assert first != list(itertools.islice(workload.rounds(8), 4))
        pool = set(workload.pool())
        for round_ in first:
            assert set(round_) <= pool


def test_every_round_has_the_same_composition():
    def family(metric):
        if metric.startswith("random_polynomial"):
            return "random_polynomial"
        return metric.split("-")[0]

    for workload in inputs.WORKLOADS.values():
        rounds = list(itertools.islice(workload.rounds(11), 6))
        mixes = {tuple(sorted(family(r.metric) for r in round_)) for round_ in rounds}
        assert len(mixes) == 1
    # random polynomials come by dimension: one of each per sweep and report
    # round; in report, the one of them that raised in the oracle is n=2 and
    # n=3 in turn
    from hermlab import catalog

    def randoms(round_):
        return sorted(
            (catalog.get(r.metric).metric.n, int(r.metric[18:-1]) in inputs.ORACLE_RAISED)
            for r in round_
            if r.metric.startswith("random")
        )

    for round_ in itertools.islice(inputs.WORKLOADS["sweep"].rounds(5), 3):
        assert [n for n, _ in randoms(round_)] == [2, 3]
    report_rounds = itertools.islice(inputs.WORKLOADS["report"].rounds(5), 4)
    assert [randoms(r) for r in report_rounds] == [[(2, True), (3, False)], [(2, False), (3, True)]] * 2


def test_oracle_raised_matches_the_recorded_reference():
    raised = {
        int(k.split("|")[1][18:-1])
        for k, v in reference.load().items()
        if k.startswith("report|random_polynomial") and "error" in v
    }
    assert raised == inputs.ORACLE_RAISED


def test_run_length_is_set_by_seconds_not_by_host_speed():
    workload = inputs.WORKLOADS["report"]
    assert workload.rounds_in(0.1) == 1
    assert workload.rounds_in(3 * workload.round_seconds) == 3


def test_generated_metrics_are_hermitian_positive_definite_with_torsion():
    from hermlab import catalog, chern, cli

    for name in ("hd4-0", "hd5-1", "halfplane-2"):
        entry = catalog.from_config(inputs.generated_config(name))
        point = cli.sample_points(entry.metric, 1, 42)[0]
        data = chern.chern_at(entry.metric, point)  # evaluate() rejects non-Hermitian or indefinite g
        assert float(np.max(np.abs(data.T))) > 1e-3


def test_halfplane_constraint_rejects_about_half_of_the_box():
    from hermlab import catalog

    rng = np.random.default_rng(0)
    for seed in range(4):
        metric = catalog.from_config(inputs.generated_config(f"halfplane-{seed}")).metric
        draws = [
            np.array([rng.uniform(b[0], b[1]) + 1j * rng.uniform(b[2], b[3]) for b in metric.box])
            for _ in range(1000)
        ]
        accepted = sum(metric.admissible(p) for p in draws) / len(draws)
        assert 0.35 < accepted < 0.65
