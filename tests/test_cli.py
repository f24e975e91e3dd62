import json
import re

import pytest

from hermlab import catalog
from hermlab.cli import (
    DEFAULT_TOLERANCES,
    SUITES,
    build_parser,
    load_metric,
    main,
    render_csv,
    render_human,
    render_json,
    run,
    sample_points,
)
from hermlab.errors import DomainSamplingError
from hermlab.suites import run_suites


def _run_config(name, suites, points=4, seed=9, oracle=False):
    return run(catalog.get(name), points, seed, suites, dict(DEFAULT_TOLERANCES), oracle, "T")


def test_euclidean_all_suites_pass():
    report, code = _run_config("euclidean", ["all"], points=4)
    assert code == 0
    assert report["passed"]
    # ratio-style rows compare a bound against a measured floor, every
    # geometric residual on the flat metric is below 1e-9
    ratio_rows = {"monotonicity_strict_gap", "rigidity_floor"}
    for block in report["suites"].values():
        assert block["passed"]
        for check in block["checks"]:
            if check.get("asserted", True):
                assert check["residual"] < check["tolerance"]
                if check["name"] not in ratio_rows:
                    assert check["residual"] < 1e-9, check["name"]


# the rows that depend on --seed alone: the rigidity search and nilker's fixture families
SEED_ONLY_ROWS = {"compare": ("rigidity_floor",), "nilker": ("fixture_kernel_residual", "fixture_oracle_dimension")}


def test_the_seed_only_rows_do_not_read_the_metric():
    got = []
    for name in ("fubini_study_chart_n2", "iwasawa"):  # n = 2 and n = 3
        entry = catalog.get(name)
        points = sample_points(entry.metric, 2, seed=7)
        out = run_suites(entry, points, DEFAULT_TOLERANCES, list(SEED_ONLY_ROWS), 7)
        got.append({(suite, c.name): c.residual for suite, names in SEED_ONLY_ROWS.items()
                    for c in out[suite][0] if c.name in names})
    assert len(got[0]) == 3 and got[0] == got[1]


def test_iwasawa_classify_matches_expectations():
    report, code = _run_config("iwasawa", ["classify"], points=5)
    assert code == 0
    flags = report["suites"]["classify"]["classification"]["flags"]
    assert flags["kahler"]["value"] is False
    assert flags["balanced"]["value"] is True
    assert flags["kahler_like"]["value"] is True
    assert flags["hermitian_flat"]["value"] is True


def test_sampling_rejects_and_errors():
    m = catalog.get("gkl_surface").metric
    pts = sample_points(m, 10, seed=1)
    assert all(m.admissible(p) for p in pts)

    starved = catalog.get("gkl_surface").metric
    starved.box = [(-0.9, 0.9, -0.9, 0.9), (-0.9, 0.9, -0.9, -0.5)]  # constraint never met
    with pytest.raises(DomainSamplingError):
        sample_points(starved, 5, seed=1)


def test_report_determinism_modulo_timestamp():
    r1, _ = _run_config("iwasawa", ["classify", "identities"], points=3, seed=12)
    r2, _ = _run_config("iwasawa", ["classify", "identities"], points=3, seed=12)
    r1["timestamp"] = r2["timestamp"] = ""
    assert render_json(r1) == render_json(r2)


def test_renderers_smoke():
    report, _ = _run_config("euclidean", ["classify"], points=2)
    assert json.loads(render_json(report))["schema_version"] == 1
    csv = render_csv(report)
    assert csv.splitlines()[0] == "suite,check,residual,tolerance,passed"
    human = render_human(report)
    assert "overall: PASS" in human


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


@pytest.mark.parametrize("suite", ["classify", "identities", "compare", "conformal", "nilker", "all"])
def test_reports_are_strict_json(suite, capsys):
    # json.loads accepts NaN and Infinity; jq and JSON.parse do not
    argv = ["--metric", "iwasawa", "--points", "3", "--suite", suite, "--format", "json"]
    assert main(argv + (["--oracle"] if suite == "all" else [])) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    checks = [c for block in report["suites"].values() for c in block["checks"]]
    unbounded = [c["name"] for c in checks if c["tolerance"] is None]
    assert unbounded == (["metric_torsion_symmetry"] if suite in ("nilker", "all") else [])
    assert all(not c["asserted"] for c in checks if c["tolerance"] is None)
    # the other formats still print the missing bound as inf
    if unbounded:
        row = next(r for r in render_csv(report).splitlines() if ",metric_torsion_symmetry," in r)
        assert row.split(",")[3] == "inf"
        assert re.search(r"metric_torsion_symmetry .* tol inf \(informational\)", render_human(report))


def _scaled_metric(n, scale, coupling):
    """scale * (1 + abs2(z_k)) on the diagonal, scale * coupling * z_k conj(z_l) for |k - l| = 1."""
    def entry(k, l):
        if k == l:
            return f"{scale}*(1 + abs2(z{k}))"
        return f"{scale}*{coupling}*z{k}*conj(z{l})" if abs(k - l) == 1 and coupling else "0"

    return {"name": "big", "n": n, "entries": [entry(k, l) for k in range(1, n + 1) for l in range(1, n + 1)]}


@pytest.mark.parametrize(
    "n, scale, coupling",
    [(2, "1e200", 0), (3, "1e200", 0), (3, "1e4", 0.1), (5, "100", 0.1)],
    ids=["diagonal_n2_1e200", "diagonal_n3_1e200", "tridiagonal_n3_1e4", "tridiagonal_n5_100"],
)
def test_large_scale_metric_reports_a_finite_balanced_trace(tmp_path, capsys, n, scale, coupling):
    # both sides of the balanced identity grow like scale^(n-1): an absolute
    # residual overflowed (NaN at 1e200) or outgrew its tolerance
    cfg = _scaled_metric(n, scale, coupling)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    code = main(["--metric", str(path), "--suite", "identities", "--format", "json"])
    out, err = capsys.readouterr()
    assert code in (0, 1) and "Traceback" not in err
    report = json.loads(out, parse_constant=_reject_constant)
    balanced = next(c for c in report["suites"]["identities"]["checks"] if c["name"] == "balanced_trace")
    assert balanced["residual"] < balanced["tolerance"]


def test_oracle_mode_bounds():
    report, code = _run_config("gkl_surface", ["classify"], points=3, oracle=True)
    assert code == 0
    checks = {c["name"]: c for c in report["suites"]["oracle"]["checks"]}
    assert checks["jet_first_vs_fd"]["residual"] < 1e-6
    assert checks["jet_second_vs_fd"]["residual"] < 1e-4
    assert checks["torsion_vs_fd"]["residual"] < 1e-5
    assert checks["chern_curvature_vs_fd"]["residual"] < 1e-3
    assert checks["riemann_curvature_vs_fd"]["residual"] < 1e-3


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "--metric", "euclidean", "--points", "3", "--suite", "classify",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["passed"] is True

    # metric file with a syntax error: exit 2 and a byte offset in the message
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "b", "n": 2, "entries": ["1", "z1 + * z2", "0", "1"]}))
    code = main(["--metric", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(r"offset 5", err)

    # unknown catalog name: usage error
    code = main(["--metric", "nope"])
    assert code == 2

    # unknown suite name: argparse rejects with SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["--metric", "euclidean", "--suite", "bogus"])
    assert exc.value.code == 2

    # starved domain: exit 3
    cfg = catalog.to_config(catalog.get("gkl_surface"))
    cfg["box"] = [[-0.9, 0.9, -0.9, 0.9], [-0.9, 0.9, -0.9, -0.5]]
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps(cfg))
    code = main(["--metric", str(starved), "--points", "4"])
    assert code == 3


@pytest.mark.parametrize(
    "bad_args",
    [
        ["--points", "0"],
        ["--points", "100000000000000"],
        ["--tol", "flags=abc"],
        ["--tol", "flags=nan"],
        ["--tol", "flags=inf"],
        ["--tol", "identities=-inf"],
        ["--tol", "exact=0"],
        ["--tol", "flags=-1"],
    ],
    ids=[
        "points_0", "points_above_max", "tol_not_a_number", "tol_nan", "tol_inf", "tol_minus_inf",
        "tol_zero", "tol_negative",
    ],
)
def test_bad_arguments_are_usage_errors(bad_args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--metric", "euclidean", *bad_args])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_tolerance_override(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "--metric", "euclidean", "--points", "2", "--suite", "identities",
            "--tol", "identities=1e-3", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["tolerances"]["identities"] == 1e-3


def test_a_second_main_call_sees_none_of_the_firsts_appended_values(capsys):
    # the parser is built once per process, so its append defaults must stay empty
    argv = ["--metric", "euclidean", "--points", "1", "--format", "json"]
    assert main(argv + ["--suite", "identities", "--tol", "identities=1e-3"]) == 0
    first = json.loads(capsys.readouterr().out)["config"]
    assert first["suites"] == ["identities"] and first["tolerances"]["identities"] == 1e-3
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)["config"]
    assert second["suites"] == ["classify"] and second["tolerances"] == DEFAULT_TOLERANCES
    assert build_parser() is build_parser()
    assert build_parser().get_default("suite") == [] and build_parser().get_default("tol") == []


def test_load_metric_from_file(tmp_path):
    cfg = catalog.to_config(catalog.get("iwasawa"))
    path = tmp_path / "iw.json"
    path.write_text(json.dumps(cfg))
    entry = load_metric(str(path))
    assert entry.metric.n == 3
    assert entry.expected_flags["kahler_like"] is True


def test_exported_configs_match_committed(tmp_path):
    # the files under configs/ are generated by catalog.export_all and
    # double as format documentation; keep them in sync
    import pathlib

    committed = pathlib.Path(__file__).resolve().parents[1] / "configs"
    fresh = catalog.export_all(tmp_path)
    for path in fresh:
        ref = committed / path.name
        assert ref.exists(), f"missing committed config {path.name}"
        assert ref.read_text() == path.read_text()


def _config_file(tmp_path, **fields):
    cfg = {"name": "c", "n": 2, "entries": ["1", "0", "0", "1"], **fields}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize(
    "fields",
    [
        {"entries": ["1", "0", "1"]},
        {"box": [[-0.9, 0.9], [-0.9, 0.9, -0.9, 0.9]]},
        {"box": [[-0.9, 0.9, -0.9, 0.9]]},
        {"box": [[-0.9, 0.9, 0.9, -0.9], [-0.9, 0.9, -0.9, 0.9]]},
        {"box": [[-0.9, float("inf"), -0.9, 0.9], [-0.9, 0.9, -0.9, 0.9]]},
        {"box": [[-1e308, 1e308, -1, 1], [-0.9, 0.9, -0.9, 0.9]]},
        {"box": [[-(10**400), 1, -1, 1], [-0.9, 0.9, -0.9, 0.9]]},
        {"n": 0, "entries": []},
        {"n": "2"},
        {"entries": ["1", "0", "0", 1]},
        {"expected_flags": ["kahler"]},
        {"entries": ["1 + abs2(z1)^2^200", "0", "0", "1"]},
        {"constraint": ["re(z1) + 2"]},
        {"expected_flags": {"g_kaehler_like": True}},
    ],
    ids=["short_entries", "box_row_of_2", "box_rows_short", "box_lo_above_hi", "box_inf",
         "box_width_overflows", "box_bound_beyond_float",
         "n_0", "n_string", "entry_not_string", "flags_not_object", "chained_exponent",
         "unknown_field", "unknown_flag"],
)
def test_malformed_configs_are_usage_errors(tmp_path, capsys, fields):
    code = main(["--metric", _config_file(tmp_path, **fields), "--points", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "fields,detail",
    [
        ({"constraint": ["re(z1) + 2"]},
         "unknown field 'constraint'; known: name, n, entries, constraints, box, expected_flags"),
        ({"expected_flags": {"kahler": True, "g_kaehler_like": True}},
         "'expected_flags' names unknown flag 'g_kaehler_like'; known: kahler, balanced, kahler_like, "
         "g_kahler_like, pluriclosed, hermitian_flat"),
    ],
)
def test_a_misspelt_config_name_is_refused_with_the_known_names(tmp_path, capsys, fields, detail):
    code = main(["--metric", _config_file(tmp_path, **fields), "--points", "2"])
    assert code == 2
    assert detail in capsys.readouterr().err


def test_a_config_beyond_max_n_is_refused_before_evaluation(tmp_path, capsys):
    n = catalog.MAX_N + 1
    entries = ["1" if i == j else "0" for i in range(n) for j in range(n)]
    code = main(["--metric", _config_file(tmp_path, n=n, entries=entries), "--points", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and f"'n' must be at most {catalog.MAX_N}, got {n}" in err


def test_a_repeated_suite_is_listed_and_run_once(capsys):
    argv = ["--metric", "euclidean", "--points", "1", "--format", "json"]
    assert main(argv + ["--suite", "identities", "--suite", "classify", "--suite", "identities"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["suites"] == ["classify", "identities"]
    assert list(report["suites"]) == ["classify", "identities"]
    assert main(argv + ["--suite", "classify", "--suite", "all"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["suites"] == sorted(SUITES)


@pytest.mark.parametrize(
    "n,entries,detail",
    [
        (1, ["re(z1)"], "not positive definite at"),
        (1, ["1 + exp(1000*re(z1))"], "not finite at"),
        (2, ["1", "z1", "0", "1"], "not Hermitian at"),
        (1, ["1 + ln(re(z1))^2"], "(at point"),
    ],
    ids=["indefinite", "overflow", "non_hermitian", "singular"],
)
def test_bad_metric_at_a_sampled_point_exits_3(tmp_path, capsys, n, entries, detail):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "n": n, "entries": entries}))
    code = main(["--metric", str(path), "--points", "20", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and detail in err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "report.json"
    code = main(["--metric", "euclidean", "--points", "2", "--out", str(out)])
    assert code == 2
    assert "cannot write --out" in capsys.readouterr().err


def _peak_rss_mb(argv):
    """Peak RSS of one CLI process, in MB (Linux reports ru_maxrss in kB)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    probe = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'hermlab.cli', *sys.argv[1:]],"
        " check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe, *argv], check=True, capture_output=True, text=True, env=env)
    return int(out.stdout.split()[-1]) / 1024


@pytest.mark.parametrize("metric", ["iwasawa", "fubini_study_chart_n2"])
def test_report_memory_does_not_grow_with_points(metric):
    # the suites read each chunk of geometry before the next is computed, so a
    # report holds the jets of one evaluation block and the data of one chunk,
    # not of every point (n = 2 has the larger chunks and blocks)
    argv = ["--metric", metric, "--suite", "classify", "--format", "csv", "--points"]
    small = _peak_rss_mb(argv + ["20"])
    large = _peak_rss_mb(argv + ["2000"])
    assert large - small <= 15, (small, large)
