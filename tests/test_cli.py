import json
import re

import pytest

from hermlab import catalog
from hermlab.cli import (
    load_metric,
    main,
    render_csv,
    render_human,
    render_json,
    run,
    sample_points,
)
from hermlab.errors import DomainSamplingError


def _run_config(name, suites, points=4, seed=9, oracle=False):
    return run(
        {
            "entry": catalog.get(name),
            "points": points,
            "seed": seed,
            "suites": suites,
            "oracle": oracle,
            "_timestamp": "T",
        }
    )


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
    [["--points", "0"], ["--tol", "flags=abc"], ["--tol", "flags=nan"]],
    ids=["points_0", "tol_not_a_number", "tol_nan"],
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
