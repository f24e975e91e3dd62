"""Reports carry the rows that the row table of docs/report-schema.md lists:
in its order, with its tolerances and ``asserted`` values, exactly where
its conditions hold, and with each worst point among the points it names."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hermlab import catalog, suites
from hermlab.classify import flag_residuals_at
from hermlab.cli import DEFAULT_TOLERANCES, main
from hermlab.geometry import geometry_chunks, sample_points
from hermlab.nilker import torsion_symmetry_residual

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "report-schema.md"
POINTS = 6
# the points column -> how many of the sampled points a row reduces over
REDUCED = {"all": POINTS, "all where it holds": POINTS, "first 5": 5, "first 2": 2, "first": 1, "none": 0}


def _documented_rows():
    """(suite, row, tolerance, asserted, condition, points) of each line of the row table."""
    rows = []
    for line in SCHEMA.read_text().split("## Rows", 1)[1].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 6 and cells[1].startswith("`"):
            rows.append([cells[0], cells[1].strip("`"), *cells[2:]])
    return rows


def _tolerance(cell):
    if cell == "none":
        return None
    key = re.fullmatch(r"`(\w+)`(?: × (\d+))?", cell)
    return DEFAULT_TOLERANCES[key[1]] * int(key[2] or 1) if key else float(cell)


def _facts(entry, points):
    """What the conditions read, computed from the metric's data at ``points``."""
    chunks = list(geometry_chunks(entry.metric, points))
    flags = [flag_residuals_at(c.ch, c.rd) for c in chunks]
    T = chunks[0].ch.T[0]
    size = float(np.max(np.abs(T)))
    return {
        "flags": {name: np.concatenate([part[name] for part in flags]) for name in flags[0]},
        "the torsion exceeds 1e-3 at some point": any(c.ch.pointwise_max(c.ch.T).max() > 1e-3 for c in chunks),
        "the torsion at the first point is symmetric and exceeds 1e-8": (
            torsion_symmetry_residual(T) < 1e-8 * (1.0 + size**2) and size > 1e-8
        ),
    }


def _expected_rows(entry, facts):
    """{suite: [(row, tolerance, asserted, points)]} of the documented rows whose conditions hold."""
    out = {}
    for suite, name, tol, asserted, condition, points in _documented_rows():
        expects = re.fullmatch(r"the entry expects (a|no) value for `(\w+)`", condition)
        flag = re.fullmatch(r"`(\w+)` holds at some point", condition)
        if expects:
            holds = (expects[2] in entry.expected_flags) == (expects[1] == "a")
            name = name.replace("<value>", str(entry.expected_flags.get(expects[2])))
        elif flag:
            holds = (facts["flags"][flag[1]] < DEFAULT_TOLERANCES["flags"]).any()
        else:
            holds = condition == "always" or facts[condition]
        if holds:
            out.setdefault(suite, []).append((name, _tolerance(tol), asserted == "yes", REDUCED[points]))
    return out


@pytest.mark.parametrize("name", ["iwasawa", "conformal_gklike", "random_polynomial(12)"])
def test_report_rows_are_the_documented_rows(name, capsys):
    main(["--metric", name, "--suite", "all", "--oracle", "--format", "json", "--points", str(POINTS)])
    report = json.loads(capsys.readouterr().out)
    entry = catalog.get(name)
    points = sample_points(entry.metric, POINTS, catalog.DEFAULT_SEED)
    expected = _expected_rows(entry, _facts(entry, points))
    assert sorted(report["suites"]) == sorted(expected)
    for suite, rows in expected.items():
        checks = report["suites"][suite]["checks"]
        assert [c["name"] for c in checks] == [row[0] for row in rows]
        for check, (_, tol, asserted, count) in zip(checks, rows):
            assert (check["tolerance"], check["asserted"]) == (tol, asserted), check["name"]
            if not count:
                assert "worst_point" not in check, check["name"]
            elif "worst_point" in check:  # absent when the row had nothing to reduce
                assert check["worst_point"] in [[[z.real, z.imag] for z in p] for p in points[:count]]


TABLES = {
    "identities": suites._IDENTITY_ROWS,
    "compare": suites._COMPARE_ROWS,
    "conformal": suites._CONFORMAL_ROWS,
    "oracle": suites._ORACLE_ROWS,
}


def _points_cell(where):
    """The points column of the doc for a row table's ``where``."""
    if where is None:
        return "all"
    return "all where it holds" if isinstance(where, str) else f"first {where}"


def test_each_table_row_covers_the_documented_points():
    documented = {(suite, row): (condition, points) for suite, row, _, _, condition, points in _documented_rows()}
    for suite, table in TABLES.items():
        for name, _key, _scale, where, _residual in table:
            condition, points = documented[suite, name]
            assert points == _points_cell(where), (suite, name)
            assert (condition == f"`{where}` holds at some point") == isinstance(where, str), (suite, name)
