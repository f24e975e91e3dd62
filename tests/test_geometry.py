"""Geometry streaming: evaluation blocks and core chunks against 16-point
calls of the batched cores, the views that first-k rows read, the point a
singular block names, and the data that the Riemann core and the FD oracle
read."""

import contextlib
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from hermlab import catalog, cli
from hermlab.chern import _DERIVED, arrays_at, chern_at
from hermlab.classify import classify_at
from hermlab.dsl import MetricField
from hermlab.errors import DegenerateMetricError, SingularEvaluationError
from hermlab.geometry import CHUNK, block_size, chunk_size, geometry_chunks, sample_points
from hermlab.levicivita import riemann_at

from test_highdim import perturbed_metric


def test_sizes_scale_with_the_riemann_temporaries():
    assert [chunk_size(n) for n in range(1, 7)] == [1296, 81, CHUNK, CHUNK, CHUNK, CHUNK]
    assert [block_size(n) for n in range(1, 7)] == [10368, 648, 128, 32, CHUNK, CHUNK]
    for n in range(1, 9):
        assert block_size(n) % chunk_size(n) == 0


def _metric(n):
    if n == 5:
        return perturbed_metric(5)
    return catalog.get({1: "fubini_study_chart", 2: "fubini_study_chart_n2", 3: "iwasawa"}[n]).metric


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_chunks_match_16_point_calls(n, monkeypatch):
    m = _metric(n)
    block, chunk = block_size(n), chunk_size(n)
    points = sample_points(m, block + 3, seed=5)
    calls, evaluated, starts = [], [], []
    evaluate = MetricField.evaluate
    monkeypatch.setattr(MetricField, "evaluate", lambda self, z: calls.append(len(z)) or evaluate(self, z))
    for c in geometry_chunks(m, points):
        evaluated += calls  # the evaluation of the block this chunk opens, if any
        calls.clear()
        starts.append(c.start)
        assert c.points == points[c.start : c.start + chunk]
        assert c.rd.chern is c.ch and c.ch.metric is m
        for s in range(0, len(c.points), CHUNK):
            part = slice(s, s + CHUNK)
            ch = chern_at(m, np.array(c.points[part]))
            rd = riemann_at(ch)
            _assert_same(arrays_at(c.ch.at(part), slice(None)), arrays_at(ch, slice(None)))
            _assert_same(arrays_at(c.rd.at(part), slice(None)), arrays_at(rd, slice(None)))
        calls.clear()
    # the metric is evaluated once a block, and the core chunks restart at each block
    assert evaluated == [block, 3]
    assert starts == list(range(0, block, chunk)) + [block]


class _FirstFive(cli.Suite):
    """Two rows over the report's first five points that record the chunks they read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = []
        self.table = (("a", "exact", 1, 5, self._row), ("b", "exact", 1, 5, self._row))

    def _row(self, chunk):
        self.read.append(chunk)
        return np.zeros(len(chunk.points))


def test_a_first_k_row_reads_a_shared_view_of_the_first_chunk():
    entry = catalog.get("fubini_study_chart_n2")
    points = sample_points(entry.metric, 100, seed=3)
    chunk, second = geometry_chunks(entry.metric, points)  # one block, two chunks
    assert not np.shares_memory(chunk.ch.ddg, second.ch.ddg)
    chunk.ch.covT  # computed on the chunk before the row reads it
    suite = _FirstFive(entry, points, cli.DEFAULT_TOLERANCES, 0)
    suite.add(chunk)
    suite.add(second)
    view, again = suite.read  # both rows, on the first chunk only
    assert view is again and view.points == chunk.points[:5]
    assert view.rd.chern is view.ch
    for data, whole in ((view.ch, chunk.ch), (view.rd, chunk.rd)):
        for name, x in arrays_at(data, slice(None)).items():
            assert np.shares_memory(x, getattr(whole, name)), name
            assert np.array_equal(x, getattr(whole, name)[:5]), name
    for name in _DERIVED:
        assert name in vars(view.ch) and np.shares_memory(vars(view.ch)[name], getattr(chunk.ch, name)), name
    res = suite.residuals()["a"]
    assert len(res) == 100 and not res[:5].any() and (res[5:] == -np.inf).all()


def test_no_kept_residual_shares_memory_with_a_chunk(monkeypatch):
    entry = catalog.get("iwasawa")
    points = sample_points(entry.metric, 20, seed=3)
    chunks, suites = [], []
    stream = cli.geometry_chunks
    monkeypatch.setattr(cli, "geometry_chunks", lambda *a: (chunks.append(c) or c for c in stream(*a)))
    for name, cls in cli._SUITE_CLASSES.items():
        monkeypatch.setitem(cli._SUITE_CLASSES, name, lambda *a, cls=cls: suites.append(cls(*a)) or suites[-1])
    cli.run_suites(entry, points, cli.DEFAULT_TOLERANCES, list(cli._SUITE_CLASSES), 42)
    assert len(chunks) == 2 and len(suites) == len(cli._SUITE_CLASSES)
    held = [vars(c.ch) for c in chunks] + [arrays_at(c.rd, slice(None)) for c in chunks]
    held = [x for data in held for x in data.values() if isinstance(x, np.ndarray)]
    kept = [x for s in suites for part in s.parts for x in part.values()]
    kept += [s.T for s in suites if isinstance(s, cli.Nilker)]
    assert len(kept) > 100
    for x in kept:
        assert not any(np.shares_memory(x, y) for y in held)


# a pole at z1 = 0.25 and, through sqrt, a branch cut where re(z1) <= -0.895;
# the 0 factor keeps the metric itself the Euclidean one
SINGULAR = MetricField.from_text(
    "singular", 3,
    ["1 + 0*(1/(z1 - 0.25) + sqrt(re(z1) + 0.895))", "0", "0",
     "0", "1", "0",
     "0", "0", "1"],
)


def test_a_pole_past_the_first_block_is_named_as_one_point_names_it():
    block = block_size(SINGULAR.n)
    points = [p for p in sample_points(SINGULAR, block + 40, seed=11) if p[0].real > -0.89]
    pole = np.array([0.25, 0.1j, -0.2 + 0.3j])
    points[block + 7] = pole
    with pytest.raises(SingularEvaluationError) as alone:
        SINGULAR.evaluate(pole)
    with pytest.raises(SingularEvaluationError) as got:
        classify_at(SINGULAR, points)
    assert str(got.value) == str(alone.value)
    assert "zero value" in str(got.value) and got.value.point is not None
    assert np.array_equal(got.value.point, pole)


def _first_cut(points):
    return next(i for i, p in enumerate(points) if p[0].real <= -0.895)


def test_the_cli_names_the_first_sampled_point_past_the_first_block(tmp_path):
    config = tmp_path / "singular.json"
    config.write_text(json.dumps({"name": "singular", "n": 3, "entries": SINGULAR.entry_sources()}))
    block, count, seed = block_size(3), 700, 10
    points = sample_points(SINGULAR, count, seed=seed)
    first = _first_cut(points)
    assert block < first < count  # the seed puts the first bad draw in the second block
    with pytest.raises(SingularEvaluationError) as alone:
        SINGULAR.evaluate(points[first])
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["--metric", str(config), "--points", str(count), "--seed", str(seed)])
    assert code == 3
    assert stderr.getvalue() == f"error: {alone.value}\n"


def _nan(data, keep=()):
    """``data`` with every array field but ``keep`` replaced by NaN."""
    return replace(data, **{k: np.full_like(x, np.nan) for k, x in arrays_at(data, ...).items() if k not in keep})


def test_riemann_reads_only_the_metric_arrays_and_the_frame():
    # the Christoffel route must not read the torsion route's Chern data
    m = catalog.get("iwasawa").metric
    ch = chern_at(m, np.array(sample_points(m, 3, seed=42)))
    read = set()
    for name in arrays_at(ch, ...):
        rd = riemann_at(replace(ch, **{name: np.full_like(getattr(ch, name), np.nan)}))
        if not all(np.isfinite(x).all() for x in arrays_at(rd, ...).values()):
            read.add(name)
    assert read == {"gv", "dg", "ddg", "Pv"}


def test_the_oracle_reads_only_metric_values_and_points(monkeypatch):
    m = catalog.get("iwasawa").metric
    chunk = next(geometry_chunks(m, sample_points(m, 3, seed=42)))
    want = cli._fd(chunk)
    ch = _nan(chunk.ch, keep=("point",))
    poisoned = replace(chunk, ch=ch, rd=_nan(replace(chunk.rd, chern=ch)), memo={})

    def evaluate(points):
        raise AssertionError("the oracle evaluated the analytic jets")

    monkeypatch.setattr(m, "evaluate", evaluate)
    got = cli._fd(poisoned)
    for have, expect in ((got, want), (got.chern, want.chern)):
        _assert_same(arrays_at(have, ...), arrays_at(expect, ...))


def test_the_oracle_checks_its_jets_at_its_own_tolerance(monkeypatch):
    m = catalog.get("iwasawa").metric
    chunk = next(geometry_chunks(m, sample_points(m, 3, seed=42)))
    values_at = m.values_at

    def skewed(by):  # the oracle on metric values with a non-Hermitian defect ``by``
        monkeypatch.setattr(m, "values_at", lambda q: values_at(q) + by * np.eye(m.n, k=1))
        return cli._fd(chunk)

    skewed(3e-10)  # above the evaluated jets' Hermitian tolerance, below the oracle's
    with pytest.raises(DegenerateMetricError, match="not Hermitian at " + re.escape(str(chunk.points[0]))):
        skewed(1e-3)
