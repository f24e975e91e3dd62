"""Geometry streaming: evaluation blocks and core chunks against 16-point
calls of the batched cores, head copies, and the point a singular block
names."""

import contextlib
import io
import json

import numpy as np
import pytest

from hermlab import catalog, cli
from hermlab.chern import arrays_at, chern_at
from hermlab.classify import classify_at
from hermlab.dsl import MetricField
from hermlab.errors import SingularEvaluationError
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
            rd = riemann_at(m, ch.point, chern_data=ch)
            _assert_same(arrays_at(c.ch.at(part), slice(None)), arrays_at(ch, slice(None)))
            _assert_same(arrays_at(c.rd.at(part), slice(None)), arrays_at(rd, slice(None)))
        calls.clear()
    # the metric is evaluated once a block, and the core chunks restart at each block
    assert evaluated == [block, 3]
    assert starts == list(range(0, block, chunk)) + [block]


def test_head_copies_and_pins_no_block():
    m = catalog.get("fubini_study_chart_n2").metric
    chunk, second = geometry_chunks(m, sample_points(m, 100, seed=3))  # one block, two chunks
    assert not np.shares_memory(chunk.ch.ddg, second.ch.ddg)
    head = chunk.head(5)
    assert head.rd.chern is head.ch and head.points == chunk.points[:5]
    for data, whole in ((head.ch, chunk.ch), (head.rd, chunk.rd)):
        for name, x in arrays_at(data, slice(None)).items():
            assert not np.shares_memory(x, getattr(whole, name)), name
            assert np.array_equal(x, getattr(whole, name)[:5]), name


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
