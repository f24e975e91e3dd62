"""Geometry streaming: evaluation blocks and core chunks against 16-point
calls of the batched cores, the views that first-k rows read, the running
maximum that every row reduces to and the state a suite keeps, the shape
of the points, the point a singular block names, and the data that the
Riemann core and the FD oracle read."""

import contextlib
import io
import json
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermlab import catalog, cli, fd, levicivita
from hermlab import suites as suite_module
from hermlab.chern import chern_at
from hermlab.classify import classify_at
from hermlab.dsl import MetricField
from hermlab.errors import DegenerateMetricError, SingularEvaluationError
from hermlab.geometry import CHUNK, block_size, chunk_size, geometry_chunks, running_max, sample_points
from hermlab.levicivita import riemann_at

from test_highdim import perturbed_metric

# the derivative-level Chern arrays and the Levi-Civita fields, each computed on first read
DERIVED = ("dL", "dP", "dT", "theta_u_vals", "covT", "covT_bar")
RIEMANN = ("G", "Gi", "Gamma", "R4", "W", "Rc", "Ric", "Scal")


def arrays_at(data, index):
    """The array fields of the Chern data ``data``, each indexed by ``index``."""
    return {f.name: getattr(data, f.name)[index] for f in fields(data) if isinstance(getattr(data, f.name), np.ndarray)}


def _derived(data):
    """The derivative-level Chern arrays and the Levi-Civita fields of ``data``, computed here if need be."""
    return {name: getattr(data, name) for name in DERIVED + RIEMANN}


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
        want = points[c.start : c.start + chunk]  # the chunk's points are a view of the report's
        assert np.array_equal(c.ch.point, want) and np.shares_memory(c.ch.point, want)
        assert c.rd.chern is c.ch and c.ch.metric is m
        _derived(c.ch)  # on the whole chunk, so that each part below carries its share
        for s in range(0, len(c.ch.point), CHUNK):
            part = slice(s, s + CHUNK)
            ch = chern_at(m, c.ch.point[part].copy())
            _assert_same(arrays_at(c.ch.at(part), slice(None)), arrays_at(ch, slice(None)))
            _assert_same(_derived(c.rd.at(part)), _derived(riemann_at(ch)))
        calls.clear()
    # the metric is evaluated once a block, and the core chunks restart at each block
    assert evaluated == [block, 3]
    assert starts == list(range(0, block, chunk)) + [block]


class _FirstFive(suite_module.Suite):
    """Two rows over the report's first five points that record the chunks they read."""

    def __init__(self, *args):
        self.read = []
        self.table = (("a", "exact", 1, 5, self._row), ("b", "exact", 1, 5, self._row))
        super().__init__(*args)

    def _row(self, chunk):
        self.read.append(chunk)
        return np.arange(len(chunk.ch.point), dtype=float)  # largest at the last point read


def test_a_first_k_row_reads_a_shared_view_of_the_first_chunk():
    entry = catalog.get("fubini_study_chart_n2")
    points = sample_points(entry.metric, 100, seed=3)
    chunk, second = geometry_chunks(entry.metric, points)  # one block, two chunks
    assert not np.shares_memory(chunk.ch.ddg, second.ch.ddg)
    chunk.ch.covT  # computed on the chunk before the row reads it
    suite = _FirstFive(entry, points, suite_module.DEFAULT_TOLERANCES, 0)
    suite.add(chunk)
    suite.add(second)
    view, again = suite.read  # both rows, on the first chunk only
    assert view is again and view.start == 0 and len(view.ch.point) == 5
    assert view.rd.chern is view.ch
    for name, x in arrays_at(view.ch, slice(None)).items():
        assert np.shares_memory(x, getattr(chunk.ch, name)), name
        assert np.array_equal(x, getattr(chunk.ch, name)[:5]), name
    for name in DERIVED:
        assert name in vars(view.ch) and np.shares_memory(vars(view.ch)[name], getattr(chunk.ch, name)), name
    # each row covers the first five points and no later one
    assert list(suite.best.values()) == [(4.0, 4), (4.0, 4)]
    checks, _ = suite.checks()
    assert len(checks) == 2 and all(np.shares_memory(c.worst_point, points[4]) for c in checks)


def test_a_name_is_computed_on_first_read_once_per_batch(monkeypatch):
    metric = catalog.get("iwasawa").metric
    chunk, other = (next(geometry_chunks(metric, sample_points(metric, 4, seed=s))) for s in (3, 4))
    calls, sigma_psd = [], levicivita.sigma_psd
    monkeypatch.setattr(levicivita, "sigma_psd", lambda d: calls.append(d) or sigma_psd(d))  # looked up when it runs
    first = chunk.ch.sigma1_psd
    assert len(calls) == 1 and "sigma2_psd" in vars(chunk.ch)  # computed along with it
    assert vars(calls[0]).keys() == {"metric", "point", "n", "T", "_inputs"}  # the producer saw its inputs only
    assert chunk.ch.sigma1_psd is first and chunk.ch.sigma2_psd is vars(chunk.ch)["sigma2_psd"]
    view = chunk.first(2)
    assert chunk.first(2) is view and np.shares_memory(view.ch.sigma1_psd, first)  # carried, not recomputed
    assert len(calls) == 1
    other.ch.sigma1_psd  # another batch is another entry
    assert len(calls) == 2 and calls[1].point is other.ch.point


def test_a_producer_reads_only_its_declared_inputs():
    metric = catalog.get("iwasawa").metric
    ch = chern_at(metric, sample_points(metric, 2, seed=3))
    view = ch.reading(["T", "dT"])
    assert view.T is ch.T and view.dT is ch.dT and view.metric is metric and view.n == 3
    for name in ("Rh", "covT", "Rc"):  # a field, a derived array and a Levi-Civita field
        with pytest.raises(AttributeError, match=f"'{name}' is not among the inputs"):
            getattr(view, name)
    assert "covT" not in vars(ch) and "Rc" not in vars(ch)


# what run_suites hands every suite; the report's points are kept by the report
_INPUTS = ("entry", "metric", "points", "tols", "seed")


def _kept(suite):
    """Every object a suite keeps beyond its inputs, through containers.

    Scalars are counted once per reference: Python shares its small ints.
    """
    todo, seen, out = [v for k, v in vars(suite).items() if k not in _INPUTS], set(), []
    while todo:
        x = todo.pop()
        if not isinstance(x, (int, float, np.generic)):
            if id(x) in seen:
                continue
            seen.add(id(x))
        out.append(x)
        if isinstance(x, dict):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, (list, tuple)):
            todo += x
    return out


def _kept_bytes(suite):
    return sum(x.nbytes if isinstance(x, np.ndarray) else sys.getsizeof(x) for x in _kept(suite))


def _run_suites(monkeypatch, entry, points, chunks=None):
    """The suites of one ``run_suites`` over every suite, after it ran; ``chunks`` collects the chunks."""
    suites = []
    with monkeypatch.context() as patched:
        if chunks is not None:
            stream = suite_module.geometry_chunks
            patched.setattr(suite_module, "geometry_chunks", lambda *a: (chunks.append(c) or c for c in stream(*a)))
        for name, cls in suite_module._SUITE_CLASSES.items():
            patched.setitem(suite_module._SUITE_CLASSES, name, lambda *a, cls=cls: suites.append(cls(*a)) or suites[-1])
        suite_module.run_suites(entry, points, suite_module.DEFAULT_TOLERANCES, list(suite_module._SUITE_CLASSES), 42)
    assert len(suites) == len(suite_module._SUITE_CLASSES)
    return suites


def test_no_kept_residual_shares_memory_with_a_chunk(monkeypatch):
    entry = catalog.get("iwasawa")
    points = sample_points(entry.metric, 20, seed=3)
    chunks = []
    suites = _run_suites(monkeypatch, entry, points, chunks)
    assert len(chunks) == 2
    held = [x for c in chunks for x in vars(c.ch).values() if isinstance(x, np.ndarray)]
    kept = [x for s in suites for x in _kept(s) if isinstance(x, (np.ndarray, np.generic))]
    # every row's and flag's running maximum, compare's two and nilker's torsion
    assert len(kept) > 50 and any(x is s.T for s in suites if isinstance(s, suite_module.Nilker) for x in kept)
    for x in kept:
        assert not any(np.shares_memory(x, y) for y in held)


def test_suite_state_does_not_grow_with_points(monkeypatch):
    # a suite keeps each row's running maximum, not a residual per point
    entry = catalog.get("fubini_study_chart_n2")
    kept = {}
    for count in (200, 2000):
        suites = _run_suites(monkeypatch, entry, sample_points(entry.metric, count, seed=3))
        kept[count] = {type(s).__name__: _kept_bytes(s) for s in suites}
    assert kept[2000] == kept[200]
    assert sum(kept[200].values()) < 20_000, kept[200]


def _argmax_rule(parts):
    """The value and the first index ``np.argmax`` finds over the joined residuals; (-inf, None) if all are -inf."""
    joined = np.concatenate(parts)
    i = int(np.argmax(joined))
    return (-np.inf, None) if joined[i] == -np.inf else (joined[i], i)


def _same(a, b):
    """Equal (value, index) pairs, a NaN value equal to a NaN value."""
    return a[1] == b[1] and (a[0] == b[0] or np.isnan(a[0]) and np.isnan(b[0]))


RESIDUALS = st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.0, -np.inf, -np.inf, np.nan, 1e-300]), min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(RESIDUALS, st.lists(st.integers(1, 6), min_size=24, max_size=24), st.integers(0, 7))
def test_running_max_is_the_argmax_of_the_joined_chunks(residuals, sizes, skip):
    residuals, parts = np.array(residuals), []
    for size in sizes:
        start = sum(len(p) for p in parts)
        if start < len(residuals):
            parts.append(residuals[start : start + size])
    best, start = (-np.inf, None), 0
    for part in parts:
        best = running_max(best, part, start)
        start += len(part)
    assert _same(best, _argmax_rule(parts))
    # a flagged row: only the points where a mask holds are fed, at their own indices
    live = np.arange(len(residuals)) % 8 != skip
    flagged, start = (-np.inf, None), 0
    for part in parts:
        at = np.flatnonzero(live[start : start + len(part)])
        if len(at):
            flagged = running_max(flagged, part[at], start, at)
        start += len(part)
    value, index = _argmax_rule([np.where(live, residuals, -np.inf)])
    assert _same(flagged, (value, index))


def test_running_max_reads_the_documented_edge_cases():
    best = running_max((-np.inf, None), np.full(3, -np.inf), 0)
    best = running_max(best, np.full(2, -np.inf), 3)
    assert best == (-np.inf, None)  # every residual -inf: no worst point
    best = running_max(best, np.array([1.0, np.nan, 5.0, np.nan]), 5, np.array([7, 9, 11, 12]))
    best = running_max(best, np.array([np.inf]), 20)
    assert np.isnan(best[0]) and best[1] == 14  # the first NaN wins and is kept
    best = running_max((2.0, 3), np.array([2.0, 1.0]), 10)
    assert best == (2.0, 3)  # a tie keeps the earlier point


class _Rows(suite_module.Suite):
    """Three rows over fixed residuals: every point, the first two points, and a flag that never holds."""

    def __init__(self, *args):
        self.table = (
            ("every", "exact", 1, None, lambda c: np.full(len(c.ch.point), -np.inf)),
            ("first", "exact", 1, 2, lambda c: np.array([np.nan, 3.0][: len(c.ch.point)])),
            ("flagged", "exact", 1, "kahler", lambda c: np.ones(len(c.ch.point))),
        )
        super().__init__(*args)


def test_a_row_reads_its_running_maximum():
    entry = catalog.get("iwasawa")  # not Kahler at any point
    points = sample_points(entry.metric, 2 * CHUNK, seed=42)
    suite = _Rows(entry, points, suite_module.DEFAULT_TOLERANCES, 0)
    for chunk in geometry_chunks(entry.metric, points):
        suite.add(chunk)
    every, first = suite.checks()[0]  # the flagged row is absent
    assert (every.name, every.residual, every.worst_point) == ("every", 0.0, None)  # every residual -inf
    assert first.name == "first" and np.isnan(first.residual) and np.shares_memory(first.worst_point, points[0])


def test_a_flagged_row_with_no_qualifying_point_is_absent():
    entry = catalog.get("random_polynomial(12)")
    points = sample_points(entry.metric, 2 * CHUNK, seed=42)
    tols = dict(suite_module.DEFAULT_TOLERANCES, flags=1e-300)  # no point is Kahler-like or G-Kahler-like
    suite = suite_module.Identities(entry, points, tols, 42)
    for chunk in geometry_chunks(entry.metric, points):
        suite.add(chunk)
    flagged = {name for name, _, _, where, _ in suite_module._IDENTITY_ROWS if isinstance(where, str)}
    assert flagged and all(suite.best[name][1] is None for name in flagged)
    names = [c.name for c in suite.checks()[0]]
    assert names == [row[0] for row in suite_module._IDENTITY_ROWS if row[0] not in flagged]


@pytest.mark.parametrize("bad", [[[0.1]] * 4, [[0.1, 0.2, 0.3]], np.zeros((2, 2, 2)), [0.1, 0.2], np.zeros((0, 2))])
def test_points_of_the_wrong_dimension_are_refused(bad):
    m = catalog.get("fubini_study_chart_n2").metric  # n = 2
    message = re.escape(f"points must have shape [N, 2] with N >= 1, got {list(np.shape(bad))}")
    with pytest.raises(ValueError, match=message):
        classify_at(m, bad)
    with pytest.raises(ValueError, match=message):
        next(geometry_chunks(m, bad))


@pytest.mark.parametrize("bad", [[0.1, 0.2, 0.3], [[0.1]] * 4, np.zeros((2, 2, 2)), 0.1])
def test_chern_at_refuses_a_point_of_the_wrong_dimension(bad):
    m = catalog.get("fubini_study_chart_n2").metric
    message = re.escape(f"points must have shape [N, 2] or [2], got {list(np.shape(bad))}")
    with pytest.raises(ValueError, match=message):
        chern_at(m, bad)


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
        if not all(np.isfinite(getattr(rd, field)).all() for field in RIEMANN):
            read.add(name)
    assert read == {"gv", "dg", "ddg", "Pv"}


def test_the_oracle_reads_only_metric_values_and_points(monkeypatch):
    m = catalog.get("iwasawa").metric
    chunk = next(geometry_chunks(m, sample_points(m, 3, seed=42)))
    want = fd.fd_data(chunk.ch)

    def evaluate(points):
        raise AssertionError("the oracle evaluated the analytic jets")

    monkeypatch.setattr(m, "evaluate", evaluate)
    got = fd.fd_data(_nan(chunk.ch, keep=("point",)))
    _assert_same(arrays_at(got, ...), arrays_at(want, ...))
    _assert_same(_derived(got), _derived(want))


def test_the_oracle_checks_its_jets_at_its_own_tolerance(monkeypatch):
    m = catalog.get("iwasawa").metric
    chunk = next(geometry_chunks(m, sample_points(m, 3, seed=42)))
    values_at = m.values_at

    def skewed(by):  # the oracle on metric values with a non-Hermitian defect ``by``
        monkeypatch.setattr(m, "values_at", lambda q: values_at(q) + by * np.eye(m.n, k=1))
        return fd.fd_data(chunk.ch)

    skewed(3e-10)  # above the evaluated jets' Hermitian tolerance, below the oracle's
    with pytest.raises(DegenerateMetricError, match="not Hermitian at " + re.escape(str(chunk.ch.point[0]))):
        skewed(1e-3)
