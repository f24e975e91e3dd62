"""The derivation table: each producer reads what it declares, a report
computes only what its rows read, and the two routes of a two-route check
share no ancestor in the table but the metric jets and the unitary frame."""

import contextlib
import io

import pytest

from hermlab import catalog, cli, suites
from hermlab.chern import TABLE, chern_at
from hermlab.geometry import sample_points

# what both routes of a check may read: the metric jets and the unitary frame
JETS_AND_FRAME = {"metric", "point", "gv", "dg", "ddg", "Lv", "Pv", "dL", "dP"}
# each two-route row's sides, as the names it reads on each; the curvature
# difference rows divide both sides by one scale, which joins neither
ROUTES = {
    "theta2_two_route": ({"torsion_route"}, {"Rc"}),
    "mixed_20": ({"Rc"}, {"covT", "T"}),
    "mixed_02": ({"Rc"}, {"covT_bar", "T"}),
    "riemann_vs_chern": ({"Rc"}, {"Rh", "covT_bar", "T"}),
}
# each oracle row checks a name against the FD data, which read the metric and the points only
ORACLE = {
    "jet_first_vs_fd": "dg",
    "jet_second_vs_fd": "ddg",
    "torsion_vs_fd": "T",
    "chern_curvature_vs_fd": "Rh",
    "riemann_curvature_vs_fd": "Rc",
}
# each row of the table with a producer, by its first name
PRODUCERS = {names[0]: (inputs, producer) for names, inputs, producer in TABLE.values() if producer}


def _ancestors(names):
    """``names`` and every name they are derived from, by the table's declared inputs."""
    seen, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += TABLE[name][1] if name in TABLE else []
    return seen


def _computed(monkeypatch, *argv):
    """The exit code of one report at 20 points, and the names its chunks and their views computed."""
    chunks, stream = [], suites.geometry_chunks
    monkeypatch.setattr(suites, "geometry_chunks", lambda *a: (chunks.append(c) or c for c in stream(*a)))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--points", "20", "--format", "csv", *argv])
    batches = [b for c in chunks for b in (c, *c.views.values())]
    return code, {name for b in batches for name in vars(b.ch) if name in TABLE}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_a_producer_reads_each_input_it_declares_and_no_other(name):
    # a producer gets a copy holding its inputs only, so an undeclared read
    # raises; dropping any declared input must raise too
    inputs, producer = PRODUCERS[name]
    metric = catalog.get("iwasawa").metric
    ch = chern_at(metric, sample_points(metric, 2, seed=3))
    producer(ch.reading(inputs))
    for dropped in set(inputs) - {"metric", "point"}:
        with pytest.raises(AttributeError, match=f"'{dropped}' is not among the inputs"):
            producer(ch.reading([x for x in inputs if x != dropped]))


def test_a_classify_report_computes_neither_the_derivative_level_chern_data_nor_ricci(monkeypatch):
    code, computed = _computed(monkeypatch, "--metric", "iwasawa", "--suite", "classify")
    assert code == 0 and {"flags", "Rc"} <= computed
    assert not computed & {"dL", "dP", "dT", "theta_u_vals", "covT", "covT_bar", "Ric", "Scal"}


def test_the_routes_of_a_check_share_only_the_metric_jets_and_the_frame(monkeypatch):
    code, computed = _computed(monkeypatch, "--metric", "iwasawa", "--suite", "all", "--oracle")
    routes = dict(ROUTES, **{row: ({"fd"}, {name}) for row, name in ORACLE.items()})
    assert code == 0
    assert routes.keys() <= {row[0] for table in (suites._IDENTITY_ROWS, suites._ORACLE_ROWS) for row in table}
    for row, (one, other) in routes.items():
        assert one | other <= computed, row  # the walk is over what the report computed
        shared = _ancestors(one) & _ancestors(other)
        allowed = {"metric", "point"} if row in ORACLE else JETS_AND_FRAME
        assert shared <= allowed, (row, sorted(shared - allowed))
