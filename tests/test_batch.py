"""The batched core: a batch of points against one point at a time, the
dense real metric against the jet-built one, the vectorised sampler
against a draw-by-draw loop, the worst point of the batched flags, the
batched compare suite against one direction at a time, the compare draws,
the shared curvature pairings, the batched FD stencil, nilker rank search
and conformal suite against the loops they replaced, and the identities
and oracle check tables against the per-point loops."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermlab import catalog, compare, levicivita, nilker, suites
from hermlab.chern import ChernData, chern_at, chern_from_jets
from hermlab.classify import FLAG_NAMES, classify_at, flag_residuals_at
from hermlab.conformal import CONFORMAL_EXPONENTS, ConformalFactor, conformal_metric
from hermlab.dsl import MetricField, eval_value, parse, wirtinger_from_real
from hermlab.errors import DomainSamplingError, SingularEvaluationError
from hermlab.fd import DEFAULT_STEP, _stencil, fd_jet
from conftest import GeometryCache, jet2
from hermlab.geometry import CHUNK, sample_points
from hermlab.jets import Jet2
from hermlab.levicivita import _IMAG_TOL, _real_metric_arrays, levi_civita_frame_connection

from test_highdim import base_point, perturbed_metric

CATALOG = ["fubini_study_chart", "euclidean", "gkl_surface", "conformal_gklike", "iwasawa",
           "random_polynomial(7)"]


def _arrays(data):
    """The array fields of Chern data: the value-level ones, computed with the data."""
    return {
        f.name: getattr(data, f.name)
        for f in dataclasses.fields(data)
        if isinstance(getattr(data, f.name), np.ndarray)
    }


def _batch_cases():
    for name in CATALOG:
        m = catalog.get(name).metric
        yield pytest.param(m, np.array(sample_points(m, 5, seed=61)), id=name)
    for n in (4, 5):
        m = perturbed_metric(n)
        rng = np.random.default_rng(n)
        step = rng.uniform(-1, 1, (3, n)) + 1j * rng.uniform(-1, 1, (3, n))
        yield pytest.param(m, base_point(n) + 0.2 * step, id=m.name)


def _levi_civita(ch, u):
    """The Levi-Civita fields of Chern data (computed on first read) and the levicivita functions of them."""
    B20, B11, B02 = levicivita.theta2_blocks(ch)
    return {
        **{name: getattr(ch, name) for name in ("G", "Gi", "Gamma", "R4", "W", "Rc", "Ric", "Scal")},
        "R_11bar": levicivita.R_11bar(ch),
        "gray_residual": levicivita.gray_residual(ch),
        **levicivita.symmetry_residuals(ch),
        "B20": B20,
        "B11": B11,
        "B02": B02,
        "theta2_norm": levicivita.theta2_norm(ch),
        "ricci_direction": levicivita.ricci_direction(ch, u),
    }


@pytest.mark.parametrize("m,points", list(_batch_cases()))
def test_batch_equals_single_points(m, points):
    ch = chern_at(m, points)
    assert ch.point.shape == points.shape
    assert np.shape(ch.Scal) == (len(points),)
    u = np.random.default_rng(len(points)).normal(size=(len(points), 2 * m.n))
    batch = _levi_civita(ch, u)
    for i, p in enumerate(points):
        one = chern_at(m, p)
        # the batch's values at point i, and the functions on the view of point i
        for got, want in (
            (_arrays(ch.at(i)), _arrays(one)),
            ({key: value[i] for key, value in batch.items()}, _levi_civita(one, u[i])),
            (_levi_civita(ch.at(i), u[i]), _levi_civita(one, u[i])),
        ):
            assert got.keys() == want.keys()
            for key in want:
                assert np.shape(got[key]) == np.shape(want[key]), key
                assert np.max(np.abs(got[key] - want[key]), initial=0.0) <= 1e-12, key



@pytest.mark.parametrize("m,points", list(_batch_cases()))
def test_batch_derived_arrays_equal_single_points(m, points):
    # the derivative-level Chern arrays are computed on first read, so _arrays does not see them
    ch = chern_at(m, points)
    for i, p in enumerate(points):
        one = chern_at(m, p)
        for name in ("dL", "dP", "dT", "theta_u_vals", "covT", "covT_bar"):
            got, want = getattr(ch.at(i), name), getattr(one, name)
            assert np.shape(got) == np.shape(want), name
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12, name

def _jet_real_metric_arrays(g):
    """The real metric built entry by entry from Wirtinger jets (the old route)."""
    n = len(g)
    m = 2 * n
    G = np.zeros((m, m))
    dG = np.zeros((m, m, m))
    d2G = np.zeros((m, m, m, m))

    def store(a, b, jet):
        val, rd1, rd2 = jet.value, jet.real_d1(), jet.real_d2()
        if max(abs(val.imag), np.max(np.abs(rd1.imag)), np.max(np.abs(rd2.imag))) > _IMAG_TOL:
            raise ValueError("real metric entry has a non-real jet")
        G[a, b] = val.real
        dG[:, a, b] = rd1.real
        d2G[:, :, a, b] = rd2.real

    for i in range(n):
        for j in range(n):
            sym = g[i][j] + g[j][i]  # 2 Re g_ij
            asym = (g[i][j] - g[j][i]) * (-1j)  # 2 Im g_ij
            store(2 * i, 2 * j, sym)
            store(2 * i + 1, 2 * j + 1, sym)
            store(2 * i, 2 * j + 1, asym)
            store(2 * i + 1, 2 * j, -asym)
    return G, dG, d2G


def _jets(gv, dg, ddg):
    n = gv.shape[0]
    return [[Jet2(n, gv[i, j], dg[i, j], ddg[i, j]) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", ["iwasawa", "gkl_surface", "random_polynomial(3)", "perturbed5"])
def test_dense_real_metric_matches_jet_route(name):
    m = perturbed_metric(5) if name == "perturbed5" else catalog.get(name).metric
    points = np.array(sample_points(m, 4, seed=67))
    batch = _real_metric_arrays(*m.evaluate(points))
    for i, p in enumerate(points):
        want = _jet_real_metric_arrays(_jets(*m.evaluate(p)))
        for got, ref in zip(batch, want):
            assert got[i].shape == ref.shape
            assert np.max(np.abs(got[i] - ref)) <= 1e-13


@pytest.mark.parametrize("slot", ["value", "d1", "d2"])
def test_dense_real_metric_rejects_non_real_jets(slot):
    m = catalog.get("iwasawa").metric
    arrays = [x.copy() for x in m.evaluate(np.array([0.1 + 0.2j, -0.3j, 0.4 + 0.1j]))]
    k = ("value", "d1", "d2").index(slot)
    # a jet that breaks Hermitian symmetry by 10 * _IMAG_TOL in one slot
    arrays[k][(1, 2) + (0,) * k] += 10 * _IMAG_TOL * 1j
    with pytest.raises(ValueError, match="non-real jet"):
        _real_metric_arrays(*arrays)
    with pytest.raises(ValueError, match="non-real jet"):
        _jet_real_metric_arrays(_jets(*arrays))
    arrays[k][(1, 2) + (0,) * k] -= 9.5 * _IMAG_TOL * 1j  # 0.5 * _IMAG_TOL: accepted
    _real_metric_arrays(*arrays)


def _draw_by_draw(metric, count, seed, oversample=10):
    rng = np.random.default_rng(seed)
    points = []
    attempts = 0
    limit = max(count * oversample, 32)
    while len(points) < count and attempts < limit:
        p = np.array([rng.uniform(b[0], b[1]) + 1j * rng.uniform(b[2], b[3]) for b in metric.box])
        attempts += 1
        if metric.admissible(p):
            points.append(p)
    if len(points) < count:
        raise DomainSamplingError(
            f"found {len(points)}/{count} admissible points after {attempts} draws"
        )
    return points


HALFPLANE = MetricField.from_text(
    "halfplane", 2, ["1", "0", "0", "1"], ["re(0.6*z1 - 0.8*i*z2) - 0.05"],
    [(-0.9, 0.9, -0.5, 0.7), (-0.2, 0.3, -0.9, 0.9)],
)


@pytest.mark.parametrize("metric", [HALFPLANE, catalog.get("conformal_gklike").metric,
                                    catalog.get("random_polynomial(5)").metric], ids=lambda m: m.name)
@pytest.mark.parametrize("count", [1, 7, 200])
def test_sampler_matches_draw_by_draw_loop(metric, count):
    for seed in (0, 42):
        got = sample_points(metric, count, seed=seed)
        want = _draw_by_draw(metric, count, seed)
        assert len(got) == count
        assert np.array(got).tobytes() == np.array(want).tobytes()  # bit for bit


def test_sampler_rejects_and_reports_starvation():
    draws = _draw_by_draw(dataclasses.replace(HALFPLANE, constraints=[]), 400, 3)
    mask = HALFPLANE.admissible_mask(np.array(draws))
    assert mask.tolist() == [HALFPLANE.admissible(p) for p in draws]
    assert 0.2 < mask.mean() < 0.8
    # 0.6 re(z1) + 0.8 im(z2) > 0.05 holds on a small corner of this box only
    starved = dataclasses.replace(HALFPLANE, box=[(-0.9, -0.5, -0.5, 0.7), (-0.2, 0.3, -0.9, 0.8)])
    for count, oversample in ((20, 1), (40, 3)):
        with pytest.raises(DomainSamplingError) as got:
            sample_points(starved, count, seed=1, oversample=oversample)
        with pytest.raises(DomainSamplingError) as want:
            _draw_by_draw(starved, count, 1, oversample=oversample)
        assert str(got.value) == str(want.value)


# sqrt is singular off the right half-plane: about one draw in ten of this box
PATCHY = MetricField.from_text(
    "patchy", 2, ["1", "0", "0", "1"], ["re(z2) + 0.5 + 0*sqrt(re(z1))"],
    [(-0.1, 0.9, -0.5, 0.5), (-0.9, 0.9, -0.5, 0.5)],
)


def _outcome(sample, *args):
    try:
        return np.array(sample(*args)).tobytes()
    except SingularEvaluationError as exc:
        return str(exc)


def test_sampler_raises_at_a_singular_draw_only_where_the_loop_does():
    # the vectorised test of a block raises; the draws are then tested one at
    # a time, up to the last one needed, as the draw-by-draw loop tests them
    raised = []
    for seed in range(12):
        for count in (1, 3, 8):
            want = _outcome(_draw_by_draw, PATCHY, count, seed)
            assert _outcome(sample_points, PATCHY, count, seed) == want, (seed, count)
            raised.append(isinstance(want, str))
    assert 0 < sum(raised) < len(raised)


def test_flags_keep_the_first_worst_point():
    m = catalog.get("iwasawa").metric
    points = sample_points(m, 2 * CHUNK + 3, seed=71)
    points = np.concatenate([points, points[:5]])  # repeated points tie with their first copy
    report = classify_at(m, points)
    for name in FLAG_NAMES:
        residuals = []
        for p in points:
            residuals.append(flag_residuals_at(chern_at(m, p))[name])
        worst = int(np.argmax(residuals))
        assert report[name].residual == residuals[worst]
        assert np.shares_memory(report[name].worst_point, points[worst])


def test_cache_computes_each_point_once_in_chunks(monkeypatch):
    import conftest

    m = catalog.get("gkl_surface").metric
    points = sample_points(m, CHUNK + 4, seed=73)
    calls = []
    real = conftest.chern_at
    monkeypatch.setattr(conftest, "chern_at", lambda metric, z: calls.append(len(z)) or real(metric, z))
    cache = GeometryCache()
    filled = cache.fill(m, points)
    assert calls == [CHUNK, 4]
    assert cache.fill(m, points[::-1])  # all cached now
    assert calls == [CHUNK, 4]
    ch = cache(m, points[CHUNK + 1])
    assert isinstance(ch, ChernData)
    assert ch.point.shape == (m.n,) and np.array_equal(ch.point, points[CHUNK + 1])
    assert filled[CHUNK + 1][1] == 1


def test_values_keep_exact_conjugate_symmetry():
    # finite differences amplify the last bit of a value by 1/h^2; the
    # oracle's check that the real metric is real needs g_ji = conj(g_ij)
    # and real diagonal entries exactly, as Python complex arithmetic gives
    m = catalog.get("fubini_study_chart_n2").metric
    gv = m.values_at(np.array(sample_points(m, 100, seed=79)))
    assert np.array_equal(gv, gv.conj().swapaxes(-2, -1))


# ----------------------------------------------------------------------
# the compare suite: stacked directions against one direction at a time
def _run(suite, entry, points, tols, seed):
    """(checks, extra) of one suite, as ``cli.run`` computes it."""
    return suites.run_suites(entry, points, tols, [suite], seed)[suite]


def _compare_cases():
    for name in ("gkl_surface", "iwasawa"):
        m = catalog.get(name).metric
        yield pytest.param(m, np.array(sample_points(m, 3, seed=83)), id=f"n{m.n}-{name}")
    for n in (4, 5):
        m = perturbed_metric(n)
        rng = np.random.default_rng(n + 10)
        step = rng.uniform(-1, 1, (3, n)) + 1j * rng.uniform(-1, 1, (3, n))
        yield pytest.param(m, base_point(n) + 0.2 * step, id=f"n{n}-{m.name}")


def _close(got, want, key):
    # NaN marks a degenerate plane and must sit in the same places
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    assert got.shape == want.shape, key
    live = ~np.isnan(want)
    assert np.array_equal(np.isnan(got), ~live), key
    assert np.max(np.abs(got - want)[live], initial=0.0) <= 1e-12, key


@pytest.mark.parametrize("m,points", list(_compare_cases()))
def test_compare_batch_equals_single_directions(m, points):
    n, D = m.n, 4
    ch = chern_at(m, points)
    rng = np.random.default_rng(89)

    def cvec(*shape):
        return rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))

    P = len(points)
    X, Y, Z, W = (cvec(D, P) for _ in range(4))
    a = rng.uniform(-1.5, 1.5, (D, P))
    u, v = rng.normal(size=(2, D, P, 2 * n))
    v[0, 0] = 0.0  # one degenerate plane
    R = levicivita.R_11bar(ch)
    batched = {
        "pairing_Rh": compare.hermitian_pairing(ch.Rh, X, Y, Z, W),
        "pairing_Rc": compare.hermitian_pairing(R, X, Y, Z, W),
        "bisectional": compare.bisectional(ch, X, Y, a),
        "difference": compare.bisectional_difference_residuals(ch, X, Y),
        "gap": compare.monotonicity_gap(ch, X),
        "ricci": compare.ricci_identity_residuals(ch, X[0]),
        "scalar": compare.scalar_relation_residual(ch),
        "plane": compare.plane_decomposition_check(ch, u, v),
    }
    assert batched["plane"]["degenerate"].sum() == 1
    for i in range(P):
        one = ch.at(i)
        assert np.shape(compare.scalar_relation_residual(one)) == ()
        _close(batched["scalar"][i], compare.scalar_relation_residual(one), "scalar")
        for key, value in compare.ricci_identity_residuals(one, X[0, i]).items():
            _close(batched["ricci"][key][i], value, key)
        for d in range(D):
            x, y, z, w = X[d, i], Y[d, i], Z[d, i], W[d, i]
            _close(batched["pairing_Rh"][d, i], compare.hermitian_pairing(one.Rh, x, y, z, w), "Rh")
            _close(batched["pairing_Rc"][d, i], compare.hermitian_pairing(levicivita.R_11bar(one), x, y, z, w), "Rc")
            _close(batched["gap"][d, i], compare.monotonicity_gap(one, x), "gap")
            singles = (
                ("bisectional", compare.bisectional(one, x, y, a[d, i])),
                ("difference", compare.bisectional_difference_residuals(one, x, y)),
                ("plane", compare.plane_decomposition_check(one, u[d, i], v[d, i])),
            )
            for group, single in singles:
                assert single.keys() == batched[group].keys()
                for key, value in single.items():
                    assert np.shape(value) == (), key
                    _close(batched[group][key][d, i], value, key)


@pytest.mark.parametrize("n", [3, 5])
def test_the_frame_sums_read_the_same_bits_at_every_batch_size(n):
    # np.sum adds a contiguous axis pairwise: in a batch of one point, the
    # n^2 terms of the scalar relation and the n terms of Ric_a were one
    m = catalog.get("iwasawa").metric if n == 3 else perturbed_metric(n)
    points = sample_points(m, 4, seed=23)
    X = np.random.default_rng(n).normal(size=(len(points), n, 2)) @ np.array([1, 1j])
    ch = chern_at(m, points)
    scalar, ricci = compare.scalar_relation_residual(ch), compare.ricci_identity_residuals(ch, X)
    for i in range(len(points)):
        one = chern_at(m, points[i : i + 1])
        assert np.array_equal(compare.scalar_relation_residual(one), scalar[i : i + 1])
        for key, value in compare.ricci_identity_residuals(one, X[i : i + 1]).items():
            assert np.array_equal(value, ricci[key][i : i + 1]), key


def _per_call_compare_draws(rng, count, n):
    """The compare suite's draws as they ran before filling preallocated rows: one call per vector."""
    dirs = np.empty((count, suites.COMPARE_DIRECTIONS, 4 * n))
    a = np.empty((count, suites.COMPARE_DIRECTIONS))
    rest = np.empty((count, 2 * n + 4 * n * suites.COMPARE_PLANES))
    for p in range(count):
        for d in range(suites.COMPARE_DIRECTIONS):
            dirs[p, d] = rng.normal(size=4 * n)
            a[p, d] = rng.uniform(-1.5, 1.5)
        rest[p] = rng.normal(size=rest.shape[1])
    return dirs, a, rest


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_compare_draws_match_the_per_call_loop_bit_for_bit(n):
    for seed in range(10):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        X, Y, a, ricci, u, v = suites.compare_draws(got_rng, 3, n)
        dirs, want_a, rest = _per_call_compare_draws(want_rng, 3, n)
        dirs = dirs.swapaxes(0, 1)
        want_X, want_Y = dirs[..., :n] + 1j * dirs[..., n : 2 * n], dirs[..., 2 * n : 3 * n] + 1j * dirs[..., 3 * n :]
        assert np.array_equal(X, want_X / np.linalg.norm(want_X, axis=-1, keepdims=True))
        assert np.array_equal(Y, want_Y / np.linalg.norm(want_Y, axis=-1, keepdims=True))
        assert np.array_equal(a, want_a.T)
        assert np.array_equal(ricci, rest[:, :n] + 1j * rest[:, n : 2 * n])
        planes = rest[:, 2 * n :].reshape(3, suites.COMPARE_PLANES, 2, 2 * n)
        assert np.array_equal(u, planes[:, :, 0].swapaxes(0, 1)) and np.array_equal(v, planes[:, :, 1].swapaxes(0, 1))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("m,points", list(_compare_cases()))
def test_shared_pairings_match_each_pairing_bit_for_bit(m, points):
    ch = chern_at(m, points)
    rng = np.random.default_rng(90)
    X, Y = rng.normal(size=(2, 3, len(points), m.n, 2)) @ np.array([1, 1j])
    rest = [(X, Y, Y), (Y, Y, X), (X, X, X), (Y, X, Y)]
    for R in (ch.Rh, levicivita.R_11bar(ch)):
        for first in (X, Y):
            for got, (b, c, d) in zip(compare.hermitian_pairings(R, first, rest), rest):
                assert np.array_equal(got, compare.hermitian_pairing(R, first, b, c, d))
                assert np.array_equal(got, compare._contract4(R, first, np.conj(b), c, np.conj(d)))


def _parent_compare(m, points, seed):
    """The compare suite's per-point, per-direction loop as it ran before batching:
    one rng call per vector part, a skipped degenerate plane, strict-max worst points."""
    n = m.n
    cache = GeometryCache()
    rng = np.random.default_rng(seed + 1)
    worst = {}

    def update(name, value, p):
        if value > worst.get(name, (-1.0, None))[0]:
            worst[name] = (float(value), p)

    max_T, best_gap, gap_point = 0.0, -np.inf, None
    for p in points:
        ch = cache(m, p)
        max_T = max(max_T, float(np.max(np.abs(ch.T))))
        for _ in range(50):
            X = rng.normal(size=n) + 1j * rng.normal(size=n)
            Y = rng.normal(size=n) + 1j * rng.normal(size=n)
            X /= np.linalg.norm(X)
            Y /= np.linalg.norm(Y)
            res = compare.bisectional_difference_residuals(ch, X, Y)
            for name in ("sym_bisectional", "cross_bisectional", "holo_sectional"):
                update(name, res[name], p)
            gap = compare.monotonicity_gap(ch, X)
            update("monotonicity_floor", -gap, p)
            if gap > best_gap:
                best_gap, gap_point = gap, p
            a = float(rng.uniform(-1.5, 1.5))
            bxy = compare.bisectional(ch, X, Y, a)
            byx = compare.bisectional(ch, Y, X, a)
            update("bisectional_symmetry", abs(bxy["B_a"] - byx["B_a"]), p)
            update("bisectional_reality", bxy["imag_max"], p)
        rr = compare.ricci_identity_residuals(ch, rng.normal(size=n) + 1j * rng.normal(size=n))
        update("ricci_affine", rr["affine"], p)
        update("j_invariant_ricci", rr["j_invariant_ricci"], p)
        update("scalar_half_trace", compare.scalar_relation_residual(ch), p)
        for _ in range(5):
            plane = compare.plane_decomposition_check(ch, rng.normal(size=2 * n), rng.normal(size=2 * n))
            if plane["degenerate"]:
                continue
            update("plane_complexified", plane["complexified_vs_real"], p)
            update("plane_angles", plane["angle_decomposition"], p)
    out = {name: (max(value, 0.0), p) for name, (value, p) in worst.items()}
    if max_T > 1e-3:
        out["monotonicity_strict_gap"] = (1e-6 / max(best_gap, 1e-300), gap_point)
    rig = compare.n3_rigidity_search(trials=400, seed=seed, polish=8, steps=80)
    out["rigidity_floor"] = (compare.RIGIDITY_FLOOR / rig["min_residual"], None)
    return out, rng


@pytest.mark.parametrize("name", ["iwasawa", "conformal_klike", "random_polynomial(12)"])
def test_run_compare_matches_the_per_direction_loop(name):
    entry = catalog.get(name)
    seed = 42
    points = sample_points(entry.metric, CHUNK + 3, seed=seed)
    checks, _ = _run("compare", entry, points, suites.DEFAULT_TOLERANCES, seed)
    want, want_rng = _parent_compare(entry.metric, points, seed)
    assert sorted(c.name for c in checks) == sorted(want)
    for c in checks:
        residual, point = want[c.name]
        assert abs(c.residual - residual) <= c.tol / 1000, c.name
        if residual > 1e-13 and point is not None:  # below that, worst points are roundoff
            assert np.shares_memory(c.worst_point, point), c.name
    # the draws leave the stream where the loop left it
    rng = np.random.default_rng(seed + 1)
    suites.compare_draws(rng, len(points), entry.metric.n)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_compare_keeps_the_first_worst_point():
    # the scalar relation reads no random draw, so a repeated point ties
    # with its first copy, which must be the one reported
    entry = catalog.get("gkl_surface")
    points = sample_points(entry.metric, 5, seed=97)
    points = np.concatenate([points, points])
    checks, _ = _run("compare", entry, points, suites.DEFAULT_TOLERANCES, 3)
    got = {c.name: c for c in checks}["scalar_half_trace"]
    cache = GeometryCache()
    residuals = [compare.scalar_relation_residual(cache(entry.metric, p)) for p in points]
    worst = int(np.argmax(residuals))
    assert worst < 5 and residuals[worst] == residuals[worst + 5]
    assert got.residual == residuals[worst]
    assert np.shares_memory(got.worst_point, points[worst])


# ----------------------------------------------------------------------
# the FD oracle: one stencil evaluation against one eval_value per point
def _shift(p, a, h):
    """Shift point ``p`` along real coordinate a (x_k for even a, y_k odd)."""
    q = np.array(p, dtype=complex)
    k, im = divmod(a, 2)
    q[k] += 1j * h if im else h
    return q


def _per_point_stencil(p, n, h=DEFAULT_STEP):
    """The stencil as a loop over its points, one coordinate shift at a time."""
    m = 2 * n
    points = [np.asarray(p, dtype=complex)]
    for a in range(m):
        points += [_shift(p, a, h), _shift(p, a, -h)]
    for a in range(m):
        for b in range(a + 1, m):
            points += [_shift(_shift(p, a, sa), b, sb) for sa in (h, -h) for sb in (h, -h)]
    return np.array(points)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_stencil_matches_the_per_point_shifts(n):
    # every bit, zero signs included
    rng = np.random.default_rng(n)
    points = list(rng.uniform(-0.9, 0.9, size=(4, n)) + 1j * rng.uniform(-0.9, 0.9, size=(4, n)))
    points += [np.zeros(n, dtype=complex), np.where(np.arange(n) % 2, points[0], 0)]
    for p in points:
        got, want = _stencil(p, n), _per_point_stencil(p, n)
        assert got.shape == want.shape == (1 + 4 * n + 4 * n * (2 * n - 1), n)
        assert got.tobytes() == want.tobytes()


def _per_point_fd_jet(expr, p, n, h=DEFAULT_STEP):
    """fd_jet of one entry as it ran before batching: a scalar call per stencil point."""
    m = 2 * n
    f0 = complex(eval_value(expr, np.asarray(p, dtype=complex)))
    d1 = np.zeros(m, dtype=complex)
    d2 = np.zeros((m, m), dtype=complex)
    # numpy scalars, not Python complex: Python's complex quotient rounds differently
    plus = np.zeros(m, dtype=complex)
    minus = np.zeros(m, dtype=complex)
    for a in range(m):
        plus[a] = eval_value(expr, _shift(p, a, h))
        minus[a] = eval_value(expr, _shift(p, a, -h))
        d1[a] = (plus[a] - minus[a]) / (2 * h)
        d2[a, a] = (plus[a] - 2 * f0 + minus[a]) / (h * h)
    for a in range(m):
        for b in range(a + 1, m):
            fpp = eval_value(expr, _shift(_shift(p, a, h), b, h))
            fpm = eval_value(expr, _shift(_shift(p, a, h), b, -h))
            fmp = eval_value(expr, _shift(_shift(p, a, -h), b, h))
            fmm = eval_value(expr, _shift(_shift(p, a, -h), b, -h))
            d2[a, b] = d2[b, a] = (fpp - fpm - fmp + fmm) / (4 * h * h)
    B = wirtinger_from_real(n)
    d2 = B @ d2 @ B.T
    return f0, B @ d1, (d2 + d2.T) / 2


FD_METRICS = [name for name in catalog.names() if "(" not in name]
FD_METRICS += [f"random_polynomial({s})" for s in range(32)]


@pytest.mark.parametrize("name", FD_METRICS)
def test_fd_jet_matches_the_per_point_stencil(name):
    # bit for bit: whether the oracle's real-metric check raises depends
    # on the last bits of these jets
    m = catalog.get(name).metric
    for p in sample_points(m, 5, seed=42):
        gv, dg, ddg = fd_jet(m.values_at, p, m.n)
        for i, j in np.ndindex(m.n, m.n):
            value, d1, d2 = _per_point_fd_jet(m.entries[i][j], p, m.n)
            assert np.array_equal(gv[i, j], value), (i, j)
            assert np.array_equal(dg[i, j], d1), (i, j)
            assert np.array_equal(ddg[i, j], d2), (i, j)


# ----------------------------------------------------------------------
# nilker: the stacked rank search against one SVD per candidate
def _per_candidate_max_rank_element(family, rng, atol, samples=50):
    """The rank search as it ran before batching; also returns the chosen index."""
    candidates = list(np.eye(family.m))
    candidates += [
        rng.normal(size=family.m) + 1j * rng.normal(size=family.m) for _ in range(samples)
    ]
    best, best_index, best_rank = None, None, -1
    for index, c in enumerate(candidates):
        A = np.zeros((family.n, family.n), dtype=complex)
        for coeff, M in zip(c, family.matrices):
            A += coeff * M
        rank = nilker._numerical_rank(A, atol=atol)
        if rank > best_rank:
            best, best_index, best_rank = A, index, rank
    return best, best_rank, best_index


def _fixture_families(seed):
    """The 20 random families of the nilker suite at ``seed``."""
    rng = np.random.default_rng(seed + 2)
    for trial in range(20):
        if trial % 2 == 0:
            yield trial, nilker.random_general_family(rng)
        else:
            yield trial, nilker.family_from_torsion(nilker.random_torsion_tensor(rng))


def _assert_rank_search_matches_the_loop(fam, seed):
    """The rank search against the candidate loop from generators of ``seed``; returns the loop's
    index, whether the search drew and whether it ranked its draws.

    Both keep a candidate of the same rank, the same one up to roundoff.  The
    search leaves the generator untouched where a member reaches n // 2, and
    otherwise in the loop's state.
    """
    atol = 1e-9 * max(1.0, nilker._family_scale(fam))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ranked, ranks = [], nilker._ranks
    with mock.patch.object(nilker, "_ranks", lambda mats, tol: ranked.append(len(mats)) or ranks(mats, tol)):
        A, rank = nilker._max_rank_element(fam, got_rng, atol)
    want, want_rank, index = _per_candidate_max_rank_element(fam, want_rng, atol)
    assert rank == want_rank
    # candidates differ at O(1); the same one differs only by roundoff
    assert np.max(np.abs(A - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), index
    drew = index >= fam.m or want_rank < fam.n // 2
    state = want_rng if drew else np.random.default_rng(seed)
    assert got_rng.bit_generator.state == state.bit_generator.state
    return index, drew, len(ranked) == 2


@pytest.mark.parametrize("seed", [42, 43, 44, 45])
def test_max_rank_element_matches_the_candidate_loop(seed):
    # the fixtures' basis elements mostly reach the bound n // 2, which ends
    # the search before any draw; the two-block family's have rank 1 and a
    # random combination rank 2, so the search draws and keeps a drawn one
    families = list(_fixture_families(seed))
    families.append((20, nilker.family_from_torsion(nilker.two_block_chain_tensor())))
    draws = []
    for trial, fam in families:
        index, drew, _ = _assert_rank_search_matches_the_loop(fam, seed + trial)
        assert trial < 20 or index >= fam.m
        draws.append(drew)
    assert not all(draws) and draws[-1]


def _random_family(seed, kind, n):
    rng = np.random.default_rng(seed)
    if kind == "general":
        return nilker.random_general_family(rng, n=n, m=int(rng.integers(1, 5)))
    if kind == "torsion":
        return nilker.family_from_torsion(nilker.random_torsion_tensor(rng, n=n))
    if kind == "zero":  # rank 0 everywhere: the search draws
        return nilker.NilpotentFamily([np.zeros((n, n))] * 2)
    # scaled below atol = 1e-9, by 1e-14 to 1e-8: rank 0, and the draws' bound holds or not
    scale = 10.0 ** rng.uniform(-14, -8)
    return nilker.NilpotentFamily([scale * A for A in nilker.random_general_family(rng, n=n, m=2).matrices])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["general", "torsion", "zero", "tiny"]), st.integers(2, 8))
def test_max_rank_element_matches_the_candidate_loop_on_random_families(seed, kind, n):
    _assert_rank_search_matches_the_loop(_random_family(seed, kind, n), seed)


def test_the_rank_search_ranks_its_draws_unless_none_can_reach_atol():
    # the two-block family draws a combination of rank 2; the zero family and
    # families far below atol skip the stacked SVD and keep member 0 at rank
    # 0, and those just below atol rank their draws
    two_block = nilker.family_from_torsion(nilker.two_block_chain_tensor())
    assert _assert_rank_search_matches_the_loop(two_block, 0)[1:] == (True, True)
    searches = [_assert_rank_search_matches_the_loop(_random_family(seed, kind, 4), seed)
                for seed in range(8) for kind in ("zero", "tiny")]
    assert {ranked for _, drew, ranked in searches if drew} == {False, True}
    assert all(index == 0 for index, drew, ranked in searches if drew and not ranked)


def test_family_check_names_the_first_bad_pair():
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    D = np.diag([1.0, -1.0])  # anti-commutes with A and A.T, squares to 1
    with pytest.raises(nilker.InvalidFamilyError, match="anti-commutation violated by matrices 0, 1"):
        nilker.NilpotentFamily([A, A.T, D])  # pairs (1, 0) and (2, 2) fail
    with pytest.raises(nilker.InvalidFamilyError, match="square-zero violated by matrices 1, 1"):
        nilker.NilpotentFamily([A, D])


PARENT_SUITE_METRICS = ["iwasawa", "conformal_klike", "fubini_study_chart_n2", "random_polynomial(12)"]


def _parent_nilker(entry, points, cache, seed):
    """The nilker suite as it ran before batching: (residual, worst point) per check."""
    rng = np.random.default_rng(seed + 2)
    out = {}
    ch = cache(entry.metric, points[0])
    sym = nilker.torsion_symmetry_residual(ch.T)
    out["metric_torsion_symmetry"] = (sym, points[0])
    scale = float(np.max(np.abs(ch.T)))
    if sym < 1e-8 * (1.0 + scale**2) and scale > 1e-8:
        fam = nilker.family_from_torsion(ch.T)
        w1 = nilker.common_kernel_inductive(fam, seed=seed)
        w2 = nilker.common_kernel_constructive(fam, seed=seed)
        resid = max(fam.kernel_residual(w1), fam.kernel_residual(w2))
        member = nilker.oracle_contains(fam, w1) and nilker.oracle_contains(fam, w2)
        out["metric_family_kernel"] = (resid, points[0])
        out["metric_family_membership"] = (0.0 if member else 1.0, points[0])
    worst_res, worst_dim = -1.0, -1.0
    for trial in range(20):
        if trial % 2 == 0:
            fam = nilker.random_general_family(rng)
            vecs = [nilker.common_kernel_inductive(fam, seed=seed + trial)]
        else:
            fam = nilker.family_from_torsion(nilker.random_torsion_tensor(rng))
            vecs = [
                nilker.common_kernel_inductive(fam, seed=seed + trial),
                nilker.common_kernel_constructive(fam, seed=seed + trial),
            ]
        worst_dim = max(worst_dim, 1.0 if nilker.kernel_intersection_basis(fam).shape[1] < 1 else 0.0)
        for w in vecs:
            worst_res = max(worst_res, fam.kernel_residual(w))
            if not nilker.oracle_contains(fam, w):
                worst_res = 1.0
    out["fixture_kernel_residual"] = (worst_res, None)
    out["fixture_oracle_dimension"] = (worst_dim, None)
    return out


def _parent_conformal(entry, points):
    """The conformal suite as it ran before batching: single-point data per (point, exponent)."""
    base = entry.metric
    n = base.n
    out = {}
    for src in CONFORMAL_EXPONENTS:
        factor = ConformalFactor(parse(src, n), name=src)
        new = conformal_metric(base, factor)
        tag = src.replace(" ", "")
        for p in points[:5]:
            base_ch, new_ch = chern_at(base, p), chern_at(new, p)
            ujet = jet2(factor.u_expr, p)
            v = base_ch.Pv @ ujet.d1[:n]
            eye = np.eye(n)
            expected = base_ch.T + np.einsum("j,ik->ijk", v, eye) - np.einsum("k,ij->ijk", v, eye)
            torsion = np.max(np.abs(np.exp(ujet.value.real) * new_ch.T - expected))
            th1_0, th2_0 = levi_civita_frame_connection(base_ch, (base_ch.Pv, base_ch.dP))
            th1_1, th2_1 = levi_civita_frame_connection(new_ch, (new_ch.Pv, new_ch.dP))
            vtphi, phibar_vstar, vbar_tphi, phi_vstar = np.zeros((4, 2 * n, n, n), dtype=complex)
            for a in range(n):
                L = base_ch.Lv[a]
                vtphi[a] = np.outer(v, L)
                vbar_tphi[a] = np.outer(np.conj(v), L)
                phibar_vstar[n + a] = np.outer(np.conj(L), np.conj(v))
                phi_vstar[a] = np.outer(L, np.conj(v))
            for name, value in (
                ("torsion_transform", torsion),
                ("theta1_transform", np.max(np.abs(th1_1 - (th1_0 + vtphi - phibar_vstar)))),
                ("theta2_transform", np.max(np.abs(th2_1 - (th2_0 + vbar_tphi - phi_vstar)))),
            ):
                key = f"{name}[{tag}]"
                if value > out.get(key, (-1.0, None))[0]:
                    out[key] = (float(value), p)
    return out


@pytest.mark.parametrize("name", PARENT_SUITE_METRICS)
def test_run_nilker_and_conformal_match_the_parent_loops(name, monkeypatch):
    entry = catalog.get(name)
    seed = 42
    points = sample_points(entry.metric, 7, seed=seed)
    cache = GeometryCache()
    with monkeypatch.context() as patched:
        patched.setattr(nilker, "_max_rank_element", lambda *a, **k: _per_candidate_max_rank_element(*a, **k)[:2])
        want_nilker = _parent_nilker(entry, points, cache, seed)
    for (checks, _), want in (
        (_run("nilker", entry, points, suites.DEFAULT_TOLERANCES, seed), want_nilker),
        (_run("conformal", entry, points, suites.DEFAULT_TOLERANCES, seed), _parent_conformal(entry, points)),
    ):
        assert [c.name for c in checks] == list(want)
        for c in checks:
            residual, point = want[c.name]
            if np.isfinite(c.tol):
                assert abs(c.residual - residual) <= c.tol / 1000, c.name
            else:
                assert c.residual == residual, c.name
            if residual > 1e-13:  # below that, worst points are roundoff
                assert np.shares_memory(c.worst_point, point), c.name


# ----------------------------------------------------------------------
# the identities and oracle check tables against the per-point loops
_IDENTITY_ORDER = [
    "gray_vanishing", "riemann_symmetries", "structure_bianchi", "ddbar_omega_vs_torsion_curvature",
    "del_omega_vs_torsion", "balanced_trace", "theta2_two_route", "theta2_type", "theta2_vs_torsion",
    "curvature_type", "curvature_skew_hermitian", "dsigma2_trace", "sigma1_psd", "sigma2_psd",
    "covT_vs_chern", "mixed_20", "mixed_02", "riemann_vs_chern", "normal_frame_theta", "normal_frame_covT",
]
_CONDITIONAL = ["klike_ddbar_sigma", "klike_eta_holomorphic", "gklike_eta_trace"]


def _parent_identities(entry, points, cache, tols=suites.DEFAULT_TOLERANCES):
    """The identities suite as it ran before the check table: one point at a
    time, strict-max worst points, conditional checks where their flag holds."""
    from hermlab import chern, classify, levicivita

    m = entry.metric
    n = m.n
    worst = {}

    def update(name, value, p):
        if value > worst.get(name, (-1.0, None))[0]:
            worst[name] = (float(value), p)

    for idx, p in enumerate(points):
        ch = cache(m, p)
        update("gray_vanishing", levicivita.gray_residual(ch), p)
        update("riemann_symmetries", max(levicivita.symmetry_residuals(ch).values()), p)
        update("structure_bianchi", chern.bianchi_residual(ch), p)
        update("ddbar_omega_vs_torsion_curvature", chern.curvature_identity_residual(ch), p)
        update("del_omega_vs_torsion", chern.del_omega_residual(ch), p)
        update("balanced_trace", chern.balanced_identity_residual(ch), p)
        route, theta2 = levicivita.torsion_route(ch), levicivita.canonical_theta2(ch)
        update("theta2_two_route", levicivita.theta2_two_route_residual(ch, route[1]), p)
        update("theta2_type", levicivita.theta2_zero_one_part_residual(ch, theta2), p)
        update("theta2_vs_torsion", levicivita.theta2_matches_torsion_residual(ch, theta2), p)
        update("curvature_type", 0.0, p)
        update("curvature_skew_hermitian", chern.skew_hermitian_residual(ch), p)
        update("dsigma2_trace", levicivita.dsigma2_check(ch, route), p)
        S1, S2 = levicivita.sigma_matrices(ch)
        update("sigma1_psd", max(0.0, -float(np.linalg.eigvalsh(S1).min())), p)
        update("sigma2_psd", max(0.0, -float(np.linalg.eigvalsh(S2).min())), p)
        for name, value in classify.curvature_difference_suite(ch).items():
            update(name, value, p)
        flags = flag_residuals_at(ch)
        if flags["kahler_like"] < tols["flags"]:
            update("klike_ddbar_sigma", classify.klike_sigma_residual(ch), p)
            update("klike_eta_holomorphic", classify.holomorphic_eta_residual(ch), p)
        if flags["g_kahler_like"] < tols["flags"]:
            update("gklike_eta_trace", classify.eta_trace_residual(ch), p)
        if idx < 2:
            nf = chern.normal_frame_at(ch)
            update("normal_frame_theta", nf.theta_norm_at_base(), p)
            _, dT = nf.torsion_jets_at(p)
            raw_l = np.einsum("la,kija->kijl", ch.Pv, dT[..., :n])
            raw_lb = np.einsum("la,kija->kijl", np.conj(ch.Pv), dT[..., n:])
            dev = max(np.max(np.abs(raw_l - ch.covT)), np.max(np.abs(raw_lb - ch.covT_bar)))
            update("normal_frame_covT", dev, p)
    names = _IDENTITY_ORDER + [name for name in _CONDITIONAL if name in worst]
    return {name: (max(worst[name][0], 0.0), worst[name][1]) for name in names}


def _parent_oracle(entry, points, cache):
    """The FD oracle as it ran before the check table: one point at a time."""
    m = entry.metric
    worst = {}

    def update(name, value, p):
        if value > worst.get(name, (-1.0, None))[0]:
            worst[name] = (float(value), p)

    for p in points[:5]:
        ch = cache(m, p)
        gv, dg, ddg = fd_jet(m.values_at, p, m.n)
        update("jet_first_vs_fd", np.max(np.abs(dg - ch.dg)), p)
        update("jet_second_vs_fd", np.max(np.abs(ddg - ch.ddg)), p)
        ch_fd = chern_from_jets(m, np.asarray(p)[None], gv[None], dg[None], ddg[None]).at(0)
        update("torsion_vs_fd", np.max(np.abs(ch_fd.T - ch.T)), p)
        update("chern_curvature_vs_fd", np.max(np.abs(ch_fd.Rh - ch.Rh)), p)
        update("riemann_curvature_vs_fd", np.max(np.abs(ch_fd.Rc - ch.Rc)), p)
    return worst


def _table_cases():
    for name in ("iwasawa", "conformal_klike", "conformal_gklike", "random_polynomial(12)"):
        entry = catalog.get(name)
        yield pytest.param(entry, sample_points(entry.metric, CHUNK + 3, seed=42), id=name)
    for n in (4, 5):
        entry = catalog.CatalogEntry(perturbed_metric(n))
        rng = np.random.default_rng(n + 20)
        steps = rng.uniform(-1, 1, (CHUNK + 3, n)) + 1j * rng.uniform(-1, 1, (CHUNK + 3, n))
        yield pytest.param(entry, list(base_point(n) + 0.2 * steps), id=entry.name)


@pytest.mark.parametrize("entry,points", list(_table_cases()))
def test_run_identities_nilker_and_oracle_match_the_parent_loops(entry, points):
    seed = 42
    cache = GeometryCache()
    tols = suites.DEFAULT_TOLERANCES
    want_identities = _parent_identities(entry, points, cache)
    conditional = {"iwasawa": "klike_ddbar_sigma", "conformal_gklike": "gklike_eta_trace"}
    if entry.name in conditional:  # both kinds of conditional check appear
        assert conditional[entry.name] in want_identities
    got = suites.run_suites(entry, points, tols, ["identities", "nilker", "oracle"], seed)
    for (checks, _), want in (
        (got["identities"], want_identities),
        (got["nilker"], _parent_nilker(entry, points, cache, seed)),
        (got["oracle"], _parent_oracle(entry, points, cache)),
    ):
        assert [c.name for c in checks] == list(want)
        for c in checks:
            residual, point = want[c.name]
            if np.isfinite(c.tol):
                assert abs(c.residual - residual) <= c.tol / 1000, c.name
            else:
                assert c.residual == residual, c.name
            if residual > 1e-13:  # below that, worst points are roundoff
                assert np.shares_memory(c.worst_point, point), c.name
    # the normal frame is built at the first two points only
    frame = [c for c in got["identities"][0] if c.name.startswith("normal_frame")]
    assert len(frame) == 2 and all(any(np.shares_memory(c.worst_point, p) for p in points[:2]) for c in frame)


@pytest.mark.parametrize("flag", ["kahler_like", "g_kahler_like"])
def test_conditional_identities_apply_where_their_flag_holds(flag):
    # a flag tolerance at the median of the points' flag residuals: the
    # conditional checks reduce over the points where their flag holds only
    entry = catalog.get("random_polynomial(12)")
    points = sample_points(entry.metric, CHUNK + 3, seed=42)
    cache = GeometryCache()
    residuals = [flag_residuals_at(cache(entry.metric, p))[flag] for p in points]
    tols = dict(suites.DEFAULT_TOLERANCES, flags=float(np.median(residuals)))
    assert 0 < sum(r < tols["flags"] for r in residuals) < len(points)
    got, _ = _run("identities", entry, points, tols, 42)
    want = _parent_identities(entry, points, cache, tols)
    assert [c.name for c in got] == list(want)
    assert any(name in want for name in _CONDITIONAL)
    for c in got:
        residual, point = want[c.name]
        assert abs(c.residual - residual) <= c.tol / 1000, c.name
        if residual > 1e-13:
            assert np.shares_memory(c.worst_point, point), c.name
