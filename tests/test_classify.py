import numpy as np
import pytest

from hermlab.classify import (
    KAHLER_IMPLIES,
    bothlike_residuals,
    classify_at,
    curvature_difference_suite,
    eta_trace_residual,
)
from hermlab.geometry import sample_points


def test_euclidean_all_flags_true(metric):
    m = metric("euclidean")
    rep = classify_at(m, sample_points(m, 5))
    assert all(f.value for f in rep.flags.values())


def test_kahler_implies_the_derived_flags(metric):
    # hermitian_flat is excluded: a curved Kahler metric is not flat
    for name in ["fubini_study_chart", "fubini_study_chart_n2"]:
        m = metric(name)
        rep = classify_at(m, sample_points(m, 4))
        assert rep["kahler"].value
        for other in KAHLER_IMPLIES:
            assert rep[other].value, other
        assert not rep["hermitian_flat"].value


def test_iwasawa_flags(metric):
    m = metric("iwasawa")
    rep = classify_at(m, sample_points(m, 6))
    assert not rep["kahler"].value
    assert rep["balanced"].value
    assert rep["kahler_like"].value
    assert rep["hermitian_flat"].value
    assert not rep["g_kahler_like"].value


def test_surface_flags(metric):
    m = metric("gkl_surface")
    rep = classify_at(m, sample_points(m, 6))
    assert rep["g_kahler_like"].value
    assert not rep["kahler"].value
    assert not rep["kahler_like"].value


def test_empty_point_list_rejected(metric):
    with pytest.raises(ValueError):
        classify_at(metric("euclidean"), [])


def test_report_serialization(metric):
    m = metric("euclidean")
    rep = classify_at(m, sample_points(m, 2))
    d = rep.as_dict()
    assert d["metric"] == "euclidean"
    assert set(d["flags"]) == {
        "kahler",
        "balanced",
        "kahler_like",
        "g_kahler_like",
        "pluriclosed",
        "hermitian_flat",
    }


def test_difference_identities_small_across_sweep(geo, metric):
    names = ["euclidean", "iwasawa", "gkl_surface", "conformal_klike",
             "conformal_gklike", "random_polynomial(21)", "random_polynomial(22)"]
    for name in names:
        m = metric(name)
        for p in sample_points(m, 4, seed=44):
            _, rd = geo(m, p)
            res = curvature_difference_suite(rd)
            assert max(res.values()) < 1e-7, (name, res)


def test_difference_identities_reduce_on_kahler(geo, metric):
    m = metric("fubini_study_chart_n2")
    p = sample_points(m, 1, seed=46)[0]
    ch, rd = geo(m, p)
    n = m.n
    # torsion terms vanish, so the mixed blocks vanish and R = R^h
    assert np.max(np.abs(ch.T)) < 1e-12
    assert np.max(np.abs(rd.Rc[:n, n:, :n, n:] - ch.Rh)) < 1e-8


def test_bothlike_identities_on_kahler_metric(geo, metric):
    m = metric("fubini_study_chart_n2")
    p = sample_points(m, 1, seed=48)[0]
    ch, _ = geo(m, p)
    res = bothlike_residuals(ch.T, ch.covT, ch.covT_bar)
    assert max(res.values()) < 1e-10


def test_bothlike_reported_but_nonzero_on_iwasawa(geo, metric):
    # the metric has the Chern symmetry but not the Riemannian one, so the
    # quadratic identities fail; the suite reports without asserting
    m = metric("iwasawa")
    p = sample_points(m, 1, seed=52)[0]
    ch, _ = geo(m, p)
    res = bothlike_residuals(ch.T)
    assert res["quad_full"] > 1e-2


def test_bothlike_negative_control_random_torsion():
    rng = np.random.default_rng(99)
    T = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    T = T - T.transpose(0, 2, 1)
    res = bothlike_residuals(T)
    assert res["quad_full"] > 1e-2


def test_eta_trace_identity_on_gkl_surface(geo, metric):
    m = metric("gkl_surface")
    for p in sample_points(m, 5, seed=54):
        ch, _ = geo(m, p)
        assert eta_trace_residual(ch) < 1e-7
        # the identity is nontrivial here: eta does not vanish
        assert np.max(np.abs(ch.eta)) > 1e-3


def test_nonkahler_metrics_split_curvature_tensors(geo, metric):
    # any sampled metric with visible torsion must show R != R^h somewhere
    for name in ["iwasawa", "gkl_surface", "conformal_klike"]:
        m = metric(name)
        found = False
        for p in sample_points(m, 5, seed=56):
            ch, rd = geo(m, p)
            if np.max(np.abs(ch.T)) > 1e-3:
                n = m.n
                diff = np.max(np.abs(rd.Rc[:n, n:, :n, n:] - ch.Rh))
                if diff > 1e-6:
                    found = True
        assert found, name
