import numpy as np
import pytest

from hermlab import catalog
from hermlab.chern import chern_at
from hermlab.classify import classify_at
from hermlab.conformal import (
    ConformalFactor,
    conformal_metric,
    connection_transform_residuals,
    gk_conformal_conditions,
    klike_conformal_conditions,
    torsion_transform_residual,
)
from hermlab.dsl import MetricField, parse
from hermlab.errors import HermlabError
from hermlab.geometry import sample_points

TOL = 1e-7


def _factor(src, n):
    return ConformalFactor(parse(src, n), name=src)


def _transform(base, f, points):
    """Base and scaled Chern data and the exponent's value and derivatives, one batch."""
    points = np.atleast_2d(points)
    new = chern_at(conformal_metric(base, f), points)
    return chern_at(base, points), new, f.u_values(points)


def _torsion_residual(base, f, points):
    return torsion_transform_residual(*_transform(base, f, points))


def _euclidean_shifted():
    return MetricField.from_text(
        "euclidean_shifted",
        2,
        ["1", "0", "0", "1"],
        box=[(0.3, 1.3, 0.3, 1.3), (0.3, 1.3, 0.3, 1.3)],
    )


def test_zero_exponent_is_identity(geo, metric):
    m = metric("euclidean")
    f = _factor("0", 2)
    p = np.array([0.2 + 0.3j, -0.1 + 0.4j])
    assert _torsion_residual(m, f, p).max() < 1e-14
    mc = conformal_metric(m, f)
    assert np.allclose(mc.values_at(p), m.values_at(p))


def test_constant_exponent_preserves_classification(metric):
    m = metric("iwasawa")
    mc = conformal_metric(m, _factor("1", 3), name="iwasawa_scaled")
    mc.box = m.box
    pts = sample_points(m, 4, seed=61)
    rep0 = classify_at(m, pts)
    rep1 = classify_at(mc, pts)
    for name in rep0.flags:
        assert rep0[name].value == rep1[name].value, name


def test_torsion_transformation_law(geo, metric):
    m = metric("euclidean")
    f = _factor("re(z1)", 2)
    assert np.all(_torsion_residual(m, f, sample_points(m, 5, seed=63)) < 1e-8)
    iw = metric("iwasawa")
    f3 = _factor("ln(1 + abs2(z1)) / 2", 3)
    assert np.all(_torsion_residual(iw, f3, sample_points(iw, 5, seed=65)) < 1e-8)


def test_connection_transformation_laws(geo, metric):
    m = metric("euclidean")
    f = _factor("re(z1)", 2)
    p = sample_points(m, 1, seed=67)[0]
    res = connection_transform_residuals(*_transform(m, f, p))
    assert res["theta1"].shape == (1,)
    assert res["theta1"] < 1e-8 and res["theta2"] < 1e-8

    gs = metric("gkl_surface")
    fs = _factor("ln(im(z2))", 2)
    p = sample_points(gs, 1, seed=69)[0]
    res = connection_transform_residuals(*_transform(gs, fs, p))
    assert res["theta1"] < 1e-8 and res["theta2"] < 1e-8


def test_nonreal_exponent_rejected():
    f = _factor("i*z1", 1)
    flat = MetricField.from_text("flat_line", 1, ["1"])  # has both curvature symmetries
    for criterion in (gk_conformal_conditions, klike_conformal_conditions):
        with pytest.raises(HermlabError, match="not real"):
            criterion(flat, f, [0.3 + 0.2j])
    with pytest.raises(HermlabError, match=r"not real at \[0\.3\+0\.2j\]"):
        f.u_values([[0j], [0.3 + 0.2j]])


def test_hessian_criterion_positive_control():
    # lambda = |z|^2 on a box excluding the origin: conditions hold and the
    # transformed metric keeps the Riemannian Kahler symmetry
    base = _euclidean_shifted()
    f = _factor("-ln(abs2(z1) + abs2(z2))", 2)
    for p in sample_points(base, 3, seed=71):
        cond = gk_conformal_conditions(base, f, p)
        assert cond["hessian_holomorphic"] < TOL
        assert cond["hessian_mixed"] < TOL
        assert cond["scalar_trace"] < TOL
        assert cond["harmonic_power"] < TOL
        assert cond["transformed_theta2"] < TOL


def test_hessian_criterion_negative_control():
    base = _euclidean_shifted()
    f = _factor("re(z1)", 2)
    p = sample_points(base, 1, seed=73)[0]
    cond = gk_conformal_conditions(base, f, p)
    assert cond["hessian_mixed"] > 1e-3
    assert cond["transformed_theta2"] > 1e-3


def test_hessian_criterion_inverse_direction():
    # undoing the |z|^{-4} factor returns to the flat metric; the criterion
    # must hold with the curved base metric's own connection
    base = catalog.get("conformal_gklike").metric
    f = _factor("ln(abs2(z1) + abs2(z2))", 2)
    p = sample_points(base, 1, seed=75)[0]
    cond = gk_conformal_conditions(base, f, p)
    assert cond["hessian_holomorphic"] < TOL
    assert cond["hessian_mixed"] < TOL
    assert cond["transformed_theta2"] < TOL


def test_hessian_criterion_requires_symmetric_base(geo, metric):
    m = metric("iwasawa")  # not G-Kahler-like
    p = sample_points(m, 1, seed=77)[0]
    with pytest.raises(HermlabError):
        gk_conformal_conditions(m, _factor("re(z1)", 3), p)


def test_pluriharmonic_criterion_controls(geo, metric):
    base = metric("conformal_klike")
    p = sample_points(base, 1, seed=79)[0]
    pos = klike_conformal_conditions(base, _factor("re(z2)", 2), p)
    assert pos["pluriharmonic"] < TOL and pos["transformed_kahler_like"] < TOL
    neg = klike_conformal_conditions(base, _factor("abs2(z1)", 2), p)
    assert neg["pluriharmonic"] > 1e-3 and neg["transformed_kahler_like"] > 1e-3


def test_biconditional_six_pairs():
    """Three positive and three negative controls across both criteria."""
    eu = _euclidean_shifted()
    kl = catalog.get("conformal_klike").metric
    gkl = catalog.get("conformal_gklike").metric
    gs = catalog.get("gkl_surface").metric

    pairs = [
        ("K", kl, "re(z2)", True),
        ("GK", eu, "-ln(abs2(z1) + abs2(z2))", True),
        ("GK", gkl, "ln(abs2(z1) + abs2(z2))", True),
        ("K", kl, "abs2(z1)", False),
        ("GK", eu, "re(z1)", False),
        ("GK", gs, "abs2(z1)", False),
    ]
    for branch, base, src, expect in pairs:
        f = _factor(src, base.n)
        p = sample_points(base, 1, seed=81)[0]
        criterion = klike_conformal_conditions if branch == "K" else gk_conformal_conditions
        res = criterion(base, f, p)
        if branch == "K":
            cond_ok = res["pluriharmonic"] < TOL
            flag_ok = res["transformed_kahler_like"] < TOL
        else:
            cond_ok = max(res["hessian_holomorphic"], res["hessian_mixed"]) < TOL
            flag_ok = res["transformed_theta2"] < TOL
        assert cond_ok == expect, (branch, src, res)
        assert flag_ok == expect, (branch, src, res)
        assert cond_ok == flag_ok

        # a batch of points gives the single-point residuals, one per point
        points = np.array(sample_points(base, 4, seed=83))
        batch = criterion(base, f, points)
        for i, q in enumerate(points):
            for key, value in criterion(base, f, q).items():
                assert np.shape(batch[key]) == (4,)
                assert abs(batch[key][i] - value) <= 1e-13, (branch, src, key)
