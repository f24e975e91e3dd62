import contextlib
import io
import re

import numpy as np
import pytest

from hermlab import catalog, chern, cli
from hermlab.chern import (
    _coefficients,
    balanced_identity_residual,
    bianchi_residual,
    chern_at,
    curvature_identity_residual,
    del_omega_residual,
    delbar_eta_residual,
    kahler_like_residual,
    normal_frame_at,
    skew_hermitian_residual,
    theta_wedge_phi_residual,
)
from hermlab.fd import fd_direction_derivative
from hermlab.geometry import chunk_size, sample_points


def test_euclidean_everything_vanishes(geo, metric):
    ch, _ = geo(metric("euclidean"), [0.3 + 0.1j, -0.2 + 0.4j])
    assert np.max(np.abs(ch.T)) == 0.0
    assert np.max(np.abs(ch.Rh)) == 0.0
    assert np.max(np.abs(ch.eta)) == 0.0
    assert np.max(np.abs(ch.covT)) == 0.0


def test_iwasawa_flat_balanced_with_torsion(geo, metric):
    m = metric("iwasawa")
    for p in sample_points(m, 5, seed=21):
        ch, _ = geo(m, p)
        assert np.max(np.abs(ch.Rh)) < 1e-9
        assert np.max(np.abs(ch.eta)) < 1e-9
        # the torsion norm is frame independent
        assert ch.torsion_norm_sq() == pytest.approx(0.5, abs=1e-12)


def test_iwasawa_torsion_component_on_invariant_slice(geo, metric):
    # at z1 = 0 the canonical frame coincides with the invariant coframe
    # (dz1, dz2, dz3 - z1 dz2), whose third element differentiates to
    # -dz1^dz2; the all-ordered-pairs convention then reads off -1/2
    m = metric("iwasawa")
    ch, _ = geo(m, [0j, 0.25 + 0.1j, -0.3 + 0.65j])
    assert ch.T[2, 0, 1] == pytest.approx(-0.5, abs=1e-12)
    assert ch.T[2, 1, 0] == pytest.approx(0.5, abs=1e-12)


def test_torsion_antisymmetry_exact(geo, metric):
    m = metric("random_polynomial(3)")
    for p in sample_points(m, 3, seed=5):
        ch, _ = geo(m, p)
        assert np.max(np.abs(ch.T + ch.T.transpose(0, 2, 1))) == 0.0


def test_structure_bianchi_on_catalog(geo, metric):
    for name in ["iwasawa", "gkl_surface", "conformal_klike", "random_polynomial(4)"]:
        m = metric(name)
        for p in sample_points(m, 4, seed=11):
            ch, _ = geo(m, p)
            assert bianchi_residual(ch) < 1e-8


def test_curvature_type_and_skew_hermitian(geo, metric):
    for name in ["fubini_study_chart_n2", "gkl_surface", "random_polynomial(6)"]:
        m = metric(name)
        p = sample_points(m, 1, seed=3)[0]
        ch, _ = geo(m, p)
        # the (2,0) part of d theta - theta ^ theta vanishes: Theta = delbar theta is all of it
        n = ch.n
        X = np.moveaxis(ch.dtheta[..., :n], -1, 0) - np.einsum("cik,akj->caij", ch.theta, ch.theta)
        assert np.abs(_coefficients(np.moveaxis(X, (0, 1), (-2, -1)), 2, 0)).max() < 1e-10
        assert skew_hermitian_residual(ch) < 1e-10


def test_kahler_like_iff_theta_wedge_phi(geo, metric):
    # the component symmetry residual and the wedge residual vanish together
    for name, expect_zero in [("conformal_klike", True), ("gkl_surface", False)]:
        m = metric(name)
        p = sample_points(m, 1, seed=9)[0]
        ch, _ = geo(m, p)
        comp = kahler_like_residual(ch)
        wedge = theta_wedge_phi_residual(ch)
        if expect_zero:
            assert comp < 1e-10 and wedge < 1e-10
        else:
            assert comp > 1e-3 and wedge > 1e-3


def test_curvature_identity_eq_ddbar_omega(geo, metric):
    for name in ["iwasawa", "gkl_surface", "random_polynomial(7)"]:
        m = metric(name)
        for p in sample_points(m, 3, seed=13):
            ch, _ = geo(m, p)
            assert curvature_identity_residual(ch) < 1e-8
            assert del_omega_residual(ch) < 1e-8


def test_balanced_identity_on_iwasawa(geo, metric):
    m = metric("iwasawa")
    for p in sample_points(m, 20, seed=17):
        ch, _ = geo(m, p)
        assert balanced_identity_residual(ch) < 1e-9


def test_klike_content_on_scaled_flat_metric(geo, metric):
    # Kahler-like: i del delbar omega = sigma and eta is holomorphic
    from hermlab.classify import klike_sigma_residual

    m = metric("conformal_klike")
    for p in sample_points(m, 5, seed=19):
        ch, _ = geo(m, p)
        assert klike_sigma_residual(ch) < 1e-8
        assert delbar_eta_residual(ch) < 1e-8


def test_covderiv_identity_on_klike_metric(geo, metric):
    # 2 T^k_{ij,lbar} agrees with the Chern curvature antisymmetrization
    m = metric("conformal_klike")
    p = sample_points(m, 1, seed=23)[0]
    ch, _ = geo(m, p)
    lhs = 2 * ch.covT_bar
    rhs = np.einsum("jlik->kijl", ch.Rh) - np.einsum("iljk->kijl", ch.Rh)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_covderiv_euclidean_zero(geo, metric):
    ch, _ = geo(metric("euclidean"), [0.1 + 0.2j, 0.3 - 0.4j])
    assert np.max(np.abs(ch.covT)) == 0.0
    assert np.max(np.abs(ch.covT_bar)) == 0.0


def test_covderiv_against_fd_transport(geo, metric):
    # finite differences of the normal-frame torsion field reproduce the
    # connection-corrected derivatives at the base point
    m = metric("iwasawa")
    rng = np.random.default_rng(31)
    for p in sample_points(m, 3, seed=29):
        ch, _ = geo(m, p)
        nf = normal_frame_at(ch)
        n = m.n
        for l in range(n):
            e_l = ch.Pv[l]  # frame direction in coordinates
            d_hol = fd_direction_derivative(
                lambda q: nf.torsion_values_at(q), p, e_l, h=1e-5
            )
            d_anti = fd_direction_derivative(
                lambda q: nf.torsion_values_at(q), p, 1j * e_l, h=1e-5
            )
            # e_l = (d/dt along e_l - i d/dt along i e_l) / 2
            fd_el = (d_hol - 1j * d_anti) / 2
            fd_elbar = (d_hol + 1j * d_anti) / 2
            assert np.max(np.abs(fd_el - ch.covT[:, :, :, l])) < 1e-5
            assert np.max(np.abs(fd_elbar - ch.covT_bar[:, :, :, l])) < 1e-5


def test_normal_frame_euclidean_is_cholesky(geo, metric):
    m = metric("euclidean")
    p = np.array([0.2 + 0.1j, -0.4 + 0.3j])
    nf = normal_frame_at(chern_at(m, p))
    F, _ = nf.frame_jets(p)
    assert np.allclose(F, np.eye(2))


def test_normal_frame_kills_connection(geo, metric):
    for name in ["iwasawa", "gkl_surface", "random_polynomial(8)"]:
        m = metric(name)
        p = sample_points(m, 1, seed=37)[0]
        nf = normal_frame_at(chern_at(m, p))
        assert nf.theta_norm_at_base() < 1e-9


def test_normal_frame_covderiv_equals_raw_derivative(geo, metric):
    m = metric("gkl_surface")
    p = sample_points(m, 1, seed=41)[0]
    ch, _ = geo(m, p)
    nf = normal_frame_at(ch)
    _, dT = nf.torsion_jets_at(p)
    n = m.n
    raw_l = np.einsum("la,kija->kijl", ch.Pv, dT[..., :n])
    raw_lb = np.einsum("la,kija->kijl", np.conj(ch.Pv), dT[..., n:])
    assert np.max(np.abs(raw_l - ch.covT)) < 1e-7
    assert np.max(np.abs(raw_lb - ch.covT_bar)) < 1e-7


def test_dense_coefficients_match_form_algebra(geo, metric):
    # the dense coefficient tensors against the jet Form algebra on forms
    # that do not vanish: i del delbar omega and del(omega^{n-1})
    import dataclasses

    from hermlab.chern import ddbar_omega_residual
    from hermlab.forms import Form
    from hermlab.jets import Jet2

    for name in ["gkl_surface", "random_polynomial(7)"]:
        m = metric(name)
        p = sample_points(m, 1, seed=43)[0]
        ch, _ = geo(m, p)
        n = m.n
        g = {(a, b): Jet2(n, ch.gv[a, b], ch.dg[a, b], ch.ddg[a, b]) for a in range(n) for b in range(n)}
        omega = Form(n, 2, {(a, n + b): g[a, b] * 1j for a in range(n) for b in range(n)})
        ddbar = omega.exterior_d(part="delbar").exterior_d(part="del").scale(1j)
        assert ddbar.max_abs() > 1e-3
        assert ddbar_omega_residual(ch) == pytest.approx(ddbar.max_abs(), rel=1e-12)
        power = omega
        for _ in range(n - 2):
            power = power.wedge(omega)
        del_power = power.exterior_d(part="del").max_abs()
        no_eta = dataclasses.replace(ch, eta=np.zeros(n))
        assert del_power > 1e-3
        # reported relative to the metric's scale s^(n-1), s the power of two above max |g_ij|
        s = 2.0 ** np.frexp(np.abs(ch.gv).max())[1]
        assert balanced_identity_residual(no_eta) == pytest.approx(del_power / s ** (n - 1), rel=1e-12)


def test_chern_at_rejects_bad_metric_jets(metric):
    # the jet check of the evaluated metric, at the FD oracle's tolerance
    from hermlab.chern import chern_from_jets
    from hermlab.fd import OVERRIDE_HERMITIAN_TOL
    from hermlab.errors import DegenerateMetricError
    from hermlab.levicivita import riemann_at

    m = metric("gkl_surface")
    p = np.array([0.1 + 0.2j, 0.1 + 0.5j])

    def check(points, *jets):
        m.check_jets(points, *jets, OVERRIDE_HERMITIAN_TOL)

    gv, dg, ddg = m.evaluate(p[None])
    check(p[None], gv, dg, ddg)  # the evaluated jets pass
    skewed = gv.copy()
    skewed[0, 0, 1] += 1e-3
    skewed_d2 = ddg.copy()
    skewed_d2[0, 0, 1, 0, 2] += 1e-3  # a second-derivative slot alone
    indefinite = [x.copy() for x in (gv, dg, ddg)]
    indefinite[0][0, 1, 1] = -1.0  # the constant jet -1
    indefinite[1][0, 1, 1] = indefinite[2][0, 1, 1] = 0.0
    with pytest.raises(DegenerateMetricError, match="not Hermitian"):
        check(p[None], skewed, dg, ddg)
    with pytest.raises(DegenerateMetricError, match="not Hermitian"):
        check(p[None], gv, dg, skewed_d2)
    with pytest.raises(DegenerateMetricError, match="not positive definite"):
        check(p[None], *indefinite)

    # a batch is checked point by point, and names the first bad point
    points = np.array([p, p + 0.05, p - 0.1j])
    batch = m.evaluate(points)
    skewed = [x.copy() for x in batch]
    skewed[0][2, 0, 1] += 1e-3
    with pytest.raises(DegenerateMetricError, match="not Hermitian at " + re.escape(str(points[2]))):
        check(points, *skewed)
    # and the Chern core on a batch of jets gives each point's bit for bit
    ch = chern_from_jets(m, points, *batch)
    rd = riemann_at(ch)
    for i, q in enumerate(points):
        one = chern_from_jets(m, q[None], *(x[i : i + 1] for x in batch)).at(0)
        assert np.array_equal(ch.T[i], one.T) and np.array_equal(ch.Rh[i], one.Rh)
        assert np.array_equal(rd.Rc[i], riemann_at(one).Rc)


def test_normal_frame_evaluates_the_metric_once_per_call(metric, monkeypatch):
    # at the base point the frame reuses the metric arrays of the Chern data;
    # elsewhere the connection and the frame share one evaluation
    m = metric("iwasawa")
    p = sample_points(m, 1, seed=37)[0]
    nf = normal_frame_at(chern_at(m, p))
    evaluated = []
    evaluate = m.evaluate
    monkeypatch.setattr(m, "evaluate", lambda q: evaluated.append(q) or evaluate(q))
    nf.theta_norm_at_base()
    nf.torsion_jets_at(p)
    assert evaluated == []
    q = p + 0.01
    for method in (nf.frame_jets, nf.connection_values_at, nf.torsion_jets_at):
        method(q)
    assert len(evaluated) == 3


# the derivative-level arrays of ChernData, computed on first read
DERIVED = ("dL", "dP", "dT", "theta_u_vals", "covT", "covT_bar")
# the functions that compute them; _torsion_derivatives is the dT part of frame_torsion
DERIVED_BY = ("cholesky_frame", "frame_connection_values", "_torsion_derivatives", "covderiv_torsion")


def _count_calls(monkeypatch, names=DERIVED_BY):
    """{name: calls} of the ``hermlab.chern`` functions ``names``, counted from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _name=name, _original=getattr(chern, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(chern, name, counted)
    return calls


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["--metric", "iwasawa", "--points", "40", *argv])


def test_a_classify_run_computes_no_derivative_level_data(monkeypatch):
    calls = _count_calls(monkeypatch)
    assert _run("--suite", "classify") == 0
    assert calls == dict.fromkeys(DERIVED_BY, 0)


def test_an_identities_run_computes_each_derived_array_once_per_chunk(monkeypatch):
    calls = _count_calls(monkeypatch)
    assert _run("--suite", "identities") == 0
    chunks = -(-40 // chunk_size(3))
    # plus the normal frame's own connection and torsion derivatives at the first two points
    assert calls == {
        "cholesky_frame": chunks,
        "frame_connection_values": chunks + 1,
        "_torsion_derivatives": chunks + 1,
        "covderiv_torsion": chunks,
    }


def test_at_carries_the_computed_arrays_without_a_new_call(monkeypatch):
    m = catalog.get("iwasawa").metric
    points = np.array(sample_points(m, 5, seed=3))
    ch = chern_at(m, points)
    whole = {name: getattr(ch, name) for name in DERIVED}
    calls = _count_calls(monkeypatch)
    part = ch.at(slice(0, 2))
    got = {name: getattr(part, name) for name in DERIVED}
    assert calls == dict.fromkeys(DERIVED_BY, 0)
    fresh = chern_at(m, points[:2])
    for name in DERIVED:
        assert np.shares_memory(got[name], whole[name]), name
        assert np.array_equal(got[name], getattr(fresh, name)), name


@pytest.mark.parametrize("first", ["covT", "dL", "theta_u_vals"])
def test_one_point_gives_the_derived_arrays_of_the_batch_of_one(first):
    m = catalog.get("iwasawa").metric
    p = sample_points(m, 1, seed=5)[0]
    one, batch = chern_at(m, p), chern_at(m, p[None])
    getattr(one, first)
    for name in DERIVED:
        assert np.array_equal(getattr(one, name), getattr(batch, name)[0]), name
