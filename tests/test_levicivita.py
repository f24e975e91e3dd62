import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hermlab import catalog
from hermlab.chern import chern_at
from hermlab.dsl import parse
from hermlab.forms import Form, mat_wedge
from hermlab.geometry import sample_points
from hermlab.jets import Jet2
from hermlab.levicivita import (
    _real_metric_arrays,
    canonical_theta2,
    dsigma2_check,
    levi_civita_frame_connection,
    riemann_at,
    _sigma2_coefficients,
    sigma_matrices,
    theta2_matches_torsion_residual,
    theta2_gamma_forms,
    theta2_structure_route,
    theta2_two_route_residual,
    theta2_zero_one_part_residual,
    torsion_route,
)
from conftest import jet2
from test_highdim import base_point, perturbed_metric

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import generated_config  # noqa: E402


def test_euclidean_curvature_vanishes(geo, metric):
    _, rd = geo(metric("euclidean"), [0.3 - 0.2j, 0.1 + 0.5j])
    assert np.max(np.abs(rd.R4)) == 0.0
    assert np.max(np.abs(rd.Gamma)) == 0.0


def _christoffel_by_dgamma(G, dG, d2G):
    """Gamma and R4 by differentiating Gamma through the product rule on Gi, and lowering R^e_abc by G.

    The reference for :func:`christoffel_route`'s closed form.
    """
    Gi = np.linalg.inv(G)
    # sym[a, e, b] = d_a G_eb + d_b G_ea - d_e G_ab; Gamma[c, a, b] = Gamma^c_{ab}
    sym = dG + dG.swapaxes(-3, -1) - dG.swapaxes(-3, -2)
    Gi1 = Gi[..., None, :, :]
    Gamma = 0.5 * np.swapaxes(Gi1 @ sym, -3, -2)
    dGi = -(Gi1 @ dG @ Gi1)
    dsym = d2G + d2G.swapaxes(-3, -1) - d2G.swapaxes(-3, -2)
    dGamma = dGi[..., :, None, :, :] @ sym[..., None, :, :, :] + Gi1[..., None, :, :] @ dsym
    dGamma = 0.5 * np.swapaxes(dGamma, -3, -2)  # [e, c, a, b] = d_e Gamma^c_{ab}
    # R(d_a, d_b) d_c = Rup[e, a, b, c] d_e
    GG = np.einsum("...eaf,...fbc->...eabc", Gamma, Gamma)
    Rup = dGamma.swapaxes(-4, -3) - dGamma.swapaxes(-4, -3).swapaxes(-3, -2) + GG - GG.swapaxes(-3, -2)
    return Gamma, np.einsum("...eabc,...ed->...abcd", Rup, G)


def _frame_components_by_kronecker(W, R4):
    """Rc = M R4 M^T over slot pairs, with M = W (x) W: the reference for :func:`_frame_components`."""
    m = W.shape[-1]
    lead = W.shape[:-2]
    M = (W[..., :, None, :, None] * W[..., None, :, None, :]).reshape(lead + (m * m, m * m))
    return (M @ R4.reshape(lead + (m * m, m * m)) @ M.swapaxes(-2, -1)).reshape(R4.shape)


def _core_metric(name):
    if name.startswith("hd"):
        return catalog.from_config(generated_config(name)).metric
    return catalog.get(name).metric


@pytest.mark.parametrize("name", [*catalog.names()[:-1], "random_polynomial(12)", "hd4-0", "hd5-0"])
def test_closed_form_core_matches_the_derivative_of_gamma(name):
    metric = _core_metric(name)
    ch = chern_at(metric, sample_points(metric, 8, seed=24))
    G, dG, d2G = _real_metric_arrays(ch.gv, ch.dg, ch.ddg)
    Gamma, R4 = _christoffel_by_dgamma(G, dG, d2G)
    Rc = _frame_components_by_kronecker(ch.W, R4)
    assert np.array_equal(ch.Gamma, Gamma)
    # conformal_gklike is flat: its curvature is the roundoff of terms the size of d2G
    scale = max(np.abs(R4).max(), np.abs(d2G).max())
    for got, want in ((ch.R4, R4), (ch.Rc, Rc)):
        assert np.abs(got - want).max() <= 1e-13 * scale
    # the ebar rows are the conjugates of the e rows with the other slots barred
    n = metric.n
    bar = np.roll(Rc[:, :n], n, axis=(-3, -2, -1)).conj()
    assert np.abs(Rc[:, n:] - bar).max() <= 1e-13 * scale


def test_fubini_study_kahler_agreement(geo, metric):
    # on a Kahler metric the two curvature tensors coincide
    m = metric("fubini_study_chart")
    for p in sample_points(m, 5, seed=2):
        ch, rd = geo(m, p)
        assert abs(rd.R_11bar()[0, 0, 0, 0] - ch.Rh[0, 0, 0, 0]) < 1e-8
    m2 = metric("fubini_study_chart_n2")
    for p in sample_points(m2, 3, seed=2):
        ch, rd = geo(m2, p)
        # full block comparison, slots aligned as [k, l, i, j]
        diff = rd.Rc[: m2.n, m2.n :, : m2.n, m2.n :] - ch.Rh
        assert np.max(np.abs(diff)) < 1e-8


def test_gkl_surface_mixed_curvature_block_vanishes(geo, metric):
    m = metric("gkl_surface")
    rng = np.random.default_rng(50)
    pts = []
    while len(pts) < 50:
        p = np.array(
            [
                rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9),
                rng.uniform(-0.9, 0.9) + 1j * rng.uniform(0.1, 1.1),
            ]
        )
        pts.append(p)
    for p in pts:
        rd = riemann_at(chern_at(m, p))
        assert rd.theta2_norm() < 1e-9


def test_full_riemann_symmetries(geo, metric):
    for name in ["iwasawa", "gkl_surface", "random_polynomial(11)"]:
        m = metric(name)
        p = sample_points(m, 1, seed=4)[0]
        _, rd = geo(m, p)
        assert max(rd.symmetry_residuals().values()) < 1e-8


def test_gray_vanishing_everywhere(geo, metric):
    names = ["euclidean", "iwasawa", "gkl_surface", "conformal_klike",
             "conformal_gklike", "random_polynomial(12)"]
    for name in names:
        m = metric(name)
        for p in sample_points(m, 3, seed=6):
            _, rd = geo(m, p)
            assert rd.gray_residual() < 1e-8


def test_theta2_two_routes_agree(geo, metric):
    for name in ["iwasawa", "gkl_surface", "conformal_gklike", "random_polynomial(13)"]:
        m = metric(name)
        for p in sample_points(m, 3, seed=8):
            ch, rd = geo(m, p)
            assert theta2_two_route_residual(ch, rd, torsion_route(ch)[1]) < 1e-7


def test_theta2_has_no_antiholomorphic_part(geo, metric):
    m = metric("iwasawa")
    p = sample_points(m, 1, seed=10)[0]
    _, rd = geo(m, p)
    assert theta2_zero_one_part_residual(rd, canonical_theta2(rd)) < 1e-9
    assert theta2_matches_torsion_residual(rd, canonical_theta2(rd)) < 1e-9


def test_theta2_gamma_report(geo, metric):
    from hermlab.levicivita import theta2_gamma_check

    ch, rd = geo(metric("euclidean"), [0.1 + 0.1j, 0.2 - 0.3j])
    rep = theta2_gamma_check(ch, rd)
    assert rep["theta2_vs_christoffel"] == 0.0
    assert rep["sigma2_min_eig"] >= -1e-10

    m = metric("iwasawa")
    ch, rd = geo(m, sample_points(m, 1, seed=20)[0])
    rep = theta2_gamma_check(ch, rd)
    assert rep["theta2_vs_christoffel"] < 1e-7
    assert rep["sigma1_min_eig"] >= -1e-10


def test_sigma_forms_nonnegative(geo, metric):
    for name in ["iwasawa", "gkl_surface", "conformal_klike", "random_polynomial(14)"]:
        m = metric(name)
        p = sample_points(m, 1, seed=12)[0]
        ch, _ = geo(m, p)
        S1, S2 = sigma_matrices(ch)
        assert np.linalg.eigvalsh(S1).min() >= -1e-10
        assert np.linalg.eigvalsh(S2).min() >= -1e-10
        # sigma_2 = i sum H_ab dz_a ^ dzbar_b agrees with the matrix route up to
        # the coframe change, and has no component outside the (1,1) block
        n = ch.n
        H = _sigma2_coefficients(ch)[0]
        assert not np.any(H[:n, :n]) and not np.any(H[n:])
        Lv = ch.Lv
        expected = Lv @ S2 @ Lv.conj().T
        assert np.max(np.abs(-1j * H[:n, n:] - expected)) < 1e-10


def test_dsigma2_trace_identity(geo, metric):
    for name in ["euclidean", "iwasawa", "gkl_surface"]:
        m = metric(name)
        p = sample_points(m, 1, seed=14)[0]
        ch, _ = geo(m, p)
        assert dsigma2_check(ch, torsion_route(ch)) < 1e-5
        assert dsigma2_check(ch, torsion_route(ch), use_fd=True) < 1e-5


def _torsion_geometry(geo, metric, n):
    """(ch, rd) on a torsionful metric: iwasawa at n = 3, a generated one above."""
    if n == 3:
        m = metric("iwasawa")
        return geo(m, sample_points(m, 1, seed=20)[0])
    return geo(perturbed_metric(n), base_point(n))


def _antisymmetric_noise(shape, seed, size=1e-3):
    """Complex noise of the given size, antisymmetric in axes 1 and 2 like T."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    return size / 2 * (X - X.swapaxes(1, 2))


@pytest.mark.parametrize("n", [3, 5])
def test_theta2_two_route_detects_perturbed_torsion(geo, metric, n):
    ch, rd = _torsion_geometry(geo, metric, n)
    assert theta2_two_route_residual(ch, rd, torsion_route(ch)[1]) < 1e-7
    bad = replace(ch, T=ch.T + _antisymmetric_noise(ch.T.shape, seed=n))
    assert theta2_two_route_residual(bad, rd, torsion_route(bad)[1]) > 1e-6


@pytest.mark.parametrize("n", [3, 5])
def test_dsigma2_fd_detects_perturbed_torsion_derivative(geo, metric, n):
    # the finite-difference side sees the metric, the right side the data
    ch, _ = _torsion_geometry(geo, metric, n)
    assert dsigma2_check(ch, torsion_route(ch), use_fd=True) < 1e-5
    bad = replace(ch)  # dT is computed on first read, not passed: set it on a copy
    bad.dT = ch.dT + _antisymmetric_noise(ch.dT.shape, seed=n)
    assert dsigma2_check(bad, torsion_route(bad), use_fd=True) > 1e-5


def _theta2_by_form_algebra(ch):
    """Theta_2 = d theta_2 - theta_2 ^ theta_1 - conj(theta_1) ^ theta_2 on jet Forms.

    T and L enter as order-1 jets, so d theta_2 comes from the jet algebra;
    returns the sorted-basis coefficients as an antisymmetric [i, j, a, b]
    array.
    """
    n = ch.n

    def jets(values, d1):
        out = np.empty(values.shape, dtype=object)
        for idx in np.ndindex(values.shape):
            out[idx] = Jet2(n, values[idx], d1[idx], None, 1)
        return out

    T, L = jets(ch.T, ch.dT), jets(ch.Lv, ch.dL)
    theta2 = [[Form(n, 1) for _ in range(n)] for _ in range(n)]
    theta1 = [[Form(n, 1) for _ in range(n)] for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        for c in range(2 * n):
            value = Jet2(n, ch.theta_u_vals[c, i, j], None, None, 0)
            theta1[i][j] = theta1[i][j] + Form(n, 1, {(c,): value})
        for k, a in itertools.product(range(n), repeat=2):
            theta2[i][j] = theta2[i][j] + Form(n, 1, {(a,): T[k, i, j].conj() * L[a, k]})
            theta1[i][j] = theta1[i][j] + Form(n, 1, {(a,): T[j, i, k] * L[a, k]})
            theta1[i][j] = theta1[i][j] - Form(
                n, 1, {(n + a,): T[i, j, k].conj() * L[a, k].conj()}
            )
    t2t1 = mat_wedge(theta2, theta1)
    t1bar_t2 = mat_wedge([[f.conj() for f in row] for row in theta1], theta2)
    out = np.zeros((n, n, 2 * n, 2 * n), dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        form = theta2[i][j].exterior_d() - t2t1[i][j] - t1bar_t2[i][j]
        for (a, b), jet in form.coeffs.items():
            out[i, j, a, b], out[i, j, b, a] = jet.value, -jet.value
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_dense_theta2_matches_form_algebra(geo, metric, n):
    # pins the slot order, the conjugations and the wedge signs of the
    # dense structure equation against the Form primitives
    if n == 3:
        m = metric("random_polynomial(7)")
        ch, _ = geo(m, sample_points(m, 1, seed=22)[0])
    else:
        ch, _ = _torsion_geometry(geo, metric, n)
    reference = _theta2_by_form_algebra(ch)
    assert np.max(np.abs(reference)) > 1e-3
    dense = theta2_structure_route(ch, theta2_gamma_forms(ch))
    dense = dense - dense.transpose(0, 1, 3, 2)
    assert np.max(np.abs(dense - reference)) < 1e-13


def test_gkl_equivalence_theta2_blocks(geo, metric):
    # the mixed blocks vanish together with the remaining symmetry defect
    m = metric("conformal_gklike")
    p = sample_points(m, 1, seed=16)[0]
    _, rd = geo(m, p)
    n = m.n
    assert rd.theta2_norm() < 1e-8 * (1 + np.max(np.abs(rd.Rc)))
    # on such points R_{i jbar k lbar} = R_{k jbar i lbar}
    blk = rd.R_11bar()
    assert np.max(np.abs(blk - blk.transpose(2, 1, 0, 3))) < 1e-7 * (
        1 + np.max(np.abs(blk))
    )


def test_surface_closed_form_connection_blocks(geo, metric):
    # the warped metric diag((2 Im z2)^2, 1) has, in the coordinate frame,
    # theta_2 = [[0, -lam*nu], [nu, 0]] with nu = u_zbar2 dz1, lam = e^{2u}
    m = metric("gkl_surface")
    p = np.array([0.35 - 0.6j, 0.4 + 0.8j])
    rd = riemann_at(chern_at(m, p))
    n = 2
    coord_frame = (np.eye(n), np.zeros((n, n, 2 * n)))
    th1, th2 = levi_civita_frame_connection(rd, coord_frame)
    u = jet2(parse("ln(-i*z2 + i*conj(z2))", n), p)
    lam = np.exp(2 * u.value)
    u2 = u.d1[1]
    u2b = u.d1[3]
    # theta_2 entries: only the dz1 slot is populated
    expect = np.zeros((2 * n, n, n), dtype=complex)
    expect[0, 0, 1] = -lam * u2b
    expect[0, 1, 0] = u2b
    assert np.max(np.abs(th2 - expect)) < 1e-10
    # theta_1 diagonal carries du = u2 dz2 + u2b dzbar2
    assert th1[1, 0, 0] == pytest.approx(u2, abs=1e-10)
    assert th1[n + 1, 0, 0] == pytest.approx(u2b, abs=1e-10)
    assert th1[0, 1, 0] == pytest.approx(u2, abs=1e-10)  # mu = u2 dz1
    # -lam mubar is a (0,1) form: it sits in the dzbar1 slot
    assert th1[n + 0, 0, 1] == pytest.approx(-lam * np.conj(u2), abs=1e-10)


def test_ricci_and_scalar_consistency(geo, metric):
    # trace consistency: Scal equals the double Ricci trace
    m = metric("fubini_study_chart")
    p = sample_points(m, 1, seed=18)[0]
    _, rd = geo(m, p)
    assert rd.Scal == pytest.approx(
        float(np.einsum("ab,ab->", rd.Gi, rd.Ric)), rel=1e-12
    )
