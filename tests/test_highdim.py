"""Chern identities and the closed-form Cholesky derivative at n = 4 and 5."""

import numpy as np
import pytest

from hermlab.chern import (
    balanced_identity_residual,
    bianchi_residual,
    chern_at,
    cholesky_frame,
    curvature_identity_residual,
    del_omega_residual,
    skew_hermitian_residual,
)
from hermlab.dsl import MetricField, real_from_wirtinger
from hermlab.levicivita import dsigma2_check, riemann_at, theta2_two_route_residual, torsion_route

# the identities suite's "exact", "two_route" and "fd" tolerances
EXACT = 1e-8
TWO_ROUTE = 1e-6
FD = 1e-5


def perturbed_metric(n):
    """Identity plus a small Hermitian perturbation with torsion.

    The holomorphic linear terms in the off-diagonal entries make
    d_a g_{bc} differ from d_b g_{ac}, so the Chern torsion is nonzero.
    """
    texts = [["0"] * n for _ in range(n)]
    for i in range(n):
        texts[i][i] = f"1 + 0.08*abs2(z{i + 1}) + 0.05*abs2(z{(i + 1) % n + 1})"
        for j in range(i + 1, n):
            src = f"0.04*z{i + 1} - 0.03*i*conj(z{j + 1}) + 0.02*z{i + 1}*conj(z{j + 1})"
            texts[i][j] = src
            texts[j][i] = f"conj({src})"
    return MetricField.from_text(f"perturbed{n}", n, [t for row in texts for t in row])


def base_point(n):
    rng = np.random.default_rng(n)
    return rng.uniform(-0.6, 0.6, n) + 1j * rng.uniform(-0.6, 0.6, n)


@pytest.mark.parametrize("n", [4, 5])
def test_chern_identities(n):
    m = perturbed_metric(n)
    p = base_point(n)
    ch = chern_at(m, p)
    rd = riemann_at(ch)
    assert np.max(np.abs(ch.T)) > 1e-2  # the torsion identities are not vacuous
    assert bianchi_residual(ch) < EXACT
    assert curvature_identity_residual(ch) < EXACT
    assert del_omega_residual(ch) < EXACT
    assert balanced_identity_residual(ch) < EXACT
    assert skew_hermitian_residual(ch) < EXACT
    route = torsion_route(ch)
    assert theta2_two_route_residual(ch, rd, route[1]) < TWO_ROUTE
    assert dsigma2_check(ch, route) < FD
    assert dsigma2_check(ch, route, use_fd=True) < FD


@pytest.mark.parametrize("n", [4, 5])
def test_cholesky_derivative_against_central_differences(n):
    # reference: central differences of numpy's Cholesky factor along each
    # real coordinate, independent of both jet paths
    m = perturbed_metric(n)
    p = base_point(n)
    gv, dg, _ = m.evaluate(p)
    L = np.linalg.cholesky(gv)
    dL, dP = cholesky_frame(L, np.linalg.inv(L), dg)
    C = real_from_wirtinger(n)
    dL_real = np.einsum("rc,ijc->ijr", C, dL)
    dP_real = np.einsum("rc,ijc->ijr", C, dP)
    h = 1e-5
    for r in range(2 * n):
        step = np.zeros(n, dtype=complex)
        step[r // 2] = 1j * h if r % 2 else h
        Lp = np.linalg.cholesky(m.values_at(p + step))
        Lm = np.linalg.cholesky(m.values_at(p - step))
        assert np.max(np.abs((Lp - Lm) / (2 * h) - dL_real[..., r])) < 1e-8
        Pfd = (np.linalg.inv(Lp) - np.linalg.inv(Lm)) / (2 * h)
        assert np.max(np.abs(Pfd - dP_real[..., r])) < 1e-8
