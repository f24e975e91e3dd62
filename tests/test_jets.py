import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermlab.errors import DegenerateMetricError, SingularEvaluationError
from hermlab.fd import fd_jet
from hermlab.jets import Jet2, JetMatrix, jet_max_abs_diff, real_from_wirtinger


def coord_jets(p):
    n = len(p)
    return [Jet2.coordinate(k, p[k], n) for k in range(n)]


def test_constant_product():
    a = Jet2.constant(2 + 1j, 2)
    b = Jet2.constant(-3 + 0.5j, 2)
    c = a * b
    assert c.value == (2 + 1j) * (-3 + 0.5j)
    assert not np.any(c.d1)
    assert not np.any(c.d2)


def test_product_rule_z_zbar():
    # |z1|^2 at z1 = 1+i: value 2, dz = 1-i, dzbar = 1+i, dz dzbar = 1, dz dz = 0
    (z1,) = coord_jets([1 + 1j])
    f = z1 * z1.conj()
    assert f.value == pytest.approx(2.0)
    assert f.d1[0] == pytest.approx(1 - 1j)
    assert f.d1[1] == pytest.approx(1 + 1j)
    assert f.d2[0, 1] == pytest.approx(1.0)
    assert f.d2[0, 0] == pytest.approx(0.0)


def test_division_against_finite_differences():
    # exp(z1) / (1 + z1 zbar1) at z1 = 0.3+0.4i, 5-point stencil per direction
    p = np.array([0.3 + 0.4j])

    def build(z):
        (z1,) = coord_jets(z)
        return z1.exp() / (1 + z1 * z1.conj())

    jet = build(p)
    _, d1, d2 = fd_jet(lambda qs: [build(q).value for q in qs], p, 1)
    assert np.max(np.abs(jet.d1 - d1)) < 1e-6
    assert np.max(np.abs(jet.d2 - d2)) < 1e-4


def test_exp_at_zero():
    a = Jet2.constant(0.0, 1)
    a.d1 = np.array([1.0, 2.0], dtype=complex)
    a.d2 = np.zeros((2, 2), dtype=complex)
    e = a.exp()
    assert e.value == pytest.approx(1.0)
    assert np.allclose(e.d1, a.d1)


def test_log_of_upper_half_plane_factor():
    # u = ln(-i z2 + i zbar2) at z2 = i has value ln 2 and satisfies
    # u_{zbar z} = -u_{zbar} u_z (hand chain rule for u = ln(2 Im z2)).
    p = np.array([0.7 - 0.2j, 1j])
    z2 = Jet2.coordinate(1, p[1], 2)
    w = (-1j) * z2 + 1j * z2.conj()
    u = w.log()
    assert u.value == pytest.approx(np.log(2.0))
    uz = u.d1[1]
    uzb = u.d1[3]
    assert uz == pytest.approx(-0.5j)
    assert uzb == pytest.approx(0.5j)
    assert u.d2[3, 1] == pytest.approx(-uzb * uz)
    assert u.d2[3, 1] == pytest.approx(-0.25)


def test_sqrt_constant():
    a = Jet2.constant(4.0, 2)
    r = a.sqrt()
    assert r.value == pytest.approx(2.0)
    assert not np.any(r.d1)


def test_division_by_zero_raises():
    a = Jet2.constant(1.0, 1)
    b = Jet2.constant(0.0, 1)
    with pytest.raises(SingularEvaluationError):
        _ = a / b


def test_log_branch_violation_raises():
    a = Jet2.constant(-1.0 + 0j, 1)
    with pytest.raises(SingularEvaluationError):
        a.log()


@given(
    st.complex_numbers(min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_conj_is_an_involution(v, w):
    a = Jet2.coordinate(0, v, 2)
    b = Jet2.coordinate(1, w, 2)
    f = a * b + a.conj() * 3 - b.powi(2)
    g = f.conj().conj()
    assert g.value == f.value
    assert np.array_equal(g.d1, f.d1)
    assert np.array_equal(g.d2, f.d2)


def _random_jet(rng, n):
    m = 2 * n
    j = Jet2(
        n,
        complex(rng.normal(), rng.normal()),
        rng.normal(size=m) + 1j * rng.normal(size=m),
        np.zeros((m, m), dtype=complex),
        2,
    )
    s = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    j.d2 = s + s.T
    return j


@pytest.mark.parametrize("size", [1, 2, 3, 4, 6])
def test_matrix_inverse_roundtrip(size):
    rng = np.random.default_rng(42 + size)
    n = 2
    entries = [[_random_jet(rng, n) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        entries[i][i] = entries[i][i] + (4.0 + 0j)
    M = JetMatrix(entries)
    prod = M.inverse() @ M
    I = JetMatrix.identity(size, n)
    worst = max(
        jet_max_abs_diff(prod[i, j], I[i, j]) for i in range(size) for j in range(size)
    )
    assert worst < 1e-10


def test_cholesky_identity_and_constant_diag():
    I = JetMatrix.identity(3, 3)
    L = I.cholesky()
    assert np.allclose(L.values(), np.eye(3))
    assert all(not np.any(L[i, j].d1) for i in range(3) for j in range(3))

    D = JetMatrix.identity(2, 2)
    D.entries[0][0] = Jet2.constant(4.0, 2)
    D.entries[1][1] = Jet2.constant(9.0, 2)
    L = D.cholesky()
    assert np.allclose(L.values(), np.diag([2.0, 3.0]))


def test_cholesky_reconstructs_with_derivatives():
    rng = np.random.default_rng(7)
    n = 2
    size = 3
    A = JetMatrix([[_random_jet(rng, n) for _ in range(size)] for _ in range(size)])
    H = A @ A.conj_transpose()
    for i in range(size):
        H.entries[i][i] = H.entries[i][i] + (1.0 + 0j)
    L = H.cholesky()
    rec = L @ L.conj_transpose()
    worst = max(
        jet_max_abs_diff(rec[i, j], H[i, j]) for i in range(size) for j in range(size)
    )
    scale = float(np.max(np.abs(H.values())))
    assert worst / scale < 1e-10
    for i in range(size):
        assert L[i, i].value.imag == pytest.approx(0.0, abs=1e-12)
        assert L[i, i].value.real > 0


def test_cholesky_rejects_indefinite():
    M = JetMatrix.identity(2, 2)
    M.entries[1][1] = Jet2.constant(-1.0, 2)
    with pytest.raises(DegenerateMetricError):
        M.cholesky()


def test_cholesky_reconstructs_heisenberg_fixture():
    # the nilmanifold metric at z1 = 1: [[1,0,0],[0,2,-1],[0,-1,1]] with its
    # full coordinate dependence through |z1|^2
    from hermlab import catalog

    gv, dg, ddg = catalog.get("iwasawa").metric.evaluate([1.0 + 0j, 0.3 - 0.2j, 0.1j])
    g = JetMatrix([[Jet2(3, gv[i, j], dg[i, j], ddg[i, j]) for j in range(3)] for i in range(3)])
    assert np.allclose(g.values(), [[1, 0, 0], [0, 2, -1], [0, -1, 1]])
    L = g.cholesky()
    rec = L @ L.conj_transpose()
    worst = max(
        jet_max_abs_diff(rec[i, j], g[i, j]) for i in range(3) for j in range(3)
    )
    assert worst < 1e-10


# ----------------------------------------------------------------------
# the maps derived from real_from_wirtinger / wirtinger_from_real, against
# the hand-written forms they replaced, bit for bit (zero signs included)
def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _loop_real_entry_map(n):
    m = 2 * n
    K = np.zeros((m, m, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for (A, B), (cij, cji) in (
                ((2 * i, 2 * j), (1, 1)),
                ((2 * i + 1, 2 * j + 1), (1, 1)),
                ((2 * i, 2 * j + 1), (-1j, 1j)),
                ((2 * i + 1, 2 * j), (1j, -1j)),
            ):
                K[A, B, i, j] += cij
                K[A, B, j, i] += cji
    return K.reshape(m * m, n * n)


def _loop_J_action(n):
    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


def _interleaved_frame_rows(Pv):
    E = Pv[..., None] * np.array([0.5, -0.5j])  # d/dz_a = (d/dx_a - i d/dy_a) / 2
    E = E.reshape(Pv.shape[:-1] + (-1,))
    return np.concatenate([E, E.conj()], axis=-2)


@pytest.mark.parametrize("n", range(1, 7))
def test_real_entry_map_and_J_match_the_index_loops(n):
    from hermlab.compare import J_action
    from hermlab.levicivita import _real_entry_map

    assert _same_bits(_real_entry_map(n), _loop_real_entry_map(n))
    assert _same_bits(J_action(n), _loop_J_action(n))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_frame_rows_match_the_interleaved_factors(n):
    from hermlab import catalog
    from hermlab.chern import chern_at
    from hermlab.geometry import sample_points
    from hermlab.levicivita import complex_frame_coefficients

    rng = np.random.default_rng(n)
    frames = []
    for shape in [(n, n), (4, n, n), (3, 2 * n, n, n)]:
        Pv = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert _same_bits(complex_frame_coefficients(Pv), _interleaved_frame_rows(Pv))
        frames.append(np.triu(Pv))
    if n in (2, 3):
        m = catalog.get("random_polynomial(1)" if n == 2 else "iwasawa").metric
        ch = chern_at(m, sample_points(m, 4, seed=42))
        frames += [ch.Pv, np.einsum("rc,...iac->...ria", real_from_wirtinger(n), ch.dP)]
    # the canonical frame is triangular; at an exact zero of Pv the old
    # factor -0.5j = complex(-0.0, -0.5) gave a zero of the other sign
    for Pv in frames:
        assert np.array_equal(complex_frame_coefficients(Pv), _interleaved_frame_rows(Pv))
