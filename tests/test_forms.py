import itertools
import math

import numpy as np
import pytest

from hermlab.dsl import parse
from hermlab.errors import InsufficientJetOrderError
from hermlab.forms import Form, fd_exterior_d, mat_wedge
from hermlab.jets import Jet2
from conftest import jet2


def _simple_form(n, rng, degree, order=2):
    """Random form with full-order jet coefficients."""
    out = Form(n, degree)
    for key in itertools.combinations(range(2 * n), degree):
        m = 2 * n
        j = Jet2(
            n,
            complex(rng.normal(), rng.normal()),
            rng.normal(size=m) + 1j * rng.normal(size=m),
            np.zeros((m, m), dtype=complex),
            order,
        )
        s = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        j.d2 = s + s.T
        out._add_term(key, j)
    return out


# ----------------------------------------------------------------------
# brute-force oracle: forms as dense alternating coefficient tensors
def _dense(form):
    m = 2 * form.n
    k = form.degree
    T = np.zeros((m,) * k, dtype=complex)
    for key, jet in form.coeffs.items():
        for perm in itertools.permutations(range(k)):
            sign = _perm_sign(perm)
            idx = tuple(key[p] for p in perm)
            T[idx] = sign * jet.value
    return T


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _dense_wedge(A, ka, B, kb):
    """(k_a + k_b)! / (k_a! k_b!)-free wedge on dense alternating tensors.

    With the determinant convention, the wedge of alternating tensors is the
    sum over shuffles; realized here as a full antisymmetrization with
    multinomial weight 1 / (k_a! k_b!).
    """
    k = ka + kb
    m = A.shape[0] if ka else B.shape[0]
    out = np.zeros((m,) * k, dtype=complex)
    for idx in itertools.product(range(m), repeat=k):
        acc = 0.0 + 0j
        for perm in itertools.permutations(range(k)):
            p_idx = tuple(idx[p] for p in perm)
            acc += _perm_sign(perm) * A[p_idx[:ka]] * B[p_idx[ka:]]
        out[idx] = acc / (math.factorial(ka) * math.factorial(kb))
    return out


def test_wedge_square_of_one_form_is_zero():
    f = Form.dz(2, 0)
    assert f.wedge(f).max_abs() == 0.0


def test_wedge_anticommutes():
    a = Form.dz(2, 0)  # dz1
    b = Form.dz(2, 2)  # dzbar1
    ab = a.wedge(b)
    ba = b.wedge(a)
    assert ab.coeff((0, 2)) == pytest.approx(1.0)
    assert ba.coeff((0, 2)) == pytest.approx(-1.0)


def test_wedge_against_bruteforce_expansion():
    rng = np.random.default_rng(3)
    n = 2
    a = _simple_form(n, rng, 1)
    b = _simple_form(n, rng, 2)
    ab = a.wedge(b)
    dense = _dense_wedge(_dense(a), 1, _dense(b), 2)
    assert np.max(np.abs(_dense(ab) - dense)) < 1e-12


def test_euclidean_volume_power():
    # omega = i(dz1^dzbar1 + dz2^dzbar2); omega^2/2 = -dz1^dzbar1^dz2^dzbar2
    n = 2
    one = Jet2.constant(1j, n)
    omega = Form(n, 2, {(0, 2): one, (1, 3): one})
    vol = omega.wedge(omega).scale(0.5)
    dense = _dense_wedge(_dense(omega), 2, _dense(omega), 2) / 2.0
    assert np.max(np.abs(_dense(vol) - dense)) < 1e-12
    # dz1^dz2^dzbar1^dzbar2 = -dz1^dzbar1^dz2^dzbar2, so the standard
    # volume coefficient on the increasing-tuple basis is +1
    assert vol.coeff((0, 1, 2, 3)) == pytest.approx(1.0)


def test_wedge_associativity_random_triples():
    rng = np.random.default_rng(17)
    n = 2
    for _ in range(10):
        a = _simple_form(n, rng, 1)
        b = _simple_form(n, rng, 1)
        c = _simple_form(n, rng, 2)
        lhs = a.wedge(b).wedge(c)
        rhs = a.wedge(b.wedge(c))
        worst = max(
            abs(lhs.coeff(k) - rhs.coeff(k))
            for k in set(lhs.coeffs) | set(rhs.coeffs)
        ) if (lhs.coeffs or rhs.coeffs) else 0.0
        assert worst < 1e-12


def test_exterior_d_of_constant_form_is_zero():
    f = Form.monomial(2, (0, 2), Jet2.constant(2.5 + 1j, 2))
    assert f.exterior_d().max_abs() == 0.0


def test_d_squared_vanishes_on_polynomial_coefficients():
    # coefficients are degree-<=2 polynomials, exactly representable at order 2
    n = 2
    p = np.array([0.4 + 0.2j, -0.3 + 0.6j])
    poly = jet2(parse("z1*conj(z2) + z2^2 - conj(z1)", n), p)
    f = Form(n, 1, {(1,): poly, (2,): poly * (1 - 2j)})
    dd = f.exterior_d().exterior_d()
    assert dd.max_abs() < 1e-10


def test_del_part_of_kahler_form_euclidean():
    n = 2
    one = Jet2.constant(1j, n)
    omega = Form(n, 2, {(0, 2): one, (1, 3): one})
    assert omega.exterior_d(part="del").max_abs() == 0.0


def test_conj_involution_and_type_swap():
    rng = np.random.default_rng(5)
    f = _simple_form(2, rng, 2)
    g = f.conj().conj()
    worst = max(abs(f.coeff(k) - g.coeff(k)) for k in f.coeffs)
    assert worst < 1e-15
    h = Form.monomial(1, (0,), Jet2.constant(2j, 1)).conj()
    assert h.coeff((1,)) == pytest.approx(-2j)


def test_to_coframe_roundtrip():
    rng = np.random.default_rng(9)
    n = 2
    f = _simple_form(n, rng, 2)
    C = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Cinv = np.linalg.inv(C)
    g = f.to_coframe(C).to_coframe(Cinv)
    worst = max(
        abs(f.coeff(k) - g.coeff(k)) for k in set(f.coeffs) | set(g.coeffs)
    )
    assert worst < 1e-12


def test_exterior_d_exhausted_raises_and_fd_fallback_agrees():
    n = 1
    p = np.array([0.3 + 0.1j])

    def builder(q):
        jet = jet2(parse("z1*conj(z1)", n), q)
        return Form(n, 1, {(0,): jet})

    exhausted = Form(n, 1, {(0,): Jet2(n, 1.0, None, None, 0)})
    with pytest.raises(InsufficientJetOrderError):
        exhausted.exterior_d()

    analytic = builder(p).exterior_d()
    fd = fd_exterior_d(builder, p, n)
    worst = max(
        abs(analytic.coeff(k) - fd.coeff(k))
        for k in set(analytic.coeffs) | set(fd.coeffs)
    )
    assert worst < 1e-6


def test_degree_overflow_gives_zero_form():
    n = 1
    a = Form.monomial(n, (0, 1), Jet2.constant(1.0, n))
    b = Form.dz(n, 0)
    assert a.wedge(b).max_abs() == 0.0


def test_mat_wedge_shapes():
    n = 2
    A = [[Form.dz(n, 0), Form.zero(n, 1)], [Form.zero(n, 1), Form.dz(n, 1)]]
    B = [[Form.dz(n, 2), Form.zero(n, 1)], [Form.zero(n, 1), Form.dz(n, 3)]]
    C = mat_wedge(A, B)
    assert C[0][0].coeff((0, 2)) == pytest.approx(1.0)
    assert C[1][1].coeff((1, 3)) == pytest.approx(1.0)
