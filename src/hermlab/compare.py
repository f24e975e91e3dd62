"""Bisectional and holomorphic sectional curvatures for both connections,
Ricci combinations, the curvature-difference formulas, and the dimension-3
torsion rigidity search.

Direction vectors live in the canonical unitary frame, where |X|^2 is the
plain Hermitian square norm of the coefficient vector; real tangent vectors
have components along (x_1, y_1, ..., x_n, y_n) (README, Conventions).

Every direction function is batched.  It takes the Chern data ``ch`` of
one point (``chern_at`` at a point) or of a batch of P points, whose
Levi-Civita fields it reads as well, and stacked vectors ``[..., n]``
(``[..., 2n]`` for real tangent vectors) whose leading axes broadcast
against the point axes of ``ch`` as numpy broadcasts: at a batch
of P points, ``[P, n]`` is one vector per point and ``[D, P, n]`` is D
vectors per point.  One vector is the batch of one.  Results carry the
broadcast leading axes.  The four-index contractions run as staged
``matmul`` over ``Rh`` and the block ``Rc[:n, n:, :n, n:]``.

The compare suite draws all of a point's random directions first,
in a fixed ``rng`` order (see ``hermlab.suites.compare_draws``), then runs each
function once per chunk of points over all of its directions (a degenerate
plane is masked, not skipped), and reduces each check to its largest
residual and the first point that reaches it.

``bisectional_difference_residuals`` contracts each curvature tensor with
each first vector once and finishes all its pairings from that result
(:func:`hermitian_pairings`); the torsion sides share nothing with them.

The rigidity search depends only on its seed.  Each descent step gathers
the 18 slot columns (a_i, a_j, a_k, b_i, b_j, b_k of the three cyclic
triples) with one index array and conjugates them with one ``conj``; the
equations and the closed-form gradient read slices of both.  The best rows
of the descent are then polished by a few Riemannian Newton steps over the
system's 21 real quadratic forms, which are polarized once from the same
equations; the polish reaches the minimum 1/sqrt(3) to about 1e-16.
"""

from __future__ import annotations

import functools

import numpy as np

from .dsl import real_from_wirtinger, wirtinger_from_real
from .levicivita import R_11bar, ricci_direction

_MIN_NORM = 1e-12


def _norm(X):
    return np.linalg.norm(X, axis=-1)


def _check_pair(X, Y):
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if np.any(_norm(X) <= _MIN_NORM) or np.any(_norm(Y) <= _MIN_NORM):
        raise ValueError("direction vectors must be nonzero")
    return X, Y


def _contract_first(R, a):
    """sum_i R[..., i, j, k, l] a_i as [..., 1, m^3]: the first slot of :func:`_contract4`."""
    m = R.shape[-1]
    return np.asarray(a)[..., None, :] @ R.reshape(R.shape[:-4] + (m, m**3))


def _contract_rest(t, b, c, d):
    """The last three slots of :func:`_contract4`, from its first slot's result ``t``."""
    m = b.shape[-1]
    t = b[..., None, :] @ t.reshape(t.shape[:-2] + (m, m * m))
    t = c[..., None, :] @ t.reshape(t.shape[:-2] + (m, m))
    return (t @ d[..., :, None])[..., 0, 0]


def _contract4(R, a, b, c, d):
    """sum R[..., i, j, k, l] a_i b_j c_k d_l, one slot at a time by ``matmul``.

    ``R`` is ``[L..., m, m, m, m]`` and the vectors ``[..., m]``, with
    leading axes broadcasting against ``L``.
    """
    b, c, d = (np.asarray(v) for v in (b, c, d))
    return _contract_rest(_contract_first(R, a), b, c, d)


def hermitian_pairing(R, X, Y, Z, W):
    """R_{X Ybar Z Wbar} for a tensor of layout [k, lbar, i, jbar] in the unitary frame.

    Takes ``Rh`` (the Chern curvature) or ``Rc[..., :n, n:, :n, n:]`` (the
    Riemannian one).
    """
    return _contract4(R, X, np.conj(Y), Z, np.conj(W))


def hermitian_pairings(R, X, rest):
    """:func:`hermitian_pairing` ``(R, X, Y, Z, W)`` for each ``(Y, Z, W)`` of ``rest``.

    The first slot is contracted with X once and each pairing finished from
    that result, in :func:`_contract4`'s slot order, so every pairing has
    the bits of its own call.
    """
    t = _contract_first(R, X)
    return [_contract_rest(t, np.conj(Y), Z, np.conj(W)) for Y, Z, W in rest]


def bisectional(ch, X, Y, a):
    """Riemannian bisectional curvature B_a plus both Chern pairings.

    B_a = [a R_{X Xbar Y Ybar} + (1-a) R_{X Ybar Y Xbar}] / (|X|^2 |Y|^2).
    """
    X, Y = _check_pair(X, Y)
    Rh, B = ch.Rh, R_11bar(ch)
    norm = (_norm(X) * _norm(Y)) ** 2
    rxxyy = hermitian_pairing(B, X, X, Y, Y)
    rxyyx = hermitian_pairing(B, X, Y, Y, X)
    Ba = (a * rxxyy + (1 - a) * rxyyx) / norm
    Bh_xy = hermitian_pairing(Rh, X, X, Y, Y) / norm
    Bh_yx = hermitian_pairing(Rh, Y, Y, X, X) / norm
    return {
        "B_a": Ba,
        "Bh_XY": Bh_xy,
        "Bh_YX": Bh_yx,
        "imag_max": np.maximum.reduce([abs(Ba.imag), abs(Bh_xy.imag), abs(Bh_yx.imag)]),
    }


def bisectional_difference_residuals(ch, X, Y):
    """Residuals of the three curvature-difference formulas for (X, Y).

    Left sides use the two curvature tensors, right sides only torsion
    contractions; both sides are normalized by |X|^2 |Y|^2.
    """
    X, Y = _check_pair(X, Y)
    T, Rh, B = ch.T, ch.Rh, R_11bar(ch)
    norm = (_norm(X) * _norm(Y)) ** 2

    TkXY = np.einsum("...kij,...i,...j->...k", T, X, Y)
    TY_kY = np.einsum("...ikj,...i,...j->...k", T, np.conj(Y), Y)
    TX_kX = np.einsum("...ikj,...i,...j->...k", T, np.conj(X), X)
    TY_kX = np.einsum("...ikj,...i,...j->...k", T, np.conj(Y), X)
    TX_kY = np.einsum("...ikj,...i,...j->...k", T, np.conj(X), Y)

    def sq(v):
        return np.sum(np.abs(v) ** 2, axis=-1)

    # the curvature sides share their first-slot contractions, the torsion
    # sides none of them
    rh_xxyy, rh_xyyx, rh_xxxx = hermitian_pairings(Rh, X, [(X, Y, Y), (Y, Y, X), (X, X, X)])
    rh_yyxx, rh_yxxy = hermitian_pairings(Rh, Y, [(Y, X, X), (X, X, Y)])
    r_xyyx, r_xxyy, r_xxxx = hermitian_pairings(B, X, [(Y, Y, X), (X, Y, Y), (X, X, X)])

    lhs41 = 0.5 * (rh_xxyy + rh_yyxx) - r_xyyx
    rhs41 = sq(TkXY) + 2 * np.real(np.sum(TY_kY * np.conj(TX_kX), axis=-1))
    # the cross pairing enters symmetrized (its two orderings are complex
    # conjugates, so this is just the real part); only then is the left
    # side real and the identity exact for every Hermitian metric
    lhs42 = 0.5 * (rh_xyyx + rh_yxxy) - r_xxyy
    rhs42 = sq(TY_kX) + sq(TX_kY) - sq(TkXY)

    lhs43 = rh_xxxx - r_xxxx
    rhs43 = 2 * sq(TX_kX)
    norm4 = _norm(X) ** 4

    return {
        "sym_bisectional": abs(lhs41 - rhs41) / norm,
        "cross_bisectional": abs(lhs42 - rhs42) / norm,
        "holo_sectional": abs(lhs43 - rhs43) / norm4,
        "monotonicity_gap": (lhs43 / norm4).real,
    }


def monotonicity_gap(ch, X):
    """H^h(X) - H(X), computed from the two curvature tensors only."""
    X = np.asarray(X, dtype=complex)
    rh = hermitian_pairing(ch.Rh, X, X, X, X)
    r = hermitian_pairing(R_11bar(ch), X, X, X, X)
    return (rh - r).real / _norm(X) ** 4


# ----------------------------------------------------------------------
# Ricci combinations and the scalar-curvature relation
def _sum_rows(B):
    """B[0] + B[1] + ... in this order, over the first axis of B.

    ``np.sum`` adds the first axis pairwise when it is contiguous, as it is
    in a batch of one point, so that point would read other bits than it
    does in a larger batch.
    """
    return functools.reduce(np.add, B)


def _frame(n, axes):
    """The unitary frame vectors e_1..e_n on a new leading axis, before ``axes`` more."""
    return np.eye(n, dtype=complex).reshape((n,) + (1,) * axes + (n,))


def ricci_a(ch, X, a):
    """Ric_a(X) = sum_i B_a(X, e_i) over the unitary frame."""
    X = np.asarray(X, dtype=complex)
    return _sum_rows(bisectional(ch, X, _frame(ch.n, X.ndim - 1), a)["B_a"])


def real_vector_from_holomorphic(ch, X):
    """The real vector u with X = (u - i J u) / sqrt(2), over real coords.

    u = (X + conj(X)) / sqrt(2) expanded over the real coordinate basis;
    the imaginary part cancels exactly because the barred frame rows are
    the conjugates of the unbarred ones.
    """
    ucplx = np.concatenate([X / np.sqrt(2), np.conj(X) / np.sqrt(2)], axis=-1)
    return np.real(np.einsum("...A,...As->...s", ucplx, ch.W))


def J_action(n):
    """The complex structure, J d/dz_k = i d/dz_k and J d/dzbar_k = -i d/dzbar_k, on real components."""
    J = (real_from_wirtinger(n) * np.repeat([1j, -1j], n)) @ wirtinger_from_real(n)
    return J.real.T + 0.0  # every zero entry +0, as when J is filled entry by entry


def _apply(M, u):
    """M @ u for each vector of a stack ``[..., m]``."""
    return u @ M.T


def ricci_identity_residuals(ch, X):
    """Checks the affine identity in a and the J-invariant Ricci relation.

    Ric_a is affine in a, so Ric_{-1} = 2 Ric_0 - Ric_1 identically; the
    nontrivial content is that Ric_{-1} equals the J-invariant average of
    the real Ricci curvature.
    """
    X = np.asarray(X, dtype=complex)
    X = X / _norm(X)[..., None]
    r0 = ricci_a(ch, X, 0.0)
    r1 = ricci_a(ch, X, 1.0)
    rm1 = ricci_a(ch, X, -1.0)
    affine = abs(rm1 - (2 * r0 - r1))

    u = real_vector_from_holomorphic(ch, X)
    Ju = _apply(J_action(ch.n), u)
    j_invariant = abs(rm1 - 0.5 * (ricci_direction(ch, u) + ricci_direction(ch, Ju)))
    return {"affine": affine, "j_invariant_ricci": j_invariant}


def scalar_relation_residual(ch):
    """sum_{ij} B_{-1}(e_i, e_j) = Scal / 2, at each point of ``ch``."""
    n, axes = ch.n, ch.point.ndim - 1
    E = _frame(n, axes + 1)
    B = bisectional(ch, E, np.swapaxes(E, 0, 1), -1.0)["B_a"]  # [i, j, points]
    total = _sum_rows(B.reshape((n * n,) + B.shape[2:]))
    return abs(total - 0.5 * ch.Scal) / (1.0 + abs(ch.Scal))


# ----------------------------------------------------------------------
# sectional-curvature decomposition of B_{-1}
def _gram(u, G, v):
    """u^T G v for stacked real vectors."""
    return np.einsum("...a,...ab,...b->...", u, G, v)


def sectional_curvature(ch, u, v):
    """K = -R_{uvuv} / |u ^ v|^2 for real vectors; NaN where u || v."""
    G = ch.G
    gram = _gram(u, G, u) * _gram(v, G, v) - _gram(u, G, v) ** 2
    flat = gram < 1e-10
    r = _contract4(ch.R4, u, v, u, v)
    return np.where(flat, np.nan, -r / np.where(flat, 1.0, gram))


def plane_decomposition_check(ch, u, v):
    """Residuals of the real/complex sectional decomposition for B_{-1}.

    ``u``, ``v`` are real tangent vectors (over (x_1, y_1, ...)).  A plane
    is ``degenerate`` where an input vector is numerically zero or all four
    angle factors collapse; its residuals are NaN there.
    """
    n = ch.n
    G = ch.G
    J = J_action(n)
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    nu = _gram(u, G, u)
    nv = _gram(v, G, v)
    degenerate = np.minimum(nu, nv) < 1e-12
    u = u / np.sqrt(np.where(degenerate, 1.0, nu))[..., None]
    v = v / np.sqrt(np.where(degenerate, 1.0, nv))[..., None]
    Ju, Jv = _apply(J, u), _apply(J, v)

    # X = (u - iJu)/sqrt2 over the unitary frame: solve the real components
    # against all 2n frame rows; the barred coefficients vanish
    WT = np.swapaxes(ch.W, -1, -2)

    def holomorphic_part(w):
        comp = (w - 1j * _apply(J, w)) / np.sqrt(2)
        return np.linalg.solve(WT, comp[..., None])[..., :n, 0]

    X = holomorphic_part(u)
    Y = holomorphic_part(v)

    B = R_11bar(ch)
    lhs = -hermitian_pairing(B, X, X, Y, Y) + 2 * hermitian_pairing(B, X, Y, Y, X)

    def R(a, b):
        return _contract4(ch.R4, a, b, a, b)

    rhs = -0.5 * (R(u, v) + R(Ju, Jv) + R(Ju, v) + R(u, Jv))
    first = abs(lhs - rhs)

    def angle_sq(a, b):
        return 1.0 - _gram(a, G, b) ** 2 / (_gram(a, G, a) * _gram(b, G, b))

    # a zero input divides 0 by 0 here; its plane is masked as degenerate
    with np.errstate(divide="ignore", invalid="ignore"):
        s_uv = angle_sq(u, v)
        s_uJv = angle_sq(u, Jv)
        b_m1 = (lhs / (_gram(u, G, u) * _gram(v, G, v))).real
    degenerate |= ~(np.maximum(s_uv, s_uJv) >= 1e-8)
    terms = np.where(
        s_uv > 1e-10,
        0.5 * s_uv * (sectional_curvature(ch, u, v) + sectional_curvature(ch, Ju, Jv)),
        0.0,
    ) + np.where(
        s_uJv > 1e-10,
        0.5 * s_uJv * (sectional_curvature(ch, Ju, v) + sectional_curvature(ch, u, Jv)),
        0.0,
    )
    second = abs(b_m1 - terms)
    return {
        "complexified_vs_real": np.where(degenerate, np.nan, first),
        "angle_decomposition": np.where(degenerate, np.nan, second),
        "degenerate": degenerate,
    }


# ----------------------------------------------------------------------
# dimension-3 torsion rigidity: the cyclic quadratic system has no
# nonzero solution, so its residual on the unit sphere stays above a floor
# measured over 10^4 seeded unit restarts (seed 2024, polish top 64): the
# search bottoms out at 0.57735 ~ 1/sqrt(3), reached at b = 0 with |a_i|
# balanced (the residual is then sqrt(sum |a_c a_{c+1}|^2) = sqrt(3 / 9));
# the bound is set comfortably below that observed minimum
RIGIDITY_FLOOR = 0.5


# cyclic triples (c, _J[c], _K[c]); slot i of triple c is coordinate c
_J, _K = np.array([1, 2, 0]), np.array([2, 0, 1])
_SLOTS = np.concatenate([np.arange(3), _J, _K, np.arange(3, 6), _J + 3, _K + 3])


def _abs2(z):
    return z.real**2 + z.imag**2


def _equations(X):
    """The slots (a_i, a_j, a_k, b_i, b_j, b_k) at rows X [..., 6], their
    conjugates and, from them, the diagonal norm identity, the two product
    identities and the mixed conjugate trace identity; all [..., 3], one
    column per cyclic triple.
    """
    S = X[..., _SLOTS]
    C = np.conj(S)
    slots, conj = ([Z[..., s : s + 3] for s in range(0, 18, 3)] for Z in (S, C))
    a, aj, ak, b, bj, bk = slots
    p = _abs2(a) - _abs2(b)
    e1 = np.sum(p, axis=-1, keepdims=True) - 3 * p[..., _K]  # p_i + p_j - 2 p_k
    e2 = b * bj - bk * ak
    e3 = a * aj - bk**2
    e4 = bj * conj[5] + b * conj[1] + ak * conj[3]  # bj conj(bk) + b conj(aj) + ak conj(b)
    return slots, conj, (e1, e2, e3, e4)


def rigidity_equations(x):
    """Complex residual vector of the cyclic quadratic system at x in C^6.

    x packs (a_1, a_2, a_3, b_1, b_2, b_3); the four equations of each
    cyclic index triple come in turn.
    """
    return np.stack(_equations(np.asarray(x, dtype=complex))[2], axis=-1).reshape(12)


def rigidity_residual(x):
    """Euclidean norm of the system residual at x / |x|."""
    x = np.asarray(x, dtype=complex)
    nx = np.linalg.norm(x)
    if nx == 0:
        return 0.0
    return float(np.linalg.norm(rigidity_equations(x / nx)))


def _batch_residual_sq(X):
    """Vectorized squared residual for unit rows of X (shape (..., 6))."""
    e1, e2, e3, e4 = _equations(X)[2]
    return np.sum(e1**2 + _abs2(e2) + _abs2(e3) + _abs2(e4), axis=-1)


def _residual_sq_grad(X):
    """Gradient d/dRe + i d/dIm (= 2 d/dXbar) of ``_batch_residual_sq`` at rows X [..., 6].

    Closed-form Wirtinger derivatives of the four equations, for all three
    cyclic triples at once; column c of each per-triple term lands on slot
    i, j or k of triple c.
    """
    (ai, aj, ak, bi, bj, bk), (cai, caj, cak, cbi, cbj, cbk), (e1, e2, e3, e4) = _equations(X)
    e4c = np.conj(e4)
    ga_i = e3 * caj
    ga_j = e3 * cai + bi * e4c
    ga_k = e4 * bi - e2 * cbk
    gb_i = e2 * cbj + ak * e4c + e4 * aj
    gb_j = e2 * cbi + e4 * bk
    gb_k = bj * e4c - e2 * cak - 2 * e3 * cbk
    # slot j of triple c is slot _J[c], reached from c = _K[slot]; slot k from c = _J[slot].
    # The e1 terms of slot m are 4 e1 a_m from the triples where m is slot i
    # or j and -8 e1 a_m from the one where it is slot k (signs flip for b);
    # the three triples' e1 sum to 0, so these add up to -12 e1[_J[m]] a_m
    f = 6 * e1[..., _J]
    return 2 * np.concatenate(
        [ga_i + ga_j[..., _K] + ga_k[..., _J] - f * ai, gb_i + gb_j[..., _K] + gb_k[..., _J] + f * bi],
        axis=-1,
    )


def _real_system(X):
    """The system at rows X [..., 6] as 21 real values [..., 21]: e1 and the real
    and imaginary parts of e2, e3 and e4, three columns each."""
    e1, e2, e3, e4 = _equations(X)[2]
    return np.concatenate([e1, e2.real, e2.imag, e3.real, e3.imag, e4.real, e4.imag], axis=-1)


@functools.lru_cache(maxsize=None)
def _rigidity_forms():
    """Q[r, a, b]: the system as 21 real quadratic forms x^T Q_r x over x = (Re X, Im X).

    Polarized from :func:`_equations` at the sums of two basis vectors,
    q(e_a + e_b) = Q_aa + Q_bb + 2 Q_ab and q(2 e_a) = 4 Q_aa, so the
    system stays written in one place.  The entries are multiples of 1/2,
    so the forms are exact.
    """
    E = np.eye(12)
    S = _real_system((E[:, None] + E[None]) @ np.concatenate([np.eye(6), 1j * np.eye(6)]))
    D = np.einsum("aar->ar", S) / 4
    Q = np.moveaxis((S - D[:, None] - D[None]) / 2, -1, 0)
    Q.flags.writeable = False  # shared by every search
    return Q


def _residual_sq_derivatives(x):
    """Gradient [..., 12] and Hessian [..., 12, 12] of ``_batch_residual_sq`` at real rows x = (Re X, Im X).

    With q_r = x^T Q_r x the squared residual is sum_r q_r^2, so its
    gradient is 4 sum_r q_r Q_r x and its Hessian
    8 sum_r (Q_r x)(Q_r x)^T + 4 sum_r q_r Q_r.
    """
    Q = _rigidity_forms()
    Qx = np.einsum("rab,...b->...ra", Q, x)
    q = np.einsum("...ra,...a->...r", Qx, x)
    grad = 4 * np.einsum("...r,...ra->...a", q, Qx)
    return grad, 8 * np.einsum("...ra,...rb->...ab", Qx, Qx) + 4 * np.einsum("...r,rab->...ab", q, Q)


# Newton steps that polish the best rows of the descent: 4 reached 1/sqrt(3)
# to 2e-16 over the report seeds, where 200 gradient steps stopped 1e-11 short
_NEWTON_STEPS = 4
# Hessian eigenvalues below this share of the largest are null directions
_NEWTON_RCOND = 1e-10


def _newton_polish(X, steps):
    """Riemannian Newton steps of the squared residual on the unit sphere, from unit rows X [k, 6].

    The Newton system on the tangent space, with projection P = I - x x^T,
    is (P H P - (x . g) P) s = -P g.  Its matrix is singular: the normal
    direction x is null after projection, and the global phase
    (X -> e^{it} X, which leaves the residual unchanged) is null at a
    critical point, so it is solved by a pseudo-inverse.  A row keeps its
    step only where the step does not raise its squared residual.
    """
    for _ in range(steps):
        x = np.concatenate([X.real, X.imag], axis=-1)
        g, H = _residual_sq_derivatives(x)
        P = np.eye(12) - x[:, :, None] * x[:, None, :]
        hess = P @ H @ P - np.sum(x * g, axis=-1)[:, None, None] * P
        y = x - (np.linalg.pinv(hess, rcond=_NEWTON_RCOND, hermitian=True) @ (P @ g[..., None]))[..., 0]
        Y = y[:, :6] + 1j * y[:, 6:]
        Y /= np.linalg.norm(Y, axis=-1, keepdims=True)
        X = np.where((_batch_residual_sq(Y) <= _batch_residual_sq(X))[:, None], Y, X)
    return X


def _descend(X, steps, lr, decay):
    """Projected gradient descent of the squared residual from unit rows X [..., 6]."""
    for _ in range(steps):
        X = X - lr * _residual_sq_grad(X)
        X /= np.linalg.norm(X, axis=-1, keepdims=True)
        lr *= decay
    return X


def n3_rigidity_search(trials=10_000, seed=0, polish=64, steps=150):
    """Random-restart minimization of the system residual on the unit sphere.

    Runs projected gradient descent on all starts with a decaying step and
    the closed-form gradient, then polishes the ``polish`` best of them with
    a few Riemannian Newton steps (:func:`_newton_polish`) over the exact
    quadratic forms of the system, so no optimiser library is needed.
    Returns the smallest residual found and its argmin.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(trials, 6)) + 1j * rng.normal(size=(trials, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)

    X = _descend(X, steps, 0.05, 0.985)
    X = X[np.argsort(_batch_residual_sq(X))[:polish]]
    X = _newton_polish(X, _NEWTON_STEPS)
    vals = _batch_residual_sq(X)
    best = np.argmin(vals)
    return {"min_residual": float(np.sqrt(vals[best])), "argmin": X[best], "trials": trials}
