"""Levi-Civita connection and Riemannian curvature of the underlying real metric.

The real metric on coordinates (x_1, y_1, ..., x_n, y_n) (README,
Conventions) is calibrated so that the complex-bilinear extension of the
inner product satisfies < e_i, ebar_j > = g_{ij} for e_i = d/dz_i; so
G(dx_i, dx_j) = G(dy_i, dy_j) = 2 Re g_{ij} and G(dx_i, dy_j) = 2 Im g_{ij}.
Curvature follows R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
nabla_{[X,Y]} Z with R_{XYZW} = <R(X,Y)Z, W>; this sign is locked by two
tests: components with four unbarred slots vanish on every Hermitian
metric, and R agrees with the Chern curvature on Kahler metrics.

:func:`riemann_at` reads only the metric arrays gv, dg, ddg of
:class:`~hermlab.chern.ChernData` (and P for the unitary frame), and like
:func:`~hermlab.chern.chern_at` it takes one point or a batch: every array
then gains the leading point axes of the Chern data.

The torsion route to the mixed curvature block Theta_2 reads only
:class:`~hermlab.chern.ChernData` (T, dT, L, dL, P, theta_u_vals), never
the Christoffel symbols it is checked against.  Its arrays follow the
:mod:`hermlab.chern` layouts, with the frame indices first and the 2n
Wirtinger slots (dz_1 .. dz_n, dzbar_1 .. dzbar_n) after them:
``theta2[i, j, a]`` and ``gamma[i, j, a]`` are the slot-a coefficients of
(theta_2)_{ij} and gamma_{ij}, ``dtheta2[i, j, a, c]`` the slot-c derivative
of ``theta2[i, j, a]``, and ``Theta2[i, j, a, b]`` an unnormalised 2-form,
(Theta_2)_{ij} = sum over all (a, b) of Theta2[i, j, a, b] d_a ^ d_b.
sigma_2 is ``H[a, b]`` with derivatives ``dH[a, b, c]`` in the same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .chern import ChernData, _max_coefficient, arrays_at, chern_at
from .dsl import conj_slots, real_from_wirtinger, wirtinger_from_real
from .fd import fd_jet

_IMAG_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _real_entry_map(n):
    """K[(A, B), (i, j)]: the real metric entry G_AB as a combination of the g_ij.

    G = C [[0, g], [g^T, 0]] C^T with C = ``real_from_wirtinger(n)``: the
    complex-bilinear metric pairs dz_i with dzbar_j by g_ij, and so
    G(dx_i, dx_j) = G(dy_i, dy_j) = 2 Re g_ij, G(dx_i, dy_j) = 2 Im g_ij.
    """
    C = real_from_wirtinger(n)
    K = np.einsum("Ai,Bj->ABij", C[:, :n], C[:, n:]) + np.einsum("Aj,Bi->ABij", C[:, n:], C[:, :n])
    return K.reshape(4 * n * n, n * n)


def _real_metric_arrays(gv, dg, ddg):
    """Value, gradient and Hessian arrays of the real metric G at each point.

    Returns G[..., A, B], dG[..., r, A, B] and d2G[..., r, s, A, B] over the
    real coordinates, derivative indices first: the fixed entry map
    :func:`_real_entry_map` applied to g, and the Wirtinger slots of dg and
    ddg moved to real directions by ``real_from_wirtinger``.  Raises
    ValueError when any of them has an imaginary part above ``_IMAG_TOL``.
    """
    n = gv.shape[-1]
    m = 2 * n
    lead = gv.shape[:-2]
    K = _real_entry_map(n)
    C = real_from_wirtinger(n)
    G = gv.reshape(lead + (n * n, 1))
    dG = dg.reshape(lead + (n * n, m)) @ C.T
    d2G = (C @ ddg @ C.T).reshape(lead + (n * n, m * m))
    G, dG, d2G = (K @ X for X in (G, dG, d2G))
    if max(float(np.max(np.abs(X.imag))) for X in (G, dG, d2G)) > _IMAG_TOL:
        raise ValueError("real metric entry has a non-real jet")
    return (
        G.real.reshape(lead + (m, m)),
        dG.real.swapaxes(-2, -1).reshape(lead + (m,) * 3),
        d2G.real.swapaxes(-2, -1).reshape(lead + (m,) * 4),
    )


def _christoffel(G, dG, d2G):
    Gi = np.linalg.inv(G)
    # Gamma[c, a, b] = Gamma^c_{ab}; sym[a, e, b] = d_a G_eb + d_b G_ea - d_e G_ab
    sym = dG + dG.swapaxes(-3, -1) - dG.swapaxes(-3, -2)
    Gi1 = Gi[..., None, :, :]
    Gamma = 0.5 * np.swapaxes(Gi1 @ sym, -3, -2)  # Gi @ sym[a] is [c, b]
    dGi = -(Gi1 @ dG @ Gi1)  # [e, c, g]
    # dsym[e, a, f, b] = d_e sym[a, f, b]; both products below are [e, a, c, b]
    dsym = d2G + d2G.swapaxes(-3, -1) - d2G.swapaxes(-3, -2)
    dGamma = dGi[..., :, None, :, :] @ sym[..., None, :, :, :] + Gi1[..., None, :, :] @ dsym
    return Gi, Gamma, 0.5 * np.swapaxes(dGamma, -3, -2)


def _riemann_real(G, Gamma, dGamma):
    # R(d_a, d_b) d_c = Rup[e, a, b, c] d_e
    GG = np.einsum("...eaf,...fbc->...eabc", Gamma, Gamma)
    Rup = dGamma.swapaxes(-4, -3) - dGamma.swapaxes(-4, -3).swapaxes(-3, -2) + GG
    Rup -= GG.swapaxes(-3, -2)
    return np.einsum("...eabc,...ed->...abcd", Rup, G)


def complex_frame_coefficients(Pv):
    """Rows of (e_1..e_n, ebar_1..ebar_n) over the 2n real coordinate basis.

    e_i = sum_a Pv[i, a] d/dz_a over the d/dz_a rows of ``wirtinger_from_real``.
    """
    n = Pv.shape[-1]
    # one product over all rows: a stack of small products costs several times more
    E = (Pv.reshape(-1, n) @ wirtinger_from_real(n)[:n]).reshape(Pv.shape[:-1] + (2 * n,))
    return np.concatenate([E, E.conj()], axis=-2)


def _frame_components(W, R4):
    """Rc[..., A, B, C, D] = sum W[A, a] W[B, b] W[C, c] W[D, d] R4[..., a, b, c, d].

    As matrices over slot pairs, Rc = M R4 M^T with M = W (x) W.
    """
    m = W.shape[-1]
    lead = W.shape[:-2]
    M = (W[..., :, None, :, None] * W[..., None, :, None, :]).reshape(lead + (m * m, m * m))
    R = R4.reshape(lead + (m * m, m * m))
    return (M @ R @ M.swapaxes(-2, -1)).reshape(R4.shape)


@dataclass
class RiemannData:
    """Riemannian curvature data of a metric at one point or a batch.

    The arrays carry the leading point axes of ``chern``; ``Scal`` is a
    float at one point and an array over a batch.
    """

    chern: ChernData
    G: np.ndarray
    Gi: np.ndarray
    Gamma: np.ndarray
    R4: np.ndarray  # real components R_{abcd}
    W: np.ndarray  # unitary complexified frame over the real basis
    Rc: np.ndarray  # complexified components in the unitary frame, (2n)^4
    Ric: np.ndarray
    Scal: float

    def at(self, index):
        """The data at point ``index`` of a batch, as views of its arrays."""
        return replace(self, chern=self.chern.at(index), **arrays_at(self, index))

    @property
    def n(self):
        return self.chern.n

    @property
    def point(self):
        return self.chern.point

    # ------------------------------------------------------------------
    # distinguished blocks (unitary frame); first two indices are the
    # 2-form slots, last two the endomorphism slots
    def R_1111(self):
        n = self.n
        return self.Rc[..., :n, :n, :n, :n]

    def R_11bar(self):  # R_{i jbar k lbar}
        n = self.n
        return self.Rc[..., :n, n:, :n, n:]

    def gray_residual(self):
        """Four-unbarred components must vanish on any Hermitian metric, per point."""
        return self.chern.pointwise_max(self.R_1111())

    def symmetry_residuals(self):
        """The algebraic symmetries of R_{abcd}, each per point."""
        R = self.R4
        out = self.chern.pointwise_max
        return {
            "antisym_first": out(R + R.swapaxes(-4, -3)),
            "antisym_last": out(R + R.swapaxes(-2, -1)),
            "pair_swap": out(R - np.moveaxis(R, (-2, -1), (-4, -3))),
            "first_bianchi": out(R + np.moveaxis(R, -4, -2) + np.moveaxis(R, -2, -4)),
        }

    def theta2_blocks(self):
        """Curvature blocks of the ebar -> e part of the connection.

        Returns (B20, B11, B02) indexed [i, j, k, l] with (Theta_2)_{ij} =
        sum_{k<l} B20 psi_k^psi_l + sum B11 psi_k^psibar_l + ...
        """
        n = self.n
        B20 = np.einsum("...klij->...ijkl", self.Rc[..., :n, :n, n:, n:])
        B11 = np.einsum("...klij->...ijkl", self.Rc[..., :n, n:, n:, n:])
        B02 = np.einsum("...klij->...ijkl", self.Rc[..., n:, n:, n:, n:])
        return B20, B11, B02

    def theta2_norm(self):
        """Largest curvature component of Theta_2, per point."""
        return np.maximum.reduce([self.chern.pointwise_max(B) for B in self.theta2_blocks()])

    def ricci_direction(self, u):
        """Normalized Ricci quadratic form Ric(u, u) / |u|^2 for real vectors ``[..., 2n]``."""
        q = np.einsum("...a,...ab,...b->...", u, self.Ric, u)
        return q / np.einsum("...a,...ab,...b->...", u, self.G, u)


def riemann_at(ch):
    """Riemannian curvature at the point [n] or points [P, n] of the Chern data ``ch``.

    Built from the metric arrays of ``ch``; one point is computed as the
    batch of one.
    """
    arrays = ch.gv, ch.dg, ch.ddg, ch.Pv
    single = ch.point.ndim == 1
    if single:
        arrays = [x[None] for x in arrays]
    G, dG, d2G = _real_metric_arrays(*arrays[:3])
    Gi, Gamma, dGamma = _christoffel(G, dG, d2G)
    R4 = _riemann_real(G, Gamma, dGamma)
    W = complex_frame_coefficients(arrays[3])
    Ric = np.einsum("...cd,...cabd->...ab", Gi, R4)
    fields = dict(
        G=G,
        Gi=Gi,
        Gamma=Gamma,
        R4=R4,
        W=W,
        Rc=_frame_components(W, R4),
        Ric=Ric,
        Scal=np.einsum("...ab,...ab->...", Gi, Ric),
    )
    if single:
        fields = {name: x[0] for name, x in fields.items()}
    return RiemannData(chern=ch, **fields)


# ----------------------------------------------------------------------
# torsion route to the mixed connection/curvature of the real metric
def _from_frame(X, L):
    """sum_k X[k, i, j, ...] L[a, k]: the frame index k becomes the dz slot a.

    [k, i, j] gives [i, j, a] and [k, i, j, c] gives [i, j, a, c].
    """
    if X.ndim - L.ndim == 1:  # [k, i, j]
        return np.moveaxis(X, -3, -1) @ L.swapaxes(-2, -1)[..., None, :, :]
    Y = np.moveaxis(X, -4, -1) @ L.swapaxes(-2, -1)[..., None, None, :, :]  # [i, j, c, a]
    return Y.swapaxes(-2, -1)


def theta2_gamma_forms(ch):
    """(theta_2, gamma, d theta_2) over the coordinate cotangent slots, from torsion.

    (theta_2)_{ij} = sum_k conj(T^k_{ij}) psi_k and
    gamma_{ij} = sum_k (T^j_{ik} psi_k - conj(T^i_{jk}) psibar_k), expanded
    over dz / dzbar with psi_k = sum_a L_{ak} dz_a.  Built from T, dT, L and
    dL only.
    """
    n = ch.n
    T, L, dL = ch.T, ch.Lv, ch.dL
    lead = T.shape[:-3]
    theta2 = np.zeros(lead + (n, n, 2 * n), dtype=complex)
    theta2[..., :n] = _from_frame(T.conj(), L)
    # sum_k conj(T[k, i, j]) dL[a, k, c]: [ij, k] @ [k, (a, c)]
    Tc = T.conj().reshape(lead + (n, n * n)).swapaxes(-2, -1)
    TdL = (Tc @ np.moveaxis(dL, -2, -3).reshape(lead + (n, -1))).reshape(lead + (n, n, n, 2 * n))
    dtheta2 = np.zeros(lead + (n, n, 2 * n, 2 * n), dtype=complex)
    dtheta2[..., :n, :] = _from_frame(conj_slots(ch.dT, -1), L) + TdL
    # T^j_{ik} psi_k and conj(T^i_{jk}) psibar_k
    gamma = np.concatenate(
        [(T @ L.swapaxes(-2, -1)[..., None, :, :]).swapaxes(-3, -2),
         -(T.conj() @ L.conj().swapaxes(-2, -1)[..., None, :, :])],
        axis=-1,
    )
    return theta2, gamma, dtheta2


def _slot_product(A, B):
    """sum_k A[i, k, a] B[k, j, b] as [i, j, a, b], for 1-forms over the slots."""
    n, m = A.shape[-2], A.shape[-1]
    lead = A.shape[:-3]
    AB = np.moveaxis(A, -1, -2).reshape(lead + (n * m, n)) @ B.reshape(lead + (n, n * m))
    return np.moveaxis(AB.reshape(lead + (n, m, n, m)), -2, -3)


def theta2_structure_route(ch, forms=None):
    """Theta_2 = d theta_2 - theta_2 ^ theta_1 - conj(theta_1) ^ theta_2.

    Built entirely from torsion data (plus the Chern connection values,
    theta_1 = theta_u + gamma); independent of the Christoffel route.
    ``forms`` is :func:`theta2_gamma_forms` of ``ch``, computed when not given.
    """
    theta2, gamma, dtheta2 = theta2_gamma_forms(ch) if forms is None else forms
    theta1 = np.moveaxis(ch.theta_u_vals, -3, -1) + gamma
    return (
        dtheta2.swapaxes(-2, -1)
        - _slot_product(theta2, theta1)
        - _slot_product(conj_slots(theta1, -1), theta2)
    )


def torsion_route(ch):
    """(:func:`theta2_gamma_forms`, :func:`theta2_structure_route`) of ``ch``, built once."""
    forms = theta2_gamma_forms(ch)
    return forms, theta2_structure_route(ch, forms)


def theta2_gamma_check(ch, rd):
    """Residual report for the torsion-built mixed connection and curvature.

    Rebuilds theta_2 and gamma from the torsion coefficients, reassembles
    the mixed curvature block through the structure equation, and compares
    against the Christoffel route; also checks that theta_2 carries no
    (0,1) part and that sigma_1, sigma_2 are nonnegative.  Each entry is per
    point.
    """
    S1, S2 = sigma_matrices(ch)
    return {
        "theta2_vs_christoffel": theta2_two_route_residual(ch, rd),
        "theta2_01_part": theta2_zero_one_part_residual(rd),
        "theta2_vs_torsion": theta2_matches_torsion_residual(rd),
        "sigma1_min_eig": np.linalg.eigvalsh(S1).min(axis=-1),
        "sigma2_min_eig": np.linalg.eigvalsh(S2).min(axis=-1),
    }


def theta2_two_route_residual(ch, rd, Theta2=None):
    """Max deviation between the torsion route and the Christoffel route, per point.

    ``Theta2`` is :func:`theta2_structure_route` of ``ch``, computed when not given.
    """
    n = ch.n
    C = ch.Pv.swapaxes(-2, -1)  # dz_a = sum_i C[a, i] psi_i
    M = np.zeros(C.shape[:-2] + (2 * n, 2 * n), dtype=complex)  # dz, dzbar over psi, psibar
    M[..., :n, :n], M[..., n:, n:] = C, C.conj()
    M = M[..., None, None, :, :]
    Theta2 = theta2_structure_route(ch) if Theta2 is None else Theta2
    # route2[i, j] = M^T (Theta2 - Theta2^T)[i, j] M
    route2 = M.swapaxes(-2, -1) @ (Theta2 - Theta2.swapaxes(-2, -1)) @ M
    B20, B11, B02 = rd.theta2_blocks()
    return np.maximum.reduce(
        [
            ch.pointwise_max(route2[..., :n, :n] - B20),
            ch.pointwise_max(route2[..., :n, n:] - B11),
            ch.pointwise_max(route2[..., n:, n:] - B02),
        ]
    )


# ----------------------------------------------------------------------
# Levi-Civita connection forms of an arbitrary frame field (real route)
def levi_civita_frame_connection(rd, frame):
    """theta_1 and theta_2 of the frame field, over coordinate cotangent slots.

    ``frame`` is the pair (F, dF) of the frame vectors
    e_i = sum_a F[i,a] d/dz_a and their Wirtinger derivatives [i, a, c].
    Decomposes nabla e_i = theta_1[i,j] e_j + conj(theta_2)[i,j] ebar_j
    and nabla ebar_i = theta_2[i,j] e_j + conj(theta_1)[i,j] ebar_j,
    evaluated on all 2n real directions, then re-expressed over
    (dz_1..dz_n, dzbar_1..dzbar_n).  Leading point axes of ``rd`` and the
    frame carry through: theta_1, theta_2 are [..., 2n, n, n].
    """
    n = rd.n
    Fv, dF = frame
    dF = np.einsum("rc,...iac->...ria", real_from_wirtinger(n), dF)  # [rho, i, a]
    # rows e_i, ebar_i over the real basis, and their derivative along each rho
    E, dE = complex_frame_coefficients(Fv), complex_frame_coefficients(dF)
    # nabla_rho e_i and nabla_rho ebar_i [rho, i, sigma], decomposed over (e, ebar)
    cov = dE + np.einsum("...ik,...srk->...ris", E, rd.Gamma)
    Mt = np.swapaxes(E, -1, -2)[..., None, :, :]
    theta_rho = np.swapaxes(np.linalg.solve(Mt, np.swapaxes(cov, -1, -2)), -1, -2)[..., :n]
    # real directions rho to dz / dzbar slots
    theta = np.einsum("cr,...rij->...cij", wirtinger_from_real(n), theta_rho)
    return theta[..., :n, :], theta[..., n:, :]


def canonical_theta2(rd):
    """theta_2 of the canonical unitary frame, from the Christoffel symbols."""
    return levi_civita_frame_connection(rd, (rd.chern.Pv, rd.chern.dP))[1]


def theta2_zero_one_part_residual(rd, theta2=None):
    """The (0,1) part of theta_2 must vanish (canonical unitary frame), per point.

    ``theta2`` is :func:`canonical_theta2` of ``rd``, computed when not given.
    """
    theta2 = canonical_theta2(rd) if theta2 is None else theta2
    return rd.chern.pointwise_max(theta2[..., rd.n :, :, :])


def theta2_matches_torsion_residual(rd, theta2=None):
    """(theta_2)_{ij} evaluated on e_k equals conj(T^k_{ij}), per point.

    ``theta2`` is :func:`canonical_theta2` of ``rd``, computed when not given.
    """
    ch = rd.chern
    n = rd.n
    theta2 = canonical_theta2(rd) if theta2 is None else theta2
    # slot values on frame vectors: theta2(e_k) = sum_a Pv[k,a] theta2[a]
    on_frame = ch.Pv @ theta2[..., :n, :, :].reshape(ch.Pv.shape[:-2] + (n, n * n))
    return ch.pointwise_max(on_frame - ch.T.conj().reshape(on_frame.shape))


# ----------------------------------------------------------------------
# nonnegative (1,1) forms built from torsion
def sigma_matrices(ch):
    """Hermitian coefficient matrices of sigma_1 and sigma_2 (unitary frame)."""
    n = ch.n
    lead = ch.T.shape[:-3]
    Tk = ch.T.reshape(lead + (n, n * n))  # [l, ij]
    Tij = ch.T.reshape(lead + (n * n, n))  # [ji, k]
    S2 = Tk.conj() @ Tk.swapaxes(-2, -1)  # sum_ij T[l, i, j] conj(T[k, i, j])
    S1 = Tij.swapaxes(-2, -1) @ Tij.conj()  # sum_ji T[j, i, k] conj(T[j, i, l])
    return S1, S2


def _sigma2_coefficients(ch):
    """sigma_2 as the unnormalised 2-form H[a, b] and its derivatives dH[c, a, b].

    Only the (dz, dzbar) block is nonzero, H = i L S_2 L^*; both come from
    T, dT, L and dL.
    """
    n = ch.n
    T, L = ch.T, ch.Lv
    lead = T.shape[:-3]
    _, S2 = sigma_matrices(ch)
    # derivative slot first: dT [c, l, ij], dL [c, a, k]
    dT = np.moveaxis(ch.dT, -1, -4).reshape(lead + (2 * n, n, n * n))
    dL = np.moveaxis(ch.dL, -1, -3)
    Tk = T.reshape(lead + (n, n * n))[..., None, :, :]
    # dS2[k, l] = sum_ij dT[l, ij] conj(T[k, ij]) + T[l, ij] conj(d T[k, ij])
    dS2 = Tk.conj() @ dT.swapaxes(-2, -1) + conj_slots(dT, -3) @ Tk.swapaxes(-2, -1)  # [c, k, l]
    Lh = L.conj().swapaxes(-2, -1)[..., None, :, :]
    dLbar = conj_slots(dL, -3)  # [c, b, l] = d_c conj(L[b, l])
    H = np.zeros(lead + (2 * n, 2 * n), dtype=complex)
    H[..., :n, n:] = 1j * L @ S2 @ L.conj().swapaxes(-2, -1)
    L1, S21 = L[..., None, :, :], S2[..., None, :, :]
    dH = np.zeros(lead + (2 * n, 2 * n, 2 * n), dtype=complex)
    dH[..., :n, n:] = 1j * (
        dL @ S21 @ Lh + L1 @ dS2 @ Lh + L1 @ S21 @ dLbar.swapaxes(-2, -1)
    )
    return H, dH


def dsigma2_check(ch, use_fd=False, route=None):
    """Residual of d sigma_2 = i tr(conj(Theta_2) theta_2 - conj(theta_2) Theta_2), per point.

    With ``use_fd`` the left side is the finite-difference exterior
    derivative of sigma_2, from one batched ``chern_at`` of the metric on
    the :func:`~hermlab.fd.fd_jet` stencil around the point, rather than its
    closed form (single points only; it never reads ``ch.dT``).  ``route``
    is :func:`torsion_route` of ``ch``, computed when not given.
    """
    n = ch.n
    m = 2 * n
    if use_fd:
        d1 = fd_jet(lambda qs: _sigma2_coefficients(chern_at(ch.metric, qs))[0], ch.point, n)[1]
        lhs = np.moveaxis(d1, -1, -3)  # H[a, b] derivatives [a, b, c] as dH[c, a, b]
    else:
        lhs = _sigma2_coefficients(ch)[1]
    (theta2, _, _), Theta2 = torsion_route(ch) if route is None else route
    lead = theta2.shape[:-3]
    # sum_{i,k} X[i, k, ...] Y[k, i, ...]: flatten (i, k) and contract it
    ik = lead + (n * n, -1)
    t2 = theta2.swapaxes(-3, -2).reshape(ik)  # [(i, k), c] of theta2[k, i, c]
    T2 = Theta2.swapaxes(-4, -3).reshape(ik)  # [(i, k), (b, c)] of Theta2[k, i, b, c]
    rhs = 1j * (
        (conj_slots(Theta2, -2, -1).reshape(ik).swapaxes(-2, -1) @ t2).reshape(lead + (m,) * 3)
        - (conj_slots(theta2, -1).reshape(ik).swapaxes(-2, -1) @ T2).reshape(lead + (m,) * 3)
    )
    return _max_coefficient(ch, lhs - rhs, 3, 0)
