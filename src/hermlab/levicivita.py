"""Levi-Civita connection and Riemannian curvature of the underlying real metric.

The real metric on coordinates (x_1, y_1, ..., x_n, y_n) is calibrated so
that the complex-bilinear extension of the inner product satisfies
< e_i, ebar_j > = g_{ij} for e_i = d/dz_i; concretely
G(dx_i, dx_j) = G(dy_i, dy_j) = 2 Re g_{ij} and G(dx_i, dy_j) = 2 Im g_{ij}.
Curvature follows R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
nabla_{[X,Y]} Z with R_{XYZW} = <R(X,Y)Z, W>; this sign is locked by two
tests: components with four unbarred slots vanish on every Hermitian
metric, and R agrees with the Chern curvature on Kahler metrics.

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

from dataclasses import dataclass

import numpy as np

from .chern import ChernData, _max_coefficient, chern_at
from .forms import Form, fd_exterior_d
from .jets import Jet2, real_from_wirtinger

_IMAG_TOL = 1e-9


def _real_metric_arrays(g):
    """Value, gradient and Hessian arrays of the real metric G.

    Returns (G, dG, d2G) with shapes (2n, 2n), (2n, 2n, 2n), and
    (2n, 2n, 2n, 2n); derivative indices come first.
    """
    n = g.n
    m = 2 * n
    G = np.zeros((m, m))
    dG = np.zeros((m, m, m))
    d2G = np.zeros((m, m, m, m))

    def store(a, b, jet):
        val = jet.value
        rd1 = jet.real_d1()
        rd2 = jet.real_d2()
        if max(abs(val.imag), np.max(np.abs(rd1.imag)), np.max(np.abs(rd2.imag))) > _IMAG_TOL:
            raise ValueError("real metric entry has a non-real jet")
        G[a, b] = val.real
        dG[:, a, b] = rd1.real
        d2G[:, :, a, b] = rd2.real

    for i in range(n):
        for j in range(n):
            sym = g[i, j] + g[j, i]  # 2 Re g_{ij}
            asym = (g[i, j] - g[j, i]) * (-1j)  # 2 Im g_{ij}
            store(2 * i, 2 * j, sym)
            store(2 * i + 1, 2 * j + 1, sym)
            store(2 * i, 2 * j + 1, asym)
            store(2 * i + 1, 2 * j, -asym)
    return G, dG, d2G


def _christoffel(G, dG, d2G):
    Gi = np.linalg.inv(G)
    # Gamma[c, a, b] = Gamma^c_{ab}
    sym = np.einsum("aeb->aeb", dG) + np.einsum("bea->aeb", dG) - np.einsum("eab->aeb", dG)
    Gamma = 0.5 * np.einsum("ce,aeb->cab", Gi, sym)
    dGi = -np.einsum("cd,edf,fg->ecg", Gi, dG, Gi)
    dsym = (
        np.einsum("eafb->eafb", d2G)
        + np.einsum("ebfa->eafb", d2G)
        - np.einsum("efab->eafb", d2G)
    )
    dGamma = 0.5 * (
        np.einsum("ecf,afb->ecab", dGi, sym) + np.einsum("cf,eafb->ecab", Gi, dsym)
    )
    return Gi, Gamma, dGamma


def _riemann_real(G, Gamma, dGamma):
    # R(d_a, d_b) d_c = Rup[e, a, b, c] d_e
    Rup = (
        np.einsum("aebc->eabc", dGamma)
        - np.einsum("beac->eabc", dGamma)
        + np.einsum("eaf,fbc->eabc", Gamma, Gamma)
        - np.einsum("ebf,fac->eabc", Gamma, Gamma)
    )
    return np.einsum("eabc,ed->abcd", Rup, G)


def complex_frame_coefficients(Pv):
    """Rows of (e_1..e_n, ebar_1..ebar_n) over the 2n real coordinate basis."""
    n = Pv.shape[0]
    W = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        for a in range(n):
            W[i, 2 * a] = 0.5 * Pv[i, a]
            W[i, 2 * a + 1] = -0.5j * Pv[i, a]
    W[n:] = np.conj(W[:n])
    return W


@dataclass
class RiemannData:
    """Riemannian curvature data of a metric at one chart point."""

    chern: ChernData
    G: np.ndarray
    Gi: np.ndarray
    Gamma: np.ndarray
    R4: np.ndarray  # real components R_{abcd}
    W: np.ndarray  # unitary complexified frame over the real basis
    Rc: np.ndarray  # complexified components in the unitary frame, (2n)^4
    Ric: np.ndarray
    Scal: float

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
        return self.Rc[:n, :n, :n, :n]

    def R_11bar(self):  # R_{i jbar k lbar}
        n = self.n
        return self.Rc[:n, n:, :n, n:]

    def R_20_mixed(self):  # R_{i j k lbar}
        n = self.n
        return self.Rc[:n, :n, :n, n:]

    def R_02_mixed(self):  # R_{i j kbar lbar}
        n = self.n
        return self.Rc[:n, :n, n:, n:]

    def gray_residual(self):
        """Four-unbarred components must vanish on any Hermitian metric."""
        return float(np.max(np.abs(self.R_1111())))

    def symmetry_residuals(self):
        R = self.R4
        return {
            "antisym_first": float(np.max(np.abs(R + R.transpose(1, 0, 2, 3)))),
            "antisym_last": float(np.max(np.abs(R + R.transpose(0, 1, 3, 2)))),
            "pair_swap": float(np.max(np.abs(R - R.transpose(2, 3, 0, 1)))),
            "first_bianchi": float(
                np.max(
                    np.abs(R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3))
                )
            ),
        }

    def theta2_blocks(self):
        """Curvature blocks of the ebar -> e part of the connection.

        Returns (B20, B11, B02) indexed [i, j, k, l] with (Theta_2)_{ij} =
        sum_{k<l} B20 psi_k^psi_l + sum B11 psi_k^psibar_l + ...
        """
        n = self.n
        B20 = np.einsum("klij->ijkl", self.Rc[:n, :n, n:, n:])
        B11 = np.einsum("klij->ijkl", self.Rc[:n, n:, n:, n:])
        B02 = np.einsum("klij->ijkl", self.Rc[n:, n:, n:, n:])
        return B20, B11, B02

    def theta2_norm(self):
        B20, B11, B02 = self.theta2_blocks()
        return max(float(np.max(np.abs(B))) for B in (B20, B11, B02))

    def ricci_direction(self, u):
        """Normalized Ricci quadratic form Ric(u, u) / |u|^2 for a real vector."""
        q = float(u @ self.Ric @ u)
        return q / float(u @ self.G @ u)


def riemann_at(metric, point, chern_data=None, g=None):
    if chern_data is None:
        chern_data = chern_at(metric, point, g=g)
    G, dG, d2G = _real_metric_arrays(chern_data.g)
    Gi, Gamma, dGamma = _christoffel(G, dG, d2G)
    R4 = _riemann_real(G, Gamma, dGamma)
    W = complex_frame_coefficients(chern_data.Pv)
    Rc = np.einsum("Aa,Bb,Cc,Dd,abcd->ABCD", W, W, W, W, R4, optimize=True)
    Ric = np.einsum("cd,cabd->ab", Gi, R4)
    Scal = float(np.einsum("ab,ab->", Gi, Ric))
    return RiemannData(
        chern=chern_data,
        G=G,
        Gi=Gi,
        Gamma=Gamma,
        R4=R4,
        W=W,
        Rc=Rc,
        Ric=Ric,
        Scal=Scal,
    )


# ----------------------------------------------------------------------
# torsion route to the mixed connection/curvature of the real metric
def _conj_slots(X, *axes):
    """Complex conjugate of X with the dz / dzbar halves of ``axes`` swapped.

    On a derivative slot this differentiates the conjugate
    (d/dz conj(f) = conj(d/dzbar f)); on form slots it is the conjugate form.
    """
    return np.roll(X.conj(), X.shape[axes[0]] // 2, axis=axes)


def theta2_gamma_forms(ch):
    """(theta_2, gamma, d theta_2) over the coordinate cotangent slots, from torsion.

    (theta_2)_{ij} = sum_k conj(T^k_{ij}) psi_k and
    gamma_{ij} = sum_k (T^j_{ik} psi_k - conj(T^i_{jk}) psibar_k), expanded
    over dz / dzbar with psi_k = sum_a L_{ak} dz_a.  Built from T, dT, L and
    dL only.
    """
    n = ch.n
    T, L = ch.T, ch.Lv
    theta2 = np.zeros((n, n, 2 * n), dtype=complex)
    theta2[..., :n] = np.einsum("kij,ak->ija", T.conj(), L)
    dtheta2 = np.zeros((n, n, 2 * n, 2 * n), dtype=complex)
    dtheta2[:, :, :n] = np.einsum("kijc,ak->ijac", _conj_slots(ch.dT, 3), L) + np.einsum(
        "kij,akc->ijac", T.conj(), ch.dL
    )
    gamma = np.concatenate(
        [np.einsum("jik,ak->ija", T, L), -np.einsum("ijk,ak->ija", T.conj(), L.conj())],
        axis=2,
    )
    return theta2, gamma, dtheta2


def theta2_structure_route(ch):
    """Theta_2 = d theta_2 - theta_2 ^ theta_1 - conj(theta_1) ^ theta_2.

    Built entirely from torsion data (plus the Chern connection values,
    theta_1 = theta_u + gamma); independent of the Christoffel route.
    """
    theta2, gamma, dtheta2 = theta2_gamma_forms(ch)
    theta1 = ch.theta_u_vals.transpose(1, 2, 0) + gamma
    return (
        dtheta2.transpose(0, 1, 3, 2)
        - np.einsum("ika,kjb->ijab", theta2, theta1)
        - np.einsum("ika,kjb->ijab", _conj_slots(theta1, 2), theta2)
    )


def theta2_gamma_check(ch, rd):
    """Residual report for the torsion-built mixed connection and curvature.

    Rebuilds theta_2 and gamma from the torsion coefficients, reassembles
    the mixed curvature block through the structure equation, and compares
    against the Christoffel route; also checks that theta_2 carries no
    (0,1) part and that sigma_1, sigma_2 are nonnegative.
    """
    S1, S2 = sigma_matrices(ch)
    return {
        "theta2_vs_christoffel": theta2_two_route_residual(ch, rd),
        "theta2_01_part": theta2_zero_one_part_residual(rd),
        "theta2_vs_torsion": theta2_matches_torsion_residual(rd),
        "sigma1_min_eig": float(np.linalg.eigvalsh(S1).min()),
        "sigma2_min_eig": float(np.linalg.eigvalsh(S2).min()),
    }


def theta2_two_route_residual(ch, rd):
    """Max deviation between the torsion route and the Christoffel route."""
    n = ch.n
    C = ch.frame_coframe_change()
    M = np.zeros((2 * n, 2 * n), dtype=complex)  # dz, dzbar over psi, psibar
    M[:n, :n], M[n:, n:] = C, C.conj()
    Theta2 = theta2_structure_route(ch)
    route2 = np.einsum("ijab,aA,bB->ijAB", Theta2 - Theta2.transpose(0, 1, 3, 2), M, M)
    B20, B11, B02 = rd.theta2_blocks()
    return max(
        float(np.max(np.abs(route2[:, :, :n, :n] - B20))),
        float(np.max(np.abs(route2[:, :, :n, n:] - B11))),
        float(np.max(np.abs(route2[:, :, n:, n:] - B02))),
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
    (dz_1..dz_n, dzbar_1..dzbar_n).
    """
    n = rd.n
    m = 2 * n
    Fv, dF = frame
    dF = np.einsum("rc,iac->iar", real_from_wirtinger(n), dF)  # [i, a, rho]

    e0 = np.zeros((n, m), dtype=complex)
    for a in range(n):
        e0[a, 2 * a] = 0.5
        e0[a, 2 * a + 1] = -0.5j
    E = Fv @ e0  # frame vectors over the real basis
    dE = np.einsum("iar,as->ris", dF, e0)  # [rho, i, sigma]

    M = np.vstack([E, np.conj(E)])  # rows decompose results

    theta1_rho = np.zeros((m, n, n), dtype=complex)
    theta2_rho = np.zeros((m, n, n), dtype=complex)
    for rho in range(m):
        # nabla_rho e_i
        covE = dE[rho] + np.einsum("ik,sk->is", E, rd.Gamma[:, rho, :])
        coeff = np.linalg.solve(M.T, covE.T).T  # rows i, cols over (e, ebar)
        theta1_rho[rho] = coeff[:, :n]
        # nabla_rho ebar_i
        covEbar = np.conj(dE[rho]) + np.einsum(
            "ik,sk->is", np.conj(E), rd.Gamma[:, rho, :]
        )
        coeff2 = np.linalg.solve(M.T, covEbar.T).T
        theta2_rho[rho] = coeff2[:, :n]

    # convert real-direction values to dz / dzbar coefficients
    theta1 = np.zeros((m, n, n), dtype=complex)
    theta2 = np.zeros((m, n, n), dtype=complex)
    for a in range(n):
        theta1[a] = 0.5 * (theta1_rho[2 * a] - 1j * theta1_rho[2 * a + 1])
        theta1[n + a] = 0.5 * (theta1_rho[2 * a] + 1j * theta1_rho[2 * a + 1])
        theta2[a] = 0.5 * (theta2_rho[2 * a] - 1j * theta2_rho[2 * a + 1])
        theta2[n + a] = 0.5 * (theta2_rho[2 * a] + 1j * theta2_rho[2 * a + 1])
    return theta1, theta2


def theta2_zero_one_part_residual(rd):
    """The (0,1) part of theta_2 must vanish (canonical unitary frame)."""
    _, theta2 = levi_civita_frame_connection(rd, (rd.chern.Pv, rd.chern.dP))
    return float(np.max(np.abs(theta2[rd.n :])))


def theta2_matches_torsion_residual(rd):
    """(theta_2)_{ij} evaluated on e_k equals conj(T^k_{ij})."""
    ch = rd.chern
    n = rd.n
    _, theta2 = levi_civita_frame_connection(rd, (ch.Pv, ch.dP))
    # slot values on frame vectors: theta2(e_k) = sum_a Pv[k,a] theta2[a]
    on_frame = np.einsum("ka,aij->kij", ch.Pv, theta2[:n])
    expected = np.conj(ch.T)  # [k, i, j]
    return float(np.max(np.abs(on_frame - expected)))


# ----------------------------------------------------------------------
# nonnegative (1,1) forms built from torsion
def sigma_matrices(ch):
    """Hermitian coefficient matrices of sigma_1 and sigma_2 (unitary frame)."""
    T = ch.T
    S2 = np.einsum("lij,kij->kl", T, np.conj(T))
    S1 = np.einsum("jik,jil->kl", T, np.conj(T))
    return S1, S2


def _sigma2_coefficients(ch):
    """sigma_2 as the unnormalised 2-form H[a, b] and its derivatives dH[a, b, c].

    Only the (dz, dzbar) block is nonzero, H = i L S_2 L^*; both come from
    T, dT, L and dL.
    """
    n = ch.n
    T, dT, L, dL = ch.T, ch.dT, ch.Lv, ch.dL
    _, S2 = sigma_matrices(ch)
    dS2 = np.einsum("lijc,kij->klc", dT, T.conj()) + np.einsum(
        "lij,kijc->klc", T, _conj_slots(dT, 3)
    )
    dLbar = _conj_slots(dL, 2)
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    H[:n, n:] = 1j * L @ S2 @ L.conj().T
    dH = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
    dH[:n, n:] = 1j * (
        np.einsum("akc,kl,bl->abc", dL, S2, L.conj())
        + np.einsum("ak,klc,bl->abc", L, dS2, L.conj())
        + np.einsum("ak,kl,blc->abc", L, S2, dLbar)
    )
    return H, dH


def sigma2_form(ch):
    """sigma_2 = i tr(conj(theta_2) ^ theta_2) as a form with value coefficients."""
    n = ch.n
    H, _ = _sigma2_coefficients(ch)
    return Form(
        n,
        2,
        {(a, b): Jet2(n, H[a, b], None, None, 0) for a in range(n) for b in range(n, 2 * n)},
    )


def dsigma2_check(ch, use_fd=False):
    """Residual of d sigma_2 = i tr(conj(Theta_2) theta_2 - conj(theta_2) Theta_2).

    With ``use_fd`` the left side is the finite-difference exterior
    derivative of sigma_2 at nearby points rather than its closed form.
    """
    n = ch.n
    if use_fd:
        d_sigma2 = fd_exterior_d(lambda q: sigma2_form(chern_at(ch.metric, q)), ch.point, n)
        lhs = np.zeros((2 * n,) * 3, dtype=complex)
        for key, jet in d_sigma2.coeffs.items():
            lhs[key] = jet.value
    else:
        lhs = _sigma2_coefficients(ch)[1].transpose(2, 0, 1)
    theta2, _, _ = theta2_gamma_forms(ch)
    Theta2 = theta2_structure_route(ch)
    rhs = 1j * (
        np.einsum("ikab,kic->abc", _conj_slots(Theta2, 2, 3), theta2)
        - np.einsum("ika,kibc->abc", _conj_slots(theta2, 2), Theta2)
    )
    return _max_coefficient(lhs - rhs, 3, 0)
