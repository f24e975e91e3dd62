"""Levi-Civita connection and Riemannian curvature of the underlying real metric.

The real metric on coordinates (x_1, y_1, ..., x_n, y_n) is calibrated so
that the complex-bilinear extension of the inner product satisfies
< e_i, ebar_j > = g_{ij} for e_i = d/dz_i; concretely
G(dx_i, dx_j) = G(dy_i, dy_j) = 2 Re g_{ij} and G(dx_i, dy_j) = 2 Im g_{ij}.
Curvature follows R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
nabla_{[X,Y]} Z with R_{XYZW} = <R(X,Y)Z, W>; this sign is locked by two
tests: components with four unbarred slots vanish on every Hermitian
metric, and R agrees with the Chern curvature on Kahler metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chern import ChernData, chern_at
from .forms import Form, fd_exterior_d, mat_conj, mat_trace, mat_wedge
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
def _order1_jets(n, values, d1):
    """Object array of order-1 jets from a dense value / derivative pair.

    The torsion route starts from T and L as jets, so its exterior
    derivatives come from the jet algebra and not from the dense core.
    """
    out = np.empty(values.shape, dtype=object)
    for idx in np.ndindex(values.shape):
        out[idx] = Jet2(n, values[idx], d1[idx], None, 1)
    return out


def theta2_gamma_forms(ch):
    """(theta_2, gamma) as coordinate-basis form matrices, from torsion.

    (theta_2)_{ij} = sum_k conj(T^k_{ij}) psi_k and
    gamma_{ij} = sum_k (T^j_{ik} psi_k - conj(T^i_{jk}) psibar_k), expanded
    over dz / dzbar with psi_k = sum_a L_{ak} dz_a.
    """
    n = ch.n
    T, L = _order1_jets(n, ch.T, ch.dT), _order1_jets(n, ch.Lv, ch.dL)
    theta2 = [[Form(n, 1) for _ in range(n)] for _ in range(n)]
    gamma = [[Form(n, 1) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ck = T[k, i, j].conj()
                tk = T[j, i, k]
                cik = T[i, j, k].conj()
                for a in range(n):
                    theta2[i][j] = theta2[i][j] + Form(n, 1, {(a,): ck * L[a, k]})
                    gamma[i][j] = gamma[i][j] + Form(n, 1, {(a,): tk * L[a, k]})
                    gamma[i][j] = gamma[i][j] - Form(
                        n, 1, {(n + a,): cik * L[a, k].conj()}
                    )
    return theta2, gamma


def _theta_unitary_forms(ch):
    """Unitary-frame Chern connection as coordinate-basis forms (values)."""
    n = ch.n
    out = [[Form(n, 1) for _ in range(n)] for _ in range(n)]
    for c in range(2 * n):
        vals = ch.theta_u_vals[c]
        for i in range(n):
            for j in range(n):
                if vals[i, j] != 0:
                    out[i][j] = out[i][j] + Form(
                        n, 1, {(c,): Jet2(n, vals[i, j], None, None, 0)}
                    )
    return out


def theta2_structure_route(ch):
    """Theta_2 = d theta_2 - theta_2 ^ theta_1 - conj(theta_1) ^ theta_2.

    Built entirely from torsion data (plus the Chern connection values);
    independent of the Christoffel route.
    """
    theta2, gamma = theta2_gamma_forms(ch)
    theta_u = _theta_unitary_forms(ch)
    theta1 = [
        [theta_u[i][j] + gamma[i][j] for j in range(ch.n)] for i in range(ch.n)
    ]
    d_theta2 = [[f.exterior_d() for f in row] for row in theta2]
    t2t1 = mat_wedge(theta2, theta1)
    t1bar_t2 = mat_wedge(mat_conj(theta1), theta2)
    n = ch.n
    return [
        [d_theta2[i][j] - t2t1[i][j] - t1bar_t2[i][j] for j in range(n)]
        for i in range(n)
    ]


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
    B20, B11, B02 = rd.theta2_blocks()
    route2 = theta2_structure_route(ch)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            A20, A11, A02 = route2[i][j].to_coframe(C).blocks_2form()
            worst = max(
                worst,
                float(np.max(np.abs(A20 - B20[i, j]))),
                float(np.max(np.abs(A11 - B11[i, j]))),
                float(np.max(np.abs(A02 - B02[i, j]))),
            )
    return worst


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


def sigma2_form(ch):
    """sigma_2 = i tr(conj(theta_2) ^ theta_2) with jet coefficients."""
    n = ch.n
    T, L = _order1_jets(n, ch.T, ch.dT), _order1_jets(n, ch.Lv, ch.dL)
    S2 = [[Jet2.constant(0.0, n) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for l in range(n):
            acc = Jet2.constant(0.0, n)
            for i in range(n):
                for j in range(n):
                    acc = acc + T[l, i, j] * T[k, i, j].conj()
            S2[k][l] = acc
    out = Form(n, 2)
    for k in range(n):
        for l in range(n):
            for a in range(n):
                for b in range(n):
                    coeff = S2[k][l] * L[a, k] * L[b, l].conj() * 1j
                    out = out + Form(n, 2, {(a, n + b): coeff})
    return out


def dsigma2_check(ch, use_fd=False):
    """Residual of d sigma_2 = i tr(conj(Theta_2) theta_2 - conj(theta_2) Theta_2)."""
    n = ch.n
    if use_fd:
        from .chern import chern_at as _chern_at

        lhs = fd_exterior_d(
            lambda q: sigma2_form(_chern_at(ch.metric, q)), ch.point, n
        )
    else:
        lhs = sigma2_form(ch).exterior_d()
    theta2, _gamma = theta2_gamma_forms(ch)
    Theta2 = theta2_structure_route(ch)
    term1 = mat_wedge(mat_conj(Theta2), theta2)
    term2 = mat_wedge(mat_conj(theta2), Theta2)
    rhs = (mat_trace(term1) - mat_trace(term2)).scale(1j)
    return (lhs - rhs).max_abs()
