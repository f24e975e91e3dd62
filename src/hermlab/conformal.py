"""Conformal change machinery: transformed metrics, torsion and connection
transformation laws, and the curvature-symmetry preservation criteria.

For g~ = e^{2u} g the Cholesky factor scales as L~ = e^u L, so the canonical
unitary frames of base and transformed metric are automatically matched:
e~ = e^{-u} e.  All transformation laws below are checked in these frames.

Gradient and Laplacian conventions: |grad f|^2 and the Laplacian are taken
with respect to the real metric of the base; on a unitary frame the (1,0)
gradient satisfies sum_k |e_k(f)|^2 = |grad f|^2 / 2, which fixes the
constant in the Hessian criterion below (locked by the |z - p|^{-4} worked
example and by the trace consequence lambda * lap(lambda) = n |grad lambda|^2).

The transformation-law residuals take precomputed data over a batch of
points (leading point axes): the base metric's Chern/Riemann data (the
CLI takes them from the report's first chunk), the scaled metric's, computed
by one batched ``chern_at``/``riemann_at`` call per exponent, and the
exponent's value and first derivatives (:meth:`ConformalFactor.u_values`).
They return one residual per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chern import chern_at
from .dsl import _batch_jet, conformal_scale, eval_expr, to_source
from .errors import HermlabError
from .levicivita import levi_civita_frame_connection, riemann_at

_REAL_TOL = 1e-12


@dataclass
class ConformalFactor:
    """A real-valued exponent expression u, with lambda = e^{-u} derived."""

    u_expr: object
    name: str = "u"

    def u_jet(self, point, n):
        jet = eval_expr(self.u_expr, point, n)
        if abs(jet.value.imag) > _REAL_TOL:
            raise HermlabError(
                f"conformal exponent {to_source(self.u_expr)!r} is not real at {point}"
            )
        return jet

    def u_values(self, points):
        """u and its first derivatives [..., 2n] at points [..., n], one batch."""
        z = np.asarray(points, dtype=complex)
        value, du, _ = _batch_jet(self.u_expr, z)
        bad = np.flatnonzero(np.abs(np.ravel(value.imag)) > _REAL_TOL)
        if len(bad):
            point = z.reshape(-1, z.shape[-1])[bad[0]]
            raise HermlabError(
                f"conformal exponent {to_source(self.u_expr)!r} is not real at {point}"
            )
        if du is None:  # a constant exponent
            du = np.zeros(z.shape[:-1] + (2 * z.shape[-1],), dtype=complex)
        return value, du

    def lambda_jet(self, point, n):
        return (-self.u_jet(point, n)).exp()


def conformal_metric(base, factor, name=None):
    """The metric with entries multiplied by e^{2u} at the expression level."""
    return conformal_scale(base, factor.u_expr, name or f"{base.name}*e^2u")


def _frame_gradient(ch, du):
    """Frame-direction derivatives u_j = e_j(u) from u's Wirtinger derivatives."""
    return np.einsum("...ja,...a->...j", ch.Pv, du[..., : ch.n])


def torsion_transform_residual(base_ch, new_ch, u):
    """Residual of e^u T~^i_{jk} = T^i_{jk} + u_j delta_ik - u_k delta_ij, per point.

    ``base_ch`` and ``new_ch`` hold the Chern data of the base and the
    transformed metric at the same points; ``u`` is the exponent's value
    and first derivatives there (:meth:`ConformalFactor.u_values`).
    """
    value, du = u
    uj = _frame_gradient(base_ch, du)
    eye = np.eye(base_ch.n)
    expected = (
        base_ch.T
        + np.einsum("...j,ik->...ijk", uj, eye)
        - np.einsum("...k,ij->...ijk", uj, eye)
    )
    eu = np.exp(value.real)[..., None, None, None]
    return np.abs(eu * new_ch.T - expected).max(axis=(-3, -2, -1))


def connection_transform_residuals(base_rd, new_rd, u):
    """Residuals of the mixed-connection transformation laws, per point.

    theta~_1 = theta_1 + v tphi - phibar v*  and
    theta~_2 = theta_2 + vbar tphi - phi v*, with v = t(u_1, ..., u_n),
    in the matched unitary frames.  Both sides are evaluated over the
    coordinate cotangent slots; the base-frame coframe phi is expanded as
    psi_i = sum_a L_{ai} dz_a.  The arguments are as for
    :func:`torsion_transform_residual`, with Riemann data.
    """
    n = base_rd.n
    ch0, ch1 = base_rd.chern, new_rd.chern
    th1_0, th2_0 = levi_civita_frame_connection(base_rd, (ch0.Pv, ch0.dP))
    th1_1, th2_1 = levi_civita_frame_connection(new_rd, (ch1.Pv, ch1.dP))

    v = _frame_gradient(ch0, u[1])
    vbar, Lv = np.conj(v), ch0.Lv  # psi_i = sum_a L[a, i] dz_a
    # over slot c: (v tphi)_{ij} has dz_a coefficient v_i L[a, j]
    vtphi = np.einsum("...i,...aj->...aij", v, Lv)
    vbar_tphi = np.einsum("...i,...aj->...aij", vbar, Lv)
    phi_vstar = np.einsum("...ai,...j->...aij", Lv, vbar)
    phibar_vstar = np.einsum("...ai,...j->...aij", np.conj(Lv), vbar)
    zero = np.zeros_like(vtphi)

    def dz(x):  # dz_a coefficients, no dzbar part
        return np.concatenate([x, zero], axis=-3)

    def dzbar(x):
        return np.concatenate([zero, x], axis=-3)

    r1 = th1_1 - (th1_0 + dz(vtphi) - dzbar(phibar_vstar))
    r2 = th2_1 - (th2_0 + dz(vbar_tphi) - dz(phi_vstar))
    return {
        "theta1": np.abs(r1).max(axis=(-3, -2, -1)),
        "theta2": np.abs(r2).max(axis=(-3, -2, -1)),
    }


# ----------------------------------------------------------------------
# preservation criteria for the two curvature symmetries
def pluriharmonic_residual(factor, point, n):
    """Max |del delbar u| at the point (criterion for the Chern symmetry)."""
    jet = factor.u_jet(point, n)
    return float(np.max(np.abs(jet.d2[:n, n:])))


def _real_gradient_sq(rd, jet):
    grad = np.real(jet.real_d1())
    return float(grad @ rd.Gi @ grad)


def _real_hessian(rd, jet):
    grad = np.real(jet.real_d1())
    hess = np.real(jet.real_d2())
    return hess - np.einsum("cab,c->ab", rd.Gamma, grad)


def hessian_conditions(base_rd, factor, point):
    """Conditions on lambda = e^{-u} preserving the Riemannian symmetry.

    H(X, Y) = 0 and lambda H(X, Ybar) = <X, Ybar> |grad lambda|^2 / 2 for
    (1,0) frame vectors, with the Hessian and gradient of the base metric.
    Returns the residual report, scalar consequences included.
    """
    point = np.asarray(point, dtype=complex)
    ch = base_rd.chern
    n = ch.n
    lam = factor.lambda_jet(point, n)
    hess = _real_hessian(base_rd, lam)
    gradsq = _real_gradient_sq(base_rd, lam)
    lam0 = lam.value.real

    W = base_rd.W
    Hc = np.einsum("Aa,Bb,ab->AB", W, W, hess.astype(complex))
    H_hol = Hc[:n, :n]
    H_mixed = Hc[:n, n:]

    holo = float(np.max(np.abs(H_hol)))
    mixed = float(np.max(np.abs(lam0 * H_mixed - 0.5 * gradsq * np.eye(n))))

    lap = float(np.einsum("ab,ab->", base_rd.Gi, hess))
    scalar = abs(lam0 * lap - n * gradsq)

    # harmonicity of e^{(n-1)u} = lambda^{-(n-1)}
    w = lam.powi(-(n - 1))
    hess_w = _real_hessian(base_rd, w)
    harmonic = abs(float(np.einsum("ab,ab->", base_rd.Gi, hess_w)))

    scale = 1.0 + abs(lam0) + gradsq
    return {
        "hessian_holomorphic": holo / scale,
        "hessian_mixed": mixed / scale,
        "scalar_trace": scalar / scale,
        "harmonic_power": harmonic / scale,
    }


def gk_conformal_conditions(base, factor, point, base_rd=None):
    """Evaluate the Riemannian-symmetry preservation criterion at a point.

    Requires the base metric to satisfy the symmetry itself; raises
    otherwise.  Returns condition residuals together with the transformed
    metric's actual symmetry residual, so callers can check the
    biconditional.
    """
    point = np.asarray(point, dtype=complex)
    if base_rd is None:
        base_rd = riemann_at(base, point)
    base_theta2 = base_rd.theta2_norm()
    scale = 1.0 + float(np.max(np.abs(base_rd.Rc)))
    if base_theta2 / scale > 1e-6:
        raise HermlabError(
            "base metric does not have the Riemannian Kahler symmetry at this point"
        )
    conditions = hessian_conditions(base_rd, factor, point)
    new_rd = riemann_at(conformal_metric(base, factor), point)
    new_scale = 1.0 + float(np.max(np.abs(new_rd.Rc)))
    conditions["transformed_theta2"] = new_rd.theta2_norm() / new_scale
    return conditions


def klike_conformal_conditions(base, factor, point, base_ch=None):
    """Evaluate the Chern-symmetry preservation criterion at a point.

    The criterion is del delbar u = 0; the report carries the transformed
    metric's actual symmetry residual for the biconditional check.
    """
    from .classify import kahler_like_residual

    point = np.asarray(point, dtype=complex)
    n = base.n
    if base_ch is None:
        base_ch = chern_at(base, point)
    base_res = kahler_like_residual(base_ch) / (1.0 + float(np.max(np.abs(base_ch.Rh))))
    if base_res > 1e-6:
        raise HermlabError(
            "base metric does not have the Chern Kahler symmetry at this point"
        )
    new_ch = chern_at(conformal_metric(base, factor), point)
    return {
        "pluriharmonic": pluriharmonic_residual(factor, point, n),
        "transformed_kahler_like": kahler_like_residual(new_ch)
        / (1.0 + float(np.max(np.abs(new_ch.Rh)))),
    }
