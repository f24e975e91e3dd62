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
points (leading point axes): the base metric's Chern data at the report's
first points (:func:`transforms`), the scaled metric's, computed by one
batched ``chern_at`` call per exponent (each read for its Levi-Civita
fields too), and the exponent's value and first derivatives
(:meth:`ConformalFactor.u_values`).
They return one residual per point.

The preservation criteria take one point [n] or a batch [..., n] and also
return one residual per point.  They read u, lambda = e^{-u} and
e^{(n-1)u} as batched jets of expression trees (``dsl._batch_jet``), the
last two built the way :func:`conformal_metric` builds e^{2u}, and move
their derivatives to real directions with ``real_from_wirtinger``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chern import chern_at, kahler_like_residual
from .dsl import BinOp, Call, Lit, _batch_jet, conformal_scale, parse, real_from_wirtinger, to_source
from .errors import HermlabError
from .levicivita import levi_civita_frame_connection, theta2_norm

_REAL_TOL = 1e-12


@dataclass
class ConformalFactor:
    """A real-valued exponent expression u, with lambda = e^{-u} derived."""

    u_expr: object
    name: str = "u"

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


def connection_transform_residuals(base_ch, new_ch, u):
    """Residuals of the mixed-connection transformation laws, per point.

    theta~_1 = theta_1 + v tphi - phibar v*  and
    theta~_2 = theta_2 + vbar tphi - phi v*, with v = t(u_1, ..., u_n),
    in the matched unitary frames.  Both sides are evaluated over the
    coordinate cotangent slots; the base-frame coframe phi is expanded as
    psi_i = sum_a L_{ai} dz_a.  The arguments are as for
    :func:`torsion_transform_residual`.
    """
    th1_0, th2_0 = levi_civita_frame_connection(base_ch, (base_ch.Pv, base_ch.dP))
    th1_1, th2_1 = levi_civita_frame_connection(new_ch, (new_ch.Pv, new_ch.dP))

    v = _frame_gradient(base_ch, u[1])
    vbar, Lv = np.conj(v), base_ch.Lv  # psi_i = sum_a L[a, i] dz_a
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


CONFORMAL_EXPONENTS = ("re(z1)", "ln(1 + abs2(z1)) / 2")


def transforms(ch):
    """Each exponent's torsion, theta_1 and theta_2 transformation residuals at ``ch``'s points, by (exponent, law)."""
    batch, out = ch.point, {}
    for src in CONFORMAL_EXPONENTS:
        factor = ConformalFactor(parse(src, ch.n), name=src)
        # the scaled metric once per exponent, over all the points at once
        scaled = conformal_metric(ch.metric, factor)
        new_ch = chern_at(scaled, batch)
        u = factor.u_values(batch)
        res = connection_transform_residuals(ch, new_ch, u)
        out[src, "theta1"], out[src, "theta2"] = res["theta1"], res["theta2"]
        out[src, "torsion"] = torsion_transform_residual(ch, new_ch, u)
    return out


# ----------------------------------------------------------------------
# preservation criteria for the two curvature symmetries
def pluriharmonic_residual(factor, points):
    """Max |del delbar u| per point (criterion for the Chern symmetry)."""
    z = np.asarray(points, dtype=complex)
    n = z.shape[-1]
    factor.u_values(z)  # raises unless u is real at every point
    d2 = _batch_jet(factor.u_expr, z)[2]
    if d2 is None:  # u is at most affine
        return np.zeros(z.shape[:-1])
    return np.abs(d2[..., :n, n:]).max(axis=(-2, -1))


def _exp_times(c, expr):
    """The expression e^{c expr}, built as conformal_scale builds e^{2u}."""
    return Call("exp", BinOp("*", Lit(complex(c)), expr))


def _real_hessian(ch, expr, z):
    """Value, real gradient [..., 2n] and covariant real Hessian of a real ``expr``."""
    n = z.shape[-1]
    C = real_from_wirtinger(n)
    value, d1, d2 = _batch_jet(expr, z)
    grad = np.zeros(z.shape[:-1] + (2 * n,)) if d1 is None else np.real(d1 @ C.T)
    hess = np.zeros(grad.shape + (2 * n,)) if d2 is None else np.real(C @ d2 @ C.T)
    hess = hess - np.einsum("...cab,...c->...ab", ch.Gamma, grad)
    return np.real(value), grad, hess


def hessian_conditions(base_ch, factor, points):
    """Conditions on lambda = e^{-u} preserving the Riemannian symmetry, per point.

    H(X, Y) = 0 and lambda H(X, Ybar) = <X, Ybar> |grad lambda|^2 / 2 for
    (1,0) frame vectors, with the Hessian and gradient of the base metric.
    Returns the residual report, scalar consequences included.
    """
    z = np.asarray(points, dtype=complex)
    n = z.shape[-1]
    factor.u_values(z)  # raises unless u is real at every point
    lam, grad, hess = _real_hessian(base_ch, _exp_times(-1, factor.u_expr), z)
    Gi, W = base_ch.Gi, base_ch.W
    gradsq = np.einsum("...a,...ab,...b->...", grad, Gi, grad)

    Hc = W @ hess @ W.swapaxes(-2, -1)
    holo = np.abs(Hc[..., :n, :n]).max(axis=(-2, -1))
    mixed = lam[..., None, None] * Hc[..., :n, n:] - 0.5 * gradsq[..., None, None] * np.eye(n)
    mixed = np.abs(mixed).max(axis=(-2, -1))
    scalar = np.abs(lam * np.einsum("...ab,...ab->...", Gi, hess) - n * gradsq)

    # harmonicity of e^{(n-1)u} = lambda^{-(n-1)}
    hess_w = _real_hessian(base_ch, _exp_times(n - 1, factor.u_expr), z)[2]
    harmonic = np.abs(np.einsum("...ab,...ab->...", Gi, hess_w))

    scale = 1.0 + np.abs(lam) + gradsq
    return {
        "hessian_holomorphic": holo / scale,
        "hessian_mixed": mixed / scale,
        "scalar_trace": scalar / scale,
        "harmonic_power": harmonic / scale,
    }


def _relative_theta2(ch):
    return theta2_norm(ch) / (1.0 + ch.pointwise_max(ch.Rc))


def _relative_kahler_like(ch):
    return kahler_like_residual(ch) / (1.0 + ch.pointwise_max(ch.Rh))


def gk_conformal_conditions(base, factor, points):
    """Evaluate the Riemannian-symmetry preservation criterion, per point.

    Requires the base metric to satisfy the symmetry itself at every point;
    raises otherwise.  Returns condition residuals together with the
    transformed metric's actual symmetry residual, so callers can check
    the biconditional.
    """
    z = np.asarray(points, dtype=complex)
    base_ch = chern_at(base, z)
    if np.any(_relative_theta2(base_ch) > 1e-6):
        raise HermlabError("base metric lacks the Riemannian Kahler symmetry at some point")
    conditions = hessian_conditions(base_ch, factor, z)
    new_ch = chern_at(conformal_metric(base, factor), z)
    conditions["transformed_theta2"] = _relative_theta2(new_ch)
    return conditions


def klike_conformal_conditions(base, factor, points):
    """Evaluate the Chern-symmetry preservation criterion, per point.

    The criterion is del delbar u = 0; the report carries the transformed
    metric's actual symmetry residual for the biconditional check.
    """
    z = np.asarray(points, dtype=complex)
    base_ch = chern_at(base, z)
    if np.any(_relative_kahler_like(base_ch) > 1e-6):
        raise HermlabError("base metric lacks the Chern Kahler symmetry at some point")
    pluriharmonic = pluriharmonic_residual(factor, z)  # raises unless u is real
    new_ch = chern_at(conformal_metric(base, factor), z)
    return {
        "pluriharmonic": pluriharmonic,
        "transformed_kahler_like": _relative_kahler_like(new_ch),
    }
