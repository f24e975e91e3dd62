"""Metric classification predicates and the consolidated identity suites.

Residuals are normalized by 1 + (largest curvature magnitude at the point),
so thresholds behave uniformly across metrics of very different scale.  A
flag is true when the worst normalized residual over the sampled points
stays below the tolerance; the report keeps the worst point per flag (the
first of them on ties).  The flag and identity residuals take the data of
one point or of a batch and return one value per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import FLAG_NAMES
from .chern import (
    ddbar_omega_residual,
    ddbar_omega_sigma_residual,
    delbar_eta_residual,
    kahler_like_residual,
)
from .geometry import as_points, geometry_chunks, running_max
from .levicivita import theta2_norm

DEFAULT_TOL = 1e-7

# flags implied by the kahler flag; hermitian_flat is genuinely independent
# (a Kahler metric of nonzero curvature is not Hermitian flat)
KAHLER_IMPLIES = ("balanced", "kahler_like", "g_kahler_like", "pluriclosed")


def _point_list(p):
    """A point [n] as JSON: one [re, im] pair per coordinate."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(p)]


@dataclass
class FlagResult:
    value: bool
    residual: float
    worst_point: np.ndarray


@dataclass
class ClassificationReport:
    metric_name: str
    tolerance: float
    points: np.ndarray
    flags: dict = field(default_factory=dict)

    def __getitem__(self, name):
        return self.flags[name]

    def as_dict(self):
        return {
            "metric": self.metric_name,
            "tolerance": self.tolerance,
            "points": len(self.points),
            "flags": {
                k: {
                    "value": bool(v.value),
                    "residual": float(v.residual),
                    "worst_point": _point_list(v.worst_point),
                }
                for k, v in sorted(self.flags.items())
            },
        }


def curvature_scale(ch):
    return 1.0 + np.maximum(ch.pointwise_max(ch.Rh), ch.pointwise_max(ch.Rc))


def flag_residuals_at(ch):
    """Raw (unnormalized) flag residuals at one point or at each point of a batch."""
    scale = curvature_scale(ch)
    T_max = ch.pointwise_max(ch.T)
    return {
        "kahler": T_max,
        "balanced": ch.pointwise_max(ch.eta),
        "kahler_like": kahler_like_residual(ch) / scale,
        "g_kahler_like": theta2_norm(ch) / scale,
        "pluriclosed": ddbar_omega_residual(ch) / scale,
        "hermitian_flat": ch.pointwise_max(ch.Rh) / (1.0 + T_max),
    }


def classification(metric, points, tol, best):
    """The report from each flag's :func:`~hermlab.geometry.running_max` over ``points``."""
    report = ClassificationReport(metric.name, tol, points)
    for name in FLAG_NAMES:
        res, worst = float(best[name][0]), best[name][1]
        report.flags[name] = FlagResult(res < tol, res, points[worst])
    return report


def classify_at(metric, points, tol=DEFAULT_TOL):
    """Classify a metric over nonempty points: an array [N, n] or a list of points [n].

    The data and the flag residuals are computed and dropped chunk by chunk
    (:func:`~hermlab.geometry.geometry_chunks`); the report keeps each
    flag's running maximum.
    """
    points, best = as_points(points, metric.n), dict.fromkeys(FLAG_NAMES, (-np.inf, None))
    for chunk in geometry_chunks(metric, points):
        for name, residuals in chunk.ch.flags.items():
            best[name] = running_max(best[name], residuals, chunk.start)
    return classification(metric, points, tol, best)


# ----------------------------------------------------------------------
# curvature-torsion difference identities (two independent routes per side)
def curvature_difference_suite(ch):
    """Residuals of the four curvature difference identities, per point.

    Each left side comes from the Christoffel route (or the Chern-curvature
    transform for the first), each right side from torsion data and its
    covariant derivatives; the routes never share intermediate results.
    """
    n = ch.n
    T, cT, cTb, Rh, Rc = ch.T, ch.covT, ch.covT_bar, ch.Rh, ch.Rc
    Tb = T.conj()
    scale = curvature_scale(ch)

    def residual(lhs, rhs):
        return ch.pointwise_max(lhs - rhs) / scale

    res = {}
    rhs = np.einsum("...jlik->...kijl", Rh) - np.einsum("...iljk->...kijl", Rh)
    res["covT_vs_chern"] = residual(2 * cTb, rhs)

    rhs = (
        np.einsum("...lijk->...ijkl", cT)
        + np.einsum("...lri,...rjk->...ijkl", T, T)
        - np.einsum("...lrj,...rik->...ijkl", T, T)
    )
    res["mixed_20"] = residual(Rc[..., :n, :n, :n, n:], rhs)

    rhs = (
        np.einsum("...lijk->...ijkl", cTb)
        - np.einsum("...kijl->...ijkl", cTb)
        + 2 * np.einsum("...rij,...rkl->...ijkl", T, Tb)
        + np.einsum("...kri,...jrl->...ijkl", T, Tb)
        + np.einsum("...lrj,...irk->...ijkl", T, Tb)
        - np.einsum("...lri,...jrk->...ijkl", T, Tb)
        - np.einsum("...krj,...irl->...ijkl", T, Tb)
    )
    res["mixed_02"] = residual(Rc[..., :n, :n, n:, n:], rhs)

    rhs = (
        Rh
        - np.einsum("...jikl->...klij", cTb)
        - np.conj(np.einsum("...ijlk->...klij", cTb))
        + np.einsum("...rik,...rjl->...klij", T, Tb)
        - np.einsum("...jrk,...irl->...klij", T, Tb)
        - np.einsum("...lri,...krj->...klij", T, Tb)
    )
    res["riemann_vs_chern"] = residual(Rc[..., :n, n:, :n, n:], rhs)
    return res


# ----------------------------------------------------------------------
# quadratic torsion identities valid on doubly curvature-symmetric metrics
def bothlike_residuals(T, covT=None, covT_bar=None):
    """Residuals of the torsion identities that characterize metrics whose
    Chern and Riemannian curvatures both have full Kahler symmetry.

    Returns raw residuals; on metrics NOT flagged both ways these are
    reported but must not be asserted.
    """
    T = np.asarray(T, dtype=complex)
    cjT = np.conj(T)
    res = {}

    lhs = 2 * np.einsum("rij,rkl->ijkl", T, cjT)
    rhs = (
        np.einsum("lri,jrk->ijkl", T, cjT)
        + np.einsum("krj,irl->ijkl", T, cjT)
        - np.einsum("kri,jrl->ijkl", T, cjT)
        - np.einsum("lrj,irk->ijkl", T, cjT)
    )
    res["quad_full"] = float(np.max(np.abs(lhs - rhs)))

    lhs = np.einsum("rik,rjl->ikjl", T, cjT)
    rhs = np.einsum("jrk,irl->ikjl", T, cjT) + np.einsum("lri,krj->ikjl", T, cjT)
    res["quad_equal_curvature"] = float(np.max(np.abs(lhs - rhs)))

    lhs = 2 * np.einsum("rij,rij->ij", T, cjT)
    rhs = (
        np.einsum("irj,irj->ij", T, cjT)
        + np.einsum("jri,jri->ij", T, cjT)
        - 2 * np.real(np.einsum("iri,jrj->ij", cjT, T))
    )
    res["quad_diag"] = float(np.max(np.abs(lhs - rhs)))

    res["trace_product"] = float(np.max(np.abs(np.einsum("sri,rsk->ik", T, T))))

    if covT_bar is not None:
        res["cov_antiholo"] = float(np.max(np.abs(covT_bar)))
    if covT is not None:
        rhs33 = -np.einsum("kri,rjl->kijl", T, T) + np.einsum("krj,ril->kijl", T, T)
        res["cov_holo"] = float(np.max(np.abs(covT - rhs33)))
        res["cov_symmetry"] = float(
            np.max(
                np.abs(
                    np.einsum("kri,rjl->kijl", T, T) - np.einsum("krj,ril->kijl", T, T)
                )
            )
        )
    return res


def eta_trace_residual(ch):
    """On G-Kahler-like metrics: sum_i eta_{i,ibar} = sum_r |eta_r|^2, per point."""
    lhs = np.einsum("...iijj->...", ch.covT_bar)
    rhs = np.sum(np.abs(ch.eta) ** 2, axis=-1)
    return np.abs(lhs - rhs) / (1.0 + np.abs(rhs))


def klike_sigma_residual(ch):
    """On Kahler-like metrics: i del delbar omega = sigma, per point."""
    return ddbar_omega_sigma_residual(ch) / (1.0 + ch.pointwise_max(ch.Rh))


def holomorphic_eta_residual(ch):
    """On Kahler-like metrics the torsion 1-form is holomorphic, per point."""
    return delbar_eta_residual(ch) / (1.0 + ch.pointwise_max(ch.Rh))
