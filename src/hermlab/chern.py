"""Chern connection, curvature and torsion of a Hermitian metric at a point.

Conventions, fixed once here and used by every downstream module:

* holomorphic coordinate frame e0_a = d/dz_a with coframe dz_a; the
  connection matrix in it is theta = (del g) g^{-1} (type (1,0)) and the
  curvature is Theta = delbar theta, with nabla e_i = sum_j theta_{ij} e_j;
* canonical unitary frame e_i = sum_a P_{ia} e0_a with P = L^{-1}, where
  L is the Cholesky factor of g with positive real diagonal (so
  P g P^* = I); the unitary coframe is psi = tL dz, i.e.
  dz_a = sum_i P_{ia} psi_i;
* torsion 2-forms tau_k = sum_{i,j} T^k_{ij} psi_i ^ psi_j summed over all
  ordered pairs with T antisymmetric, so the coefficient of psi_i ^ psi_j
  for i < j equals 2 T^k_{ij};
* curvature components Theta_{ij} = sum_{k,l} Rh[k,l,i,j] psi_k ^ psibar_l
  (first two indices from the 2-form, last two from the endomorphism).

Everything is a dense numpy array computed in closed form from the value,
first and second derivative arrays of g.  :class:`ChernData` holds a
batch's data: the value-level arrays, the torsion T included, computed at
once, and every other name of the derivation table :data:`TABLE` (here:
dL, dP, dT, theta_u_vals, covT, covT_bar, the Levi-Civita fields and what
the rows of :mod:`hermlab.suites` share), computed on first read from a
copy that holds only the names its producer declares, and kept;
:meth:`ChernData.at` carries the arrays computed so far.  Each producer
lives in the module of its mathematics, where it is looked up as a module
attribute when it runs.  :func:`chern_at` takes one point or a batch of P
points; on a batch every array gains a leading point axis (all index
patterns below start with ``...``), and one point is the batch of one.
Derivative slots run over the 2n
Wirtinger directions (d/dz_1 .. d/dz_n, d/dzbar_1 .. d/dzbar_n) and always
come last: ``dg[i, j, c]``, ``ddg[i, j, c, d]``, ``dT[k, i, j, c]``.  Form
slots come first and endomorphism slots after them: ``theta[a, i, j]`` is
the dz_a coefficient of theta_{ij}, ``Theta[a, b, i, j]`` the
dz_a ^ dzbar_b coefficient of Theta_{ij}, ``theta_u_vals[c, i, j]`` the
slot-c coefficient of the unitary-frame connection.  The derivatives of L
and P come from the closed-form Cholesky derivative
dL = L Phi(L^{-1} dg L^{-*}), Phi = lower triangle with halved diagonal
(I. Murray, "Differentiation of the Cholesky decomposition", 2016).

An identity residual is the largest coefficient of a (p, q)-form on the
sorted basis dz_{a_1} ^ .. ^ dz_{a_p} ^ dzbar_{b_1} ^ .. ^ dzbar_{b_q}; a
form is assembled as an unnormalised sum over all index tuples and
antisymmetrised by :func:`_coefficients`.
"""

from __future__ import annotations

import importlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dsl import MetricField


def cholesky_frame(L, P, dg):
    """The derivatives [i, j, c] of the Cholesky factor L of g and of P = L^{-1}.

    L has positive real diagonal.  Phi is complex linear, so Murray's
    formula holds slot by slot for the Wirtinger derivatives as well as for
    the real ones.
    """
    n = L.shape[-1]
    A = np.einsum("...ia,...abc->...ibc", P, dg)
    A = np.einsum("...ibc,...jb->...ijc", A, P.conj())
    Phi = A * (np.tril(np.ones((n, n))) - 0.5 * np.eye(n))[:, :, None]
    dL = np.einsum("...ia,...ajc->...ijc", L, Phi)
    dP = -np.einsum("...ia,...abc,...bj->...ijc", P, dL, P)
    return dL, dP


def connection_arrays(dg, ddg, ginv):
    """theta[a, i, j] = ((d_a g) g^{-1})_{ij} and its derivatives [a, i, j, c]."""
    n = ginv.shape[-1]
    dginv = -np.einsum("...ik,...klc,...lj->...ijc", ginv, dg, ginv)
    theta = np.einsum("...ila,...lj->...aij", dg[..., :n], ginv)
    dtheta = np.einsum("...ilac,...lj->...aijc", ddg[..., :n, :], ginv) + np.einsum(
        "...ila,...ljc->...aijc", dg[..., :n], dginv
    )
    return theta, dtheta


def frame_torsion(theta, dtheta, frame):
    """Torsion T^k_{ij} and its derivatives [k, i, j, c] in a frame field.

    ``frame`` is the pair (F, dF) of the frame e_i = sum_a F_{ia} e0_a and
    its first derivatives [i, a, c].  With K = F^{-1}, the coordinate
    torsion tau0_m = sum_{a,b} theta[a, b, m] dz_a ^ dz_b gives
    T^k_{ij} = (V_{kij} - V_{kji}) / 2 with
    V_{kij} = sum K_{mk} theta[a, b, m] F_{ia} F_{jb}.
    """
    T, parts = _torsion_values(theta, frame[0])
    return T, _torsion_derivatives(theta, dtheta, frame, *parts)


def _torsion_values(theta, F):
    """T of :func:`frame_torsion` in the frame F, with the K, W and FW its derivatives reuse."""
    K = np.linalg.inv(F)
    W = np.einsum("...mk,...abm->...kab", K, theta)
    FW = np.einsum("...ia,...kab->...kib", F, W)
    V = np.einsum("...kib,...jb->...kij", FW, F)
    return 0.5 * (V - V.swapaxes(-2, -1)), (K, W, FW)


def _torsion_derivatives(theta, dtheta, frame, K, W, FW):
    """dT [k, i, j, c] of :func:`frame_torsion`, from the parts of :func:`_torsion_values`."""
    F, dF = frame
    dK = -np.einsum("...mx,...xyc,...yk->...mkc", K, dF, K)
    dW = np.einsum("...mkc,...abm->...kabc", dK, theta) + np.einsum(
        "...mk,...abmc->...kabc", K, dtheta
    )
    dV = (
        np.einsum("...kibc,...jb->...kijc", np.einsum("...ia,...kabc->...kibc", F, dW), F)
        + np.einsum("...iac,...kaj->...kijc", dF, np.einsum("...kab,...jb->...kaj", W, F))
        + np.einsum("...kib,...jbc->...kijc", FW, dF)
    )
    return 0.5 * (dV - dV.swapaxes(-3, -2))


def frame_connection_values(theta, frame):
    """Chern connection coefficients in a frame field, value level.

    Returns th[c, i, j] over the 2n coordinate cotangent slots with
    theta^F = F theta0 F^{-1} + dF F^{-1}, for ``frame`` = (F, dF).
    """
    F, dF = frame
    n = F.shape[-1]
    Finv = np.linalg.inv(F)
    th = np.einsum("...iac,...aj->...cij", dF, Finv)
    th[..., :n, :, :] += F[..., None, :, :] @ theta @ Finv[..., None, :, :]
    return th


def pointwise_max(X, lead):
    """max |X| over the axes after the leading point axes ``lead``.

    A float at a single point (``lead`` empty), an array over the points of
    a batch.
    """
    m = np.abs(X).reshape(lead + (-1,)).max(axis=-1)
    return m if lead else float(m)


def _mod(name):
    """The module ``hermlab.<name>``, for a producer to look up its function in when it runs."""
    return importlib.import_module(f"hermlab.{name}")


# The derivation table: (names, the names their producer reads, producer).  A
# producer gets a copy of the batch that holds only those names (besides
# metric, point and n) and returns its names in order; None marks the names
# every batch is built with.  Producers name their functions as module
# attributes, which are looked up when they run.
_ROWS = (
    ("gv dg ddg", "metric point", None),  # MetricField.evaluate, checked
    ("Lv Pv theta dtheta Theta T Rh eta", "gv dg ddg", None),  # chern_from_jets
    ("dL dP", "Lv Pv dg", lambda d: cholesky_frame(d.Lv, d.Pv, d.dg)),
    ("dT", "theta dtheta Pv dP", lambda d: frame_torsion(d.theta, d.dtheta, (d.Pv, d.dP))[1]),
    ("theta_u_vals", "theta Pv dP", lambda d: frame_connection_values(d.theta, (d.Pv, d.dP))),
    ("covT covT_bar", "Pv T dT theta_u_vals", lambda d: covderiv_torsion(d)),
    # the Levi-Civita fields, by the Christoffel route
    ("G Gi Gamma R4", "gv dg ddg", lambda d: _mod("levicivita").christoffel_route(d.gv, d.dg, d.ddg)),
    ("W", "Pv", lambda d: _mod("levicivita").complex_frame_coefficients(d.Pv)),
    ("Rc", "W R4", lambda d: _mod("levicivita")._frame_components(d.W, d.R4)),
    ("Ric", "Gi R4", lambda d: np.einsum("...cd,...cabd->...ab", d.Gi, d.R4)),
    ("Scal", "Gi Ric", lambda d: np.einsum("...ab,...ab->...", d.Gi, d.Ric)),
    # what several rows of hermlab.suites read, each producer beside its mathematics
    ("flags", "T eta Rh ddg Rc", lambda d: _mod("classify").flag_residuals_at(d, _mod("levicivita").riemann_at(d))),
    ("torsion_route", "T Lv dL dT theta_u_vals", lambda d: _mod("levicivita").torsion_route(d)),
    ("canonical_theta2", "Gamma Pv dP", lambda d: _mod("levicivita").canonical_theta2(d)),
    ("sigma1_psd sigma2_psd", "T", lambda d: _mod("levicivita").sigma_psd(d)),
    ("curvature_difference", "T Rh covT covT_bar Rc", lambda d: _mod("classify").curvature_difference_suite(d)),
    ("normal_frame_theta normal_frame_covT", "theta dtheta Pv dP theta_u_vals covT covT_bar",
     lambda d: normal_frame_residuals(d)),
    ("transforms", "metric point Lv Pv dP T Gamma", lambda d: _mod("conformal").transforms(d)),
    ("fd", "metric point", lambda d: _mod("fd").fd_data(d)),
)
TABLE = {name: (names.split(), inputs.split(), producer) for names, inputs, producer in _ROWS for name in names.split()}


@dataclass
class ChernData:
    """The data of a metric at one point or a batch: its jets, Chern data and every name of :data:`TABLE`.

    ``point`` is [n] or [P, n]; every other array is dense, in the layouts
    of the module docstring, with the same leading point axes.  The fields
    are the jets and the value-level Chern data, the torsion T included.
    Every other name of :data:`TABLE` (the derivative-level arrays ``dL``,
    ``dP``, ``dT``, ``theta_u_vals``, ``covT`` and ``covT_bar``, the
    Levi-Civita fields that :class:`~hermlab.levicivita.RiemannData` reads,
    and what the suites share) is computed on first read, with the names
    its producer returns along with it, and then kept; :meth:`at` carries
    the arrays computed so far.
    """

    metric: MetricField
    point: np.ndarray
    n: int
    gv: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray
    Lv: np.ndarray
    Pv: np.ndarray
    theta: np.ndarray
    dtheta: np.ndarray
    Theta: np.ndarray
    T: np.ndarray
    Rh: np.ndarray
    eta: np.ndarray

    def __getattr__(self, name):
        """Compute ``name`` of :data:`TABLE`; one point as the batch of one."""
        if "_inputs" in vars(self):
            raise AttributeError(f"{name!r} is not among the inputs {vars(self)['_inputs']} of this producer")
        names, inputs, producer = TABLE.get(name, (None, None, None))
        if producer is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if self.point.ndim == 1:
            batch = self.at(None)
            getattr(batch, name)
            vars(self).update({**vars(batch.at(0)), **vars(self)})  # the arrays computed there, at this point
        else:
            values = producer(self.reading(inputs))
            vars(self).update(zip(names, values) if len(names) > 1 else [(name, values)])
        return vars(self)[name]

    def reading(self, names):
        """A copy that holds only ``names`` (computed here first), metric, point and n, and computes nothing."""
        data = object.__new__(ChernData)
        vars(data).update({k: getattr(self, k) for k in ("metric", "point", "n", *names)}, _inputs=names)
        return data

    def at(self, index):
        """The data at point ``index`` of a batch, as views of every array computed so far."""
        data = object.__new__(ChernData)
        vars(data).update(metric=self.metric, n=self.n)
        vars(data).update((k, x[index]) for k, x in vars(self).items() if isinstance(x, np.ndarray))
        return data

    def pointwise_max(self, X):
        """max |X| at each point over the axes after the point axes."""
        return pointwise_max(X, self.point.shape[:-1])

    def torsion_norm_sq(self):
        return float(np.sum(np.abs(self.T) ** 2))


def chern_at(metric, point):
    """Connection, curvature and torsion data at ``point`` [n] or points [P, n].

    One point is computed as the batch of one.
    """
    point = np.asarray(point, dtype=complex)
    if point.ndim not in (1, 2) or point.shape[-1:] != (metric.n,):
        raise ValueError(f"points must have shape [N, {metric.n}] or [{metric.n}], got {list(point.shape)}")
    single = point.ndim == 1
    batch = point[None] if single else point
    data = chern_from_jets(metric, batch, *metric.evaluate(batch))
    return data.at(0) if single else data


def chern_from_jets(metric, point, gv, dg, ddg):
    """The Chern data at points [P, n] from metric jets that are already checked.

    The core of :func:`chern_at` without its evaluation and
    :meth:`MetricField.check_jets`: ``gv``, ``dg`` and ``ddg`` are laid out
    as :meth:`MetricField.evaluate` returns them for ``point``.
    """
    n = metric.n
    L = np.linalg.cholesky(gv)
    P = np.linalg.inv(L)
    theta, dtheta = connection_arrays(dg, ddg, np.linalg.inv(gv))
    Theta = -np.moveaxis(dtheta[..., n:], -1, -3)
    T, _ = _torsion_values(theta, P)

    # Rh[k, l, i, j] = sum P_kc conj(P_ld) (P Theta_cd L)_ij
    Rh = P[..., None, None, :, :] @ Theta @ L[..., None, None, :, :]
    Rh = np.einsum("...ka,...abij->...kbij", P, Rh)
    Rh = np.einsum("...lb,...kbij->...klij", P.conj(), Rh)

    return ChernData(
        metric=metric,
        point=point,
        n=n,
        gv=gv,
        dg=dg,
        ddg=ddg,
        Lv=L,
        Pv=P,
        theta=theta,
        dtheta=dtheta,
        Theta=Theta,
        T=T,
        Rh=Rh,
        eta=np.einsum("...iij->...j", T),
    )


def covderiv_torsion(data):
    """Covariant derivatives T^k_{ij,l} and T^k_{ij,lbar} in the unitary frame.

    The raw frame-direction derivative of the torsion coefficients is
    corrected by the three connection-action terms (two lower indices, one
    upper index).
    """
    n = data.n
    Pv = data.Pv
    T = data.T
    dT = data.dT
    th = data.theta_u_vals

    eT = np.einsum("...la,...kija->...kijl", Pv, dT[..., :n])
    ebT = np.einsum("...la,...kija->...kijl", np.conj(Pv), dT[..., n:])

    th10 = np.einsum("...la,...aij->...lij", Pv, th[..., :n, :, :])
    th01 = np.einsum("...la,...aij->...lij", np.conj(Pv), th[..., n:, :, :])

    def corrected(raw, conn):
        out = raw.copy()
        out -= np.einsum("...lir,...krj->...kijl", conn, T)
        out -= np.einsum("...ljr,...kir->...kijl", conn, T)
        out += np.einsum("...lrk,...rij->...kijl", conn, T)
        return out

    return corrected(eT, th10), corrected(ebT, th01)


# ----------------------------------------------------------------------
# identity residuals in the holomorphic coordinate frame
def _coefficients(X, p, q):
    """Sorted-basis coefficients of the (p, q)-forms in the last p + q axes of X.

    X[..., a_1..a_p, b_1..b_q] holds sum over all index tuples of
    X dz_{a_1} ^ .. ^ dz_{a_p} ^ dzbar_{b_1} ^ .. ^ dzbar_{b_q}, one form per
    leading index; its coefficient on the sorted basis is the signed sum
    over the orderings of the dz indices and of the dzbar indices.
    """
    start = X.ndim - p - q
    for lo, hi in ((start, start + p), (start + p, X.ndim)):
        acc = 0
        for perm in itertools.permutations(range(lo, hi)):
            order = list(range(X.ndim))
            order[lo:hi] = perm
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            acc = acc + (-1) ** inversions * X.transpose(order)
        X = acc
    return X


def _max_coefficient(data, X, p, q):
    """Largest coefficient of the (p, q)-forms in the last p + q axes of X, per point."""
    return data.pointwise_max(_coefficients(X, p, q))


def _ddbar_omega(data):
    """i del delbar omega = sum g_{ab,c dbar} dz_c ^ dz_a ^ dzbar_d ^ dzbar_b.

    Built from the second derivatives of g only.
    """
    n = data.n
    return np.einsum("...abcd->...cadb", data.ddg[..., :n, n:])


def _sigma(data):
    """t(tau) ^ g taubar with tau_i = sum theta[a, b, i] dz_a ^ dz_b."""
    n = data.n
    theta = data.theta.reshape(data.theta.shape[:-3] + (n * n, n))  # [ab, i]
    gtaubar = data.gv @ theta.conj().swapaxes(-2, -1)  # [i, cd]
    return (theta @ gtaubar).reshape(data.theta.shape[:-1] + (n, n))


def bianchi_residual(data):
    """Residual of d tau + t(theta) ^ tau - t(Theta) ^ phi (coordinate frame).

    Only the (3,0) part del tau + t(theta) ^ tau is assembled: the (2,1)
    part delbar tau - t(Theta) ^ phi vanishes term by term because
    Theta = delbar theta.
    """
    n = data.n
    theta = data.theta
    lead = theta.shape[:-3]
    # [c, ab, i] = sum_j theta[a, b, j] theta[c, j, i]
    tt = theta.reshape(lead + (n * n, n))[..., None, :, :] @ theta
    X = np.moveaxis(data.dtheta[..., :n], (-4, -3), (-2, -1)) + np.moveaxis(
        tt.reshape(lead + (n,) * 4), -1, -4
    )
    return _max_coefficient(data, X, 3, 0)


def curvature_identity_residual(data):
    """Residual of i del delbar omega = t(tau)^taubar + t(phi)^Theta^phibar."""
    phi_Theta_phibar = np.moveaxis(data.Theta @ data.gv[..., None, None, :, :], -2, -4)
    X = _ddbar_omega(data) - _sigma(data) - phi_Theta_phibar
    return _max_coefficient(data, X, 2, 2)


def ddbar_omega_residual(data):
    """Max coefficient of i del delbar omega (zero on pluriclosed metrics), per point."""
    return _max_coefficient(data, _ddbar_omega(data), 2, 2)


def ddbar_omega_sigma_residual(data):
    """Max coefficient of i del delbar omega - t(tau) ^ taubar, per point."""
    return _max_coefficient(data, _ddbar_omega(data) - _sigma(data), 2, 2)


def del_omega_residual(data):
    """Residual of del omega = i t(tau) ^ g phibar."""
    n = data.n
    lhs = np.moveaxis(data.dg[..., :n], -1, -3)
    rhs = data.theta @ data.gv[..., None, :, :]
    return _max_coefficient(data, 1j * (lhs - rhs), 2, 1)


def _eta_coordinate(data):
    """Coordinate components of eta = sum_j eta_j psi_j and their derivatives."""
    deta = np.einsum("...iijc->...jc", data.dT)
    eta = data.eta[..., None, :]
    value = (eta @ data.Lv.swapaxes(-2, -1))[..., 0, :]
    # sum_j dL[a, j, c] eta_j + L[a, j] deta[j, c]
    return value, (eta[..., None, :] @ data.dL)[..., 0, :] + data.Lv @ deta


def balanced_identity_residual(data):
    """Residual of del(omega^{n-1}) + 2 eta ^ omega^{n-1}.

    Both sides are (n, n-1)-forms.  omega^{n-1} has coefficient
    (n-1)! (unit phase) times the cofactor cof_{ab} of g on the basis
    element omitting dz_a and dzbar_b, so the coefficient omitting dzbar_b
    is, up to a unit phase, (n-1)! sum_a (d_a cof_{ab} + 2 eta_a cof_{ab})
    with cof = det(g) g^{-T}.  Both sides grow like s^(n-1), s the power of
    two just above the largest |g_ij|, so the residual is reported relative
    to that scale, as the residual of g/s: det(g/s) times s times the sum.
    """
    n = data.n
    ginv = np.linalg.inv(data.gv)
    s = np.ldexp(1.0, np.frexp(np.abs(data.gv).max(axis=(-2, -1)))[1])[..., None]
    det_s = np.linalg.det(data.gv / s[..., None])
    dg = np.moveaxis(data.dg[..., :n], -1, -3)  # [a, k, l]
    gdg = ginv[..., None, :, :] @ dg  # [a, i, l]
    # d_a ginv = -ginv d_a g ginv; the trace below needs its [b, a] entries
    dginv = -(gdg @ ginv[..., None, :, :])  # [a, i, j]
    dlogdet = np.einsum("...aii->...a", gdg)
    eta_c, _ = _eta_coordinate(data)
    # cof_{ab} = det ginv_{ba}, d_a cof_{ab} = det (dlogdet_a ginv_{ba} + d_a ginv_{ba})
    resid = (ginv @ (dlogdet + 2 * eta_c)[..., None])[..., 0] + np.einsum("...aba->...b", dginv)
    resid = det_s[..., None] * (s * resid)
    return math.factorial(n - 1) * data.pointwise_max(resid)


def delbar_eta_residual(data):
    """Max coefficient of delbar(eta); zero when eta is holomorphic, per point."""
    _, deta_c = _eta_coordinate(data)
    return data.pointwise_max(deta_c[..., data.n :])


def kahler_like_residual(data):
    """Deviation of Rh from its first/third index symmetry, per point."""
    return data.pointwise_max(data.Rh - data.Rh.swapaxes(-4, -2))


def theta_wedge_phi_residual(data):
    """Max coefficient of t(Theta) ^ phi (coordinate frame), per point."""
    return _max_coefficient(data, -np.einsum("...adji->...iajd", data.Theta), 2, 1)


def skew_hermitian_residual(data):
    """Unitary-frame curvature satisfies Theta + Theta^* = 0.

    On components (the form conjugation swaps and flips the psi ^ psibar
    pair) this reads Rh[k,l,i,j] = conj(Rh[l,k,j,i]).
    """
    Rh = data.Rh
    return data.pointwise_max(Rh - Rh.swapaxes(-4, -3).swapaxes(-2, -1).conj())


# ----------------------------------------------------------------------
# frame normalization: a unitary frame field whose connection vanishes at p
@dataclass
class NormalFrame:
    """The normal frame field around ``point`` [n], or one per point of [P, n].

    On a batch every array gains the leading point axis, and so must every
    argument ``q`` and every result.
    """

    metric: MetricField
    point: np.ndarray
    C_hol: np.ndarray  # theta-tilde dz_a coefficients at p, [a, i, j]
    C_anti: np.ndarray  # theta-tilde dzbar_a coefficients at p
    base: ChernData  # the Chern data at p

    def _evaluate(self, q):
        """Coordinate connection (theta, dtheta) and the frame at q, one evaluation."""
        q = np.asarray(q, dtype=complex)
        data = self.base if np.array_equal(q, self.point) else chern_at(self.metric, q)
        P, dP = data.Pv, data.dP
        dz = (q - self.point)[..., None, None, :]
        A = np.eye(self.metric.n) - (dz @ self.C_hol.swapaxes(-3, -2))[..., 0, :]
        A -= (dz.conj() @ self.C_anti.swapaxes(-3, -2))[..., 0, :]
        dA = -np.concatenate([self.C_hol, self.C_anti], axis=-3)  # [c, i, j]
        # d(A P)[i, a, c] = sum_j dA[c, i, j] P[j, a] + A[i, j] dP[j, a, c]
        dF = np.moveaxis(dA @ P[..., None, :, :], -3, -1) + np.einsum("...ij,...jac->...iac", A, dP)
        return (data.theta, data.dtheta), (A @ P, dF)

    def frame_jets(self, q):
        """The frame field A(z) P(z) at q as (value, derivatives [i, a, c])."""
        return self._evaluate(q)[1]

    def connection_values_at(self, q):
        (theta, _), frame = self._evaluate(q)
        return frame_connection_values(theta, frame)

    def theta_norm_at_base(self):
        """Largest connection coefficient of the frame at its base point, per point."""
        return pointwise_max(self.connection_values_at(self.point), self.point.shape[:-1])

    def torsion_jets_at(self, q):
        """Torsion of the frame field at q as (T[k, i, j], dT[k, i, j, c])."""
        (theta, dtheta), frame = self._evaluate(q)
        return frame_torsion(theta, dtheta, frame)

    def torsion_values_at(self, q):
        return self.torsion_jets_at(q)[0]


def normal_frame_at(data):
    """Unitary frame field with vanishing connection matrix at each point of the Chern data ``data``.

    The Cholesky frame is composed with a first-order polynomial unitary
    correction A(z) = I - sum_a C_a (z_a - p_a) - sum_a D_a (zbar_a - pbar_a)
    whose derivatives cancel the connection at p.  ``data`` serves every
    evaluation at p itself, and :func:`chern_at` every evaluation elsewhere.
    """
    n = data.n
    return NormalFrame(
        metric=data.metric,
        point=data.point,
        C_hol=data.theta_u_vals[..., :n, :, :].copy(),
        C_anti=data.theta_u_vals[..., n:, :, :].copy(),
        base=data,
    )


def normal_frame_residuals(ch):
    """The normal frame's two checks, each one residual per point of the Chern data ``ch``.

    Frame normalization is costly, so its rows read the report's first two
    points: the connection of the normal frame at its base point, and the
    covariant torsion derivatives from its raw derivatives against the
    Chern data's.
    """
    nf = normal_frame_at(ch)
    _, dT = nf.torsion_jets_at(ch.point)
    n = ch.n
    Pt = ch.Pv.swapaxes(-2, -1)[:, None, None]
    return nf.theta_norm_at_base(), np.maximum(
        ch.pointwise_max(dT[..., :n] @ Pt - ch.covT),
        ch.pointwise_max(dT[..., n:] @ Pt.conj() - ch.covT_bar),
    )
