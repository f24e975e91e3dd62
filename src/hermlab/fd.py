"""Central finite-difference oracles for derivative checking.

These rebuild jet data from value-only evaluations on a real-coordinate
stencil, independently of the jet arithmetic they are used to check.

The whole stencil is one array of 1 + 4n + 4 C(2n, 2) points: the base
point, then +h and -h along each of the 2n real coordinates, then the four
corners (++, +-, -+, --) of each coordinate pair a < b; a step is +-h times
a row of ``real_from_wirtinger`` on the dz slots (h along x_k, ih along
y_k; README, Conventions).  The field is evaluated once on it, mapping [S, n] to values [S, ...]
with any trailing value axes (one metric entry, or the whole matrix).  Each
stencil point is the same sum as a loop shifting one coordinate at a time,
each difference quotient is the same elementwise expression, and the
Wirtinger change of basis is one matrix product per value entry, so a
batched evaluator that rounds every point as it would alone gives the jets
of the loop bit for bit.  That matters: whether the oracle's real-metric
check raises depends on the last bits of these jets.
"""

from __future__ import annotations

import numpy as np

from .chern import chern_from_jets
from .dsl import real_from_wirtinger, wirtinger_from_real

DEFAULT_STEP = 1e-4
# the oracle's finite-difference jets, which override the evaluated ones,
# carry a Hermitian defect of 2-5e-10 in their second derivatives
OVERRIDE_HERMITIAN_TOL = 1e-6


def _stencil(p, n):
    """The stencil points [S, n] around ``p``, in the order described above."""
    p, h = np.asarray(p, dtype=complex), DEFAULT_STEP
    # steps[s, a]: the step of sign s (+h, -h) along real coordinate a
    steps = np.array([h, -h])[:, None, None] * real_from_wirtinger(n)[:, :n]
    a, b = np.triu_indices(2 * n, 1)
    # corners[sa, sb, pair] = (p + steps[sa, a]) + steps[sb, b], pair-major below
    corners = (p + steps[:, a])[:, None] + steps[None, :, b]
    singles = (p + steps).swapaxes(0, 1).reshape(-1, n)
    return np.concatenate([p[None], singles, np.moveaxis(corners, 2, 0).reshape(-1, n)])


def fd_real_derivatives(f, p, n):
    """Value and first and second derivatives of ``f`` along the 2n real coordinates.

    ``f`` maps stencil points [S, n] to values [S, ...].  Returns the value
    [...], first derivatives [..., 2n] and second derivatives [..., 2n, 2n].
    """
    m, h = 2 * n, DEFAULT_STEP
    values = np.moveaxis(np.asarray(f(_stencil(p, n)), dtype=complex), 0, -1)
    f0 = values[..., 0]
    plus, minus = values[..., 1 : 1 + 2 * m : 2], values[..., 2 : 2 + 2 * m : 2]
    corners = values[..., 1 + 2 * m :].reshape(values.shape[:-1] + (-1, 4))
    fpp, fpm, fmp, fmm = np.moveaxis(corners, -1, 0)
    d2 = np.zeros(f0.shape + (m, m), dtype=complex)
    d2[..., range(m), range(m)] = (plus - 2 * f0[..., None] + minus) / (h * h)
    a, b = np.triu_indices(m, 1)
    d2[..., a, b] = d2[..., b, a] = (fpp - fpm - fmp + fmm) / (4 * h * h)
    return f0, (plus - minus) / (2 * h), d2


def fd_jet(f, p, n):
    """Order-2 Wirtinger jet (value, d1, d2) of ``f`` built by finite differences.

    ``f`` maps stencil points [S, n] to values [S, ...]; the jet arrays are
    [...], [..., 2n] and [..., 2n, 2n], the layout of ``MetricField.evaluate``.
    """
    f0, rd1, rd2 = fd_real_derivatives(f, p, n)
    B = wirtinger_from_real(n)
    # one contiguous matrix-vector product per entry, as for a single entry
    d1 = (B @ np.ascontiguousarray(rd1)[..., None])[..., 0]
    d2 = B @ rd2 @ B.T
    d2 = (d2 + np.swapaxes(d2, -1, -2)) / 2
    return f0, d1, d2


def fd_data(ch):
    """The data at the points of ``ch`` from FD jets: one value evaluation per stencil, one batched Chern core.

    Reads only the metric values and the points, and checks the jets as
    :func:`~hermlab.geometry.geometry_chunks` checks the evaluated ones.
    """
    metric, points = ch.metric, ch.point
    jets = [np.stack(x) for x in zip(*(fd_jet(metric.values_at, p, metric.n) for p in points))]
    metric.check_jets(points, *jets, OVERRIDE_HERMITIAN_TOL)
    return chern_from_jets(metric, points, *jets)


def fd_direction_derivative(f, p, direction, h=DEFAULT_STEP):
    """Central derivative of vector-valued ``f`` along a complex direction.

    ``direction`` is a vector in C^n; the derivative taken is the real
    directional derivative along the real part of the complexified step,
    i.e. f is sampled at p +/- h * direction.
    """
    fp = np.asarray(f(np.asarray(p, dtype=complex) + h * direction))
    fm = np.asarray(f(np.asarray(p, dtype=complex) - h * direction))
    return (fp - fm) / (2 * h)
