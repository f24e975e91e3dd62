import numpy as np
import pytest

from hermlab import catalog
from hermlab.chern import chern_at
from hermlab.dsl import _batch_jet
from hermlab.geometry import CHUNK
from hermlab.jets import Jet2
from hermlab.levicivita import riemann_at


class GeometryCache:
    """Chern and Riemann data per (metric name, point), computed in batches.

    The tests' per-point reference: a point's data are computed once, ``CHUNK``
    points per call of the batched cores, and kept for every later test.
    """

    def __init__(self):
        self.data = {}  # key -> (ChernData batch, RiemannData batch, index in it)

    @staticmethod
    def _key(metric, p):
        return (metric.name, tuple(np.round(np.asarray(p, dtype=complex), 14)))

    def fill(self, metric, points):
        """(ch, rd, index) for each point, computing the missing ones ``CHUNK`` at a time."""
        points = np.asarray(points, dtype=complex).reshape(-1, metric.n)
        keys = [self._key(metric, p) for p in points]
        first = {}
        for row, key in enumerate(keys):
            if key not in self.data:
                first.setdefault(key, row)
        todo = list(first.values())
        for start in range(0, len(todo), CHUNK):
            rows = todo[start : start + CHUNK]
            ch = chern_at(metric, points[rows])
            rd = riemann_at(metric, points[rows], chern_data=ch)
            for index, row in enumerate(rows):
                self.data[keys[row]] = (ch, rd, index)
        return [self.data[k] for k in keys]

    def __call__(self, metric, p):
        """(ChernData, RiemannData) at one point."""
        ch, rd, index = self.fill(metric, [p])[0]
        return ch.at(index), rd.at(index)


def jet_arrays(expr, points):
    """Value [P], first [P, 2n] and second derivatives [P, 2n, 2n] of ``expr`` at points [P, n].

    One batched evaluation, with zeros where the jet has no derivative.
    """
    m = 2 * points.shape[-1]
    value, d1, d2 = _batch_jet(expr, points)
    lead = points.shape[:-1]
    d1 = np.zeros(lead + (m,), dtype=complex) if d1 is None else d1
    d2 = np.zeros(lead + (m, m), dtype=complex) if d2 is None else d2
    return value, d1, d2


def jet2(expr, point):
    """The scalar :class:`~hermlab.jets.Jet2` of ``expr`` at one point [n], from :func:`jet_arrays`."""
    point = np.asarray(point, dtype=complex)
    value, d1, d2 = jet_arrays(expr, point)
    return Jet2(len(point), complex(value), np.array(d1), np.array(d2), 2)


def fd_values(expr):
    """The value-only field of ``expr`` for :func:`hermlab.fd.fd_jet`: one batched call per stencil."""
    return lambda qs: _batch_jet(expr, qs, order=0)[0]


@pytest.fixture(scope="session")
def geo():
    return GeometryCache()


@pytest.fixture(scope="session")
def metric():
    return lambda name: catalog.get(name).metric
