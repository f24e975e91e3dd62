"""Sample points and the Chern and Riemann data at them, a batch at a time.

The CLI samples a report's points once and fills one :class:`GeometryCache`
with their data, ``CHUNK`` points per call of the batched cores; the
suites then read the data point by point, or a chunk of points at a time
as one batch (:meth:`GeometryCache.stacked`).
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np

from .catalog import DEFAULT_SEED
from .chern import chern_at
from .errors import DomainSamplingError, SingularEvaluationError
from .levicivita import riemann_at

# points per batched chern_at / riemann_at call: large enough to amortise
# the per-call overhead, small enough to keep the temporaries small
CHUNK = 16
# box draws per vectorised admissibility test, at least
SAMPLE_BLOCK = 64


def sample_points(metric, count, seed=DEFAULT_SEED, oversample=10):
    """Seeded uniform draws from the metric's box, rejecting by constraints.

    At most ``max(count * oversample, 32)`` draws are made.  Draws come in
    blocks from one ``Generator.uniform`` call with array bounds, which
    yields the stream of one call per coordinate and draw, so the points
    do not depend on the block size.
    """
    rng = np.random.default_rng(seed)
    bounds = np.array(metric.box, dtype=float).reshape(metric.n, 2, 2)
    lo, hi = bounds[..., 0], bounds[..., 1]  # [coordinate, (re, im)]
    limit = max(count * oversample, 32)
    points = []
    attempts = 0
    while len(points) < count and attempts < limit:
        size = min(limit - attempts, max(2 * (count - len(points)), SAMPLE_BLOCK))
        block = rng.uniform(lo, hi, size=(size,) + lo.shape).view(complex)[..., 0]
        try:
            ok = metric.admissible_mask(block)
        except SingularEvaluationError:
            # raise at the draw where a draw-by-draw test would
            ok = (metric.admissible(p) for p in block)
        for p, good in zip(block, ok):
            attempts += 1
            if good:
                points.append(p)
                if len(points) == count:
                    break
    if len(points) < count:
        raise DomainSamplingError(
            f"found {len(points)}/{count} admissible points after {attempts} draws"
        )
    return points


class GeometryCache:
    """Chern and Riemann data per (metric name, point), computed in batches."""

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

    def stacked(self, metric, points):
        """(ChernData, RiemannData) over ``points``, batched along one point axis."""

        def stack(items):  # [(batch, index)] -> one batch in that order
            first = items[0][0]
            arrays = {
                f.name: np.stack([getattr(batch, f.name)[i] for batch, i in items])
                for f in fields(first)
                if isinstance(getattr(first, f.name), np.ndarray)
            }
            return replace(first, **arrays)

        filled = self.fill(metric, points)
        ch = stack([(c, i) for c, _, i in filled])
        rd = replace(stack([(r, i) for _, r, i in filled]), chern=ch)
        return ch, rd

    def __call__(self, metric, p):
        """(ChernData, RiemannData) at one point."""
        ch, rd, index = self.fill(metric, [p])[0]
        return ch.at(index), rd.at(index)
