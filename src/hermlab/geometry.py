"""Sample points and the Chern and Riemann data at them, a batch at a time.

The CLI samples a report's points once and streams their data through
:func:`geometry_chunks`: one :class:`Chunk` of ``CHUNK`` points per call
of the batched cores, which every suite reads before the next chunk is
computed, so a report holds the data of one chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import DEFAULT_SEED
from .chern import ChernData, chern_at
from .errors import DomainSamplingError, SingularEvaluationError
from .levicivita import RiemannData, riemann_at

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


@dataclass
class Chunk:
    """Consecutive points of a report and their Chern and Riemann data, as one batch.

    ``start`` is the index of the first of ``points`` among the report's
    points; ``ch`` and ``rd`` carry one leading point axis.
    """

    start: int
    points: list
    ch: ChernData
    rd: RiemannData
    memo: dict = field(default_factory=dict, repr=False)

    def once(self, fn, *args):
        """``fn(*args)`` on this chunk's data, computed on the first call for ``fn`` only."""
        if fn not in self.memo:
            self.memo[fn] = fn(*args)
        return self.memo[fn]

    def head(self, count):
        """The chunk's first ``count`` points, as a chunk of views."""
        part = slice(0, count)
        return Chunk(self.start, self.points[part], self.ch.at(part), self.rd.at(part))


def geometry_chunks(metric, points):
    """The data of ``points`` in point order, one :class:`Chunk` of ``CHUNK`` points at a time.

    Nothing is kept between chunks.
    """
    for start in range(0, len(points), CHUNK):
        part = points[start : start + CHUNK]
        batch = np.asarray(part, dtype=complex).reshape(-1, metric.n)
        ch = chern_at(metric, batch)
        yield Chunk(start, part, ch, riemann_at(metric, batch, chern_data=ch))
