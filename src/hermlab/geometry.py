"""Sample points and the Chern and Riemann data at them, a batch at a time.

The CLI samples a report's points once and streams their data through
:func:`geometry_chunks`, in two sizes that depend on the chart dimension n
only:

* an evaluation block of :func:`block_size` points: one
  :meth:`MetricField.evaluate` call, whose jets are checked once;
* a core chunk of :func:`chunk_size` points: one call of the batched
  Chern core on a slice of the block's jets, yielded as one
  :class:`Chunk`, which every suite reads before the next chunk is
  computed.  Everything else a suite reads of the chunk, the Riemann
  core's fields included, is a name of the derivation table
  :data:`~hermlab.chern.TABLE`, which the chunk's data compute on first
  read, by producers looked up as module attributes when they run, and
  keep while the chunk lives.

The Riemann core's per-point temporaries are tensors over the 2n real
slots, and a point's second metric jet has n^2 (2n)^2 entries, so both
sizes scale like 1/(2n)^4: a chunk is ``CHUNK`` points at n >= 3 and
``16 * 6^4 // (2n)^4`` below (1296 at n = 1, 81 at n = 2); a block is
``128 * 6^4 // (2n)^4`` points rounded down to whole chunks (648 at n = 2,
128 at n = 3, 32 at n = 4), at least one chunk, so a block's jets take
0.6-0.9 MB at n = 2..5.  A report holds the jets of one block, the data of
one chunk and each check's :func:`running_max` at a time, and its points as
one [N, n] complex array (32 B a point at n = 2).  Evaluation and the cores
work point by point, so the sizes change no bit of any result.  They do
change which error a bad point raises: every evaluation error in a block (a
constraint, a singular expression) is raised before that block's jet checks
(not finite, not Hermitian, not positive definite), even where the jet
check fails at an earlier point of the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice

import numpy as np

from .catalog import DEFAULT_SEED
from .chern import ChernData, chern_from_jets
from .errors import DomainSamplingError, SingularEvaluationError
from .levicivita import RiemannData, riemann_at

# points per batched call of the Chern and Riemann cores at n >= 3: large
# enough to amortise the per-call overhead, small enough to keep the
# temporaries small
CHUNK = 16
# points per metric evaluation at n = 3; a block's jets stay alive while its
# chunks are computed, so this bounds what blocks add to a report's peak
# memory (0.85 MB traced for classify on iwasawa at 10^4 points; 256 added 1.6)
EVAL_BLOCK = 128
# box draws per vectorised admissibility test, at least
SAMPLE_BLOCK = 64


def sample_points(metric, count, seed=DEFAULT_SEED, oversample=10):
    """Seeded uniform draws from the metric's box, rejecting by constraints: [count, n] complex.

    At most ``max(count * oversample, 32)`` draws are made.  Draws come in
    blocks from one ``Generator.uniform`` call with array bounds, which
    yields the stream of one call per coordinate and draw, so the points
    do not depend on the block size.
    """
    rng = np.random.default_rng(seed)
    bounds = np.array(metric.box, dtype=float).reshape(metric.n, 2, 2)
    lo, hi = bounds[..., 0], bounds[..., 1]  # [coordinate, (re, im)]
    limit = max(count * oversample, 32)
    points = np.empty((count, metric.n), dtype=complex)
    found = attempts = 0
    while found < count and attempts < limit:
        size = min(limit - attempts, max(2 * (count - found), SAMPLE_BLOCK))
        block = rng.uniform(lo, hi, size=(size,) + lo.shape).view(complex)[..., 0]
        try:
            taken = np.flatnonzero(metric.admissible_mask(block))[: count - found]
        except SingularEvaluationError:  # lazily: a singular draw raises where a draw-by-draw test would
            taken = np.fromiter(islice(compress(range(size), map(metric.admissible, block)), count - found), int)
        points[found : found + len(taken)] = block[taken]
        found, attempts = found + len(taken), attempts + size
    if found < count:
        raise DomainSamplingError(f"found {found}/{count} admissible points after {attempts} draws")
    return points


def as_points(points, n):
    """``points``, an array or a list of points, as one C-contiguous complex array [N, n], N >= 1."""
    z = np.ascontiguousarray(points, dtype=complex)
    if z.shape[1:] != (n,) or not len(z):
        raise ValueError(f"points must have shape [N, {n}] with N >= 1, got {list(z.shape)}")
    return z


def running_max(best, residuals, start, at=None):
    """A check's (largest residual, index of the first point reaching it) ``best``, after ``residuals``.

    ``residuals`` are at the report's points ``start + at`` (``at`` by
    default 0, 1, ...); ``best`` starts at (-inf, None).  This is
    ``np.argmax``'s rule over the joined residuals: a batch replaces ``best``
    only when its maximum is strictly greater, and the first NaN wins and is
    kept.  The index stays None while every residual is -inf.
    """
    i = int(np.argmax(residuals))
    if best[0] != best[0] or residuals[i] <= best[0]:
        return best
    return residuals[i], start + (i if at is None else int(at[i]))


@dataclass
class Chunk:
    """Consecutive points of a report (``ch.point``) and their data, as one batch.

    ``start`` is the index of ``ch.point[0]`` among the report's points;
    ``ch`` holds the data, each name of :data:`~hermlab.chern.TABLE`
    computed on first read, and ``rd`` reads its Levi-Civita side.
    ``views`` keeps the views of :meth:`first`.
    """

    start: int
    ch: ChernData
    rd: RiemannData
    views: dict = field(default_factory=dict, repr=False)

    def first(self, k):
        """The chunk's first k points, as one view per k of the arrays computed so far."""
        if k not in self.views:
            ch = self.ch.at(slice(k))
            self.views[k] = Chunk(self.start, ch, riemann_at(ch))
        return self.views[k]


def _per_point(size, n):
    """``size`` points at n = 3, scaled like 1/(2n)^4 (the Riemann temporaries)."""
    return size * 6**4 // (2 * n) ** 4


def chunk_size(n):
    """Points per call of the Chern and Riemann cores at chart dimension n."""
    return max(CHUNK, _per_point(CHUNK, n))


def block_size(n):
    """Points per metric evaluation at chart dimension n: whole chunks, at least one."""
    chunk = chunk_size(n)
    return max(chunk, _per_point(EVAL_BLOCK, n) // chunk * chunk)


def geometry_chunks(metric, points):
    """The data of ``points`` (see :func:`as_points`), one :class:`Chunk` of :func:`chunk_size` points at a time.

    The metric is evaluated and its jets checked once per :func:`block_size`
    points.  Nothing is kept between blocks; ``ch.point`` views ``points``.
    """
    points = as_points(points, metric.n)
    chunk, block = chunk_size(metric.n), block_size(metric.n)
    for first in range(0, len(points), block):
        batch = points[first : first + block]
        jets = metric.evaluate(batch)
        for start in range(0, len(batch), chunk):
            part = slice(start, start + chunk)
            # a chunk copies its part of a larger block, so that the chunk a
            # suite still holds while the next block is evaluated pins no block
            own = [x[part].copy() if len(batch) > chunk else x for x in jets]
            ch = chern_from_jets(metric, batch[part], *own)
            yield Chunk(first + start, ch, riemann_at(ch))
        del jets, own  # before the next block is evaluated
