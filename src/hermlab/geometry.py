"""Sample points and the Chern and Riemann data at them, a batch at a time.

The CLI samples a report's points once and streams their data through
:func:`geometry_chunks`, in two sizes that depend on the chart dimension n
only:

* an evaluation block of :func:`block_size` points: one
  :meth:`MetricField.evaluate` call, whose jets are checked once;
* a core chunk of :func:`chunk_size` points: one call of the batched
  Chern and Riemann cores on a slice of the block's jets, yielded as one
  :class:`Chunk`, which every suite reads before the next chunk is
  computed.

The Riemann core's per-point temporaries are tensors over the 2n real
slots, and a point's second metric jet has n^2 (2n)^2 entries, so both
sizes scale like 1/(2n)^4: a chunk is ``CHUNK`` points at n >= 3 and
``16 * 6^4 // (2n)^4`` below (1296 at n = 1, 81 at n = 2); a block is
``128 * 6^4 // (2n)^4`` points rounded down to whole chunks (648 at n = 2,
128 at n = 3, 32 at n = 4), at least one chunk, so a block's jets take
0.6-0.9 MB at n = 2..5.  A report holds the jets of one block and
the data of one chunk at a time.  Evaluation and the cores work point
by point, so the sizes change no bit of any result.  They do change which
error a bad point raises: every evaluation error in a block (a
constraint, a singular expression) is raised before that block's jet
checks (not finite, not Hermitian, not positive definite), even where the
jet check fails at an earlier point of the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import DEFAULT_SEED
from .chern import ChernData, arrays_at, chern_from_jets
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
        """The chunk's first ``count`` points, as a chunk of copies that pins no block."""
        part = slice(0, count)
        ch = replace(self.ch, **_copies(self.ch, part))
        rd = replace(self.rd, chern=ch, **_copies(self.rd, part))
        return Chunk(self.start, self.points[part], ch, rd)


def _copies(data, index):
    return {name: x.copy() for name, x in arrays_at(data, index).items()}


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
    """The data of ``points`` in point order, one :class:`Chunk` of :func:`chunk_size` points at a time.

    The metric is evaluated and its jets checked once per
    :func:`block_size` points.  Nothing is kept between blocks.
    """
    chunk, block = chunk_size(metric.n), block_size(metric.n)
    for first in range(0, len(points), block):
        batch = np.asarray(points[first : first + block], dtype=complex).reshape(-1, metric.n)
        jets = metric.evaluate(batch)
        for start in range(0, len(batch), chunk):
            part = slice(start, start + chunk)
            # a chunk copies its part of a larger block, so that the chunk a
            # suite still holds while the next block is evaluated pins no block
            own = [x[part].copy() if len(batch) > chunk else x for x in jets]
            ch = chern_from_jets(metric, batch[part], *own)
            yield Chunk(first + start, points[first + start : first + start + chunk], ch, riemann_at(ch))
        del jets, own  # before the next block is evaluated
