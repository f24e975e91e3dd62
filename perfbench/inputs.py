"""Seeded inputs for the hermlab benchmark workloads.

Every workload draws its reports from a finite pool, so a correctness
reference can be recorded for each pool entry.  A report is one
``hermlab.cli.main`` call: a metric (catalog name, ``random_polynomial(s)``
or a generated config file) and the CLI ``--seed`` that picks its points.

A run is a fixed number of whole *rounds*, set by ``--seconds`` (see
``Workload.rounds_in``), so two runs of one seed do the same reports.  Every
round of a workload has the same composition, with the seed choosing the
point seeds, the random and generated metrics, and the order.  Report costs
differ by 3x between n=2 and n=3 metrics and more between metric families,
and a run holds only 10-30 reports, so this is what keeps the figures of
two seeds comparable: each run measures the same mix of costs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

POINT_SEEDS = (42, 43, 44, 45)
GENERATED_POINT_SEED = 42
CATALOG = (
    "euclidean",
    "fubini_study_chart_n2",
    "gkl_surface",
    "conformal_klike",
    "conformal_gklike",
    "iwasawa",
)
RANDOM_SEEDS = range(32)  # random_polynomial(s); the catalog draws n = 2 or 3 from s
# random_polynomial(s) whose report workload run (--oracle, --seed 42) raised
# the oracle's uncaught ValueError when the benchmark was added.  Report
# rounds draw from these and from the others in equal number, so every run
# fails the same share of reports.  No seed is left out: both groups are
# drawn from whole.
ORACLE_RAISED = frozenset({0, 3, 6, 7, 8, 9, 10, 11, 13, 17, 20, 22, 26, 27, 28, 29, 30})
GENERATED_SEEDS = range(16)  # generator seeds of each generated family

# sampling box of every generated metric (the CLI default box)
BOX_HALF_WIDTH = 0.9
# Gershgorin margin: off-diagonal row sums stay below this on the box, and the
# diagonal is 1 plus nonnegative terms, so the smallest eigenvalue is >= 0.5
PERTURBATION_BUDGET = 0.5


@dataclass(frozen=True)
class Report:
    metric: str  # catalog name, random_polynomial(s), or generated config name
    seed: int  # the CLI --seed, which draws the sample points

    @property
    def generated(self):
        return self.metric.startswith(("hd", "halfplane"))

    def source(self, config_dir):
        """The --metric argument: a catalog name or a config path."""
        if self.generated:
            return str(Path(config_dir) / f"{self.metric}.json")
        return self.metric


@dataclass(frozen=True)
class Workload:
    name: str
    stream: int  # second word of the round generator's seed, one per workload
    suite_args: tuple  # CLI arguments shared by every report of the workload
    points: int
    round_seconds: float  # wall time of one untraced round on the baseline machine
    make_round: Callable  # (rng, random seeds by dimension, round index) -> reports
    make_pool: Callable  # () -> every report any seed can produce

    def argv(self, report, config_dir):
        return [
            "--metric",
            report.source(config_dir),
            "--seed",
            str(report.seed),
            "--points",
            str(self.points),
            *self.suite_args,
            "--format",
            "json",
        ]

    def rounds_in(self, seconds):
        """Rounds in a run of about ``seconds`` on the baseline machine.

        The count depends on ``seconds`` only, not on the host's speed, so
        repeated runs of one seed attempt, and fail, the same reports.
        """
        return max(1, round(seconds / self.round_seconds))

    def rounds(self, seed):
        """Endless sequence of rounds; the same seed gives the same rounds."""
        rng = np.random.default_rng([seed, self.stream])
        random_by_n = _random_polynomials_by_dimension()
        for index in itertools.count():
            reports = self.make_round(rng, random_by_n, index)
            yield [reports[i] for i in rng.permutation(len(reports))]

    def pool(self):
        """Every report any seed can produce, in a fixed order."""
        return self.make_pool()


def _random_polynomials_by_dimension():
    """Random polynomial seeds split by the dimension the catalog gives them.

    Rounds take them by dimension, so the n=2/n=3 cost mix is the same from
    seed to seed; every seed of the pool can be drawn.
    """
    from hermlab import catalog

    by_n = {2: [], 3: []}
    for s in RANDOM_SEEDS:
        by_n[catalog.get(f"random_polynomial({s})").metric.n].append(s)
    return by_n


def _catalog(rng):
    return [Report(name, int(rng.choice(POINT_SEEDS))) for name in CATALOG]


def _random_polynomial(rng, seeds):
    return Report(f"random_polynomial({int(rng.choice(seeds))})", GENERATED_POINT_SEED)


def _generated(rng, family):
    return Report(f"{family}-{int(rng.choice(GENERATED_SEEDS))}", GENERATED_POINT_SEED)


def _catalog_pool():
    return [Report(m, s) for m in CATALOG for s in POINT_SEEDS]


def _random_pool():
    return [Report(f"random_polynomial({s})", GENERATED_POINT_SEED) for s in RANDOM_SEEDS]


def _generated_pool(family):
    return [Report(f"{family}-{s}", GENERATED_POINT_SEED) for s in GENERATED_SEEDS]


def _sweep_round(rng, by_n, index):
    randoms = [_random_polynomial(rng, by_n[2]), _random_polynomial(rng, by_n[3])]
    return _catalog(rng) + randoms + [_generated(rng, "halfplane")]


def _report_round(rng, by_n, index):
    # About half of the random polynomials raise in the oracle, and a failed
    # report adds no points.  Each round has one n=2 and one n=3 of them, one
    # that raised and one that did not, the dimension of the raising one in
    # turn, so the share of failed reports does not depend on the seed.
    raising_n = 2 + index % 2
    return _catalog(rng) + [
        _random_polynomial(rng, [s for s in by_n[n] if (s in ORACLE_RAISED) == (n == raising_n)])
        for n in (2, 3)
    ]


def _highdim_round(rng, by_n, index):
    return [_generated(rng, "hd4"), _generated(rng, "hd5"), _generated(rng, "hd5")]


SWEEP_ROUND_S = 10.7
REPORT_ROUND_S = 11.5
HIGHDIM_ROUND_S = 9.5

# Why each workload exists: perfbench/BASELINE.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            1,
            ("--suite", "classify"),
            200,
            SWEEP_ROUND_S,
            _sweep_round,
            lambda: _catalog_pool() + _random_pool() + _generated_pool("halfplane"),
        ),
        Workload(
            "report",
            2,
            ("--suite", "all", "--oracle"),
            20,
            REPORT_ROUND_S,
            _report_round,
            lambda: _catalog_pool() + _random_pool(),
        ),
        Workload(
            "highdim",
            3,
            ("--suite", "identities"),
            4,
            HIGHDIM_ROUND_S,
            _highdim_round,
            lambda: _generated_pool("hd4") + _generated_pool("hd5"),
        ),
    )
}


# ----------------------------------------------------------------------
# generated metrics
def _fmt(x):
    return f"{x:.6f}"


def _fmt_complex(c):
    sign = "-" if c.imag < 0 else "+"
    return f"({c.real:.6f} {sign} {abs(c.imag):.6f}*i)"


def hermitian_perturbation(rng, n):
    """Entry texts of identity plus a small Hermitian perturbation.

    g_ii = 1 + a abs2(z_i) + b abs2(z_{i+1}) with a, b >= 0; the dependence
    of g_ii on another coordinate makes the metric non-Kahler, so torsion
    and the identity suites are non-trivial.  For i < j,
    g_ij = c1 z_i + c2 conj(z_j) + c3 z_i conj(z_j) with complex c, and
    g_ji = conj(g_ij), so the matrix is Hermitian at every point.  Only the
    coefficients come from ``rng``: every metric of one size has the same
    terms in the same entries, and so the same evaluation cost.  They are
    scaled so every off-diagonal row sum stays below ``PERTURBATION_BUDGET``
    on the sampling box.
    """
    radius = BOX_HALF_WIDTH * np.sqrt(2.0)  # largest |z_k| on the box
    diag = np.abs(rng.normal(size=(n, 2)))
    off = rng.normal(size=(n, n, 3)) + 1j * rng.normal(size=(n, n, 3))
    degrees = np.array([1, 1, 2])
    row_sum = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            bound = float(np.sum(np.abs(off[i, j]) * radius**degrees))
            row_sum[i] += bound
            row_sum[j] += bound
    scale = PERTURBATION_BUDGET / float(row_sum.max())
    # the diagonal gets the same scale so the whole perturbation stays small
    texts = [["0"] * n for _ in range(n)]
    for i in range(n):
        a, b = diag[i] * scale
        texts[i][i] = f"1 + {_fmt(a)}*abs2(z{i + 1}) + {_fmt(b)}*abs2(z{(i + 1) % n + 1})"
        for j in range(i + 1, n):
            c1, c2, c3 = off[i, j] * scale
            src = (
                f"{_fmt_complex(c1)}*z{i + 1} + {_fmt_complex(c2)}*conj(z{j + 1})"
                f" + {_fmt_complex(c3)}*z{i + 1}*conj(z{j + 1})"
            )
            texts[i][j] = src
            texts[j][i] = f"conj({src})"
    return [t for row in texts for t in row]


def halfplane_constraint(rng, n=2):
    """A real-linear constraint through (about) the box centre.

    ``re(sum c_k z_k) - b`` with a random unit vector c and a small offset b
    rejects close to half of the uniform box draws.
    """
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    c /= np.linalg.norm(c)
    b = 0.05 * float(rng.uniform(-1.0, 1.0))
    terms = " + ".join(f"{_fmt_complex(ck)}*z{k + 1}" for k, ck in enumerate(c))
    sign = "-" if b >= 0 else "+"
    return f"re({terms}) {sign} {_fmt(abs(b))}"


def generated_config(name):
    """Config dict of a generated metric, e.g. ``hd5-3`` or ``halfplane-0``."""
    family, _, seed = name.partition("-")
    rng = np.random.default_rng([int(seed), {"hd4": 4, "hd5": 5, "halfplane": 2}[family]])
    if family == "halfplane":
        return {
            "name": name,
            "n": 2,
            "entries": hermitian_perturbation(rng, 2),
            "constraints": [halfplane_constraint(rng)],
        }
    n = int(family[2:])
    return {"name": name, "n": n, "entries": hermitian_perturbation(rng, n)}


def write_configs(reports, config_dir):
    """Write the config file of every generated metric among ``reports``."""
    config_dir = Path(config_dir)
    config_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted({r.metric for r in reports if r.generated}):
        text = json.dumps(generated_config(name), indent=2, sort_keys=True) + "\n"
        (config_dir / f"{name}.json").write_text(text)
