"""Known answers from changes of the metric built on its parsed trees.

A homothety g -> 4^k g scales every Chern and Riemann array by an exact
power of two, and a product metric g1 (+) g2 has the flags of both factors
and no curvature or torsion across its blocks.
"""

import numpy as np
import pytest

from hermlab import catalog, cli, dsl
from hermlab.catalog import CatalogEntry
from hermlab.chern import _DERIVED, chern_at
from hermlab.dsl import BinOp, Coord, Lit, MetricField
from hermlab.geometry import sample_points
from hermlab.levicivita import riemann_at

# the homothety weight w of each array: it scales by c^w under g -> c g
WEIGHTS = {
    1: ("gv", "dg", "ddg", "G", "R4"),
    0.5: ("Lv", "dL"),
    -0.5: ("Pv", "dP", "T", "eta", "dT", "W"),
    0: ("theta", "dtheta", "Theta", "theta_u_vals", "Gamma", "Ric"),
    -1: ("Rh", "covT", "covT_bar", "Rc", "Gi", "Scal"),
}
CHERN_ARRAYS = ("gv", "dg", "ddg", "Lv", "Pv", "theta", "dtheta", "Theta", "T", "Rh", "eta") + _DERIVED
RIEMANN_ARRAYS = ("G", "Gi", "Gamma", "R4", "W", "Rc", "Ric", "Scal")


def _scaled(metric, c):
    entries = [[BinOp("*", Lit(c), e) for e in row] for row in metric.entries]
    return MetricField(f"{metric.name}_scaled", metric.n, entries, list(metric.constraints), metric.box)


def _arrays(metric, points):
    ch = chern_at(metric, points)
    rd = riemann_at(ch)
    return {**{name: getattr(ch, name) for name in CHERN_ARRAYS}, **{name: getattr(rd, name) for name in RIEMANN_ARRAYS}}


def test_weights_name_every_array():
    named = [name for names in WEIGHTS.values() for name in names]
    assert sorted(named) == sorted(CHERN_ARRAYS + RIEMANN_ARRAYS)


@pytest.mark.parametrize("name", ["iwasawa", "random_polynomial(12)", "gkl_surface"])
def test_homothety_scales_every_array_by_its_exact_weight(name):
    metric = catalog.get(name).metric
    points = sample_points(metric, 3, seed=11)
    base = _arrays(metric, points)
    for k in range(-8, 11):
        scaled = _arrays(_scaled(metric, 4.0**k), points)
        for w, names in WEIGHTS.items():
            for array in names:
                assert np.array_equal(scaled[array], 2.0 ** (2 * w * k) * base[array]), (k, array)


# ----------------------------------------------------------------------
# products g1 (+) g2
def _shifted(e, shift):
    """The tree ``e`` with every ``z_k`` replaced by ``z_{k + shift}``, built by the node constructors."""

    def rule(node, children):
        if isinstance(node, Coord):
            return Coord(node.index + shift)
        rest = iter(children)
        fields = (next(rest) if f in node._children else getattr(node, f) for f in type(node).__slots__)
        return type(node)(*fields)

    return dsl._walk([e], rule)[0]


def _product(a, b):
    n1, n = a.metric.n, a.metric.n + b.metric.n
    zero = Lit(0.0)
    entries = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < n1 and j < n1:
                entries[i][j] = a.metric.entries[i][j]
            elif i >= n1 and j >= n1:
                entries[i][j] = _shifted(b.metric.entries[i - n1][j - n1], n1)
    constraints = list(a.metric.constraints) + [_shifted(c, n1) for c in b.metric.constraints]
    metric = MetricField(f"{a.name}+{b.name}", n, entries, constraints, a.metric.box + b.metric.box)
    flags = {}
    for flag in set(a.expected_flags) | set(b.expected_flags):
        x, y = a.expected_flags.get(flag), b.expected_flags.get(flag)
        if x is False or y is False:
            flags[flag] = False  # three-valued AND: unknown stays unknown unless one is False
        elif x and y:
            flags[flag] = True
    return CatalogEntry(metric, expected_flags=flags)


def _cross_block_max(X, n, n1, axes):
    """max |X| over the components of its last ``axes`` index axes that mix the two factors."""
    first = np.meshgrid(*(np.arange(size) % n < n1 for size in X.shape[-axes:]), indexing="ij")
    mixed = ~(np.logical_and.reduce(first) | ~np.logical_or.reduce(first))
    return np.abs(X[..., mixed]).max()


@pytest.mark.parametrize(
    "first,second",
    [("iwasawa", "gkl_surface"), ("iwasawa", "iwasawa"), ("fubini_study_chart_n2", "iwasawa")],
)
def test_product_has_the_flags_of_both_factors_and_no_cross_blocks(first, second):
    a, b = catalog.get(first), catalog.get(second)
    product = _product(a, b)
    assert product.expected_flags
    report, code = cli.run(product, 4, 42, ["classify"], cli.DEFAULT_TOLERANCES, False, "")
    assert code == 0
    checks = {c["name"] for c in report["suites"]["classify"]["checks"]}
    assert {f"flag_{f}_expected_{v}" for f, v in product.expected_flags.items()} <= checks
    n, n1 = product.metric.n, a.metric.n
    ch = chern_at(product.metric, sample_points(product.metric, 4, seed=42))
    rd = riemann_at(ch)
    assert _cross_block_max(ch.T, n, n1, 3) == 0.0
    assert _cross_block_max(ch.Rh, n, n1, 4) == 0.0
    assert _cross_block_max(rd.Rc, n, n1, 4) == 0.0
