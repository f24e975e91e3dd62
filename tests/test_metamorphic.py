"""Known answers from metrics built on parsed trees.

A homothety g -> 4^k g scales every Chern and Riemann array by an exact
power of two, a product metric g1 (+) g2 has the flags of both factors
and no curvature or torsion across its blocks, and a metric with a Kahler
potential has every Kahler-type flag and no torsion.
"""

import numpy as np
import pytest

from hermlab import catalog, cli, dsl
from hermlab.catalog import CatalogEntry
from hermlab.chern import chern_at
from hermlab.classify import KAHLER_IMPLIES, classify_at, curvature_difference_suite
from hermlab.dsl import BinOp, Call, Coord, Lit, MetricField
from hermlab.geometry import sample_points
from hermlab.levicivita import symmetry_residuals

# the homothety weight w of each array: it scales by c^w under g -> c g
WEIGHTS = {
    1: ("gv", "dg", "ddg", "G", "R4"),
    0.5: ("Lv", "dL"),
    -0.5: ("Pv", "dP", "T", "eta", "dT", "W"),
    0: ("theta", "dtheta", "Theta", "theta_u_vals", "Gamma", "Ric"),
    -1: ("Rh", "covT", "covT_bar", "Rc", "Gi", "Scal"),
}
CHERN_ARRAYS = ("gv", "dg", "ddg", "Lv", "Pv", "theta", "dtheta", "Theta", "T", "Rh", "eta")
CHERN_ARRAYS += ("dL", "dP", "dT", "theta_u_vals", "covT", "covT_bar")  # computed on first read
RIEMANN_ARRAYS = ("G", "Gi", "Gamma", "R4", "W", "Rc", "Ric", "Scal")


def _scaled(metric, c):
    entries = [[BinOp("*", Lit(c), e) for e in row] for row in metric.entries]
    return MetricField(f"{metric.name}_scaled", metric.n, entries, list(metric.constraints), metric.box)


def _arrays(metric, points):
    ch = chern_at(metric, points)
    return {name: getattr(ch, name) for name in CHERN_ARRAYS + RIEMANN_ARRAYS}


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
    assert _cross_block_max(ch.T, n, n1, 3) == 0.0
    assert _cross_block_max(ch.Rh, n, n1, 4) == 0.0
    assert _cross_block_max(ch.Rc, n, n1, 4) == 0.0


# ----------------------------------------------------------------------
# Kahler potentials: g_ij = delta_ij + eps d_i dbar_j phi
RADIUS = 0.9 * np.sqrt(2.0)  # the largest |z_k| on the default sampling box


def _monomial(alpha, beta):
    """z^alpha zbar^beta as a product of node constructors."""
    out = Lit(1.0)
    for k in range(len(alpha)):
        for factor in [Coord(k + 1)] * alpha[k] + [Call("conj", Coord(k + 1))] * beta[k]:
            out = BinOp("*", out, factor)
    return out


def _kahler_potential_metric(n, seed):
    """delta + eps d dbar phi for phi = sum (c z^a zbar^b + conj(c) z^b zbar^a), 2n seeded terms.

    Each term has 1 <= |a|, |b| <= 2.  eps bounds every row's sum of |eps d_i dbar_j phi| on
    the box by 1/2, so by Gershgorin g is positive definite there.
    """
    rng = np.random.default_rng(seed)
    terms = {}  # (i, j) -> [(coefficient, a - e_i, b - e_j)] of d_i dbar_j phi
    bound = np.zeros((n, n))
    for _ in range(2 * n):
        alpha, beta = (rng.multinomial(d, np.ones(n) / n) for d in rng.integers(1, 3, size=2))
        c = complex(*rng.normal(size=2))
        for a, b, coef in ((alpha, beta, c), (beta, alpha, c.conjugate())):
            for i, j in zip(*np.nonzero(np.outer(a, b))):
                da, db = a - np.eye(n, dtype=int)[i], b - np.eye(n, dtype=int)[j]
                terms.setdefault((i, j), []).append((coef * a[i] * b[j], da, db))
                bound[i, j] += abs(coef) * a[i] * b[j] * RADIUS ** (da.sum() + db.sum())
    eps = 0.5 / bound.sum(axis=1).max()
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = Lit(float(i == j))
            for coef, da, db in terms.get((i, j), []):
                e = BinOp("+", e, BinOp("*", Lit(eps * coef), _monomial(da, db)))
            entries[i][j] = e
            entries[j][i] = e if i == j else Call("conj", e)
    return MetricField(f"kahler_potential_n{n}", n, entries)


@pytest.mark.parametrize("n", range(2, 7))
def test_a_kahler_potential_has_every_kahler_flag_and_no_torsion(n):
    metric = _kahler_potential_metric(n, seed=100 + n)
    points = sample_points(metric, 4, seed=7)
    report = classify_at(metric, points)
    for flag in ("kahler",) + KAHLER_IMPLIES:
        assert report[flag].value and report[flag].residual < 1e-13, flag
    assert not report["hermitian_flat"].value  # the curvature is not trivially zero
    ch = chern_at(metric, np.array(points))
    assert np.abs(ch.T).max() < 1e-15
    # with no torsion the Riemannian curvature is the Chern curvature
    assert curvature_difference_suite(ch)["riemann_vs_chern"].max() < 1e-13
    assert max(r.max() for r in symmetry_residuals(ch).values()) < 1e-13
