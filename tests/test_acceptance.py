"""Acceptance suite: every release criterion at its committed tolerance.

Each test prints one pass line so the suite doubles as a human-readable
checklist (run with `pytest -s tests/test_acceptance.py`).  The standard
sweep is the full catalog plus twenty seeded random metrics, twenty points
each; classification criteria use fifty points.
"""

import numpy as np
import pytest

from hermlab import catalog
from hermlab.classify import (
    DEFAULT_TOL,
    classify_at,
    flag_residuals_at,
    holomorphic_eta_residual,
    klike_sigma_residual,
    curvature_difference_suite,
)
from hermlab.chern import balanced_identity_residual, chern_at
from hermlab.compare import (
    RIGIDITY_FLOOR,
    plane_decomposition_check,
    monotonicity_gap,
    n3_rigidity_search,
    ricci_identity_residuals,
    scalar_relation_residual,
    bisectional_difference_residuals,
)
from hermlab.conformal import (
    ConformalFactor,
    conformal_metric,
    connection_transform_residuals,
    gk_conformal_conditions,
    klike_conformal_conditions,
    torsion_transform_residual,
)
from hermlab.dsl import MetricField, parse
from hermlab.fd import fd_jet
from conftest import GeometryCache, fd_values, jet_arrays
from hermlab.geometry import sample_points
from hermlab.levicivita import riemann_at, theta2_two_route_residual, torsion_route
from hermlab.nilker import (
    common_kernel_constructive,
    common_kernel_inductive,
    family_from_torsion,
    kernel_intersection_basis,
    oracle_contains,
    random_general_family,
    random_torsion_tensor,
)

CATALOG_NAMES = (
    "euclidean",
    "fubini_study_chart",
    "fubini_study_chart_n2",
    "iwasawa",
    "gkl_surface",
    "conformal_klike",
    "conformal_gklike",
)
RANDOM_SEEDS = tuple(range(100, 120))
SWEEP_POINTS = 20
CLASSIFY_POINTS = 50
SEED = catalog.DEFAULT_SEED


@pytest.fixture(scope="module")
def sweep():
    """(name, metric, points) for the catalog and twenty random metrics."""
    cache = GeometryCache()
    entries = []
    for name in CATALOG_NAMES:
        m = catalog.get(name).metric
        entries.append((name, m, sample_points(m, SWEEP_POINTS, seed=SEED)))
    for seed in RANDOM_SEEDS:
        m = catalog.get(f"random_polynomial({seed})").metric
        entries.append((m.name, m, sample_points(m, SWEEP_POINTS, seed=SEED)))
    return entries, cache


def test_criterion_01_catalog_classification():
    expectations = {
        "iwasawa": {
            "kahler": False,
            "balanced": True,
            "kahler_like": True,
            "hermitian_flat": True,
        },
        "gkl_surface": {"g_kahler_like": True, "kahler": False},
        "conformal_gklike": {"g_kahler_like": True},
        "euclidean": {
            "kahler": True,
            "balanced": True,
            "kahler_like": True,
            "g_kahler_like": True,
            "pluriclosed": True,
        },
        "fubini_study_chart": {
            "kahler": True,
            "balanced": True,
            "kahler_like": True,
            "g_kahler_like": True,
            "pluriclosed": True,
        },
        "fubini_study_chart_n2": {
            "kahler": True,
            "balanced": True,
            "kahler_like": True,
            "g_kahler_like": True,
            "pluriclosed": True,
        },
    }
    for name, expected in expectations.items():
        m = catalog.get(name).metric
        pts = sample_points(m, CLASSIFY_POINTS, seed=SEED)
        rep = classify_at(m, pts, tol=DEFAULT_TOL)
        for flag, value in expected.items():
            assert rep[flag].value == value, (name, flag, rep[flag].residual)
    print("[PASS] criterion 1: catalog classification on 50 seeded points")


def test_criterion_02_four_unbarred_components_vanish(sweep):
    entries, cache = sweep
    worst = 0.0
    for name, m, pts in entries:
        for p in pts:
            _, rd = cache(m, p)
            worst = max(worst, rd.gray_residual())
    assert worst < 1e-8
    print(f"[PASS] criterion 2: unbarred curvature block < 1e-8 (worst {worst:.2e})")


def test_criterion_03_difference_identity_suite(sweep):
    entries, cache = sweep
    worst = {}
    for name, m, pts in entries:
        for p in pts:
            _, rd = cache(m, p)
            for key, val in curvature_difference_suite(rd).items():
                worst[key] = max(worst.get(key, 0.0), val)
    assert max(worst.values()) < 1e-7, worst
    print(
        "[PASS] criterion 3: all four curvature-torsion identities < 1e-7 "
        f"(worst {max(worst.values()):.2e})"
    )


def test_criterion_04_two_route_theta2(sweep):
    entries, cache = sweep
    worst = 0.0
    for name, m, pts in entries:
        for p in pts:
            ch, rd = cache(m, p)
            worst = max(worst, theta2_two_route_residual(ch, rd, torsion_route(ch)[1]))
    assert worst < 1e-6
    print(f"[PASS] criterion 4: Christoffel vs torsion routes agree (worst {worst:.2e})")


def test_criterion_05_sectional_difference_and_monotonicity(sweep):
    entries, cache = sweep
    rng = np.random.default_rng(SEED)
    worst_identity = 0.0
    floor = 0.0
    for name, m, pts in entries:
        max_T = 0.0
        best_gap = -np.inf
        for p in pts:
            ch, rd = cache(m, p)
            max_T = max(max_T, float(np.max(np.abs(ch.T))))
            # 50 directions (X, Y) per point, drawn as four normal(n) each
            draws = rng.normal(size=(50, 4, m.n))
            X = draws[:, 0] + 1j * draws[:, 1]
            Y = draws[:, 2] + 1j * draws[:, 3]
            res = bisectional_difference_residuals(rd, X, Y)
            worst_identity = max(
                worst_identity,
                res["sym_bisectional"].max(),
                res["cross_bisectional"].max(),
                res["holo_sectional"].max(),
            )
            gap = monotonicity_gap(rd, X)
            floor = min(floor, gap.min())
            best_gap = max(best_gap, gap.max())
        if max_T > 1e-3:
            assert best_gap > 1e-6, (name, max_T, best_gap)
    assert worst_identity < 1e-7
    assert floor >= -1e-10
    print(
        "[PASS] criterion 5: difference formulas < 1e-7 and the sectional gap "
        f"stays nonnegative (worst identity {worst_identity:.2e}, floor {floor:.1e})"
    )


def test_criterion_06_ricci_scalar_and_plane_decomposition(sweep):
    entries, cache = sweep
    rng = np.random.default_rng(SEED + 1)
    worst = {"scalar": 0.0, "ricci": 0.0, "plane": 0.0}
    for name, m, pts in entries:
        for p in pts[:5]:
            _, rd = cache(m, p)
            worst["scalar"] = max(worst["scalar"], scalar_relation_residual(rd))
            X = rng.normal(size=m.n) + 1j * rng.normal(size=m.n)
            rr = ricci_identity_residuals(rd, X)
            worst["ricci"] = max(worst["ricci"], rr["affine"], rr["j_invariant_ricci"])
            done = 0
            while done < 3:
                l12 = plane_decomposition_check(
                    rd, rng.normal(size=2 * m.n), rng.normal(size=2 * m.n)
                )
                if l12["degenerate"]:
                    continue
                worst["plane"] = max(
                    worst["plane"], l12["complexified_vs_real"], l12["angle_decomposition"]
                )
                done += 1
    assert worst["scalar"] < 1e-8
    assert worst["ricci"] < 1e-7
    assert worst["plane"] < 1e-7
    print(
        "[PASS] criterion 6: scalar relation < 1e-8, Ricci identities < 1e-7, "
        f"plane decomposition < 1e-7 (worst {max(worst.values()):.2e})"
    )


def test_criterion_07_conformal_biconditional():
    tol = 1e-7
    eu = MetricField.from_text(
        "euclidean_shifted",
        2,
        ["1", "0", "0", "1"],
        box=[(0.3, 1.3, 0.3, 1.3), (0.3, 1.3, 0.3, 1.3)],
    )
    kl = catalog.get("conformal_klike").metric
    gkl = catalog.get("conformal_gklike").metric
    gs = catalog.get("gkl_surface").metric

    pairs = [
        ("K", kl, "re(z2)", True),
        ("GK", eu, "-ln(abs2(z1) + abs2(z2))", True),
        ("GK", gkl, "ln(abs2(z1) + abs2(z2))", True),
        ("K", kl, "abs2(z1)", False),
        ("GK", eu, "re(z1)", False),
        ("GK", gs, "abs2(z1)", False),
    ]
    for branch, base, src, expect in pairs:
        f = ConformalFactor(parse(src, base.n), name=src)
        for p in sample_points(base, 3, seed=SEED):
            if branch == "K":
                res = klike_conformal_conditions(base, f, p)
                cond_ok = res["pluriharmonic"] < tol
                flag_ok = res["transformed_kahler_like"] < tol
            else:
                res = gk_conformal_conditions(base, f, p)
                cond_ok = max(res["hessian_holomorphic"], res["hessian_mixed"]) < tol
                flag_ok = res["transformed_theta2"] < tol
            assert cond_ok == expect and flag_ok == expect, (branch, src, res)

    # transformation laws hold for arbitrary exponents
    worst = 0.0
    for base, src in [(eu, "re(z1)"), (catalog.get("iwasawa").metric, "ln(1 + abs2(z1)) / 2")]:
        f = ConformalFactor(parse(src, base.n))
        pts = np.array(sample_points(base, 3, seed=SEED))
        base_rd = riemann_at(chern_at(base, pts))
        new_rd = riemann_at(chern_at(conformal_metric(base, f), pts))
        u = f.u_values(pts)
        worst = max(worst, *torsion_transform_residual(base_rd.chern, new_rd.chern, u))
        for res in connection_transform_residuals(base_rd, new_rd, u).values():
            worst = max(worst, *res)
    assert worst < 1e-8
    print(
        "[PASS] criterion 7: conformal biconditional on 6 control pairs; "
        f"transformation laws < 1e-8 (worst {worst:.2e})"
    )


def test_criterion_08_common_kernel_two_hundred_families():
    rng = np.random.default_rng(SEED + 2)
    checked = 0
    for trial in range(200):
        if trial % 2 == 0:
            fam = random_general_family(rng)
            vecs = [common_kernel_inductive(fam, seed=trial)]
        else:
            fam = family_from_torsion(random_torsion_tensor(rng))
            vecs = [
                common_kernel_inductive(fam, seed=trial),
                common_kernel_constructive(fam, seed=trial),
            ]
        assert kernel_intersection_basis(fam).shape[1] >= 1
        for w in vecs:
            assert abs(np.linalg.norm(w) - 1.0) < 1e-10
            assert fam.kernel_residual(w) < 1e-8
            assert oracle_contains(fam, w)
        checked += 1
    assert checked == 200
    print("[PASS] criterion 8: 200 random families cracked by both algorithms")


def test_criterion_09_rigidity_floor():
    out = n3_rigidity_search(trials=10_000, seed=2024, polish=64, steps=150)
    assert out["min_residual"] > RIGIDITY_FLOOR
    print(
        f"[PASS] criterion 9: rigidity residual floor {out['min_residual']:.4f} "
        f"> committed bound {RIGIDITY_FLOOR}"
    )


def test_criterion_10_jet_derivatives_vs_finite_differences():
    worst1 = worst2 = 0.0
    for name in CATALOG_NAMES:
        m = catalog.get(name).metric
        exprs = [m.entries[i][j] for i in range(m.n) for j in range(m.n)]
        exprs += list(m.constraints)
        pts = np.array(sample_points(m, 100, seed=SEED + 4))
        for expr in exprs:
            _, jet_d1s, jet_d2s = jet_arrays(expr, pts)
            for p, jet_d1, jet_d2 in zip(pts, jet_d1s, jet_d2s):
                _, d1, d2 = fd_jet(fd_values(expr), p, m.n)
                worst1 = max(worst1, float(np.max(np.abs(jet_d1 - d1))))
                worst2 = max(worst2, float(np.max(np.abs(jet_d2 - d2))))
    assert worst1 < 1e-6
    assert worst2 < 1e-4
    print(
        f"[PASS] criterion 10: jets vs finite differences (first {worst1:.2e}, "
        f"second {worst2:.2e})"
    )


def test_criterion_11_balanced_identity_and_klike_content(sweep):
    entries, cache = sweep
    worst_balanced = 0.0
    worst_klike = 0.0
    for name, m, pts in entries:
        for p in pts:
            ch, rd = cache(m, p)
            worst_balanced = max(worst_balanced, balanced_identity_residual(ch))
            flags = flag_residuals_at(ch, rd)
            if flags["kahler_like"] < DEFAULT_TOL:
                worst_klike = max(
                    worst_klike,
                    klike_sigma_residual(ch),
                    holomorphic_eta_residual(ch),
                )
    assert worst_balanced < 1e-8
    assert worst_klike < 1e-8
    print(
        "[PASS] criterion 11: trace identity for del(omega^(n-1)) < 1e-8 and "
        f"Chern-symmetric extras < 1e-8 (worst {max(worst_balanced, worst_klike):.2e})"
    )


def test_criterion_12_no_double_flag_with_torsion(sweep):
    entries, cache = sweep
    for name, m, pts in entries:
        rep = classify_at(m, pts, tol=DEFAULT_TOL)
        max_T = 0.0
        for p in pts:
            ch, _ = cache(m, p)
            max_T = max(max_T, float(np.max(np.abs(ch.T))))
        if max_T > 1e-3:
            both = rep["kahler_like"].value and rep["g_kahler_like"].value
            assert not both, (name, max_T)
    print("[PASS] criterion 12: no torsion-bearing metric is flagged doubly symmetric")
