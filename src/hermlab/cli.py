"""Config ingestion, point sampling, check orchestration and reporting.

Exit codes: 0 all checks passed, 1 check failure, 2 usage or parse error,
3 domain sampling error.  Reports are deterministic for a fixed
(source, seed) pair except for the timestamp field.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

from . import catalog
from .chern import (
    balanced_identity_residual,
    bianchi_residual,
    chern_at,
    curvature_identity_residual,
    del_omega_residual,
    normal_frame_at,
    skew_hermitian_residual,
)
from .classify import (
    DEFAULT_TOL,
    classify_at,
    curvature_difference_suite,
    eta_trace_residual,
    flag_residuals_at,
    holomorphic_eta_residual,
    klike_sigma_residual,
)
from .compare import (
    RIGIDITY_FLOOR,
    DegeneratePlaneError,
    bisectional,
    bisectional_difference_residuals,
    monotonicity_gap,
    n3_rigidity_search,
    plane_decomposition_check,
    ricci_identity_residuals,
    scalar_relation_residual,
)
from .conformal import (
    ConformalFactor,
    connection_transform_residuals,
    torsion_transform_residual,
)
from .dsl import parse as parse_expr
from .errors import (
    DomainSamplingError,
    HermlabError,
    InvalidFamilyError,
    MetricSyntaxError,
)
from .fd import fd_jet
from .jets import JetMatrix
from .levicivita import (
    dsigma2_check,
    riemann_at,
    sigma_matrices,
    theta2_matches_torsion_residual,
    theta2_two_route_residual,
    theta2_zero_one_part_residual,
)
from .nilker import (
    common_kernel_constructive,
    common_kernel_inductive,
    family_from_torsion,
    kernel_intersection_basis,
    oracle_contains,
    random_general_family,
    random_torsion_tensor,
    torsion_symmetry_residual,
)

SCHEMA_VERSION = 1
SUITES = ("classify", "identities", "compare", "conformal", "nilker")

DEFAULT_TOLERANCES = {
    "flags": DEFAULT_TOL,
    "identities": 1e-7,
    "exact": 1e-8,
    "two_route": 1e-6,
    "fd": 1e-5,
    "psd": 1e-10,
    "frame": 1e-9,
    "oracle_first": 1e-5,
    "oracle_second": 1e-3,
}


def sample_points(metric, count, seed, oversample=10):
    """Seeded uniform draws from the metric's box, rejecting by constraints."""
    rng = np.random.default_rng(seed)
    points = []
    attempts = 0
    limit = max(count * oversample, 32)
    while len(points) < count and attempts < limit:
        p = np.array(
            [
                rng.uniform(b[0], b[1]) + 1j * rng.uniform(b[2], b[3])
                for b in metric.box
            ]
        )
        attempts += 1
        if metric.admissible(p):
            points.append(p)
    if len(points) < count:
        raise DomainSamplingError(
            f"found {len(points)}/{count} admissible points after {attempts} draws"
        )
    return points


def _point_list(p):
    return [[float(z.real), float(z.imag)] for z in np.asarray(p)]


class Check:
    def __init__(self, name, residual, tol, worst_point=None, asserted=True):
        self.name = name
        self.residual = float(residual)
        self.tol = float(tol)
        self.asserted = asserted
        self.passed = (self.residual < self.tol) if asserted else True
        self.worst_point = worst_point

    def as_dict(self):
        out = {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tol,
            "passed": bool(self.passed),
            "asserted": bool(self.asserted),
        }
        if self.worst_point is not None:
            out["worst_point"] = _point_list(self.worst_point)
        return out


class _Worst:
    """Track the maximum residual and the point where it happened."""

    def __init__(self):
        self.value = -1.0
        self.point = None

    def update(self, value, point):
        if value > self.value:
            self.value = float(value)
            self.point = point

    def check(self, name, tol, asserted=True):
        return Check(name, max(self.value, 0.0), tol, self.point, asserted)


class _Cache:
    def __init__(self):
        self.data = {}

    def __call__(self, metric, p):
        key = (metric.name, tuple(np.round(np.asarray(p, dtype=complex), 14)))
        if key not in self.data:
            ch = chern_at(metric, p)
            rd = riemann_at(metric, p, chern_data=ch)
            self.data[key] = (ch, rd)
        return self.data[key]


# ----------------------------------------------------------------------
# suites
def run_classify(entry, points, tols, cache):
    metric = entry.metric
    report = classify_at(metric, points, tol=tols["flags"], cache=cache)
    checks = []
    for name, flag in sorted(report.flags.items()):
        expected = entry.expected_flags.get(name)
        if expected is None:
            checks.append(
                Check(f"flag_{name}", flag.residual, tols["flags"], flag.worst_point, asserted=False)
            )
        else:
            ok = flag.value == expected
            checks.append(
                Check(
                    f"flag_{name}_expected_{expected}",
                    0.0 if ok else 1.0,
                    0.5,
                    flag.worst_point,
                )
            )
    return checks, report.as_dict()


def run_identities(entry, points, tols, cache):
    metric = entry.metric
    worsts = {
        name: _Worst()
        for name in (
            "gray_vanishing",
            "riemann_symmetries",
            "structure_bianchi",
            "ddbar_omega_vs_torsion_curvature",
            "del_omega_vs_torsion",
            "balanced_trace",
            "theta2_two_route",
            "theta2_type",
            "theta2_vs_torsion",
            "curvature_type",
            "curvature_skew_hermitian",
            "dsigma2_trace",
            "sigma1_psd",
            "sigma2_psd",
            "covT_vs_chern",
            "mixed_20",
            "mixed_02",
            "riemann_vs_chern",
        )
    }
    cond = {
        name: _Worst()
        for name in ("klike_ddbar_sigma", "klike_eta_holomorphic", "gklike_eta_trace")
    }
    cond_seen = {name: False for name in cond}
    frame_w = {"normal_frame_theta": _Worst(), "normal_frame_covT": _Worst()}

    for idx, p in enumerate(points):
        ch, rd = cache(metric, p)
        worsts["gray_vanishing"].update(rd.gray_residual(), p)
        worsts["riemann_symmetries"].update(max(rd.symmetry_residuals().values()), p)
        worsts["structure_bianchi"].update(bianchi_residual(ch), p)
        worsts["ddbar_omega_vs_torsion_curvature"].update(
            curvature_identity_residual(ch), p
        )
        worsts["del_omega_vs_torsion"].update(del_omega_residual(ch), p)
        worsts["balanced_trace"].update(balanced_identity_residual(ch), p)
        worsts["theta2_two_route"].update(theta2_two_route_residual(ch, rd), p)
        worsts["theta2_type"].update(theta2_zero_one_part_residual(rd), p)
        worsts["theta2_vs_torsion"].update(theta2_matches_torsion_residual(rd), p)
        worsts["curvature_type"].update(ch.Rh_type_residual, p)
        worsts["curvature_skew_hermitian"].update(skew_hermitian_residual(ch), p)
        worsts["dsigma2_trace"].update(dsigma2_check(ch), p)
        S1, S2 = sigma_matrices(ch)
        worsts["sigma1_psd"].update(max(0.0, -float(np.linalg.eigvalsh(S1).min())), p)
        worsts["sigma2_psd"].update(max(0.0, -float(np.linalg.eigvalsh(S2).min())), p)
        for name, value in curvature_difference_suite(rd).items():
            worsts[name].update(value, p)

        flags = flag_residuals_at(ch, rd)
        if flags["kahler_like"] < tols["flags"]:
            cond_seen["klike_ddbar_sigma"] = True
            cond_seen["klike_eta_holomorphic"] = True
            cond["klike_ddbar_sigma"].update(klike_sigma_residual(ch), p)
            cond["klike_eta_holomorphic"].update(holomorphic_eta_residual(ch), p)
        if flags["g_kahler_like"] < tols["flags"]:
            cond_seen["gklike_eta_trace"] = True
            cond["gklike_eta_trace"].update(eta_trace_residual(ch), p)

        if idx < 2:  # frame normalization is costly; two points suffice
            nf = normal_frame_at(metric, p, data=ch)
            frame_w["normal_frame_theta"].update(nf.theta_norm_at_base(), p)
            _, dT = nf.torsion_jets_at(p)
            n = metric.n
            raw_l = np.einsum("la,kija->kijl", ch.Pv, dT[..., :n])
            raw_lb = np.einsum("la,kija->kijl", np.conj(ch.Pv), dT[..., n:])
            dev = max(
                float(np.max(np.abs(raw_l - ch.covT))),
                float(np.max(np.abs(raw_lb - ch.covT_bar))),
            )
            frame_w["normal_frame_covT"].update(dev, p)

    checks = [
        worsts["gray_vanishing"].check("gray_vanishing", tols["exact"]),
        worsts["riemann_symmetries"].check("riemann_symmetries", tols["exact"]),
        worsts["structure_bianchi"].check("structure_bianchi", tols["exact"]),
        worsts["ddbar_omega_vs_torsion_curvature"].check(
            "ddbar_omega_vs_torsion_curvature", tols["exact"]
        ),
        worsts["del_omega_vs_torsion"].check("del_omega_vs_torsion", tols["exact"]),
        worsts["balanced_trace"].check("balanced_trace", tols["exact"]),
        worsts["theta2_two_route"].check("theta2_two_route", tols["two_route"]),
        worsts["theta2_type"].check("theta2_type", tols["exact"]),
        worsts["theta2_vs_torsion"].check("theta2_vs_torsion", tols["identities"]),
        worsts["curvature_type"].check("curvature_type", tols["exact"]),
        worsts["curvature_skew_hermitian"].check(
            "curvature_skew_hermitian", tols["exact"]
        ),
        worsts["dsigma2_trace"].check("dsigma2_trace", tols["fd"]),
        worsts["sigma1_psd"].check("sigma1_psd", tols["psd"]),
        worsts["sigma2_psd"].check("sigma2_psd", tols["psd"]),
        worsts["covT_vs_chern"].check("covT_vs_chern", tols["identities"]),
        worsts["mixed_20"].check("mixed_20", tols["identities"]),
        worsts["mixed_02"].check("mixed_02", tols["identities"]),
        worsts["riemann_vs_chern"].check("riemann_vs_chern", tols["identities"]),
        frame_w["normal_frame_theta"].check("normal_frame_theta", tols["frame"]),
        frame_w["normal_frame_covT"].check("normal_frame_covT", tols["identities"]),
    ]
    for name in cond:
        if cond_seen[name]:
            checks.append(cond[name].check(name, tols["identities"]))
    return checks, None


def run_compare(entry, points, tols, cache, seed):
    metric = entry.metric
    n = metric.n
    rng = np.random.default_rng(seed + 1)
    names = (
        "sym_bisectional",
        "cross_bisectional",
        "holo_sectional",
        "bisectional_symmetry",
        "bisectional_reality",
        "monotonicity_floor",
        "ricci_affine",
        "j_invariant_ricci",
        "scalar_half_trace",
        "plane_complexified",
        "plane_angles",
    )
    worsts = {name: _Worst() for name in names}
    max_T = 0.0
    best_gap = -np.inf
    gap_point = None

    for p in points:
        ch, rd = cache(metric, p)
        max_T = max(max_T, float(np.max(np.abs(ch.T))))
        for _ in range(50):
            X = rng.normal(size=n) + 1j * rng.normal(size=n)
            Y = rng.normal(size=n) + 1j * rng.normal(size=n)
            X /= np.linalg.norm(X)
            Y /= np.linalg.norm(Y)
            res = bisectional_difference_residuals(rd, X, Y)
            worsts["sym_bisectional"].update(res["sym_bisectional"], p)
            worsts["cross_bisectional"].update(res["cross_bisectional"], p)
            worsts["holo_sectional"].update(res["holo_sectional"], p)
            gap = monotonicity_gap(rd, X)
            worsts["monotonicity_floor"].update(-gap, p)
            if gap > best_gap:
                best_gap, gap_point = gap, p
            a = float(rng.uniform(-1.5, 1.5))
            bxy = bisectional(rd, X, Y, a)
            byx = bisectional(rd, Y, X, a)
            worsts["bisectional_symmetry"].update(abs(bxy["B_a"] - byx["B_a"]), p)
            worsts["bisectional_reality"].update(bxy["imag_max"], p)
        rr = ricci_identity_residuals(rd, rng.normal(size=n) + 1j * rng.normal(size=n))
        worsts["ricci_affine"].update(rr["affine"], p)
        worsts["j_invariant_ricci"].update(rr["j_invariant_ricci"], p)
        worsts["scalar_half_trace"].update(scalar_relation_residual(rd), p)
        for _ in range(5):
            try:
                l12 = plane_decomposition_check(rd, rng.normal(size=2 * n), rng.normal(size=2 * n))
            except DegeneratePlaneError:
                continue
            worsts["plane_complexified"].update(l12["complexified_vs_real"], p)
            worsts["plane_angles"].update(l12["angle_decomposition"], p)

    checks = [
        worsts["sym_bisectional"].check("sym_bisectional", tols["identities"]),
        worsts["cross_bisectional"].check("cross_bisectional", tols["identities"]),
        worsts["holo_sectional"].check("holo_sectional", tols["identities"]),
        worsts["bisectional_symmetry"].check("bisectional_symmetry", tols["frame"]),
        worsts["bisectional_reality"].check("bisectional_reality", tols["psd"] * 100),
        worsts["monotonicity_floor"].check("monotonicity_floor", tols["psd"]),
        worsts["ricci_affine"].check("ricci_affine", tols["psd"] * 100),
        worsts["j_invariant_ricci"].check("j_invariant_ricci", tols["identities"]),
        worsts["scalar_half_trace"].check("scalar_half_trace", tols["exact"]),
        worsts["plane_complexified"].check("plane_complexified", tols["identities"]),
        worsts["plane_angles"].check("plane_angles", tols["identities"]),
    ]
    if max_T > 1e-3:
        checks.append(
            Check("monotonicity_strict_gap", 1e-6 / max(best_gap, 1e-300), 1.0, gap_point)
        )
    # quick regression run of the dimension-3 torsion rigidity floor
    rig = n3_rigidity_search(trials=400, seed=seed, polish=8, steps=80)
    checks.append(
        Check("rigidity_floor", RIGIDITY_FLOOR / max(rig["min_residual"], 1e-300), 1.0)
    )
    return checks, None


_CONFORMAL_EXPONENTS = ("re(z1)", "ln(1 + abs2(z1)) / 2")


def run_conformal(entry, points, tols, cache):
    metric = entry.metric
    n = metric.n
    checks = []
    for src in _CONFORMAL_EXPONENTS:
        factor = ConformalFactor(parse_expr(src, n), name=src)
        w_t = _Worst()
        w_1 = _Worst()
        w_2 = _Worst()
        for p in points[: min(len(points), 5)]:
            ch, _rd = cache(metric, p)
            w_t.update(torsion_transform_residual(metric, factor, p, base_ch=ch), p)
            res = connection_transform_residuals(metric, factor, p)
            w_1.update(res["theta1"], p)
            w_2.update(res["theta2"], p)
        tag = src.replace(" ", "")
        checks.append(w_t.check(f"torsion_transform[{tag}]", tols["exact"]))
        checks.append(w_1.check(f"theta1_transform[{tag}]", tols["exact"]))
        checks.append(w_2.check(f"theta2_transform[{tag}]", tols["exact"]))
    return checks, None


def run_nilker(entry, points, tols, cache, seed):
    metric = entry.metric
    rng = np.random.default_rng(seed + 2)
    checks = []

    # torsion of the metric at the first point: the family construction
    # applies only when the quadratic symmetry holds
    ch, _rd = cache(metric, points[0])
    sym = torsion_symmetry_residual(ch.T)
    applicable = sym < 1e-8 * (1.0 + float(np.max(np.abs(ch.T))) ** 2)
    checks.append(
        Check("metric_torsion_symmetry", sym, np.inf, points[0], asserted=False)
    )
    # torsion below the noise floor would feed pure roundoff to the solver
    if applicable and float(np.max(np.abs(ch.T))) > 1e-8:
        fam = family_from_torsion(ch.T)
        w1 = common_kernel_inductive(fam, seed=seed)
        w2 = common_kernel_constructive(fam, seed=seed)
        resid = max(fam.kernel_residual(w1), fam.kernel_residual(w2))
        member = oracle_contains(fam, w1) and oracle_contains(fam, w2)
        checks.append(Check("metric_family_kernel", resid, tols["exact"], points[0]))
        checks.append(
            Check("metric_family_membership", 0.0 if member else 1.0, 0.5, points[0])
        )

    worst_res = _Worst()
    worst_dim = _Worst()
    for trial in range(20):
        if trial % 2 == 0:
            fam = random_general_family(rng)
            vecs = [common_kernel_inductive(fam, seed=seed + trial)]
        else:
            fam = family_from_torsion(random_torsion_tensor(rng))
            vecs = [
                common_kernel_inductive(fam, seed=seed + trial),
                common_kernel_constructive(fam, seed=seed + trial),
            ]
        basis = kernel_intersection_basis(fam)
        worst_dim.update(1.0 if basis.shape[1] < 1 else 0.0, None)
        for w in vecs:
            worst_res.update(fam.kernel_residual(w), None)
            if not oracle_contains(fam, w):
                worst_res.update(1.0, None)
    checks.append(worst_res.check("fixture_kernel_residual", tols["exact"]))
    checks.append(worst_dim.check("fixture_oracle_dimension", 0.5))
    return checks, None


def run_oracle(entry, points, tols, cache):
    """Rerun derivative-dependent quantities on finite-difference jets."""
    metric = entry.metric
    n = metric.n
    from .dsl import eval_value

    w_first = _Worst()
    w_second = _Worst()
    w_T = _Worst()
    w_Rh = _Worst()
    w_Rc = _Worst()
    for p in points[: min(len(points), 5)]:
        ch, rd = cache(metric, p)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                expr = metric.entries[i][j]
                fdj = fd_jet(lambda q, e=expr: eval_value(e, q, n), p, n)
                adj = ch.g[i, j]
                w_first.update(float(np.max(np.abs(fdj.d1 - adj.d1))), p)
                w_second.update(float(np.max(np.abs(fdj.d2 - adj.d2))), p)
                row.append(fdj)
            rows.append(row)
        g_fd = JetMatrix(rows)
        ch_fd = chern_at(metric, p, g=g_fd)
        rd_fd = riemann_at(metric, p, chern_data=ch_fd)
        w_T.update(float(np.max(np.abs(ch_fd.T - ch.T))), p)
        w_Rh.update(float(np.max(np.abs(ch_fd.Rh - ch.Rh))), p)
        w_Rc.update(float(np.max(np.abs(rd_fd.Rc - rd.Rc))), p)
    return [
        w_first.check("jet_first_vs_fd", 1e-6),
        w_second.check("jet_second_vs_fd", 1e-4),
        w_T.check("torsion_vs_fd", tols["oracle_first"]),
        w_Rh.check("chern_curvature_vs_fd", tols["oracle_second"]),
        w_Rc.check("riemann_curvature_vs_fd", tols["oracle_second"]),
    ], None


# ----------------------------------------------------------------------
def load_metric(source):
    """Catalog name or path to a JSON config file."""
    if source.endswith(".json"):
        with open(source) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MetricSyntaxError(f"invalid JSON: {exc.msg}", exc.pos) from None
        return catalog.from_config(cfg)
    return catalog.get(source)


def run(config):
    """Execute the configured suites; returns (report, exit_code)."""
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(config.get("tolerances", {}))
    entry = config["entry"]
    seed = int(config.get("seed", catalog.DEFAULT_SEED))
    count = int(config.get("points", 20))
    suites = config.get("suites", ["classify"])
    if "all" in suites:
        suites = list(SUITES)

    points = sample_points(entry.metric, count, seed)
    cache = _Cache()

    report = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": config.get("_timestamp", ""),
        "config": {
            "metric": entry.metric.name,
            "n": entry.metric.n,
            "points": count,
            "seed": seed,
            "suites": sorted(suites),
            "oracle": bool(config.get("oracle", False)),
            "tolerances": {k: float(v) for k, v in sorted(tols.items())},
        },
        "suites": {},
    }

    all_passed = True
    for suite in sorted(set(suites)):
        if suite == "classify":
            checks, extra = run_classify(entry, points, tols, cache)
        elif suite == "identities":
            checks, extra = run_identities(entry, points, tols, cache)
        elif suite == "compare":
            checks, extra = run_compare(entry, points, tols, cache, seed)
        elif suite == "conformal":
            checks, extra = run_conformal(entry, points, tols, cache)
        elif suite == "nilker":
            checks, extra = run_nilker(entry, points, tols, cache, seed)
        else:
            raise ValueError(f"unknown suite {suite!r}")
        passed = all(c.passed for c in checks)
        all_passed &= passed
        block = {"passed": passed, "checks": [c.as_dict() for c in checks]}
        if extra is not None:
            block["classification"] = extra
        report["suites"][suite] = block

    if config.get("oracle"):
        checks, _ = run_oracle(entry, points, tols, cache)
        passed = all(c.passed for c in checks)
        all_passed &= passed
        report["suites"]["oracle"] = {
            "passed": passed,
            "checks": [c.as_dict() for c in checks],
        }

    report["passed"] = bool(all_passed)
    return report, (0 if all_passed else 1)


# ----------------------------------------------------------------------
# rendering
def render_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_csv(report):
    lines = ["suite,check,residual,tolerance,passed"]
    for suite in sorted(report["suites"]):
        for c in report["suites"][suite]["checks"]:
            lines.append(
                f"{suite},{c['name']},{c['residual']:.12e},{c['tolerance']:.3e},{c['passed']}"
            )
    return "\n".join(lines) + "\n"


def render_human(report):
    cfg = report["config"]
    lines = [
        f"metric {cfg['metric']} (n={cfg['n']}), {cfg['points']} points, seed {cfg['seed']}",
        "",
    ]
    for suite in sorted(report["suites"]):
        block = report["suites"][suite]
        status = "PASS" if block["passed"] else "FAIL"
        lines.append(f"[{status}] suite {suite}")
        for c in block["checks"]:
            mark = "ok " if c["passed"] else "BAD"
            asserted = "" if c.get("asserted", True) else " (informational)"
            lines.append(
                f"  {mark} {c['name']:42s} residual {c['residual']:.3e}"
                f" tol {c['tolerance']:.1e}{asserted}"
            )
        lines.append("")
    lines.append("overall: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hermlab",
        description="Pointwise curvature checks for Hermitian metrics on charts.",
    )
    parser.add_argument(
        "--metric",
        required=True,
        help="catalog name (see README) or path to a metric config .json",
    )
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="tolerance override, e.g. --tol identities=1e-6 (repeatable)",
    )
    parser.add_argument(
        "--suite",
        action="append",
        default=[],
        choices=list(SUITES) + ["all"],
        help="suite to run (repeatable); default classify",
    )
    parser.add_argument("--format", choices=("json", "csv", "human"), default="human")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="recompute derivative-dependent quantities by finite differences",
    )
    parser.add_argument("--out", help="write the report to this file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.points < 1:
        parser.error(f"--points must be at least 1, got {args.points}")

    tolerances = {}
    for item in args.tol:
        if "=" not in item:
            parser.error(f"--tol takes KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        if key not in DEFAULT_TOLERANCES:
            parser.error(
                f"unknown tolerance {key!r}; known: {', '.join(sorted(DEFAULT_TOLERANCES))}"
            )
        try:
            tolerances[key] = float(value)
        except ValueError:
            parser.error(f"--tol {key} takes a number, got {value!r}")
        if np.isnan(tolerances[key]):
            parser.error(f"--tol {key} must not be NaN")

    try:
        entry = load_metric(args.metric)
    except MetricSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HermlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config = {
        "entry": entry,
        "points": args.points,
        "seed": args.seed,
        "suites": args.suite or ["classify"],
        "tolerances": tolerances,
        "oracle": args.oracle,
        "_timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    try:
        report, code = run(config)
    except DomainSamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MetricSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    renderer = {"json": render_json, "csv": render_csv, "human": render_human}[
        args.format
    ]
    text = renderer(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
