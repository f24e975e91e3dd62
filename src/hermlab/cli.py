"""Config ingestion, point sampling, check orchestration and reporting.

Exit codes: 0 all checks passed, 1 check failure, 2 usage, config or parse
error (or an unwritable ``--out``), 3 the sampler found too few admissible
points or the metric could not be evaluated at a sampled point.  Reports
are deterministic for a fixed (source, seed) pair except for the timestamp
field.
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
    classification,
    curvature_difference_suite,
    eta_trace_residual,
    flag_residuals_at,
    holomorphic_eta_residual,
    klike_sigma_residual,
)
from .compare import (
    RIGIDITY_FLOOR,
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
    conformal_metric,
    connection_transform_residuals,
    torsion_transform_residual,
)
from .dsl import parse as parse_expr
from .errors import (
    ChainExhaustedError,
    HermlabError,
    InvalidFamilyError,
    MetricSyntaxError,
)
from .fd import fd_jet
from .geometry import geometry_chunks, sample_points
from .levicivita import (
    canonical_theta2,
    dsigma2_check,
    riemann_at,
    sigma_matrices,
    theta2_matches_torsion_residual,
    theta2_two_route_residual,
    theta2_zero_one_part_residual,
    torsion_route,
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
# the largest --points accepted; a larger count is a usage error, refused
# before the sampler allocates its draws
MAX_POINTS = 10**6

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
            "tolerance": None if self.tol == np.inf else self.tol,  # no bound: null in JSON
            "passed": bool(self.passed),
            "asserted": bool(self.asserted),
        }
        if self.worst_point is not None:
            out["worst_point"] = _point_list(self.worst_point)
        return out


def _first_max(name, residuals, points, tol):
    """The check on the largest residual, at the first point that reaches it.

    The same reduction as ``classify_at``; a check with nothing to reduce
    (every residual -inf: every plane degenerate) reads 0 with no worst point.
    """
    i = int(np.argmax(residuals))
    if residuals[i] == -np.inf:
        return Check(name, 0.0, tol)
    return Check(name, max(residuals[i], 0.0), tol, points[i])


# ----------------------------------------------------------------------
# suites
class Suite:
    """One suite's checks over a report's points, fed one geometry chunk at a time.

    :meth:`add` takes each :class:`~hermlab.geometry.Chunk` in point order.
    A suite with ``head = k`` keeps the data of the report's first k points
    only; any other suite keeps only the residual arrays of :meth:`rows`.
    :meth:`checks` reduces what was kept to ``(checks, extra)``.
    """

    head = 0

    def __init__(self, entry, points, tols, seed):
        self.entry, self.metric, self.points = entry, entry.metric, points
        self.tols, self.seed = tols, seed
        self.parts = []

    def add(self, chunk):
        if not self.head:
            self.parts.append(self.rows(chunk))
        elif chunk.start == 0:
            self.first = chunk.head(self.head)

    def residuals(self):
        """Each row's residuals over all points, the chunks' arrays joined."""
        return {name: np.concatenate([part[name] for part in self.parts]) for name in self.parts[0]}


class Classify(Suite):
    def rows(self, chunk):
        return chunk.once(flag_residuals_at, chunk.ch, chunk.rd)

    def checks(self):
        tol = self.tols["flags"]
        report = classification(self.metric, self.points, tol, self.residuals())
        checks = []
        for name, flag in sorted(report.flags.items()):
            expected = self.entry.expected_flags.get(name)
            if expected is None:
                checks.append(Check(f"flag_{name}", flag.residual, tol, flag.worst_point, asserted=False))
            else:
                wrong = 0.0 if flag.value == expected else 1.0
                checks.append(Check(f"flag_{name}_expected_{expected}", wrong, 0.5, flag.worst_point))
        return checks, report.as_dict()


def _sigma_psd(ch):
    """How far sigma_1 and sigma_2 fall below 0, [2, P], from one stacked eigvalsh."""
    return np.maximum(0.0, -np.linalg.eigvalsh(np.stack(sigma_matrices(ch))).min(axis=-1))


def _route(chunk):
    """The torsion route's forms and Theta_2, shared by two rows."""
    return chunk.once(torsion_route, chunk.ch)


def _theta2(chunk):
    """theta_2 of the canonical frame, shared by two rows."""
    return chunk.once(canonical_theta2, chunk.rd)


def _difference(chunk):
    """The four curvature difference residuals, one row each."""
    return chunk.once(curvature_difference_suite, chunk.rd)


def _normal_frame_residuals(chunk):
    """The normal frame's checks at the report's first two points; -inf elsewhere.

    Frame normalization is costly, so two points suffice: the connection of
    the normal frame at its base point, and the covariant torsion
    derivatives from its raw derivatives against the Chern data's.
    """
    out = np.full((2, len(chunk.points)), -np.inf)
    k = min(2 - chunk.start, len(chunk.points))
    if k > 0:
        points, ch = np.array(chunk.points[:k]), chunk.ch.at(slice(0, k))
        nf = normal_frame_at(ch.metric, points, data=ch)
        _, dT = nf.torsion_jets_at(points)
        n = ch.n
        Pt = ch.Pv.swapaxes(-2, -1)[:, None, None]
        out[0, :k] = nf.theta_norm_at_base()
        out[1, :k] = np.maximum(
            ch.pointwise_max(dT[..., :n] @ Pt - ch.covT),
            ch.pointwise_max(dT[..., n:] @ Pt.conj() - ch.covT_bar),
        )
    return out


# identities check -> tolerance key and residual per point of one chunk, in
# report order; each row looks its functions up when it runs
_IDENTITY_CHECKS = (
    ("gray_vanishing", "exact", lambda c: c.rd.gray_residual()),
    ("riemann_symmetries", "exact", lambda c: np.maximum.reduce([*c.rd.symmetry_residuals().values()])),
    ("structure_bianchi", "exact", lambda c: bianchi_residual(c.ch)),
    ("ddbar_omega_vs_torsion_curvature", "exact", lambda c: curvature_identity_residual(c.ch)),
    ("del_omega_vs_torsion", "exact", lambda c: del_omega_residual(c.ch)),
    ("balanced_trace", "exact", lambda c: balanced_identity_residual(c.ch)),
    ("theta2_two_route", "two_route", lambda c: theta2_two_route_residual(c.ch, c.rd, _route(c)[1])),
    ("theta2_type", "exact", lambda c: theta2_zero_one_part_residual(c.rd, _theta2(c))),
    ("theta2_vs_torsion", "identities", lambda c: theta2_matches_torsion_residual(c.rd, _theta2(c))),
    ("curvature_type", "exact", lambda c: np.full(len(c.points), c.ch.Rh_type_residual)),
    ("curvature_skew_hermitian", "exact", lambda c: skew_hermitian_residual(c.ch)),
    ("dsigma2_trace", "fd", lambda c: dsigma2_check(c.ch, route=_route(c))),
    ("sigma1_psd", "psd", lambda c: c.once(_sigma_psd, c.ch)[0]),
    ("sigma2_psd", "psd", lambda c: c.once(_sigma_psd, c.ch)[1]),
    ("covT_vs_chern", "identities", lambda c: _difference(c)["covT_vs_chern"]),
    ("mixed_20", "identities", lambda c: _difference(c)["mixed_20"]),
    ("mixed_02", "identities", lambda c: _difference(c)["mixed_02"]),
    ("riemann_vs_chern", "identities", lambda c: _difference(c)["riemann_vs_chern"]),
    ("normal_frame_theta", "frame", lambda c: c.once(_normal_frame_residuals, c)[0]),
    ("normal_frame_covT", "identities", lambda c: c.once(_normal_frame_residuals, c)[1]),
    ("klike_ddbar_sigma", "identities", lambda c: klike_sigma_residual(c.ch)),
    ("klike_eta_holomorphic", "identities", lambda c: holomorphic_eta_residual(c.ch)),
    ("gklike_eta_trace", "identities", lambda c: eta_trace_residual(c.ch)),
)
# conditional check -> the flag that must hold at a point for it to apply
# there; a conditional check is reported only when some point qualifies
_IDENTITY_CONDITIONS = {
    "klike_ddbar_sigma": "kahler_like",
    "klike_eta_holomorphic": "kahler_like",
    "gklike_eta_trace": "g_kahler_like",
}


class Identities(Suite):
    def rows(self, chunk):
        flags = chunk.once(flag_residuals_at, chunk.ch, chunk.rd)
        rows = {}
        for name, _key, row in _IDENTITY_CHECKS:
            flag = _IDENTITY_CONDITIONS.get(name)
            live = True if flag is None else flags[flag] < self.tols["flags"]
            # a conditional row with no qualifying point is not computed
            rows[name] = np.where(live, row(chunk) if np.any(live) else 0.0, -np.inf)
        return rows

    def checks(self):
        res = self.residuals()
        return [
            _first_max(name, res[name], self.points, self.tols[key])
            for name, key, _row in _IDENTITY_CHECKS
            if name not in _IDENTITY_CONDITIONS or (res[name] != -np.inf).any()
        ], None


# random draws per point in the compare suite: (X, Y, a) triples and real planes
COMPARE_DIRECTIONS = 50
COMPARE_PLANES = 5

# compare check -> tolerance key and scale, in report order
_COMPARE_TOLERANCES = {
    "sym_bisectional": ("identities", 1),
    "cross_bisectional": ("identities", 1),
    "holo_sectional": ("identities", 1),
    "bisectional_symmetry": ("frame", 1),
    "bisectional_reality": ("psd", 100),
    "monotonicity_floor": ("psd", 1),
    "ricci_affine": ("psd", 100),
    "j_invariant_ricci": ("identities", 1),
    "scalar_half_trace": ("exact", 1),
    "plane_complexified": ("identities", 1),
    "plane_angles": ("identities", 1),
}


def compare_draws(rng, count, n):
    """The compare suite's random draws for ``count`` points, in ``rng`` order.

    Per point: ``COMPARE_DIRECTIONS`` times one ``normal(4n)`` (Re X, Im X,
    Re Y, Im Y) and one ``uniform(-1.5, 1.5)`` (a); then one ``normal`` for
    the Ricci direction (Re, Im) and ``COMPARE_PLANES`` real planes (u, v),
    which is the stream of drawing each vector part on its own.  Returns
    unit X, Y [D, count, n], a [D, count], the Ricci direction [count, n]
    and u, v [planes, count, 2n].
    """
    dirs = np.empty((count, COMPARE_DIRECTIONS, 4 * n))
    a = np.empty((count, COMPARE_DIRECTIONS))
    rest = np.empty((count, 2 * n + 4 * n * COMPARE_PLANES))
    for p in range(count):
        for d in range(COMPARE_DIRECTIONS):
            dirs[p, d] = rng.normal(size=4 * n)
            a[p, d] = rng.uniform(-1.5, 1.5)
        rest[p] = rng.normal(size=rest.shape[1])
    dirs = dirs.swapaxes(0, 1)
    X = dirs[..., :n] + 1j * dirs[..., n : 2 * n]
    Y = dirs[..., 2 * n : 3 * n] + 1j * dirs[..., 3 * n :]
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    Y /= np.linalg.norm(Y, axis=-1, keepdims=True)
    u, v = rest[:, 2 * n :].reshape(count, COMPARE_PLANES, 2, 2 * n).transpose(2, 1, 0, 3)
    return X, Y, a.T, rest[:, :n] + 1j * rest[:, n : 2 * n], u, v


def _compare_residuals(rd, X, Y, a, ricci_dir, u, v):
    """Each compare check's worst residual per point of the batch ``rd`` over its draws."""
    diff = bisectional_difference_residuals(rd, X, Y)
    gap = monotonicity_gap(rd, X)
    bxy = bisectional(rd, X, Y, a)
    byx = bisectional(rd, Y, X, a)
    ricci = ricci_identity_residuals(rd, ricci_dir)
    plane = plane_decomposition_check(rd, u, v)

    def planes(r):  # degenerate planes take no part
        return np.where(plane["degenerate"], -np.inf, r).max(axis=0)

    return {
        "sym_bisectional": diff["sym_bisectional"].max(axis=0),
        "cross_bisectional": diff["cross_bisectional"].max(axis=0),
        "holo_sectional": diff["holo_sectional"].max(axis=0),
        "bisectional_symmetry": abs(bxy["B_a"] - byx["B_a"]).max(axis=0),
        "bisectional_reality": bxy["imag_max"].max(axis=0),
        "monotonicity_floor": (-gap).max(axis=0),
        "ricci_affine": ricci["affine"],
        "j_invariant_ricci": ricci["j_invariant_ricci"],
        "scalar_half_trace": scalar_relation_residual(rd),
        "plane_complexified": planes(plane["complexified_vs_real"]),
        "plane_angles": planes(plane["angle_decomposition"]),
        "best_gap": gap.max(axis=0),
        "max_T": rd.chern.pointwise_max(rd.chern.T),
    }


class Compare(Suite):
    def __init__(self, *args):
        super().__init__(*args)
        self.rng = np.random.default_rng(self.seed + 1)

    def rows(self, chunk):
        draws = compare_draws(self.rng, len(chunk.points), self.metric.n)
        return _compare_residuals(chunk.rd, *draws)

    def checks(self):
        res, points, tols = self.residuals(), self.points, self.tols
        checks = [
            _first_max(name, res[name], points, tols[key] * scale)
            for name, (key, scale) in _COMPARE_TOLERANCES.items()
        ]
        if res["max_T"].max() > 1e-3:
            i = int(np.argmax(res["best_gap"]))
            gap = 1e-6 / max(res["best_gap"][i], 1e-300)
            checks.append(Check("monotonicity_strict_gap", gap, 1.0, points[i]))
        # quick regression run of the dimension-3 torsion rigidity floor
        rig = n3_rigidity_search(trials=400, seed=self.seed, polish=8, steps=80)
        floor = RIGIDITY_FLOOR / max(rig["min_residual"], 1e-300)
        return checks + [Check("rigidity_floor", floor, 1.0)], None


_CONFORMAL_EXPONENTS = ("re(z1)", "ln(1 + abs2(z1)) / 2")


class Conformal(Suite):
    head = 5

    def checks(self):
        metric, first, tol = self.metric, self.first, self.tols["exact"]
        batch = np.array(first.points)
        checks = []
        for src in _CONFORMAL_EXPONENTS:
            factor = ConformalFactor(parse_expr(src, metric.n), name=src)
            # the scaled metric once per exponent, over all the points at once
            scaled = conformal_metric(metric, factor)
            new_ch = chern_at(scaled, batch)
            u = factor.u_values(batch)
            new_rd = riemann_at(scaled, batch, chern_data=new_ch)
            res = connection_transform_residuals(first.rd, new_rd, u)
            tag = src.replace(" ", "")
            for name, residuals in (
                ("torsion_transform", torsion_transform_residual(first.ch, new_ch, u)),
                ("theta1_transform", res["theta1"]),
                ("theta2_transform", res["theta2"]),
            ):
                checks.append(_first_max(f"{name}[{tag}]", residuals, first.points, tol))
        return checks, None


class Nilker(Suite):
    head = 1

    def checks(self):
        seed, tols, p = self.seed, self.tols, self.points[0]
        rng = np.random.default_rng(seed + 2)
        # torsion of the metric at the first point: the family construction
        # applies only when the quadratic symmetry holds
        T = self.first.ch.T[0]
        sym = torsion_symmetry_residual(T)
        applicable = sym < 1e-8 * (1.0 + float(np.max(np.abs(T))) ** 2)
        checks = [Check("metric_torsion_symmetry", sym, np.inf, p, asserted=False)]
        # torsion below the noise floor would feed pure roundoff to the solver
        if applicable and float(np.max(np.abs(T))) > 1e-8:
            fam = family_from_torsion(T)
            w1 = common_kernel_inductive(fam, seed=seed)
            w2 = common_kernel_constructive(fam, seed=seed)
            resid = max(fam.kernel_residual(w1), fam.kernel_residual(w2))
            basis = kernel_intersection_basis(fam)
            member = oracle_contains(fam, w1, basis=basis) and oracle_contains(fam, w2, basis=basis)
            checks.append(Check("metric_family_kernel", resid, tols["exact"], p))
            checks.append(Check("metric_family_membership", 0.0 if member else 1.0, 0.5, p))

        worst_res = worst_dim = 0.0
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
            worst_dim = max(worst_dim, 1.0 if basis.shape[1] < 1 else 0.0)
            for w in vecs:
                worst_res = max(worst_res, fam.kernel_residual(w))
                if not oracle_contains(fam, w, basis=basis):
                    worst_res = max(worst_res, 1.0)
        checks.append(Check("fixture_kernel_residual", worst_res, tols["exact"]))
        checks.append(Check("fixture_oracle_dimension", worst_dim, 0.5))
        return checks, None


class Oracle(Suite):
    """Rerun derivative-dependent quantities on finite-difference jets."""

    head = 5

    def checks(self):
        metric, first, tols = self.metric, self.first, self.tols
        ch, rd = first.ch, first.rd
        # each point's stencil in one evaluation of the metric's values, then
        # the FD jets of every point through one batched chern_at
        jets = [fd_jet(metric.values_at, p, metric.n) for p in first.points]
        gv, dg, ddg = (np.stack(x) for x in zip(*jets))
        ch_fd = chern_at(metric, ch.point, g=(gv, dg, ddg))
        rd_fd = riemann_at(metric, ch.point, chern_data=ch_fd)
        pairs = (dg, ch.dg), (ddg, ch.ddg), (ch_fd.T, ch.T), (ch_fd.Rh, ch.Rh), (rd_fd.Rc, rd.Rc)
        rows = [ch.pointwise_max(fd - exact) for fd, exact in pairs]
        names = ("jet_first_vs_fd", "jet_second_vs_fd", "torsion_vs_fd",
                 "chern_curvature_vs_fd", "riemann_curvature_vs_fd")
        second = tols["oracle_second"]
        checks = zip(names, (1e-6, 1e-4, tols["oracle_first"], second, second), rows)
        return [_first_max(name, r, first.points, tol) for name, tol, r in checks], None


_SUITE_CLASSES = {
    "classify": Classify,
    "identities": Identities,
    "compare": Compare,
    "conformal": Conformal,
    "nilker": Nilker,
    "oracle": Oracle,
}


def run_suites(entry, points, tols, names, seed=catalog.DEFAULT_SEED):
    """``{name: (checks, extra)}`` of the named suites over ``points``.

    Every suite reads a chunk of geometry before the next chunk is computed
    (:func:`~hermlab.geometry.geometry_chunks`), so the suites hold the
    geometry of one chunk at a time.
    """
    suites = {name: _SUITE_CLASSES[name](entry, points, tols, seed) for name in names}
    for chunk in geometry_chunks(entry.metric, points):
        for suite in suites.values():
            suite.add(chunk)
    return {name: suite.checks() for name, suite in suites.items()}


# ----------------------------------------------------------------------
def load_metric(source):
    """Catalog name or path to a JSON config file."""
    if source.endswith(".json"):
        with open(source) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MetricSyntaxError(f"invalid JSON: {exc.msg}", exc.pos) from None
            except UnicodeDecodeError as exc:
                raise MetricSyntaxError("config is not UTF-8 text", exc.start) from None
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

    names = sorted(set(suites))
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    if config.get("oracle"):
        names.append("oracle")

    all_passed = True
    for name, (checks, extra) in run_suites(entry, points, tols, names, seed).items():
        passed = all(c.passed for c in checks)
        all_passed &= passed
        block = {"passed": passed, "checks": [c.as_dict() for c in checks]}
        if extra is not None:
            block["classification"] = extra
        report["suites"][name] = block

    report["passed"] = bool(all_passed)
    return report, (0 if all_passed else 1)


# ----------------------------------------------------------------------
# rendering
def render_json(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _tolerance(check):
    """A check's tolerance as a float: inf for an informational row with no bound."""
    return np.inf if check["tolerance"] is None else check["tolerance"]


def render_csv(report):
    lines = ["suite,check,residual,tolerance,passed"]
    for suite in sorted(report["suites"]):
        for c in report["suites"][suite]["checks"]:
            lines.append(
                f"{suite},{c['name']},{c['residual']:.12e},{_tolerance(c):.3e},{c['passed']}"
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
                f" tol {_tolerance(c):.1e}{asserted}"
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
    if args.points > MAX_POINTS:
        parser.error(f"--points must be at most {MAX_POINTS}, got {args.points}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")

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
        if not 0 < tolerances[key] < np.inf:
            parser.error(f"--tol {key} must be finite and positive, got {value!r}")

    try:
        entry = load_metric(args.metric)
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
    except MetricSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidFamilyError, ChainExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HermlabError as exc:  # too few admissible points, or a bad sampled point
        print(f"error: {exc}", file=sys.stderr)
        return 3

    renderer = {"json": render_json, "csv": render_csv, "human": render_human}[
        args.format
    ]
    text = renderer(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
