"""Config ingestion, point sampling, check orchestration and reporting.

Exit codes: 0 all checks passed, 1 check failure, 2 usage, config or parse
error (or an unwritable ``--out``), 3 the sampler found too few admissible
points or the metric could not be evaluated at a sampled point.  Reports
are deterministic for a fixed (source, seed) pair except for the timestamp
field.

Each suite declares its checks once, in a row table (``_IDENTITY_ROWS``,
``_COMPARE_ROWS``, ``_CONFORMAL_ROWS``, ``_ORACLE_ROWS``; every row is listed
in ``docs/report-schema.md``) that one :meth:`Suite.checks` reduces; only
classify's expected-flag rows, compare's strict gap and rigidity floor and
the nilker rows are written by hand.  Work that several rows read is
computed once per chunk (:meth:`~hermlab.geometry.Chunk.once`); that sharing
never joins the two sides of one check.
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
    chern_from_jets,
    curvature_identity_residual,
    del_omega_residual,
    normal_frame_at,
    skew_hermitian_residual,
)
from .classify import (
    DEFAULT_TOL,
    _point_list,
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

    ``table`` holds the rows in report order, each ``(name, key, scale, flag,
    residual)``: tolerance ``tols[key] * scale`` (``scale`` if ``key`` is None);
    ``residual`` maps a chunk to one residual per point and looks its functions
    up when it runs (the benchmark's tracer patches module attributes); a row
    with a ``flag`` applies where that flag holds and is reported only if some
    point qualifies.  :meth:`add` takes each chunk in point order; a suite with
    ``head = k`` computes its rows on a copy of the first chunk's first k
    points only.  :meth:`checks` reduces each row to its largest residual at
    the first point that reaches it.
    """

    head = 0
    table = ()

    def __init__(self, entry, points, tols, seed):
        self.entry, self.metric, self.points = entry, entry.metric, points
        self.tols, self.seed = tols, seed
        self.parts = []

    def add(self, chunk):
        if not self.head:
            self.parts.append(self.rows(chunk))
        elif chunk.start == 0:
            self.parts.append(self.rows(chunk.head(self.head)))

    def rows(self, chunk):
        """Each row's residual at each point of ``chunk``; -inf where its flag fails."""
        out = {}
        for name, _key, _scale, flag, residual in self.table:
            live = flag is None or chunk.once(flag_residuals_at, chunk.ch, chunk.rd)[flag] < self.tols["flags"]
            # a flagged row with no qualifying point is not computed
            out[name] = np.where(live, residual(chunk) if np.any(live) else 0.0, -np.inf)
        return out

    def residuals(self):
        """Each row's residuals over the suite's points, the chunks' arrays joined."""
        return {name: np.concatenate([part[name] for part in self.parts]) for name in self.parts[0]}

    def checks(self):
        res = self.residuals()
        return [
            _first_max(name, res[name], self.points, scale if key is None else self.tols[key] * scale)
            for name, key, scale, flag, _residual in self.table
            if flag is None or (res[name] != -np.inf).any()
        ], None


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


def _normal_frame_residuals(chunk):
    """The normal frame's checks at the report's first two points; -inf elsewhere.

    Frame normalization is costly, so two points suffice: the connection of
    the normal frame at its base point, and the covariant torsion
    derivatives from its raw derivatives against the Chern data's.
    """
    out = np.full((2, len(chunk.points)), -np.inf)
    k = min(2 - chunk.start, len(chunk.points))
    if k > 0:
        ch = chunk.ch.at(slice(0, k))
        nf = normal_frame_at(ch)
        _, dT = nf.torsion_jets_at(ch.point)
        n = ch.n
        Pt = ch.Pv.swapaxes(-2, -1)[:, None, None]
        out[0, :k] = nf.theta_norm_at_base()
        out[1, :k] = np.maximum(
            ch.pointwise_max(dT[..., :n] @ Pt - ch.covT),
            ch.pointwise_max(dT[..., n:] @ Pt.conj() - ch.covT_bar),
        )
    return out


_IDENTITY_ROWS = (
    ("gray_vanishing", "exact", 1, None, lambda c: c.rd.gray_residual()),
    ("riemann_symmetries", "exact", 1, None, lambda c: np.maximum.reduce([*c.rd.symmetry_residuals().values()])),
    ("structure_bianchi", "exact", 1, None, lambda c: bianchi_residual(c.ch)),
    ("ddbar_omega_vs_torsion_curvature", "exact", 1, None, lambda c: curvature_identity_residual(c.ch)),
    ("del_omega_vs_torsion", "exact", 1, None, lambda c: del_omega_residual(c.ch)),
    ("balanced_trace", "exact", 1, None, lambda c: balanced_identity_residual(c.ch)),
    ("theta2_two_route", "two_route", 1, None,
     lambda c: theta2_two_route_residual(c.ch, c.rd, c.once(torsion_route, c.ch)[1])),
    ("theta2_type", "exact", 1, None,
     lambda c: theta2_zero_one_part_residual(c.rd, c.once(canonical_theta2, c.rd))),
    ("theta2_vs_torsion", "identities", 1, None,
     lambda c: theta2_matches_torsion_residual(c.rd, c.once(canonical_theta2, c.rd))),
    ("curvature_type", "exact", 1, None, lambda c: np.full(len(c.points), c.ch.Rh_type_residual)),
    ("curvature_skew_hermitian", "exact", 1, None, lambda c: skew_hermitian_residual(c.ch)),
    ("dsigma2_trace", "fd", 1, None, lambda c: dsigma2_check(c.ch, route=c.once(torsion_route, c.ch))),
    ("sigma1_psd", "psd", 1, None, lambda c: c.once(_sigma_psd, c.ch)[0]),
    ("sigma2_psd", "psd", 1, None, lambda c: c.once(_sigma_psd, c.ch)[1]),
    ("covT_vs_chern", "identities", 1, None, lambda c: c.once(curvature_difference_suite, c.rd)["covT_vs_chern"]),
    ("mixed_20", "identities", 1, None, lambda c: c.once(curvature_difference_suite, c.rd)["mixed_20"]),
    ("mixed_02", "identities", 1, None, lambda c: c.once(curvature_difference_suite, c.rd)["mixed_02"]),
    ("riemann_vs_chern", "identities", 1, None,
     lambda c: c.once(curvature_difference_suite, c.rd)["riemann_vs_chern"]),
    ("normal_frame_theta", "frame", 1, None, lambda c: c.once(_normal_frame_residuals, c)[0]),
    ("normal_frame_covT", "identities", 1, None, lambda c: c.once(_normal_frame_residuals, c)[1]),
    ("klike_ddbar_sigma", "identities", 1, "kahler_like", lambda c: klike_sigma_residual(c.ch)),
    ("klike_eta_holomorphic", "identities", 1, "kahler_like", lambda c: holomorphic_eta_residual(c.ch)),
    ("gklike_eta_trace", "identities", 1, "g_kahler_like", lambda c: eta_trace_residual(c.ch)),
)


class Identities(Suite):
    table = _IDENTITY_ROWS


# random draws per point in the compare suite: (X, Y, a) triples and real planes
COMPARE_DIRECTIONS = 50
COMPARE_PLANES = 5


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


def _compare_terms(rd, X, Y, a, ricci_dir, u, v):
    """The compare functions on all draws of the batch ``rd``, which the compare rows read."""
    return {
        "rd": rd,
        "diff": bisectional_difference_residuals(rd, X, Y),
        "gap": monotonicity_gap(rd, X),
        "bxy": bisectional(rd, X, Y, a),
        "byx": bisectional(rd, Y, X, a),
        "ricci": ricci_identity_residuals(rd, ricci_dir),
        "plane": plane_decomposition_check(rd, u, v),
    }


def _planes(t, name):
    """A plane row's worst residual per point; degenerate planes take no part."""
    return np.where(t["plane"]["degenerate"], -np.inf, t["plane"][name]).max(axis=0)


# each row reads the terms of one chunk and reduces them over its draws
_COMPARE_ROWS = (
    ("sym_bisectional", "identities", 1, None, lambda t: t["diff"]["sym_bisectional"].max(axis=0)),
    ("cross_bisectional", "identities", 1, None, lambda t: t["diff"]["cross_bisectional"].max(axis=0)),
    ("holo_sectional", "identities", 1, None, lambda t: t["diff"]["holo_sectional"].max(axis=0)),
    ("bisectional_symmetry", "frame", 1, None, lambda t: abs(t["bxy"]["B_a"] - t["byx"]["B_a"]).max(axis=0)),
    ("bisectional_reality", "psd", 100, None, lambda t: t["bxy"]["imag_max"].max(axis=0)),
    ("monotonicity_floor", "psd", 1, None, lambda t: (-t["gap"]).max(axis=0)),
    ("ricci_affine", "psd", 100, None, lambda t: t["ricci"]["affine"]),
    ("j_invariant_ricci", "identities", 1, None, lambda t: t["ricci"]["j_invariant_ricci"]),
    ("scalar_half_trace", "exact", 1, None, lambda t: scalar_relation_residual(t["rd"])),
    ("plane_complexified", "identities", 1, None, lambda t: _planes(t, "complexified_vs_real")),
    ("plane_angles", "identities", 1, None, lambda t: _planes(t, "angle_decomposition")),
)


class Compare(Suite):
    table = _COMPARE_ROWS

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = np.random.default_rng(self.seed + 1)

    def rows(self, chunk):
        terms = _compare_terms(chunk.rd, *compare_draws(self.rng, len(chunk.points), self.metric.n))
        best_gap, max_T = terms["gap"].max(axis=0), chunk.ch.pointwise_max(chunk.ch.T)
        return super().rows(terms) | {"best_gap": best_gap, "max_T": max_T}

    def checks(self):
        checks, _ = super().checks()
        res, points = self.residuals(), self.points
        if res["max_T"].max() > 1e-3:
            i = int(np.argmax(res["best_gap"]))
            gap = 1e-6 / max(res["best_gap"][i], 1e-300)
            checks.append(Check("monotonicity_strict_gap", gap, 1.0, points[i]))
        # quick regression run of the dimension-3 torsion rigidity floor
        rig = n3_rigidity_search(trials=400, seed=self.seed, polish=8, steps=80)
        floor = RIGIDITY_FLOOR / max(rig["min_residual"], 1e-300)
        return checks + [Check("rigidity_floor", floor, 1.0)], None


_CONFORMAL_EXPONENTS = ("re(z1)", "ln(1 + abs2(z1)) / 2")


def _transforms(chunk):
    """Each exponent's torsion, theta_1 and theta_2 transformation residuals, by (exponent, law)."""
    batch, out = np.array(chunk.points), {}
    for src in _CONFORMAL_EXPONENTS:
        factor = ConformalFactor(parse_expr(src, chunk.ch.n), name=src)
        # the scaled metric once per exponent, over all the points at once
        scaled = conformal_metric(chunk.ch.metric, factor)
        new_ch = chern_at(scaled, batch)
        u = factor.u_values(batch)
        new_rd = riemann_at(new_ch)
        res = connection_transform_residuals(chunk.rd, new_rd, u)
        out[src, "theta1"], out[src, "theta2"] = res["theta1"], res["theta2"]
        out[src, "torsion"] = torsion_transform_residual(chunk.ch, new_ch, u)
    return out


_CONFORMAL_ROWS = tuple(
    (f"{law}_transform[{src.replace(' ', '')}]", "exact", 1, None,
     lambda c, k=(src, law): c.once(_transforms, c)[k])
    for src in _CONFORMAL_EXPONENTS
    for law in ("torsion", "theta1", "theta2")
)


class Conformal(Suite):
    head = 5
    table = _CONFORMAL_ROWS


class Nilker(Suite):
    def add(self, chunk):
        if chunk.start == 0:
            self.T = chunk.ch.T[0].copy()  # the first point's torsion, all this suite reads

    def checks(self):
        seed, tols, p, T = self.seed, self.tols, self.points[0], self.T
        rng = np.random.default_rng(seed + 2)
        # torsion of the metric at the first point: the family construction
        # applies only when the quadratic symmetry holds
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


# the oracle's finite-difference jets, which override the evaluated ones,
# carry a Hermitian defect of 2-5e-10 in their second derivatives
OVERRIDE_HERMITIAN_TOL = 1e-6


def _fd(chunk):
    """Riemann and Chern data from FD jets: one value evaluation per stencil, one batched Chern core.

    Reads only the chunk's metric values and points, and checks the jets
    as :func:`~hermlab.geometry.geometry_chunks` checks the evaluated ones.
    """
    metric, points = chunk.ch.metric, chunk.ch.point
    jets = [np.stack(x) for x in zip(*(fd_jet(metric.values_at, p, metric.n) for p in chunk.points))]
    metric.check_jets(points, *jets, OVERRIDE_HERMITIAN_TOL)
    return riemann_at(chern_from_jets(metric, points, *jets))


_ORACLE_ROWS = (
    ("jet_first_vs_fd", None, 1e-6, None, lambda c: c.ch.pointwise_max(c.once(_fd, c).chern.dg - c.ch.dg)),
    ("jet_second_vs_fd", None, 1e-4, None, lambda c: c.ch.pointwise_max(c.once(_fd, c).chern.ddg - c.ch.ddg)),
    ("torsion_vs_fd", "oracle_first", 1, None, lambda c: c.ch.pointwise_max(c.once(_fd, c).chern.T - c.ch.T)),
    ("chern_curvature_vs_fd", "oracle_second", 1, None,
     lambda c: c.ch.pointwise_max(c.once(_fd, c).chern.Rh - c.ch.Rh)),
    ("riemann_curvature_vs_fd", "oracle_second", 1, None,
     lambda c: c.ch.pointwise_max(c.once(_fd, c).Rc - c.rd.Rc)),
)


class Oracle(Suite):
    """Rerun derivative-dependent quantities on finite-difference jets."""

    head = 5
    table = _ORACLE_ROWS


_SUITE_CLASSES = {
    "classify": Classify,
    "identities": Identities,
    "compare": Compare,
    "conformal": Conformal,
    "nilker": Nilker,
    "oracle": Oracle,
}


def run_suites(entry, points, tols, names, seed):
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


def run(entry, count, seed, suites, tols, oracle, timestamp):
    """Execute ``suites`` ("all": every suite) on ``count`` sampled points; returns (report, exit_code).

    ``tols`` is the whole tolerance table.
    """
    suites = sorted(set(SUITES if "all" in suites else suites))
    points = sample_points(entry.metric, count, seed)

    report = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": timestamp,
        "config": {
            "metric": entry.metric.name,
            "n": entry.metric.n,
            "points": count,
            "seed": seed,
            "suites": suites,
            "oracle": oracle,
            "tolerances": {k: float(v) for k, v in sorted(tols.items())},
        },
        "suites": {},
    }

    names = suites + ["oracle"] if oracle else suites
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

    tols = dict(DEFAULT_TOLERANCES)
    for item in args.tol:
        if "=" not in item:
            parser.error(f"--tol takes KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        if key not in DEFAULT_TOLERANCES:
            parser.error(
                f"unknown tolerance {key!r}; known: {', '.join(sorted(DEFAULT_TOLERANCES))}"
            )
        try:
            tols[key] = float(value)
        except ValueError:
            parser.error(f"--tol {key} takes a number, got {value!r}")
        if not 0 < tols[key] < np.inf:
            parser.error(f"--tol {key} must be finite and positive, got {value!r}")

    try:
        entry = load_metric(args.metric)
    except (HermlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    suites = args.suite or ["classify"]
    try:
        report, code = run(entry, args.points, args.seed, suites, tols, args.oracle, timestamp)
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
