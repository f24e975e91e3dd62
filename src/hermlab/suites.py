"""The report's suites: their checks over a report's points, fed one geometry chunk at a time.

Each suite declares its checks once, in a row table (``_IDENTITY_ROWS``,
``_COMPARE_ROWS``, ``_CONFORMAL_ROWS``, ``_ORACLE_ROWS``; every row is listed
in ``docs/report-schema.md``) that :meth:`Suite.add` reduces as the chunks
stream; only classify's expected-flag rows, compare's strict gap and
rigidity floor and the nilker rows are written by hand.  A row's ``where``
names the points it covers, and what several rows read is a name of the
derivation table :data:`hermlab.chern.TABLE`, computed on first read by the
chunk's data and kept (its producers live beside their mathematics, such as
:func:`hermlab.fd.fd_data` for the oracle's rows, and are looked up as
module attributes when they run); that sharing never joins the two sides of
one check.
"""

from __future__ import annotations

import numpy as np

from .chern import (
    balanced_identity_residual,
    bianchi_residual,
    curvature_identity_residual,
    del_omega_residual,
    skew_hermitian_residual,
)
from .classify import (
    DEFAULT_TOL,
    FLAG_NAMES,
    _point_list,
    classification,
    eta_trace_residual,
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
from .conformal import CONFORMAL_EXPONENTS
from .geometry import geometry_chunks, running_max
from .levicivita import (
    dsigma2_check,
    gray_residual,
    symmetry_residuals,
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


# ----------------------------------------------------------------------
# suites
class Suite:
    """One suite's checks over a report's points, fed one geometry chunk at a time.

    ``table`` holds the rows in report order, each ``(name, key, scale, where,
    residual)``: tolerance ``tols[key] * scale`` (``scale`` if ``key`` is None);
    ``residual`` maps a chunk to one residual per point and looks its functions
    up when it runs (the benchmark's tracer patches module attributes).
    ``where`` is the points column of ``docs/report-schema.md``: None (every
    point), a flag name (where it holds; reported only if some point
    qualifies) or an int k (the report's first k points, read on one shared
    :meth:`~hermlab.geometry.Chunk.at` view per chunk and k).  :meth:`add`
    takes each chunk in point order and reduces each row's residuals at the
    points it covers into its :func:`~hermlab.geometry.running_max`;
    :meth:`checks` reads each row's largest residual and the first point
    reaching it, or 0 and no point where every residual was -inf.
    """

    table = ()

    def __init__(self, entry, points, tols, seed):
        self.entry, self.metric, self.points = entry, entry.metric, points
        self.tols, self.seed = tols, seed
        self.best = dict.fromkeys((row[0] for row in self.table), (-np.inf, None))

    def add(self, chunk, data=None):
        """Reduce each row over ``chunk``; the every-point rows read ``data`` if it is given."""
        for name, _key, _scale, where, residual in self.table:
            if where is None:
                self.best[name] = running_max(self.best[name], residual(data or chunk), chunk.start)
            elif isinstance(where, str):
                live = np.flatnonzero(chunk.ch.flags[where] < self.tols["flags"])
                if len(live):  # a flagged row with no qualifying point is not computed
                    self.best[name] = running_max(self.best[name], residual(chunk)[live], chunk.start, live)
            elif where > chunk.start:  # one view of the chunk per k, which all its first-k rows read
                self.best[name] = running_max(self.best[name], residual(chunk.first(where - chunk.start)), chunk.start)

    def checks(self):
        checks = []
        for name, key, scale, where, _residual in self.table:
            (value, worst), tol = self.best[name], scale if key is None else self.tols[key] * scale
            if worst is not None:
                checks.append(Check(name, max(value, 0.0), tol, self.points[worst]))
            elif not isinstance(where, str):  # a flagged row with no qualifying point is absent
                checks.append(Check(name, 0.0, tol))
        return checks, None


class Classify(Suite):
    table = tuple((name, "flags", 1, None, lambda c, k=name: c.ch.flags[k]) for name in FLAG_NAMES)

    def checks(self):
        tol = self.tols["flags"]
        report = classification(self.metric, self.points, tol, self.best)
        checks = []
        for name, flag in sorted(report.flags.items()):
            expected = self.entry.expected_flags.get(name)
            if expected is None:
                checks.append(Check(f"flag_{name}", flag.residual, tol, flag.worst_point, asserted=False))
            else:
                wrong = 0.0 if flag.value == expected else 1.0
                checks.append(Check(f"flag_{name}_expected_{expected}", wrong, 0.5, flag.worst_point))
        return checks, report.as_dict()


_IDENTITY_ROWS = (
    ("gray_vanishing", "exact", 1, None, lambda c: gray_residual(c.ch)),
    ("riemann_symmetries", "exact", 1, None, lambda c: np.maximum.reduce([*symmetry_residuals(c.ch).values()])),
    ("structure_bianchi", "exact", 1, None, lambda c: bianchi_residual(c.ch)),
    ("ddbar_omega_vs_torsion_curvature", "exact", 1, None, lambda c: curvature_identity_residual(c.ch)),
    ("del_omega_vs_torsion", "exact", 1, None, lambda c: del_omega_residual(c.ch)),
    ("balanced_trace", "exact", 1, None, lambda c: balanced_identity_residual(c.ch)),
    ("theta2_two_route", "two_route", 1, None, lambda c: theta2_two_route_residual(c.ch, c.ch.torsion_route[1])),
    ("theta2_type", "exact", 1, None, lambda c: theta2_zero_one_part_residual(c.ch, c.ch.canonical_theta2)),
    ("theta2_vs_torsion", "identities", 1, None,
     lambda c: theta2_matches_torsion_residual(c.ch, c.ch.canonical_theta2)),
    ("curvature_type", "exact", 1, None, lambda c: np.zeros(len(c.ch.point))),
    ("curvature_skew_hermitian", "exact", 1, None, lambda c: skew_hermitian_residual(c.ch)),
    ("dsigma2_trace", "fd", 1, None, lambda c: dsigma2_check(c.ch, c.ch.torsion_route)),
    ("sigma1_psd", "psd", 1, None, lambda c: c.ch.sigma1_psd),
    ("sigma2_psd", "psd", 1, None, lambda c: c.ch.sigma2_psd),
    *((name, "identities", 1, None, lambda c, k=name: c.ch.curvature_difference[k])
      for name in ("covT_vs_chern", "mixed_20", "mixed_02", "riemann_vs_chern")),
    ("normal_frame_theta", "frame", 1, 2, lambda c: c.ch.normal_frame_theta),
    ("normal_frame_covT", "identities", 1, 2, lambda c: c.ch.normal_frame_covT),
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
    which is the stream of drawing each vector part on its own.  Each
    ``normal`` fills its row in place (``standard_normal(out=...)``) and each
    ``uniform`` is ``-1.5 + 3.0 * random()``, which draw the same bits.
    Returns unit X, Y [D, count, n], a [D, count], the Ricci direction
    [count, n] and u, v [planes, count, 2n].
    """
    dirs = np.empty((count, COMPARE_DIRECTIONS, 4 * n))
    a = np.empty((count, COMPARE_DIRECTIONS))
    rest = np.empty((count, 2 * n + 4 * n * COMPARE_PLANES))
    for p in range(count):
        for d in range(COMPARE_DIRECTIONS):
            rng.standard_normal(out=dirs[p, d])
            a[p, d] = -1.5 + 3.0 * rng.random()
        rng.standard_normal(out=rest[p])
    dirs = dirs.swapaxes(0, 1)
    X = dirs[..., :n] + 1j * dirs[..., n : 2 * n]
    Y = dirs[..., 2 * n : 3 * n] + 1j * dirs[..., 3 * n :]
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    Y /= np.linalg.norm(Y, axis=-1, keepdims=True)
    u, v = rest[:, 2 * n :].reshape(count, COMPARE_PLANES, 2, 2 * n).transpose(2, 1, 0, 3)
    return X, Y, a.T, rest[:, :n] + 1j * rest[:, n : 2 * n], u, v


def _compare_terms(ch, X, Y, a, ricci_dir, u, v):
    """The compare functions on all draws of the batch ``ch``, which the compare rows read."""
    return {
        "ch": ch,
        "diff": bisectional_difference_residuals(ch, X, Y),
        "gap": monotonicity_gap(ch, X),
        "bxy": bisectional(ch, X, Y, a),
        "byx": bisectional(ch, Y, X, a),
        "ricci": ricci_identity_residuals(ch, ricci_dir),
        "plane": plane_decomposition_check(ch, u, v),
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
    ("scalar_half_trace", "exact", 1, None, lambda t: scalar_relation_residual(t["ch"])),
    ("plane_complexified", "identities", 1, None, lambda t: _planes(t, "complexified_vs_real")),
    ("plane_angles", "identities", 1, None, lambda t: _planes(t, "angle_decomposition")),
)


class Compare(Suite):
    table = _COMPARE_ROWS

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = np.random.default_rng(self.seed + 1)
        self.best_gap = self.max_T = (-np.inf, None)

    def add(self, chunk):
        terms = _compare_terms(chunk.ch, *compare_draws(self.rng, len(chunk.ch.point), self.metric.n))
        super().add(chunk, terms)
        self.best_gap = running_max(self.best_gap, terms["gap"].max(axis=0), chunk.start)
        self.max_T = running_max(self.max_T, chunk.ch.pointwise_max(chunk.ch.T), chunk.start)

    def checks(self):
        checks, _ = super().checks()
        if self.max_T[0] > 1e-3:
            gap = 1e-6 / max(self.best_gap[0], 1e-300)
            checks.append(Check("monotonicity_strict_gap", gap, 1.0, self.points[self.best_gap[1]]))
        # quick regression run of the dimension-3 torsion rigidity floor
        rig = n3_rigidity_search(trials=400, seed=self.seed, polish=8, steps=80)
        floor = RIGIDITY_FLOOR / max(rig["min_residual"], 1e-300)
        return checks + [Check("rigidity_floor", floor, 1.0)], None


_CONFORMAL_ROWS = tuple(
    (f"{law}_transform[{src.replace(' ', '')}]", "exact", 1, 5, lambda c, k=(src, law): c.ch.transforms[k])
    for src in CONFORMAL_EXPONENTS
    for law in ("torsion", "theta1", "theta2")
)


class Conformal(Suite):
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


_ORACLE_ROWS = (
    ("jet_first_vs_fd", None, 1e-6, 5, lambda c: c.ch.pointwise_max(c.ch.fd.dg - c.ch.dg)),
    ("jet_second_vs_fd", None, 1e-4, 5, lambda c: c.ch.pointwise_max(c.ch.fd.ddg - c.ch.ddg)),
    ("torsion_vs_fd", "oracle_first", 1, 5, lambda c: c.ch.pointwise_max(c.ch.fd.T - c.ch.T)),
    ("chern_curvature_vs_fd", "oracle_second", 1, 5, lambda c: c.ch.pointwise_max(c.ch.fd.Rh - c.ch.Rh)),
    ("riemann_curvature_vs_fd", "oracle_second", 1, 5, lambda c: c.ch.pointwise_max(c.ch.fd.Rc - c.ch.Rc)),
)


class Oracle(Suite):
    """Rerun derivative-dependent quantities on finite-difference jets."""

    table = _ORACLE_ROWS


_SUITE_CLASSES = {
    "classify": Classify,
    "identities": Identities,
    "compare": Compare,
    "conformal": Conformal,
    "nilker": Nilker,
    "oracle": Oracle,
}
# the --suite choices, in this order: every suite but the oracle, which --oracle adds
SUITES = tuple(name for name in _SUITE_CLASSES if name != "oracle")


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
