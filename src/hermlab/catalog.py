"""Built-in metric fixtures with expected classification outcomes.

Every entry records where its expected behaviour comes from (a closed-form
derivation on the chart), and doubles as documentation of the metric config
format via :func:`to_config` / :func:`from_config`.

The classical torus-bundle threefold that is curvature-symmetric but carries
no Kahler metric (a product of a hyperelliptic curve with a real 4-torus) is
deliberately absent: its complex structure comes from a minimal-surface
immersion and has no closed-form chart metric to transcribe, so there is
nothing a chart-based engine could evaluate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .dsl import MetricField
from .errors import InvalidConfigError, UnknownMetricError

DEFAULT_SEED = 0x5EED
# the largest chart dimension a config may declare: a report's Riemann
# temporaries grow like (2n)^4 over at least 16 points per chunk (a 16-point
# --suite all report peaked at 137 MB at n = 8, 283 MB at n = 10 on x86-64),
# so a larger n is refused before anything is allocated
MAX_N = 12

# the classification flags, in report order; a config's expected_flags may
# name these only (the classify suite computes them)
FLAG_NAMES = (
    "kahler",
    "balanced",
    "kahler_like",
    "g_kahler_like",
    "pluriclosed",
    "hermitian_flat",
)
# the fields of a metric config
CONFIG_FIELDS = ("name", "n", "entries", "constraints", "box", "expected_flags")

# degree <= 2 monomials in (z, zbar) used by the random generator
_MONOMIALS_BY_DEGREE = {
    0: ["1"],
    1: ["z{a}", "conj(z{a})"],
    2: ["z{a}*z{b}", "z{a}*conj(z{b})", "conj(z{a})*conj(z{b})"],
}


@dataclass
class CatalogEntry:
    metric: MetricField
    expected_flags: dict = field(default_factory=dict)
    notable: dict = field(default_factory=dict)
    provenance: str = ""

    @property
    def name(self):
        return self.metric.name


def _entry_euclidean():
    m = MetricField.from_text("euclidean", 2, ["1", "0", "0", "1"])
    return CatalogEntry(
        m,
        expected_flags={
            "kahler": True,
            "balanced": True,
            "kahler_like": True,
            "g_kahler_like": True,
            "pluriclosed": True,
            "hermitian_flat": True,
        },
        provenance="flat metric on a C^2 chart; every curvature quantity vanishes",
    )


def _entry_fubini_study():
    m = MetricField.from_text("fubini_study_chart", 1, ["(1 + abs2(z1))^-2"])
    return CatalogEntry(
        m,
        expected_flags={
            "kahler": True,
            "balanced": True,
            "kahler_like": True,
            "g_kahler_like": True,
            "pluriclosed": True,
        },
        provenance="round metric on a CP^1 chart (potential log(1+|z|^2)); "
        "Kahler with constant positive curvature",
    )


def _entry_fubini_study_n2():
    denom = "(1 + abs2(z1) + abs2(z2))"
    entries = [
        f"(1 + abs2(z2)) / {denom}^2",
        f"-(conj(z1)*z2) / {denom}^2",
        f"-(z1*conj(z2)) / {denom}^2",
        f"(1 + abs2(z1)) / {denom}^2",
    ]
    m = MetricField.from_text("fubini_study_chart_n2", 2, entries)
    return CatalogEntry(
        m,
        expected_flags={
            "kahler": True,
            "balanced": True,
            "kahler_like": True,
            "g_kahler_like": True,
            "pluriclosed": True,
        },
        provenance="CP^2 chart metric g_{ij} = dd-bar log(1+|z|^2); Kahler",
    )


def _entry_iwasawa():
    m = MetricField.from_text(
        "iwasawa",
        3,
        ["1", "0", "0", "0", "1 + abs2(z1)", "-z1", "0", "-conj(z1)", "1"],
    )
    return CatalogEntry(
        m,
        expected_flags={
            "kahler": False,
            "balanced": True,
            "kahler_like": True,
            "hermitian_flat": True,
            "g_kahler_like": False,
            "pluriclosed": False,
        },
        notable={
            # invariant coframe (dz1, dz2, dz3 - z1 dz2) is unitary and
            # parallel, so the Hermitian curvature vanishes identically;
            # d(dz3 - z1 dz2) = -dz1 ^ dz2 puts all torsion in slot 3.
            "torsion_norm_sq": 0.5,
            "T312_at_z1_zero": -0.5,
        },
        provenance="left-invariant metric of the complex Heisenberg nilmanifold: "
        "|dz1|^2 + |dz2|^2 + |dz3 - z1 dz2|^2",
    )


def _entry_gkl_surface():
    m = MetricField.from_text(
        "gkl_surface",
        2,
        ["(-i*z2 + i*conj(z2))^2", "0", "0", "1"],
        constraint_texts=["im(z2) - 0.05"],
        box=[(-0.9, 0.9, -0.9, 0.9), (-0.9, 0.9, 0.15, 1.15)],
    )
    return CatalogEntry(
        m,
        expected_flags={"g_kahler_like": True, "kahler": False, "kahler_like": False},
        notable={"g_at_z2_eq_i": [[4.0, 0.0], [0.0, 1.0]]},
        provenance="warped product on C x (upper half plane): "
        "omega = i(2 Im z2)^2 dz1^dzbar1 + i dz2^dzbar2",
    )


def _entry_conformal_klike():
    m = MetricField.from_text(
        "conformal_klike",
        2,
        ["abs2(1 + z1)", "0", "0", "abs2(1 + z1)"],
        constraint_texts=["abs2(1 + z1) - 0.0025"],
    )
    return CatalogEntry(
        m,
        expected_flags={"kahler": False, "kahler_like": True, "g_kahler_like": False},
        provenance="|f|^2 times the flat metric for the holomorphic function "
        "f = 1 + z1 (nowhere zero on the chart)",
    )


def _entry_conformal_gklike():
    m = MetricField.from_text(
        "conformal_gklike",
        2,
        ["(abs2(z1) + abs2(z2))^-2", "0", "0", "(abs2(z1) + abs2(z2))^-2"],
        constraint_texts=["abs2(z1) + abs2(z2) - 0.0025"],
        box=[(0.3, 1.3, 0.3, 1.3), (0.3, 1.3, 0.3, 1.3)],
    )
    return CatalogEntry(
        m,
        expected_flags={"g_kahler_like": True, "kahler": False},
        provenance="|z|^-4 times the flat metric away from the origin; the "
        "conformal factor e^{-u} = |z|^2 has flat-Hessian structure",
    )


_BUILDERS = {
    "euclidean": _entry_euclidean,
    "fubini_study_chart": _entry_fubini_study,
    "fubini_study_chart_n2": _entry_fubini_study_n2,
    "iwasawa": _entry_iwasawa,
    "gkl_surface": _entry_gkl_surface,
    "conformal_klike": _entry_conformal_klike,
    "conformal_gklike": _entry_conformal_gklike,
}

_RANDOM_RE = re.compile(r"^random_polynomial(?:\((\d+)\))?$")


def names():
    return list(_BUILDERS) + ["random_polynomial(seed)"]


def _fmt(x):
    return f"{x:.6f}".rstrip("0").rstrip(".")


def _random_entry(seed):
    """Identity plus a small degree-<=2 Hermitian perturbation.

    Coefficients are scaled so the worst-case off-diagonal row sum on the
    sampling box stays below 0.35, keeping the matrix positive definite.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))  # dimension 2 or 3
    polys = {}
    bound = 0.0
    for i in range(n):
        for j in range(i, n):
            terms = []
            for _ in range(int(rng.integers(2, 4))):
                deg = int(rng.integers(0, 3))
                tmpl = _MONOMIALS_BY_DEGREE[deg][int(rng.integers(0, len(_MONOMIALS_BY_DEGREE[deg])))]
                mono = tmpl.format(a=int(rng.integers(1, n + 1)), b=int(rng.integers(1, n + 1)))
                c = rng.normal() + 1j * rng.normal()
                terms.append((c, mono, deg))
                bound += abs(c) * (0.9 * np.sqrt(2)) ** deg
            polys[(i, j)] = terms
    scale = 0.35 / max(bound, 1e-9)

    def poly_src(terms, conjugate):
        parts = []
        for c, mono, _deg in terms:
            cc = np.conj(c) if conjugate else c
            cc *= scale
            m = f"conj({mono})" if conjugate and mono != "1" else mono
            parts.append(f"({_fmt(cc.real)} + {_fmt(cc.imag)}*i)*{m}")
        return " + ".join(parts)

    texts = []
    for i in range(n):
        for j in range(n):
            if i == j:
                src = f"1 + re({poly_src(polys[(i, i)], False)})*2"
            elif i < j:
                src = poly_src(polys[(i, j)], False)
            else:
                src = poly_src(polys[(j, i)], True)
            texts.append(src)
    m = MetricField.from_text(f"random_polynomial({seed})", n, texts)
    return CatalogEntry(
        m,
        expected_flags={},
        provenance=f"seeded random Hermitian perturbation of the flat metric (seed {seed})",
    )


def get(name, seed=None):
    """Look up a catalog entry by name.

    ``random_polynomial`` accepts an inline seed, e.g. ``random_polynomial(7)``;
    otherwise ``seed`` (default 0x5EED) is used.
    """
    if name in _BUILDERS:
        return _BUILDERS[name]()
    match = _RANDOM_RE.match(name)
    if match:
        inline = match.group(1)
        if inline is not None:
            seed = int(inline)
        elif seed is None:
            seed = DEFAULT_SEED
        return _random_entry(seed)
    raise UnknownMetricError(
        f"unknown metric {name!r}; known names: {', '.join(names())}"
    )


# ----------------------------------------------------------------------
# config format (shared with the CLI)
def to_config(entry):
    m = entry.metric
    cfg = {
        "name": m.name,
        "n": m.n,
        "entries": m.entry_sources(),
        "constraints": m.constraint_sources(),
        "box": [list(b) for b in m.box],
    }
    if entry.expected_flags:
        cfg["expected_flags"] = dict(entry.expected_flags)
    return cfg


def _is_box_row(row):
    if not (
        isinstance(row, list)
        and len(row) == 4
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)
    ):
        return False
    try:
        bounds = [float(x) for x in row]
    except OverflowError:  # an integer beyond the float range
        return False
    # the sampler draws lo + (hi - lo) * U, so the width must be finite too
    return all(lo < hi and math.isfinite(hi - lo) for lo, hi in (bounds[:2], bounds[2:]))


def _check_config(cfg):
    """Raise InvalidConfigError naming the first missing, unknown or malformed field."""
    if not isinstance(cfg, dict):
        raise InvalidConfigError("metric config must be a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_FIELDS))
    if unknown:
        raise InvalidConfigError(f"metric config has unknown field {unknown[0]!r}; known: {', '.join(CONFIG_FIELDS)}")
    missing = {"name", "n", "entries"} - set(cfg)
    if missing:
        raise InvalidConfigError(f"metric config is missing fields: {sorted(missing)}")
    n = cfg["n"]
    if not isinstance(cfg["name"], str):
        raise InvalidConfigError("metric config field 'name' must be a string")
    if not (isinstance(n, int) and not isinstance(n, bool)) or n < 1:
        raise InvalidConfigError(f"metric config field 'n' must be an integer >= 1, got {n!r}")
    if n > MAX_N:
        raise InvalidConfigError(f"metric config field 'n' must be at most {MAX_N}, got {n}")
    for key, count in (("entries", n * n), ("constraints", None)):
        texts = cfg.get(key, [])
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise InvalidConfigError(f"metric config field {key!r} must be a list of strings")
        if count is not None and len(texts) != count:
            raise InvalidConfigError(
                f"metric config field {key!r} has {len(texts)} expressions; n={n} needs {count}"
            )
    box = cfg.get("box")
    if box is not None and not (
        isinstance(box, list) and len(box) == n and all(_is_box_row(row) for row in box)
    ):
        raise InvalidConfigError(
            f"metric config field 'box' must be {n} rows of 4 numbers "
            "(re_lo, re_hi, im_lo, im_hi) with lo < hi and a finite width hi - lo"
        )
    flags = cfg.get("expected_flags", {})
    if not isinstance(flags, dict) or not all(isinstance(v, bool) for v in flags.values()):
        raise InvalidConfigError("metric config field 'expected_flags' must map names to booleans")
    unknown = sorted(set(flags) - set(FLAG_NAMES))
    if unknown:
        raise InvalidConfigError(
            f"metric config field 'expected_flags' names unknown flag {unknown[0]!r}; known: {', '.join(FLAG_NAMES)}"
        )


def from_config(cfg):
    _check_config(cfg)
    metric = MetricField.from_text(
        cfg["name"],
        cfg["n"],
        cfg["entries"],
        cfg.get("constraints", ()),
        cfg.get("box"),
    )
    return CatalogEntry(metric, expected_flags=dict(cfg.get("expected_flags", {})))


def export_all(directory):
    """Write every named catalog entry as a JSON config file."""
    import json
    import pathlib

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in _BUILDERS:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(to_config(get(name)), indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written
