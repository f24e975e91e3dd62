import json

import numpy as np
import pytest

from hermlab import catalog
from hermlab.classify import classify_at
from hermlab.errors import UnknownMetricError
from hermlab.geometry import sample_points


def test_known_names_resolve():
    for name in [
        "euclidean",
        "fubini_study_chart",
        "fubini_study_chart_n2",
        "iwasawa",
        "gkl_surface",
        "conformal_klike",
        "conformal_gklike",
    ]:
        entry = catalog.get(name)
        assert entry.metric.name == name


def test_unknown_name_raises():
    with pytest.raises(UnknownMetricError):
        catalog.get("lens_space")


def test_random_polynomial_seed_forms():
    a = catalog.get("random_polynomial(123)")
    b = catalog.get("random_polynomial", seed=123)
    assert a.metric.entry_sources() == b.metric.entry_sources()
    c = catalog.get("random_polynomial")
    assert c.metric.name == f"random_polynomial({catalog.DEFAULT_SEED})"


def test_random_polynomial_is_hermitian_and_positive():
    for seed in range(6):
        m = catalog.get(f"random_polynomial({seed})").metric
        for p in sample_points(m, 10, seed=seed):
            v, _, _ = m.evaluate(p)
            assert np.max(np.abs(v - v.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(v).min() > 0.1


def test_catalog_hermitian_symmetry_hundred_points():
    for name in catalog._BUILDERS:
        m = catalog.get(name).metric
        for p in sample_points(m, 100, seed=3):
            v = m.values_at(p)
            assert np.max(np.abs(v - v.conj().T)) < 1e-12, name


def test_expected_flags_reproduced_on_seeded_sample():
    for name in catalog._BUILDERS:
        entry = catalog.get(name)
        if not entry.expected_flags:
            continue
        pts = sample_points(entry.metric, 10, seed=catalog.DEFAULT_SEED)
        rep = classify_at(entry.metric, pts)
        for flag, expected in entry.expected_flags.items():
            assert rep[flag].value == expected, (name, flag, rep[flag].residual)


def test_notable_values(geo):
    entry = catalog.get("iwasawa")
    ch = geo(entry.metric, np.array([0j, 0.3 + 0.1j, -0.2 + 0.4j]))
    assert ch.T[2, 0, 1] == pytest.approx(entry.notable["T312_at_z1_zero"], abs=1e-12)
    assert ch.torsion_norm_sq() == pytest.approx(entry.notable["torsion_norm_sq"], abs=1e-12)

    surf = catalog.get("gkl_surface")
    g = surf.metric.values_at(np.array([0.5 - 0.25j, 1j]))
    assert np.allclose(g, np.array(surf.notable["g_at_z2_eq_i"]))


def test_config_round_trip():
    for name in ["iwasawa", "gkl_surface", "conformal_gklike"]:
        entry = catalog.get(name)
        cfg = catalog.to_config(entry)
        back = catalog.from_config(json.loads(json.dumps(cfg)))
        assert back.metric.entry_sources() == entry.metric.entry_sources()
        assert back.metric.constraint_sources() == entry.metric.constraint_sources()
        assert back.expected_flags == entry.expected_flags
        p = sample_points(entry.metric, 1, seed=5)[0]
        assert np.allclose(back.metric.values_at(p), entry.metric.values_at(p))


def test_config_missing_fields_rejected():
    with pytest.raises(UnknownMetricError):
        catalog.from_config({"name": "x", "n": 2})


def test_export_all(tmp_path):
    files = catalog.export_all(tmp_path)
    assert len(files) == len(catalog._BUILDERS)
    for path in files:
        cfg = json.loads(path.read_text())
        entry = catalog.from_config(cfg)
        assert entry.metric.n == cfg["n"]
