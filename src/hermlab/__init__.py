"""hermlab: pointwise curvature laboratory for Hermitian metrics on charts.

Evaluates user-supplied metric expressions through order-2 Wirtinger jets,
computes Chern and Levi-Civita curvature and torsion data, classifies
metrics (Kahler, balanced, curvature-symmetric, pluriclosed, flat), and
verifies the curvature-torsion identities relating the two connections,
including conformal transformation laws and common kernels of
anti-commuting nilpotent matrix families.
"""

from . import catalog
from .chern import ChernData, chern_at, normal_frame_at
from .classify import ClassificationReport, classify_at, curvature_difference_suite
from .dsl import MetricField, parse, to_source
from .levicivita import riemann_at
from .nilker import (
    NilpotentFamily,
    common_kernel_constructive,
    common_kernel_inductive,
    family_from_torsion,
)

__version__ = "0.1.0"

__all__ = [
    "ChernData",
    "ClassificationReport",
    "MetricField",
    "NilpotentFamily",
    "catalog",
    "chern_at",
    "classify_at",
    "common_kernel_constructive",
    "common_kernel_inductive",
    "family_from_torsion",
    "curvature_difference_suite",
    "normal_frame_at",
    "parse",
    "riemann_at",
    "to_source",
]
