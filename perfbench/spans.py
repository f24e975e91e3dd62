"""Per-layer tracing of hermlab from outside the package.

:class:`Tracer` replaces public functions and methods of the hermlab modules
with wrappers that record one span per call (name, start, end, parent span,
report id).  A function that other modules bound with ``from .x import y``
is replaced under every name that refers to it, so calls made through
``hermlab.cli`` are seen too.  Nothing under ``src/`` is edited: the
original attributes are put back by :meth:`Tracer.uninstall`.

Spans stay in memory until :meth:`Tracer.write` saves them.  The layer
metrics are computed from the spans by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

# layer name -> the public callables it covers, as "module:qualname"
LAYERS = {
    "cli.main": ["hermlab.cli:main"],
    "cli.sample": ["hermlab.cli:sample_points"],
    "cli.render": ["hermlab.cli:render_json", "hermlab.cli:render_csv", "hermlab.cli:render_human"],
    "dsl.parse": ["hermlab.dsl:parse"],
    "dsl.admissible": ["hermlab.dsl:MetricField.admissible"],
    "dsl.evaluate": ["hermlab.dsl:MetricField.evaluate"],
    "dsl.eval_value": ["hermlab.dsl:eval_value"],
    "jets.inverse": ["hermlab.jets:JetMatrix.inverse"],
    "jets.cholesky": ["hermlab.jets:JetMatrix.cholesky"],
    "forms.to_coframe": ["hermlab.forms:Form.to_coframe"],
    "forms.exterior_d": ["hermlab.forms:Form.exterior_d"],
    "forms.wedge": ["hermlab.forms:Form.wedge"],
    "chern.chern_at": ["hermlab.chern:chern_at"],
    "chern.covderiv": ["hermlab.chern:covderiv_torsion"],
    "chern.residuals": [
        f"hermlab.chern:{f}"
        for f in (
            "bianchi_residual",
            "curvature_identity_residual",
            "del_omega_residual",
            "balanced_identity_residual",
            "delbar_eta_residual",
            "kahler_like_residual",
            "theta_wedge_phi_residual",
            "skew_hermitian_residual",
        )
    ],
    "chern.normal_frame": [
        f"hermlab.chern:{f}"
        for f in (
            "normal_frame_at",
            "NormalFrame.frame_jets",
            "NormalFrame.connection_values_at",
            "NormalFrame.theta_norm_at_base",
            "NormalFrame.torsion_jets_at",
            "NormalFrame.torsion_values_at",
        )
    ],
    "levicivita.riemann_at": ["hermlab.levicivita:riemann_at"],
    "levicivita.theta2": [
        f"hermlab.levicivita:{f}"
        for f in (
            "theta2_two_route_residual",
            "theta2_zero_one_part_residual",
            "theta2_matches_torsion_residual",
            "theta2_structure_route",
            "theta2_gamma_forms",
            "theta2_gamma_check",
        )
    ],
    "classify.flag_residuals": ["hermlab.classify:flag_residuals_at"],
    "classify.curvature_difference": ["hermlab.classify:curvature_difference_suite"],
    "compare.directions": [
        "hermlab.compare:bisectional_difference_residuals",
        "hermlab.compare:monotonicity_gap",
        "hermlab.compare:bisectional",
    ],
    "compare.rigidity": ["hermlab.compare:n3_rigidity_search"],
    "conformal.transform": [
        "hermlab.conformal:torsion_transform_residual",
        "hermlab.conformal:connection_transform_residuals",
    ],
    "nilker.kernel": [
        "hermlab.nilker:common_kernel_inductive",
        "hermlab.nilker:common_kernel_constructive",
    ],
    "fd.jet": ["hermlab.fd:fd_jet"],
}

# one span: [layer, start_ns, end_ns, parent index (-1 for none), report id, result]
NAME, START, END, PARENT, REPORT, RESULT = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.report_id = -1
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, layer, fn, keep_result):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0, 0, stack[-1], self.report_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep_result:
                span[RESULT] = bool(result)
            return result

        return traced

    def install(self):
        """Wrap every callable in :data:`LAYERS`; call :meth:`uninstall` after."""
        packages = _hermlab_modules()
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                owner = importlib.import_module(module_name)
                *classes, attr = qualname.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                wrapper = self._wrap(layer, original, layer == "dsl.admissible")
                if classes:
                    self._patch(owner, attr, wrapper)
                    continue
                for module in packages:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        """Save the spans as gzip'd tab-separated lines, one per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\treport\tlayer\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[REPORT]}\t{s[NAME]}\t{s[START]}\t{s[END]}\n")


def _hermlab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("hermlab") and m]


# ----------------------------------------------------------------------
# span arithmetic
def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append(s)
    # calls nest, so every child interval lies inside its parent's
    return [
        s[END] - s[START] - union_length((k[START], k[END]) for k in kids)
        for s, kids in zip(spans, children)
    ]


def layer_metrics(spans, points):
    """Per-layer metrics (seconds and exact counts) from one set of spans.

    ``points`` is the number of sample points the traced reports asked for;
    ``chern.chern_at_calls_per_point`` divides by it.  ``*_s`` is busy time,
    except ``chern.chern_at_s``, which is self time: time inside ``chern_at``
    not spent in any other traced layer.
    """
    intervals = {layer: [] for layer in LAYERS}
    for s in spans:
        intervals[s[NAME]].append((s[START], s[END]))
    calls = {layer: len(iv) for layer, iv in intervals.items()}
    selft = self_times(spans)
    draws = [
        s
        for s in spans
        if s[NAME] == "dsl.admissible" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "cli.sample"
    ]
    accepted = sum(1 for s in draws if s[RESULT])

    def busy(layer):
        """Time during which at least one span of ``layer`` was open."""
        return union_length(intervals[layer]) / 1e9

    return {
        "cli.sample_s": busy("cli.sample"),
        "cli.sample_draws": len(draws),
        "cli.sample_accept_ratio": accepted / len(draws) if draws else 0.0,
        "cli.render_s": busy("cli.render"),
        "dsl.parse_s": busy("dsl.parse"),
        "dsl.evaluate_calls": calls["dsl.evaluate"],
        "dsl.evaluate_s": busy("dsl.evaluate"),
        "dsl.eval_value_calls": calls["dsl.eval_value"],
        "dsl.eval_value_s": busy("dsl.eval_value"),
        "jets.inverse_calls": calls["jets.inverse"],
        "jets.inverse_s": busy("jets.inverse"),
        "jets.cholesky_calls": calls["jets.cholesky"],
        "jets.cholesky_s": busy("jets.cholesky"),
        "forms.to_coframe_calls": calls["forms.to_coframe"],
        "forms.to_coframe_s": busy("forms.to_coframe"),
        "forms.exterior_d_calls": calls["forms.exterior_d"],
        "forms.exterior_d_s": busy("forms.exterior_d"),
        "forms.wedge_calls": calls["forms.wedge"],
        "forms.wedge_s": busy("forms.wedge"),
        "chern.chern_at_s": sum(t for s, t in zip(spans, selft) if s[NAME] == "chern.chern_at") / 1e9,
        "chern.chern_at_calls_per_point": calls["chern.chern_at"] / points if points else 0.0,
        "chern.covderiv_s": busy("chern.covderiv"),
        "chern.residuals_s": busy("chern.residuals"),
        "chern.normal_frame_s": busy("chern.normal_frame"),
        "levicivita.riemann_at_s": busy("levicivita.riemann_at"),
        "levicivita.theta2_s": busy("levicivita.theta2"),
        "classify.flag_residuals_s": busy("classify.flag_residuals"),
        "classify.curvature_difference_s": busy("classify.curvature_difference"),
        "compare.directions_s": busy("compare.directions"),
        "compare.direction_calls": calls["compare.directions"],
        "compare.rigidity_s": busy("compare.rigidity"),
        "conformal.transform_s": busy("conformal.transform"),
        "nilker.kernel_calls": calls["nilker.kernel"],
        "nilker.kernel_s": busy("nilker.kernel"),
        "fd.jet_calls": calls["fd.jet"],
        "fd.jet_s": busy("fd.jet"),
    }
