"""The mutation catalogue: small faults the tests are expected to catch.

Each :class:`Mutant` replaces ``snippet``, which occurs exactly once in
``path``, by ``replacement``; the tests named by ``killers`` (pytest node
ids) must then fail.  ``scripts/mutants.py`` applies each mutant to a copy
of the checkout and runs its killers there, one subprocess at a time;
``tests/test_mutants.py`` checks that every snippet still occurs once and
every killer still names a test, so that an edit of the code or the tests
shows here before the runner is needed.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout's root
    snippet: str
    replacement: str
    killers: tuple  # pytest node ids


_LC = "src/hermlab/levicivita.py"
_CLOSED_FORM = ("tests/test_levicivita.py::test_closed_form_core_matches_the_derivative_of_gamma",)
_ROUTES = ("tests/test_table.py::test_the_routes_of_a_check_share_only_the_metric_jets_and_the_frame",)
_INPUTS = ("tests/test_table.py::test_a_producer_reads_each_input_it_declares_and_no_other",)
_TORSION_ROUTE = '("torsion_route", "T Lv dL dT theta_u_vals", lambda d: _mod("levicivita").torsion_route(d)),'
_FD = '("fd", "metric point", lambda d: _mod("fd").fd_data(d)),'
_CLI = ("tests/test_dependencies.py::test_only_the_command_line_reaches_the_command_line_module",)
_RANK = (
    "tests/test_batch.py::test_max_rank_element_matches_the_candidate_loop",
    "tests/test_batch.py::test_max_rank_element_matches_the_candidate_loop_on_random_families",
)

MUTANTS = (
    # the closed-form Levi-Civita core: R4 from the first-kind symbols
    Mutant("gamma_term_sign", _LC,
           "(0.5 * (d2G - d2G.swapaxes(-3, -1)) + Q)",
           "(0.5 * (d2G - d2G.swapaxes(-3, -1)) - Q)", _CLOSED_FORM),
    Mutant("second_derivative_half_dropped", _LC,
           "(0.5 * (d2G - d2G.swapaxes(-3, -1)) + Q)",
           "((d2G - d2G.swapaxes(-3, -1)) + Q)", _CLOSED_FORM),
    Mutant("first_kind_half_dropped", _LC,
           "G1 = 0.5 * (dG + dG.swapaxes(-3, -1)",
           "G1 = (dG + dG.swapaxes(-3, -1)", _CLOSED_FORM),
    # the frame components: the ebar rows from the e rows
    Mutant("ebar_half_slot_unbarred", _LC,
           "e[..., ::-1, :, ::-1, :, ::-1, :].conj()",
           "e[..., ::-1, :, ::-1, :, :, :].conj()", _CLOSED_FORM),
    Mutant("ebar_half_wrong_axis_reversed", _LC,
           "e[..., ::-1, :, ::-1, :, ::-1, :].conj()",
           "e[..., :, ::-1, ::-1, :, ::-1, :].conj()", _CLOSED_FORM),
    Mutant("ebar_half_conj_missing", _LC,
           "e[..., ::-1, :, ::-1, :, ::-1, :].conj()",
           "e[..., ::-1, :, ::-1, :, ::-1, :]", _CLOSED_FORM),
    Mutant("first_slot_reads_every_frame_row", _LC,
           "E = W[..., : m // 2, :].swapaxes(-2, -1)",
           "E = W.swapaxes(-2, -1)", _CLOSED_FORM),
    # the functions of the Chern data's Levi-Civita fields
    Mutant("R_11bar_wrong_block", _LC,
           "return ch.Rc[..., :n, n:, :n, n:]",
           "return ch.Rc[..., :n, n:, n:, :n]",
           ("tests/test_levicivita.py::test_fubini_study_kahler_agreement",)),
    Mutant("gray_residual_wrong_block", _LC,
           "ch.pointwise_max(ch.Rc[..., :n, :n, :n, :n])",
           "ch.pointwise_max(ch.Rc[..., :n, :n, :n, n:])",
           ("tests/test_levicivita.py::test_gray_vanishing_everywhere",)),
    Mutant("first_bianchi_sign", _LC,
           "out(R + np.moveaxis(R, -4, -2) + np.moveaxis(R, -2, -4))",
           "out(R + np.moveaxis(R, -4, -2) - np.moveaxis(R, -2, -4))",
           ("tests/test_levicivita.py::test_full_riemann_symmetries",)),
    Mutant("theta2_blocks_B11_transposed", _LC,
           'B11 = np.einsum("...klij->...ijkl"',
           'B11 = np.einsum("...klij->...ijlk"',
           ("tests/test_levicivita.py::test_theta2_two_routes_agree",)),
    Mutant("theta2_norm_wrong_block", _LC,
           "Rc[..., :n, :n, n:, n:], Rc[..., :n, n:, n:, n:], Rc[..., n:, n:, n:, n:]",
           "Rc[..., :n, :n, n:, n:], Rc[..., :n, n:, :n, n:], Rc[..., n:, n:, n:, n:]",
           ("tests/test_levicivita.py::test_gkl_surface_mixed_curvature_block_vanishes",)),
    Mutant("ricci_direction_inverse_metric", _LC,
           'return q / np.einsum("...a,...ab,...b->...", u, ch.G, u)',
           'return q / np.einsum("...a,...ab,...b->...", u, ch.Gi, u)',
           ("tests/test_compare.py::test_ricci_identities",)),
    # the derivation table: the two routes of a check share only the jets and the frame
    Mutant("torsion_route_declares_and_reads_Rc", "src/hermlab/chern.py", _TORSION_ROUTE,
           _TORSION_ROUTE.replace('theta_u_vals"', 'theta_u_vals Rc"').replace(
               '_mod("levicivita").torsion_route(d)', '(d.Rc, _mod("levicivita").torsion_route(d))[1]'), _ROUTES),
    Mutant("torsion_route_reads_Rc_undeclared", "src/hermlab/chern.py", _TORSION_ROUTE,
           _TORSION_ROUTE.replace('_mod("levicivita").torsion_route(d)',
                                  '(d.Rc, _mod("levicivita").torsion_route(d))[1]'), _INPUTS),
    Mutant("fd_declares_and_reads_dg", "src/hermlab/chern.py", _FD,
           _FD.replace('point"', 'point dg"').replace('_mod("fd").fd_data(d)', '(d.dg, _mod("fd").fd_data(d))[1]'),
           _ROUTES),
    Mutant("fd_reads_dg_undeclared", "src/hermlab/chern.py", _FD,
           _FD.replace('_mod("fd").fd_data(d)', '(d.dg, _mod("fd").fd_data(d))[1]'), _INPUTS),
    # the laboratory below the command line
    Mutant("suites_imports_argparse", "src/hermlab/suites.py",
           "from __future__ import annotations\n\nimport numpy",
           "from __future__ import annotations\n\nimport argparse\nimport numpy", _CLI),
    Mutant("levicivita_imports_cli_in_a_function", _LC,
           "    return np.maximum(0.0, -np.linalg.eigvalsh(",
           "    from . import cli  # noqa: F401\n    return np.maximum(0.0, -np.linalg.eigvalsh(", _CLI),
    Mutant("conformal_looks_up_cli_by_name", "src/hermlab/conformal.py",
           "    batch, out = ch.point, {}",
           '    __import__("importlib").import_module("hermlab.cli")\n    batch, out = ch.point, {}', _CLI),
    # the nilker rank search, the shared pairings and the rigidity polish
    Mutant("rank_bound_reached_still_draws", "src/hermlab/nilker.py",
           "if ranks.max() < n // 2:", "if ranks.max() <= n // 2:", _RANK),
    Mutant("rank_bound_rounded_up", "src/hermlab/nilker.py",
           "if ranks.max() < n // 2:", "if ranks.max() < (n + 1) // 2:", _RANK),
    Mutant("shared_pairings_swapped", "src/hermlab/compare.py",
           "hermitian_pairings(Rh, Y, [(Y, X, X), (X, X, Y)])",
           "hermitian_pairings(Rh, Y, [(X, X, Y), (Y, X, X)])",
           ("tests/test_compare.py::test_difference_formulas_on_sweep",)),
    Mutant("newton_keeps_a_worse_step", "src/hermlab/compare.py",
           "(_batch_residual_sq(Y) <= _batch_residual_sq(X))",
           "(_batch_residual_sq(Y) >= _batch_residual_sq(X))",
           ("tests/test_compare.py::test_a_newton_step_never_raises_a_rows_residual",)),
)
