import numpy as np
import pytest

from hermlab.dsl import (
    MAX_EXPONENT,
    BinOp,
    Call,
    MetricField,
    Neg,
    Pow,
    conformal_scale,
    eval_value,
    parse,
    to_source,
)
from hermlab.chern import chern_at
from hermlab.classify import classify_at
from hermlab.conformal import ConformalFactor
from hermlab.errors import DegenerateMetricError, HermlabError, MetricSyntaxError, OutOfDomainError
from conftest import fd_values, jet2, jet_arrays


def test_parse_surface_conformal_factor():
    e = parse("(-i*z2 + i*conj(z2))^2", 2)
    assert isinstance(e, Pow)
    assert e.exponent == 2
    inner = e.base
    assert isinstance(inner, BinOp) and inner.op == "+"
    assert isinstance(inner.left, BinOp) and inner.left.op == "*"
    assert isinstance(inner.right.right, Call) and inner.right.right.fn == "conj"


def test_syntax_error_carries_offset_and_expected_tokens():
    with pytest.raises(MetricSyntaxError) as exc:
        parse("z1 + * z2", 2)
    assert exc.value.offset == 5
    assert exc.value.expected == ("(", "identifier", "number")
    with pytest.raises(MetricSyntaxError) as exc:
        parse("(z1 + z2", 2)
    assert exc.value.expected == (")",)


def test_chained_exponents_fold_to_bounded_integers():
    assert parse("z1^10^6", 1).exponent == MAX_EXPONENT
    assert parse("z1^-1^-3", 1).exponent == -1
    # each bad fold is reported at the "^" joining its operands
    for src, offset in (("z1^2^200", 4), ("z1^1001^2", 7), ("z1^0^-1", 4), ("z1^2^-1", 4)):
        with pytest.raises(MetricSyntaxError) as exc:
            parse(src, 1)
        assert exc.value.offset == offset, src


def test_unknown_identifier_and_bad_coordinate():
    with pytest.raises(MetricSyntaxError):
        parse("foo(z1)", 2)
    with pytest.raises(MetricSyntaxError) as exc:
        parse("z3", 2)
    assert "exceeds" in str(exc.value)


def test_abs2_value():
    e = parse("abs2(z1)", 1)
    j = jet2(e, [3 + 4j])
    assert j.value == pytest.approx(25.0)
    assert j.value.imag == pytest.approx(0.0)


def test_precedence_and_unary_minus():
    # ^ binds tighter than unary minus
    e = parse("-z1^2", 1)
    assert isinstance(e, Neg) and isinstance(e.arg, Pow)
    assert eval_value(parse("-2^2", 1), [0j]) == pytest.approx(-4.0)
    assert eval_value(parse("2*3 + 4/2", 1), [0j]) == pytest.approx(8.0)
    assert eval_value(parse("2^-1", 1), [0j]) == pytest.approx(0.5)
    # right-associative exponent chain: 2^(3^2)
    assert eval_value(parse("2^3^2", 1), [0j]) == pytest.approx(512.0)


# nesting that overflows the recursive descent: each "(", call and unary minus
DEEP = ["(" * 200 + "z1" + ")" * 200, "-" * 2000 + "z1", "conj(" * 300 + "z1" + ")" * 300]


@pytest.mark.parametrize("src", DEEP, ids=["parentheses", "unary_minus", "conj"])
def test_deep_nesting_is_a_syntax_error_inside_the_source(src):
    with pytest.raises(MetricSyntaxError) as exc:
        parse(src, 1)
    assert "nested too deeply" in str(exc.value)
    assert src[exc.value.offset] in "(-c"


def test_long_chains_evaluate_term_by_term_left_to_right():
    # a flat sum of 1000 terms is a left-deep tree too deep to walk by
    # recursion; it and a run of minus signs are walked by loops
    rng = np.random.default_rng(4)
    coefficients = rng.uniform(-2, 2, 1000).round(3)
    terms = [f"{abs(c)}*z1*conj(z2)^{k % 3}" for k, c in enumerate(coefficients)]
    src = terms[0] + "".join(f" {'-' if c < 0 else '+'} {t}" for c, t in zip(coefficients[1:], terms[1:]))
    points = rng.uniform(-0.9, 0.9, (5, 2)) + 1j * rng.uniform(-0.9, 0.9, (5, 2))
    got = jet_arrays(parse(src, 2), points)
    want = jet_arrays(parse(terms[0], 2), points)
    for c, t in zip(coefficients[1:], terms[1:]):
        jet = jet_arrays(parse(t, 2), points)
        want = [w - x if c < 0 else w + x for w, x in zip(want, jet)]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    for count in (600, 601):
        value = jet_arrays(parse("-" * count + "z1", 2), points)[0]
        assert np.array_equal(value, points[:, 0] if count % 2 == 0 else -points[:, 0])


@pytest.mark.parametrize(
    "src",
    [
        "(-i*z2 + i*conj(z2))^2",
        "1 + abs2(z1)",
        "-conj(z1)",
        "exp(z1) / (1 + z1*conj(z1))",
        "z1 - z2 - 1",
        "z1 / (z2 / 2)",
        "sqrt(1 + re(z1)^2) * im(z2 - i)",
        "-(z1 + z2)^3",
        "1.5e-2 * z1",
    ],
)
def test_print_parse_fixed_point(src):
    tree = parse(src, 2)
    printed = to_source(tree)
    assert parse(printed, 2) == tree
    assert to_source(parse(printed, 2)) == printed


# flat chains far deeper than the interpreter's recursion limit: the printer
# and ``==`` walk them by loops, as evaluation does
LONG = {
    "sum": " + ".join(["re(z1)"] * 1000),
    "product": " * ".join(["(1 + z1)"] * 1000),
    "minus_divide": "z1" + "".join(f" {'-/'[k % 2]} {k + 2}*z{k % 2 + 1}" for k in range(2000)),
    "unary_minus": "-" * 600 + "z2",
}


@pytest.mark.parametrize("src", LONG.values(), ids=LONG.keys())
def test_long_chains_print_and_parse_back(src):
    tree = parse(src, 2)
    assert parse(to_source(tree), 2) == tree


def _minus_signs(count, src):
    # the parser nests one call per unary minus, so a run this long is built directly
    tree = parse(src, 2)
    for _ in range(count):
        tree = Neg(tree)
    return tree


# trees from their deepest leaf and their last one
DEEP_TREES = {
    "sum": lambda first, last: parse(" + ".join([first] + ["z1"] * 998 + [last]), 2),
    "product": lambda first, last: parse(" * ".join([first] + ["z1"] * 998 + [last]), 2),
    "unary_minus": lambda first, last: _minus_signs(2000, f"{first} * {last}"),
}


@pytest.mark.parametrize("build", DEEP_TREES.values(), ids=DEEP_TREES.keys())
def test_deep_trees_compare_and_hash_without_recursion(build):
    tree, again = build("z1", "z1"), build("z1", "z1")
    assert tree == again and hash(tree) == hash(again)
    assert tree != build("z2", "z1") and tree != build("z1", "z2")


@pytest.mark.parametrize("build", DEEP_TREES.values(), ids=DEEP_TREES.keys())
def test_deep_trees_repr_as_their_source(build):
    tree = build("z1", "z2")
    assert repr(tree) == f"{type(tree).__name__}({to_source(tree)!r})"


def test_chern_data_of_a_long_metric_entry_has_a_repr():
    # the Chern data carry the metric field, and its repr each entry's
    m = MetricField.from_text("long", 1, ["1 + " + " + ".join(["0.0001*abs2(z1)"] * 1000)])
    assert "0.0001 * abs2(z1) + 0.0001 * abs2(z1)" in repr(chern_at(m, [0.1 + 0.2j]))


def test_long_constraint_is_named_when_violated():
    src = "2" + " + re(z1)" * 1000
    metric = MetricField.from_text("long", 1, ["1"], constraint_texts=[src])
    with pytest.raises(OutOfDomainError) as exc:
        classify_at(metric, [[-0.9 + 0j]])
    assert f"violates constraint {src!r}" in str(exc.value)


def test_long_non_real_conformal_exponent_is_named():
    factor = ConformalFactor(parse(" + ".join(["z1"] * 1000), 1), name="long")
    with pytest.raises(HermlabError, match="is not real"):
        factor.u_values(np.array([[0.3 + 0.4j]]))


def _euclidean(n=2):
    entries = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return MetricField.from_text("euclidean", n, [e for row in entries for e in row])


def test_euclidean_metric_identity():
    M = _euclidean()
    gv, dg, _ = M.evaluate([0.3 + 0.1j, -0.2j])
    assert np.allclose(gv, np.eye(2))
    assert not np.any(dg[0, 0])


def test_surface_metric_at_i():
    M = MetricField.from_text(
        "gkl_surface",
        2,
        ["(-i*z2 + i*conj(z2))^2", "0", "0", "1"],
        constraint_texts=["im(z2) - 0.05"],
        box=[(-0.9, 0.9, -0.9, 0.9), (-0.9, 0.9, 0.1, 1.1)],
    )
    gv, _, _ = M.evaluate([0.4 - 0.7j, 1j])
    assert np.allclose(gv, np.diag([4.0, 1.0]))


def test_iwasawa_metric_at_one():
    M = MetricField.from_text(
        "iwasawa",
        3,
        ["1", "0", "0", "0", "1 + abs2(z1)", "-z1", "0", "-conj(z1)", "1"],
    )
    gv, _, _ = M.evaluate([1.0 + 0j, 0.2j, -0.1 + 0.3j])
    expect = np.array([[1, 0, 0], [0, 2, -1], [0, -1, 1]], dtype=complex)
    assert np.allclose(gv, expect)


def test_constraint_violation_raises():
    M = MetricField.from_text(
        "halfplane",
        1,
        ["1"],
        constraint_texts=["im(z1) - 0.05"],
    )
    with pytest.raises(OutOfDomainError):
        M.evaluate([0.3 - 0.2j])
    assert M.admissible([0.3 + 0.2j])


def test_indefinite_metric_raises():
    M = MetricField.from_text("bad", 1, ["re(z1)"])
    with pytest.raises(DegenerateMetricError):
        M.evaluate([-1.0 + 0j])


def test_hermitian_symmetry_random_points():
    M = MetricField.from_text(
        "perturbed",
        2,
        [
            "1 + 0.1*abs2(z1)",
            "0.05*z1*conj(z2)",
            "0.05*conj(z1)*z2",
            "1 + 0.1*abs2(z2)",
        ],
    )
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.uniform(-0.9, 0.9, 2) + 1j * rng.uniform(-0.9, 0.9, 2)
        v, _, _ = M.evaluate(p)
        assert np.max(np.abs(v - v.conj().T)) < 1e-12


def test_conformal_scale_expression_level():
    M = _euclidean()
    u = parse("re(z1)", 2)
    Mc = conformal_scale(M, u, "scaled")
    p = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    gv, _, _ = Mc.evaluate(p)
    assert np.allclose(gv, np.exp(2 * 0.3) * np.eye(2))


def test_jet_seeding():
    M = _euclidean()
    e = parse("z1 * conj(z2)", 2)
    j = jet2(e, [1 + 1j, 2 - 1j])
    assert j.d1[0] == pytest.approx(2 + 1j)  # d/dz1 -> conj(z2)
    assert j.d1[3] == pytest.approx(1 + 1j)  # d/dzbar2 -> z1


# ----------------------------------------------------------------------
# random expressions over the full grammar, kept domain-safe: divisions
# get 1 + abs2(...) denominators, ln/sqrt get right-half-plane arguments
def _random_expr(rng, n, depth):
    if depth == 0:
        kind = rng.integers(0, 3)
        if kind == 0:
            return f"z{int(rng.integers(1, n + 1))}"
        if kind == 1:
            return f"conj(z{int(rng.integers(1, n + 1))})"
        return f"{rng.uniform(-2, 2):.4f}"
    kind = rng.integers(0, 8)
    a = _random_expr(rng, n, depth - 1)
    b = _random_expr(rng, n, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a}) * ({b})"
    if kind == 3:
        return f"({a}) / (1 + abs2({b}))"
    if kind == 4:
        return f"exp(({a}) * 0.3)"
    if kind == 5:
        return f"ln(1.5 + abs2({a}) / (1 + abs2({a})))"
    if kind == 6:
        return f"sqrt(2 + re({a}) / (1 + abs2({a})))"
    return f"({a})^{int(rng.integers(2, 4))}"


def test_random_grammar_jets_match_finite_differences():
    from hermlab.fd import fd_jet

    rng = np.random.default_rng(0xD51)
    n = 2
    checked = 0
    for _ in range(25):
        src = _random_expr(rng, n, int(rng.integers(1, 4)))
        tree = parse(src, n)
        assert parse(to_source(tree), n) == tree
        pts = np.array([rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.8, 0.8, n) for _ in range(4)])
        for p, value, jet_d1, jet_d2 in zip(pts, *jet_arrays(tree, pts)):
            _, d1, d2 = fd_jet(fd_values(tree), p, n)
            scale = 1.0 + abs(value)
            assert np.max(np.abs(jet_d1 - d1)) / scale < 1e-6
            assert np.max(np.abs(jet_d2 - d2)) / scale < 1e-4
            checked += 1
    assert checked == 100
