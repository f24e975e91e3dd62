"""Property test: every config and argument list ends in a documented exit code.

Fuzzes metric config documents (n, entry counts, expressions that are
indefinite, singular, overflowing or unparseable, box shapes, non-finite
numbers) and the arguments of the classify suite.  Whatever the input,
``main`` returns 0, 1, 2 or 3 (argparse usage errors exit 2 through
SystemExit) and writes no traceback.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hermlab.cli import main

from test_dsl import DEEP

# diagonal entries: positive, indefinite, overflowing, singular or infinite
DIAGONAL = ["1", "2", "1 + abs2(z1)", "1 + abs2(z2)", "re(z1)", "1 + exp(1000*re(z1))",
            "1 + ln(re(z1))^2", "1 + 1/re(z1)", "z1^-2", "1e999", "1 + sqrt(im(z1))"]
# off-diagonal entries, mostly zero so that many metrics are Hermitian
OFF_DIAGONAL = ["0", "0", "0", "0.1*z1", "0.1*conj(z1)"]
GARBAGE = ["(", "z9", "", 3, None]
NUMBERS = st.one_of(
    st.floats(-2, 2, allow_nan=False),
    st.sampled_from([math.inf, -math.inf, math.nan, True]),
)


def _rarely(draw):
    """True for about one draw in eight: most inputs stay well formed."""
    return draw(st.integers(0, 7)) == 3  # not an end of the range, which hypothesis favours


def _box_row(draw):
    lo_re, lo_im = draw(st.floats(-1, 0.5)), draw(st.floats(-1, 0.5))
    row = [lo_re, lo_re + draw(st.floats(0.01, 1)), lo_im, lo_im + draw(st.floats(0.01, 1))]
    if _rarely(draw):
        return draw(st.one_of(st.lists(NUMBERS, max_size=5), st.just(row[::-1])))
    return row


@st.composite
def configs(draw):
    if _rarely(draw):
        return draw(st.sampled_from([[], "metric", 3, {"name": "fz", "n": 2, "entries": "1 0 0 1"}]))
    n = draw(st.integers(1, 3))
    if _rarely(draw):
        n = draw(st.sampled_from([0, -1, "2", 2.0, None]))
    size = n if isinstance(n, int) and n > 0 else 2
    entries = [
        draw(st.sampled_from(DIAGONAL if i == j else OFF_DIAGONAL))
        for i in range(size)
        for j in range(size)
    ]
    if _rarely(draw):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(GARBAGE))
    if _rarely(draw):
        entries = entries[:-1] if draw(st.booleans()) else entries + ["0"]
    cfg = {"name": "fz" if not _rarely(draw) else 7, "n": n, "entries": entries}
    if draw(st.booleans()):
        rows = size + (draw(st.sampled_from([-1, 1])) if _rarely(draw) else 0)
        cfg["box"] = [_box_row(draw) for _ in range(rows)]
    if draw(st.booleans()):
        cfg["constraints"] = draw(
            st.lists(st.sampled_from(["re(z1) + 0.5", "re(z1) - 5", "1/re(z1)", "(", 1]), max_size=2)
        )
    if draw(st.booleans()):
        cfg["expected_flags"] = draw(
            st.sampled_from([{}, {"kahler": True}, {"kahler": 1}, ["kahler"], {"g_kaehler_like": True}])
        )
    return cfg


TOLERANCES = ["flags=1e-3", "flags=abc", "flags=nan", "flags=-1", "flags=inf", "exact=0", "bogus=1", "flags"]


@st.composite
def arguments(draw):
    def value(good, bad):
        return draw(st.sampled_from(bad if _rarely(draw) else good))

    return {
        "points": value(["1", "3"], ["0", "-1", "x", "100000000000000"]),
        "seed": value([str(draw(st.integers(0, 2**33)))], ["-1", "1.5"]),
        "tol": draw(st.lists(st.sampled_from(TOLERANCES), max_size=2)) if _rarely(draw) else [],
        "format": value(["json", "csv", "human"], ["xml"]),
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cfg=configs(), args=arguments())
def test_any_config_and_arguments_exit_with_a_documented_code(cfg, args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(cfg))
        argv = ["--metric", str(path), "--suite", "classify", "--points", args["points"],
                "--seed", args["seed"], "--format", args["format"]]
        for item in args["tol"]:
            argv += ["--tol", item]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if code in (0, 1):
        assert stdout.getvalue()
    else:
        assert stderr.getvalue()


def _run(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deep.json"
        path.write_text(json.dumps(cfg))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--metric", str(path), "--points", "3", "--format", "csv"])
    return code, stderr.getvalue()


def test_deep_or_long_expressions_exit_with_a_documented_code():
    # nesting deeper than the parser's stack is a parse error, exit 2
    for deep in DEEP:
        code, stderr = _run({"name": "deep", "n": 1, "entries": [f"1 + abs2(z1) + 0*{deep}"]})
        assert code == 2 and "nested too deeply" in stderr and "Traceback" not in stderr
    # a flat sum is no deeper to parse and evaluate than one term
    code, stderr = _run({"name": "flat", "n": 1, "entries": ["1 + " + " + ".join(["abs2(z1)"] * 1000)]})
    assert code == 0 and not stderr
