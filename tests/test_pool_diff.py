"""The report comparison of ``scripts/pool_diff.py`` on synthetic outcomes, without a subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "pool_diff", Path(__file__).resolve().parents[1] / "scripts" / "pool_diff.py"
)
pool_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pool_diff)


def _check(name, residual, tolerance, point):
    return {"name": name, "residual": residual, "tolerance": tolerance,
            "passed": tolerance is None or residual < tolerance, "worst_point": [[point, 0.0]]}


def _outcome(checks, exit=0, timestamp="t0"):
    doc = {"timestamp": timestamp, "suites": {"identities": {"checks": checks}}}
    return {"exit": exit, "error": None, "stdout": json.dumps(doc)}


def test_differences_and_moves_on_synthetic_outcomes():
    old = _outcome([_check("a", 1e-10, 1e-8, 0.1), _check("b", 2e-12, 1e-6, 0.2)])
    assert pool_diff.differences(old, _outcome(json.loads(old["stdout"])["suites"]["identities"]["checks"],
                                               timestamp="t1")) == []
    # a moves by roundoff at the same point; b's worst point moves to a roundoff tie
    new = _outcome([_check("a", 1.5e-10, 1e-8, 0.1), _check("b", 3e-12, 1e-6, 0.3)])
    lines = pool_diff.differences(old, new)
    assert any(line.startswith("/suites/identities/checks/a/residual: 1e-10 -> 1.5e-10") for line in lines)
    assert any(line.startswith("/suites/identities/checks/b/worst_point[0][0]") for line in lines)
    m = pool_diff.moves([("r1", old, new), ("r2", old, old)])
    assert m["changed"] == 0 and m["moved"] == 1
    assert m["largest_delta_over_tol"] == abs(1.5e-10 - 1e-10) / 1e-8
    assert m["moved_largest_over_tol"] == 3e-12 / 1e-6
    # each largest value names its check and report
    assert m["largest_at"] == ("r1", "identities/a") and m["moved_largest_at"] == ("r1", "identities/b")
    assert pool_diff.render_moves(m) == (
        "largest |delta residual|/tolerance 0.005 (identities/a of r1); "
        "1 worst points moved, the largest at residual/tolerance 3e-06 (identities/b of r1)"
    )
    # the largest of several reports is the one named
    larger = _outcome([_check("a", 1e-10, 1e-8, 0.1), _check("b", 2e-7, 1e-6, 0.3)])
    m = pool_diff.moves([("r1", old, new), ("r2", old, larger)])
    assert m["largest_at"] == ("r2", "identities/b") and m["moved_largest_at"] == ("r2", "identities/b")
    assert m["largest_delta_over_tol"] == (2e-7 - 2e-12) / 1e-6 and m["moved"] == 2
    # a changed exit code and a changed passed each count their report once
    failing = _outcome([_check("a", 2e-8, 1e-8, 0.1), _check("b", 2e-12, 1e-6, 0.2)])
    crashed = {"exit": None, "error": "ValueError: x", "stdout": ""}
    assert pool_diff.moves([("r1", old, failing), ("r2", old, crashed), ("r3", old, old)])["changed"] == 2
    assert pool_diff.differences(old, crashed)[:2] == ["exit: 0 -> None", "error: None -> 'ValueError: x'"]
    # a check with no bound moves at residual/tolerance 0, and then no place is named
    unbounded = _outcome([_check("a", 1e-10, None, 0.1)]), _outcome([_check("a", 2e-10, None, 0.2)])
    assert pool_diff.moves([("r1", *unbounded)]) == {
        "changed": 0, "largest_delta_over_tol": 0.0, "largest_at": None,
        "moved": 1, "moved_largest_over_tol": 0.0, "moved_largest_at": None,
    }
    assert pool_diff.render_moves(pool_diff.moves([])).endswith("residual/tolerance 0")


# the exit code and the start of the stderr text of each error input
ERRORS = {
    "singular_entry": (3, "error: ln requires an argument with positive real part"),
    "constraint_reciprocal": (3, "error: found 0/20 admissible points"),
    "non_hermitian": (3, "error: metric 'non_hermitian' is not Hermitian at"),
    "nested_too_deep": (2, "error: expression nested too deeply at offset"),
    "unknown_identifier": (2, "error: unknown identifier 'foo' at offset 4"),
    "infinite_literal": (3, "error: metric 'infinite_literal' is not finite at"),
}


def test_error_inputs_end_in_their_errors(tmp_path, capsys):
    from hermlab import cli

    tasks = pool_diff.error_tasks(tmp_path)
    assert [key for key, _ in tasks] == [f"errors|{name}" for name in ERRORS]
    for (key, argv), (code, message) in zip(tasks, ERRORS.values()):
        assert cli.main(argv) == code, key
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and err.count("\n") == 1, (key, err)


def test_a_changed_stderr_text_is_a_difference():
    old = {"exit": 3, "error": None, "stdout": "", "stderr": "error: ln requires ... (at point [1])\n"}
    new = dict(old, stderr="error: sqrt requires ... (at point [1])\n")
    assert pool_diff.differences(old, dict(old)) == []
    assert pool_diff.differences(old, new) == [f"stderr: {old['stderr']!r} -> {new['stderr']!r}"]


def test_env_reaches_the_new_trees_child_only(tmp_path, monkeypatch, capsys):
    # each child is faked: it records its environment and reports every task identical
    envs = {}

    def run(cmd, check, env=None):
        tree, tasks_path, out_path = cmd[3:6]
        envs[tree] = env
        reports = {key: {"exit": 0, "error": None, "stdout": "", "stderr": ""}
                   for key, _ in json.loads(Path(tasks_path).read_text())}
        Path(out_path).write_text(json.dumps({"hermlab": f"{tree}/src/hermlab/cli.py", "reports": reports}))

    monkeypatch.setattr(pool_diff.subprocess, "run", run)
    monkeypatch.setenv("POOL_DIFF_PARENT", "kept")
    old, new = tmp_path / "old", tmp_path / "new"
    argv = [str(old), str(new), "--points", "1", "--env", "OPENBLAS_CORETYPE=Sandybridge", "--env", "X=a=b"]
    assert pool_diff.main(argv) == 0
    assert "0 differ" in capsys.readouterr().out
    assert envs[str(old)] is None  # the old tree's child inherits this process's environment
    got = envs[str(new)]
    assert got["OPENBLAS_CORETYPE"] == "Sandybridge" and got["X"] == "a=b" and got["POOL_DIFF_PARENT"] == "kept"
    assert pool_diff.child_env([]) == dict(pool_diff.os.environ)


@pytest.mark.parametrize("item", ["OPENBLAS_CORETYPE", "=Sandybridge", ""])
def test_env_without_a_key_and_a_value_is_refused(item, capsys):
    with pytest.raises(SystemExit) as exc:
        pool_diff.main(["old", "new", "--env", item])
    assert exc.value.code == 2
    assert f"--env takes KEY=VALUE, got {item!r}" in capsys.readouterr().err
