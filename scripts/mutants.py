"""Run the mutation catalogue of ``tests/mutants.py`` against this checkout.

    python3 scripts/mutants.py [NAME ...]

For each mutant (every one, or those named), the script copies ``src``,
``tests``, ``perfbench`` and ``pyproject.toml`` of this checkout to a
temporary directory, replaces the mutant's snippet by its replacement
there, and runs ``python -m pytest -x -q`` on the mutant's killers in that
copy, with one BLAS thread; one subprocess at a time, and nothing in the
checkout itself is written.  A mutant is killed when that run fails.  Each
mutant prints one line with its name, killed or SURVIVED and its wall
time; the exit code is 0 only when every mutant was killed.  The killers
first run once on an unmutated copy, which must pass, so that a failure is
the mutant's.  It is not part of the test suite: a run takes about a
second per mutant.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _catalogue():
    sys.path.insert(0, str(ROOT / "tests"))
    from mutants import MUTANTS

    return MUTANTS


def _copy(target):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=ignore)
        else:
            shutil.copy2(source, target / name)


def run(killers, mutant=None):
    """(failed, seconds) of the tests ``killers`` in a fresh copy of the checkout, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="hermlab-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        if mutant is not None:
            path = copy / mutant.path
            text = path.read_text()
            if text.count(mutant.snippet) != 1:
                raise SystemExit(f"{mutant.name}: the snippet does not occur exactly once in {mutant.path}")
            path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), **WORKER_ENV)
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *killers]
        start = time.perf_counter()
        out = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
        return out.returncode != 0, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="the mutants to run (default: all)")
    args = parser.parse_args(argv)
    mutants = _catalogue()
    unknown = set(args.names) - {m.name for m in mutants}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in mutants if not args.names or m.name in args.names]
    start = time.perf_counter()
    failed, _ = run(sorted({node for m in chosen for node in m.killers}))
    if failed:
        print("the killers fail on the unmutated checkout", file=sys.stderr)
        return 2
    survivors = []
    for mutant in chosen:
        killed, seconds = run(mutant.killers, mutant)
        print(f"{mutant.name}: {'killed' if killed else 'SURVIVED'} ({seconds:.1f} s)", flush=True)
        if not killed:
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
