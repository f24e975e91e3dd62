"""Every entry of the mutation catalogue still applies: its snippet occurs
once, and each of its killers names a test function that exists."""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_snippet_occurs_once_and_its_killers_exist(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.killers
    for node in mutant.killers:
        path, _, name = node.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, node
