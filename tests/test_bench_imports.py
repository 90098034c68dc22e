"""The suite does not collect tests/bench_*.py, so a name one of them
imports from stressnet or from a test module could vanish unnoticed:
each bench module is imported here."""

import importlib
from pathlib import Path

import pytest

BENCHES = sorted(path.stem for path in Path(__file__).parent.glob("bench_*.py"))


def test_benches_found():
    assert BENCHES


@pytest.mark.parametrize("name", BENCHES)
def test_bench_module_imports(name):
    # imported in the test, not at collection, so that pytest has
    # collected and rewritten the test modules a bench imports first
    importlib.import_module(name)
