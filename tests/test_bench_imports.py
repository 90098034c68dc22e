"""The suite does not collect tests/bench_*.py, so a name one of them
imports from stressnet, conftest or oracles could vanish unnoticed: each
bench module is imported here. Every kept oracle lives in oracles.py and
no module under tests/ imports a test module: both are checked here."""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
BENCHES = sorted(path.stem for path in TESTS.glob("bench_*.py"))


def test_benches_found():
    assert BENCHES


@pytest.mark.parametrize("name", BENCHES)
def test_bench_module_imports(name):
    # imported in the test, not at collection, so that pytest has
    # collected and rewritten the test modules a bench imports first
    importlib.import_module(name)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_oracles_in_one_module_and_no_test_module_imported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.startswith("test_")]
    if path.name != "oracles.py":
        assert not [node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith(("oracle_", "reference_"))]
