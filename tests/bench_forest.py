"""Timings and tracemalloc peaks of train_forest against the per-node
oracle grower in oracles.py, on criterion 8's seed-1 training set
(conftest.criterion_8_tables: 250 synthetic utterances at noise 0.75, 70%
of them, about 6.5k syllables of 12 features; 4 candidate features per
split).

    python -m pytest tests/bench_forest.py -s

The file name does not match test_*.py, so the test suite does not collect
it. Each fit is timed with 4 and with 50 trees; -s shows each side's
tracemalloc peak, taken in a separate fit of the same size, and both sides
must grow the same trees.
"""

import tracemalloc

import pytest

from stressnet import baselines
from stressnet.baselines import train_forest
from conftest import TREE_ARRAYS
from oracles import oracle_grow_tree

SEED = 1


@pytest.fixture(params=["oracle", "new"])
def impl(request, monkeypatch):
    if request.param == "oracle":
        monkeypatch.setattr(baselines, "_grow_tree", oracle_grow_tree)
    return request.param


@pytest.mark.parametrize("n_trees", [4, 50])
def test_train_forest(benchmark, criterion_8_tables, impl, n_trees):
    train = criterion_8_tables["train"]
    X, y = train.features, train.labels
    benchmark.group = f"train_forest {n_trees} trees, n={len(y)}"
    benchmark.pedantic(train_forest, (X, y),
                       {"n_trees": n_trees, "seed": SEED}, rounds=3)


@pytest.mark.parametrize("n_trees", [4, 50])
def test_tracemalloc_peak(criterion_8_tables, monkeypatch, n_trees):
    train = criterion_8_tables["train"]
    X, y = train.features, train.labels
    forests, peaks = {}, {}
    for name, grow in [("oracle", oracle_grow_tree),
                       ("new", baselines._grow_tree)]:
        monkeypatch.setattr(baselines, "_grow_tree", grow)
        tracemalloc.start()
        forests[name] = train_forest(X, y, n_trees=n_trees, seed=SEED)
        peaks[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
    print(f"\n{n_trees} trees, tracemalloc peak: oracle "
          f"{peaks['oracle']:.2f} MiB, new {peaks['new']:.2f} MiB")
    for got, want in zip(forests["new"].trees, forests["oracle"].trees):
        for name in TREE_ARRAYS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
