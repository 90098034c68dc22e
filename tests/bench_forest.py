"""Timings and tracemalloc peaks of train_forest against the per-node
oracle grower in oracles.py, on criterion 8's seed-1 training set
(conftest.criterion_8_tables: 250 synthetic utterances at noise 0.75, 70%
of them, about 6.5k syllables of 12 features; 4 candidate features per
split), and timings of vote_shares against the tree-by-tree oracle walk.

    python -m pytest tests/bench_forest.py -s

The file name does not match test_*.py, so the test suite does not collect
it. Each fit is timed with 4 and with 50 trees; -s shows each side's
tracemalloc peak, taken in a separate fit of the same size, and both sides
must grow the same trees. vote_shares is timed on the 50-tree forest, for
the test split's first 3-syllable word and for the whole test split (about
2.7k syllables); both walks must give the same bytes.
"""

import numpy as np
import pytest

from stressnet import baselines
from stressnet.baselines import train_forest
from conftest import TREE_ARRAYS, traced_peak
from oracles import oracle_grow_tree, oracle_vote_shares

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

        def fit():
            forests[name] = train_forest(X, y, n_trees=n_trees, seed=SEED)

        peaks[name] = traced_peak(fit) / 2 ** 20
    print(f"\n{n_trees} trees, tracemalloc peak: oracle "
          f"{peaks['oracle']:.2f} MiB, new {peaks['new']:.2f} MiB")
    for name in ("tree_offsets", *TREE_ARRAYS):
        assert (getattr(forests["new"], name).tobytes()
                == getattr(forests["oracle"], name).tobytes()), name


@pytest.fixture(scope="module")
def forest_50(criterion_8_tables):
    train = criterion_8_tables["train"]
    return train_forest(train.features, train.labels, n_trees=50, seed=SEED)


@pytest.mark.parametrize("walk", ["oracle", "new"])
@pytest.mark.parametrize("rows", ["word", "test"])
def test_vote_shares(benchmark, criterion_8_tables, forest_50, walk, rows):
    test = criterion_8_tables["test"]
    if rows == "word":
        i = int(np.flatnonzero(np.diff(test.offsets) == 3)[0])
        x = test.features[test.offsets[i]:test.offsets[i + 1]]
    else:
        x = test.features
    score = (forest_50.vote_shares if walk == "new"
             else lambda x: oracle_vote_shares(forest_50, x))
    benchmark.group = f"vote_shares 50 trees, {len(x)} rows"
    got = benchmark(score, x)
    assert got.tobytes() == oracle_vote_shares(forest_50, x).tobytes()
