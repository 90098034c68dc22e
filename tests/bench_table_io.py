"""Timings of the feature-table reader and writer and of train_ordinal
against their oracles in test_features.py and test_baselines.py, on
criterion 8's seed-1 tables: 250 synthetic utterances at noise 0.75 (the
synth table, about 2.8k words) and their 70% training split (about 1.9k
words, 6.5k syllables).

    python -m pytest tests/bench_table_io.py

The file name does not match test_*.py, so the test suite does not collect
it. A read is timed with instances_from_table, which every command that
reads a table runs on it; the oracle reads a syllable at a time. The
oracle writer is json.dumps per record. Both sides of each pair must give
the same bytes.
"""

import pytest

from stressnet.baselines import flatten, train_ordinal
from stressnet.corpus import GenConfig, instances_from_table, split, synth_corpus
from stressnet.features import read_feature_table, write_feature_table
from test_baselines import oracle_train_ordinal
from test_features import oracle_instance, oracle_line, oracle_record

SEED = 1


@pytest.fixture(scope="module")
def tables(lexicon, tmp_path_factory):
    """(records, path) of the synth table and of its training split."""
    _, recs = synth_corpus(lexicon, 250, GenConfig(noise=0.75), seed=SEED)
    train, _ = split(recs, 0.7, seed=SEED)
    root = tmp_path_factory.mktemp("tables")
    out = {}
    for name, part in (("synth", recs), ("train", train)):
        path = str(root / f"{name}.jsonl")
        write_feature_table(part, path)
        out[name] = (part, path)
    return out


def oracle_read(path):
    with open(path, "rb") as fh:
        return [oracle_instance(*oracle_record(line)) for line in fh
                if line.strip()]


def new_read(path):
    return instances_from_table(read_feature_table(path))


def oracle_write(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(oracle_line(rec))


READERS = {"oracle": oracle_read, "new": new_read}
WRITERS = {"oracle": oracle_write, "new": write_feature_table}
FITS = {"oracle": oracle_train_ordinal, "new": train_ordinal}
IMPLS = ["oracle", "new"]
INSTANCE_ARRAYS = ("features", "type_indices", "labels")


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("table", ["synth", "train"])
def test_read(benchmark, tables, table, impl):
    _, path = tables[table]
    benchmark.group = f"read + instances_from_table, {table} table"
    got = benchmark.pedantic(READERS[impl], (path,), rounds=5)
    want = READERS["oracle"](path)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in INSTANCE_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("table", ["synth", "train"])
def test_write(benchmark, tables, tmp_path, table, impl):
    records, _ = tables[table]
    path, oracle_path = str(tmp_path / "got.jsonl"), str(tmp_path / "want.jsonl")
    benchmark.group = f"write_feature_table, {table} table"
    benchmark.pedantic(WRITERS[impl], (records, path), rounds=5)
    oracle_write(records, oracle_path)
    with open(path, "rb") as got, open(oracle_path, "rb") as want:
        assert got.read() == want.read()


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("k", [6, 12])
def test_train_ordinal(benchmark, tables, k, impl):
    X, y = flatten(new_read(tables["train"][1]), k)
    benchmark.group = f"train_ordinal K={k}, n={len(y)}"
    got = benchmark.pedantic(FITS[impl], (X, y), {"seed": SEED}, rounds=3)
    want = oracle_train_ordinal(X, y, seed=SEED)
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.thresholds.tobytes() == want.thresholds.tobytes()
