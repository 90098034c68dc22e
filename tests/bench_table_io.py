"""Timings of the feature-table reader and writer, of train_ordinal and of
synth_corpus against their oracles in oracles.py, on criterion 8's seed-1
tables (conftest.criterion_8_tables): 250 synthetic utterances at noise
0.75 (the synth table, about 2.8k words) and their 70% training split
(about 1.9k words, 6.5k syllables). Also extract_features against its
per-syllable oracle, on 40 seeded synthetic utterances of 16 syllables
each (pitch and intensity tracks at a 10 ms hop, about a third of the
pitch frames unvoiced).

    python -m pytest tests/bench_table_io.py

read_table_lines is timed on the synth table; its oracle reads the
records and cuts each word's line out of the file's bytes. split is timed
from the synth table to both parts on disk: the oracle reads the records,
splits them and writes each part with write_feature_table, as split once
did; the new path copies the valid lines it parsed. predict's writer is
timed on the test part (about 820 words) with seeded probabilities, and
label's labels.jsonl writer on the same part; the oracle of each is
json.dumps per word, so the three writers that share write_word_lines
(the table's, predict's and label's) are timed side by side. Each writer
test also records the side's tracemalloc peak, from one more call made
with tracing on after the timed rounds, in the benchmark's extra_info, so
that --benchmark-json reports the memory of a write next to its time.
make_batch with the class-weight table is timed on the training part
against the per-word path, which builds each word's arrays and
concatenates them.

The file name does not match test_*.py, so the test suite does not collect
it. A read is timed as read_feature_table alone, which returns the flat
table every command that reads one takes; the oracle reads a syllable at a
time and packs the words it read. A write is timed as write_feature_table
of the flat table; the oracle writer is json.dumps per word. The oracle
generator makes one scalar draw per noisy slot and normalizes a syllable
at a time. The oracle extractor finds each span's frames with a mask over
all frame times. Both sides of each pair must give the same bytes.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import (assert_same_corpus, assert_same_table, pack_records,
                      table_records, traced_peak)
from stressnet.baselines import train_ordinal
from stressnet.cli import _write_labels, _write_predictions
from stressnet.corpus import GenConfig, compute_class_weights, split, synth_corpus
from stressnet.dsp import Track
from stressnet.features import (
    TableLine,
    extract_features,
    read_feature_table,
    read_table_lines,
    write_feature_table,
    write_table_lines,
)
from stressnet.model import PRESETS, ModelConfig, make_batch
from oracles import (oracle_extract_features, oracle_instances,
                     oracle_label_lines, oracle_make_batch,
                     oracle_predictions, oracle_read_table, oracle_split,
                     oracle_synth_corpus, oracle_table_bytes, oracle_train_ordinal)

SEED = 1


@pytest.fixture(scope="module")
def tables(criterion_8_tables, tmp_path_factory):
    """(table, path) of the synth table and of its two split parts."""
    root = tmp_path_factory.mktemp("tables")
    out = {}
    for name, part in criterion_8_tables.items():
        path = str(root / f"{name}.jsonl")
        write_feature_table(part, path)
        out[name] = (part, path)
    return out


def new_split(path, out):
    train, test = split(read_table_lines(path), 0.7, seed=SEED)
    write_table_lines(train, str(out / "train.jsonl"))
    write_table_lines(test, str(out / "test.jsonl"))


def lines_from_spans(path):
    """read_table_lines' lines as the oracle reader finds them: each word's
    line span cut out of the file's bytes."""
    data = Path(path).read_bytes()
    table, spans = oracle_read_table(path, data)
    return [TableLine(u, data[first:stop])
            for u, (first, stop) in zip(table.utterance_ids, spans)]


READERS = {"oracle": lambda path: oracle_read_table(
               path, Path(path).read_bytes())[0],
           "new": read_feature_table}
LINE_READERS = {"oracle": lines_from_spans, "new": read_table_lines}
SPLITTERS = {"oracle": lambda path, out: oracle_split(path, out, 0.7, SEED),
             "new": new_split}
PREDICTION_WRITERS = {
    "oracle": lambda path, words, probs: Path(path).write_text(
        oracle_predictions(words, probs), encoding="utf-8"),
    "new": _write_predictions}
LABEL_WRITERS = {
    "oracle": lambda path, words: Path(path).write_text(oracle_label_lines(words)),
    "new": _write_labels}
WRITERS = {"oracle": lambda table, path: Path(path).write_bytes(
               oracle_table_bytes(table_records(table))),
           "new": write_feature_table}
FITS = {"oracle": oracle_train_ordinal, "new": train_ordinal}
GENERATORS = {"oracle": oracle_synth_corpus, "new": synth_corpus}
EXTRACTORS = {"oracle": oracle_extract_features, "new": extract_features}
BATCHERS = {"oracle": oracle_make_batch, "new": make_batch}
IMPLS = ["oracle", "new"]
# a writer's tracemalloc peak in bytes, of one untimed call after the rounds
PEAK = "tracemalloc_peak_bytes"
BATCH_ARRAYS = ("features", "types", "mask", "labels", "weights")


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("table", ["synth", "train"])
def test_read(benchmark, tables, table, impl):
    _, path = tables[table]
    benchmark.group = f"read_feature_table, {table} table"
    got = benchmark.pedantic(READERS[impl], (path,), rounds=5)
    assert_same_table(got, READERS["oracle"](path))


@pytest.mark.parametrize("impl", IMPLS)
def test_read_lines(benchmark, tables, impl):
    _, path = tables["synth"]
    benchmark.group = "read_table_lines, synth table"
    got = benchmark.pedantic(LINE_READERS[impl], (path,), rounds=5)
    assert got == LINE_READERS["oracle"](path)


@pytest.mark.parametrize("impl", IMPLS)
def test_make_batch(benchmark, tables, impl):
    instances, _ = tables["train"]
    records = oracle_instances(table_records(instances))
    words = {"oracle": records, "new": instances}[impl]
    config = ModelConfig(**PRESETS["attn-medium"])
    table = compute_class_weights(instances)
    benchmark.group = f"make_batch with class weights, {len(records)} words"
    got = benchmark.pedantic(BATCHERS[impl], (words, config, table), rounds=30)
    want = oracle_make_batch(records, config, table)
    for name in BATCH_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("table", ["synth", "train"])
def test_write(benchmark, tables, tmp_path, table, impl):
    instances, _ = tables[table]
    path = tmp_path / "got.jsonl"
    benchmark.group = f"write_feature_table, {table} table"
    benchmark.pedantic(WRITERS[impl], (instances, str(path)), rounds=5)
    benchmark.extra_info[PEAK] = traced_peak(WRITERS[impl], instances, str(path))
    assert path.read_bytes() == oracle_table_bytes(table_records(instances))


@pytest.mark.parametrize("impl", IMPLS)
def test_split(benchmark, tables, tmp_path, impl):
    _, path = tables["synth"]
    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir()
    want.mkdir()
    benchmark.group = "split, synth table -> train.jsonl + test.jsonl"
    benchmark.pedantic(SPLITTERS[impl], (path, got), rounds=5)
    SPLITTERS["oracle"](path, want)
    for name in ("train.jsonl", "test.jsonl"):
        assert (got / name).read_bytes() == (want / name).read_bytes()


@pytest.mark.parametrize("impl", IMPLS)
def test_predict_write(benchmark, tables, tmp_path, impl):
    table, _ = tables["test"]
    words = oracle_instances(table_records(table))
    instances = {"oracle": words, "new": table}[impl]
    n = sum(len(w.labels) for w in words)
    probs = np.random.default_rng(SEED).dirichlet(np.ones(3), n)
    got = tmp_path / "got.jsonl"
    benchmark.group = f"predict output, {len(instances)} words"
    benchmark.pedantic(PREDICTION_WRITERS[impl], (str(got), instances, probs),
                       rounds=5)
    benchmark.extra_info[PEAK] = traced_peak(PREDICTION_WRITERS[impl], str(got),
                                             instances, probs)
    assert got.read_bytes() == oracle_predictions(words, probs).encode()


@pytest.mark.parametrize("impl", IMPLS)
def test_labels_write(benchmark, tables, tmp_path, impl):
    table, _ = tables["test"]
    words = table_records(table)
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    benchmark.group = f"labels.jsonl, {len(words)} words"
    args = (str(got), {"oracle": words, "new": table}[impl])
    benchmark.pedantic(LABEL_WRITERS[impl], args, rounds=5)
    benchmark.extra_info[PEAK] = traced_peak(LABEL_WRITERS[impl], *args)
    LABEL_WRITERS["oracle"](str(want), words)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("k", [6, 12])
def test_train_ordinal(benchmark, tables, k, impl):
    instances = read_feature_table(tables["train"][1])
    X, y = instances.features[:, :k], instances.labels
    benchmark.group = f"train_ordinal K={k}, n={len(y)}"
    got = benchmark.pedantic(FITS[impl], (X, y), {"seed": SEED}, rounds=3)
    want = oracle_train_ordinal(X, y, seed=SEED)
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.thresholds.tobytes() == want.thresholds.tobytes()


@pytest.mark.parametrize("impl", IMPLS)
def test_synth_corpus(benchmark, lexicon, impl):
    gen = GenConfig(noise=0.75)
    benchmark.group = "synth_corpus, 250 utterances, noise 0.75"
    alignments, table = benchmark.pedantic(GENERATORS[impl], (lexicon, 250, gen),
                                           {"seed": SEED}, rounds=5)
    if impl == "oracle":  # its records, as the table they pack into
        table = pack_records(table)
    assert_same_corpus((alignments, table),
                       oracle_synth_corpus(lexicon, 250, gen, seed=SEED))


def synthetic_utterances(n_utterances=40, n_syllables=16, hop=0.01):
    """(pitch, intensity, spans) per utterance: back-to-back syllables of
    80 to 300 ms, each nucleus its syllable's middle half."""
    rng = np.random.default_rng(SEED)
    utterances = []
    for _ in range(n_utterances):
        durations = rng.uniform(0.08, 0.3, n_syllables)
        ends = np.cumsum(durations)
        starts = ends - durations
        times = hop / 2 + hop * np.arange(int(ends[-1] / hop) + 1)
        f0 = rng.uniform(80.0, 300.0, len(times))
        f0[rng.random(len(times)) < 0.3] = np.nan
        utterances.append((
            Track(hop, times, f0),
            Track(hop, times, rng.uniform(-60.0, -10.0, len(times))),
            np.stack([starts, ends, starts + 0.25 * durations,
                      starts + 0.75 * durations], axis=1)))
    return utterances


@pytest.mark.parametrize("impl", IMPLS)
def test_extract_features(benchmark, impl):
    utterances = synthetic_utterances()
    benchmark.group = "extract_features, 40 utterances of 16 syllables"
    got = benchmark.pedantic(
        lambda: [EXTRACTORS[impl](*u) for u in utterances], rounds=5)
    for matrix, u in zip(got, utterances):
        assert matrix.tobytes() == oracle_extract_features(*u).tobytes()
