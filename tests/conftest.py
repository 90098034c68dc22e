from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from stressnet import bundled_dictionary_path
from stressnet.corpus import IGNORE_LABEL, train_utterances
from stressnet.features import N_FEATURES, Instances
from stressnet.lexicon import NUCLEUS_TAGS, PAD_TYPE_INDEX, TAG_TO_INDEX, load_dictionary
from stressnet.model import Batch


@pytest.fixture(scope="session")
def lexicon():
    return load_dictionary(bundled_dictionary_path())


def random_instance_batch(rng, n, k, min_valid=2, max_positions=17):
    """Random padded batch arrays: (features, types, mask, labels, weights)."""
    feats = rng.normal(0.0, 1.0, (n, max_positions, k))
    types = rng.integers(0, 16, (n, max_positions))
    mask = np.zeros((n, max_positions), dtype=bool)
    labels = np.full((n, max_positions), -1, dtype=np.int64)
    for b in range(n):
        valid = int(rng.integers(min_valid, max_positions + 1))
        mask[b, :valid] = True
        labels[b, :valid] = rng.integers(0, 3, valid)
        types[b, valid:] = PAD_TYPE_INDEX
        feats[b, valid:] = 0.0
    weights = np.where(mask, rng.uniform(0.2, 1.0, (n, max_positions)), 0.0)
    return feats, types, mask, labels, weights


# --- the per-word path that corpus.Instances replaced -------------------------

class Record(NamedTuple):
    """One word as the per-word records that the program once wrote and
    packed: its n syllables in position order, their features as one
    (n, 12) float64 matrix, their nucleus tags, and their stresses (plain
    ints 0/1/2, None where unknown)."""

    utterance_id: str
    word: str
    features: np.ndarray
    nucleus_tags: list[str]
    stresses: list


def pack_records(records) -> Instances:
    """Pack valid records, ones built by this program, into one table:
    each record's feature rows, its tags as type indices and its stresses
    as labels, the table read_feature_table reads from their written
    lines."""
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum([len(r.stresses) for r in records], out=offsets[1:])
    features = (np.concatenate([r.features for r in records]) if records
                else np.zeros((0, N_FEATURES)))
    return Instances(
        [r.utterance_id for r in records], [r.word for r in records], offsets,
        features,
        np.array([TAG_TO_INDEX[tag] for r in records for tag in r.nucleus_tags],
                 dtype=np.int64),
        np.array([IGNORE_LABEL if s is None else s
                  for r in records for s in r.stresses], dtype=np.int64))

class OracleWord(NamedTuple):
    """One word as arrays over its n syllables, in position order."""

    utterance_id: str
    word: str
    features: np.ndarray      # (n, 12) float64, the record's own matrix
    type_indices: np.ndarray  # (n,) int64
    labels: np.ndarray        # (n,) int64, IGNORE_LABEL where unknown


def oracle_instances(records):
    """Each record's index arrays, built one word at a time."""
    return [OracleWord(
        r.utterance_id, r.word, r.features,
        np.array([TAG_TO_INDEX[tag] for tag in r.nucleus_tags], dtype=np.int64),
        np.array([IGNORE_LABEL if s is None else s for s in r.stresses],
                 dtype=np.int64)) for r in records]


def table_records(instances):
    """The words of a table as records: tags from type indices, None
    stresses from IGNORE_LABEL."""
    offsets = instances.offsets.tolist()
    return [Record(
        uid, word, instances.features[start:stop],
        [NUCLEUS_TAGS[t] for t in instances.types[start:stop].tolist()],
        [None if s == IGNORE_LABEL else s
         for s in instances.labels[start:stop].tolist()])
        for uid, word, start, stop in zip(instances.utterance_ids, instances.words,
                                          offsets, offsets[1:])]


def split_table(table, train_fraction, seed):
    """The train_utterances split of a table's words: (train, test)."""
    in_train = train_utterances(table.utterance_ids, train_fraction, seed)
    return table[in_train], table[~in_train]


def assert_same_array(got, want, name):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), name


def assert_same_table(got, want):
    assert (got.utterance_ids, got.words) == (want.utterance_ids, want.words)
    for name in ("offsets", "features", "types", "labels"):
        assert_same_array(getattr(got, name), getattr(want, name), name)


def oracle_flatten(words, k):
    """One row per syllable, in word order: features[:k] as (n, k) and the
    gold labels as (n,). No words give (0, k) and (0,)."""
    if not words:
        return np.zeros((0, k)), np.zeros(0, dtype=np.int64)
    return (np.concatenate([w.features[:, :k] for w in words]),
            np.concatenate([w.labels for w in words]))


def oracle_make_batch(words, config, weight_table=None):
    """make_batch over per-word arrays: each array concatenated word by
    word into the mask, and the slot weights looked up where it holds."""
    K = config.feature_dim
    counts = np.array([len(w.labels) for w in words])
    mask = np.arange(counts.max()) < counts[:, None]
    features = np.zeros(mask.shape + (K,))
    features[mask] = np.concatenate([w.features[:, :K] for w in words])
    types = np.full(mask.shape, PAD_TYPE_INDEX, dtype=np.int64)
    types[mask] = np.concatenate([w.type_indices for w in words])
    labels = np.full(mask.shape, IGNORE_LABEL, dtype=np.int64)
    labels[mask] = np.concatenate([w.labels for w in words])
    weights = np.zeros(mask.shape)
    valid = np.where(mask)
    weights[valid] = (1.0 if weight_table is None
                      else weight_table[types[valid], labels[valid]])
    return Batch(features, types, mask, labels, weights)


# any JSON document, for fuzzing the readers of JSON input
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)


# floats whose repr takes every form: signed zeros, subnormals, the
# extremes, integral values and exponents
float_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
     1.7976931348623157e308, 1.0, -3.0, 2.0 ** 60, 1e16, 1e-5, 0.1])
