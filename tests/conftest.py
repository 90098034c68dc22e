import io
import struct
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from stressnet import bundled_dictionary_path
from stressnet.corpus import IGNORE_LABEL, GenConfig, synth_corpus, train_utterances
from stressnet.features import N_FEATURES, Instances
from stressnet.lexicon import NUCLEUS_TAGS, PAD_TYPE_INDEX, TAG_TO_INDEX, load_dictionary


@pytest.fixture(scope="session")
def lexicon():
    return load_dictionary(bundled_dictionary_path())


@pytest.fixture(scope="session")
def criterion_8_tables(lexicon):
    """Criterion 8's seed-1 tables: 250 synthetic utterances at noise 0.75
    and their 70% training and 30% test parts, split by utterance."""
    _, synth = synth_corpus(lexicon, 250, GenConfig(noise=0.75), seed=1)
    train, test = split_table(synth, 0.7, seed=1)
    return {"synth": synth, "train": train, "test": test}


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


def assert_same_alignment(got, want):
    assert ((got.utterance_id, got.audio_path, got.words, got.tags)
            == (want.utterance_id, want.audio_path, want.words, want.tags))
    for name in ("offsets", "spans"):
        assert_same_array(getattr(got, name), getattr(want, name), name)


def assert_same_corpus(got, want):
    """got is synth_corpus's (alignments, table), want the oracle's
    (alignments, records)."""
    (got_al, got_table), (want_al, want_recs) = got, want
    assert_same_table(got_table, pack_records(want_recs))
    got_recs = table_records(got_table)
    assert len(got_al) == len(want_al)
    for a, b in zip(got_al, want_al):
        assert_same_alignment(a, b)
    assert len(got_recs) == len(want_recs)
    for a, b in zip(got_recs, want_recs):
        assert (a.utterance_id, a.word) == (b.utterance_id, b.word)
        assert (a.nucleus_tags, a.stresses) == (b.nucleus_tags, b.stresses)
        assert a.features.dtype == b.features.dtype
        assert a.features.tobytes() == b.features.tobytes()


TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")


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


# --- malformed inputs that more than one reader must refuse -----------------

def _edit(path, *value):
    """A mutation that sets the field at path (keys into the record) to
    value, or deletes it when no value is given."""
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        if value:
            doc[last] = value[0]
        else:
            del doc[last]
    return mutate


SYL = ("syllables", 0)
MALFORMED_LINES = {
    "bad_json": '{"utterance_id": "u", "word": ',
    "non_object": "[1, 2, 3]",
    "missing_utterance_id": _edit(("utterance_id",)),
    "utterance_id_not_string": _edit(("utterance_id",), 7),
    "missing_word": _edit(("word",)),
    "word_not_string": _edit(("word",), ["a"]),
    "missing_syllables": _edit(("syllables",)),
    "syllables_not_list": _edit(("syllables",), {"position": 0}),
    "syllable_not_object": _edit(SYL, 3),
    "missing_features": _edit(SYL + ("features",)),
    "features_not_list": _edit(SYL + ("features",), "1.0"),
    "eleven_features": lambda doc: doc["syllables"][0]["features"].pop(),
    "feature_not_number": _edit(SYL + ("features", 4), "x"),
    "nan_feature": _edit(SYL + ("features", 0), float("nan")),
    "infinite_feature": _edit(SYL + ("features", 2), float("-inf")),
    "missing_nucleus": _edit(SYL + ("nucleus",)),
    "nucleus_not_string": _edit(SYL + ("nucleus",), 1),
    "unknown_nucleus": _edit(SYL + ("nucleus",), "zz"),
    "missing_position": _edit(SYL + ("position",)),
    "position_not_int": _edit(SYL + ("position",), "0"),
    "missing_stress": _edit(SYL + ("stress",)),
    "stress_not_int": _edit(SYL + ("stress",), "1"),
    "stress_out_of_range": _edit(SYL + ("stress",), 3),
    "no_syllables": _edit(("syllables",), []),
    "eighteen_syllables": lambda doc: doc.update(syllables=[
        dict(doc["syllables"][0], position=i) for i in range(18)]),
    "repeated_position": _edit(("syllables", 1, "position"), 0),
    "position_gap": lambda doc: doc["syllables"][-1].update(
        position=len(doc["syllables"])),
}


SR = 16000
PCM, IEEE_FLOAT, ADPCM, EXTENSIBLE = 0x0001, 0x0003, 0x0002, 0xFFFE
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def wav_bytes(samples, sr=SR):
    from scipy.io import wavfile
    buf = io.BytesIO()
    wavfile.write(buf, sr, samples)
    return buf.getvalue()


def chunk(cid, payload, size=None):
    """One RIFF chunk: id, declared size (the payload's unless given),
    payload and the pad byte of an odd-sized payload."""
    size = len(payload) if size is None else size
    return cid + struct.pack("<I", size) + payload + b"\0" * (len(payload) % 2)


def fmt_chunk(tag, channels, width, bits=None, rate=SR, byte_rate=None,
              extensible=False):
    """A fmt chunk for `width`-byte samples: 16 bytes, or 40 with the
    WAVE_FORMAT_EXTENSIBLE extension carrying `tag` in its GUID."""
    bits = 8 * width if bits is None else bits
    block = channels * width
    byte_rate = rate * block if byte_rate is None else byte_rate
    head = struct.pack("<HHIIHH", EXTENSIBLE if extensible else tag, channels,
                       rate, byte_rate, block, bits)
    if extensible:
        head += struct.pack("<HHII", 22, bits, 0, tag) + GUID_TAIL
    return chunk(b"fmt ", head)


def riff(*chunks, form=b"RIFF", size=None):
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack("<I", len(body) if size is None else size) + body


_PCM16 = fmt_chunk(PCM, 1, 2)
# Files read_wav refuses, each as a FormatError naming the path. The
# reader built on SciPy refused these too: SciPy failed on them, or gave a
# sample type that it did not take (pcm8, pcm_width_5, float16). SciPy
# reads every file in SCIPY_READS.
MALFORMED_WAVS = {
    "empty": b"",
    "riff_junk": b"RIFF\x10\x00\x00\x00WAVEjunkjunk",
    "pcm8": wav_bytes(np.array([0, 128, 255], dtype=np.uint8)),
    "not_riff": b"RIFF\x04\x00\x00\x00WAV_",
    "no_data": riff(_PCM16),
    "no_fmt": riff(chunk(b"data", bytes(4))),
    "data_before_fmt": riff(chunk(b"data", bytes(4)), _PCM16),
    "fmt_short": riff(chunk(b"fmt ", bytes(14)), chunk(b"data", bytes(4))),
    "adpcm": riff(fmt_chunk(ADPCM, 1, 2), chunk(b"data", bytes(4))),
    "no_channels": riff(fmt_chunk(PCM, 0, 2), chunk(b"data", bytes(4))),
    "pcm_width_5": riff(fmt_chunk(PCM, 1, 5, bits=40), chunk(b"data", bytes(10))),
    "pcm_width_9": riff(fmt_chunk(PCM, 1, 9, bits=64), chunk(b"data", bytes(9))),
    "float16": riff(fmt_chunk(IEEE_FLOAT, 1, 2), chunk(b"data", bytes(4))),
    "extensible_unknown_guid": riff(
        fmt_chunk(PCM, 1, 2, extensible=True)[:-4] + b"\xff" * 4,
        chunk(b"data", bytes(4))),
    "extensible_without_extension": riff(
        chunk(b"fmt ", struct.pack("<HHIIHHH", EXTENSIBLE, 1, SR, 2 * SR, 2,
                                   16, 0)), chunk(b"data", bytes(4))),
    "extensible_fmt_under_40": riff(
        chunk(b"fmt ", fmt_chunk(PCM, 1, 2, extensible=True)[8:34]),
        chunk(b"data", bytes(4))),
    "chunk_size_past_eof": riff(_PCM16, chunk(b"data", bytes(4), size=2 ** 32 - 1)),
}
SCIPY_READS = {
    # big-endian samples, which the reader built on SciPy refused as well
    "rifx": b"RIFX" + struct.pack(">I", 40) + b"WAVEfmt " + struct.pack(
        ">IHHIIHH", 16, PCM, 1, SR, 2 * SR, 2, 16) + b"data" + struct.pack(
        ">I", 4) + bytes(4),
    # sizes in the ds64 chunk: RIFF 76, data 4, 2 samples, no table
    "rf64": b"RF64\xff\xff\xff\xffWAVE" + chunk(
        b"ds64", struct.pack("<QQQI", 76, 4, 2, 0)) + _PCM16 + chunk(
        b"data", bytes(4), size=2 ** 32 - 1),
    "data_cut_short": riff(_PCM16, chunk(b"data", bytes(8)))[:-4],
    "trailing_chunk_cut_short": riff(_PCM16, chunk(b"data", bytes(4)),
                                     chunk(b"LIST", bytes(8)))[:-4],
    "chunk_header_cut_short": riff(_PCM16, chunk(b"data", bytes(4)), b"LI"),
    "second_data": riff(_PCM16, chunk(b"data", bytes(4)), chunk(b"data", bytes(2))),
    "second_fmt": riff(_PCM16, _PCM16, chunk(b"data", bytes(4))),
    "partial_frame": riff(_PCM16, chunk(b"data", bytes(5))),
    "frame_not_whole_bytes_per_channel": riff(
        chunk(b"fmt ", struct.pack("<HHIIHH", PCM, 2, SR, 5 * SR, 5, 16)),
        chunk(b"data", bytes(20))),
    "pcm_bits_past_container": riff(fmt_chunk(PCM, 1, 2, bits=24),
                                    chunk(b"data", bytes(4))),
    "pcm_bits_zero": riff(fmt_chunk(PCM, 1, 2, bits=0), chunk(b"data", bytes(4))),
    "float_bits_not_width": riff(fmt_chunk(IEEE_FLOAT, 1, 8, bits=32),
                                 chunk(b"data", bytes(8))),
    "float_byte_rate": riff(fmt_chunk(IEEE_FLOAT, 1, 4, byte_rate=1),
                            chunk(b"data", bytes(8))),
    "float_nan_sample": riff(fmt_chunk(IEEE_FLOAT, 1, 4), chunk(
        b"data", np.array([0.5, np.nan], "<f4").tobytes())),
    # a signaling NaN: the cast to float64 raised "invalid value" before
    "float_signaling_nan_sample": riff(fmt_chunk(IEEE_FLOAT, 1, 4), chunk(
        b"data", b"\x00\x00\x81\x7f")),
    "float_inf_sample": riff(fmt_chunk(IEEE_FLOAT, 2, 8), chunk(
        b"data", np.array([0.5, 0.25, -np.inf, 0.0], "<f8").tobytes())),
    # finite samples whose channel average overflows
    "float_channel_mean_overflow": riff(fmt_chunk(IEEE_FLOAT, 2, 8), chunk(
        b"data", np.array([0.5, 0.25, 1.5e308, 1.5e308], "<f8").tobytes())),
}
MALFORMED_WAVS.update(SCIPY_READS)
