import copy
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressnet.corpus import (
    IGNORE_LABEL,
    GenConfig,
    WordInstance,
    build_instance,
    instances_from_table,
    synth_corpus,
)
from stressnet.dsp import IntensityTrack, PitchTrack
from stressnet.errors import FormatError, InvalidSpan, SpanOutOfRange, StressnetError
from stressnet.features import (
    FEATURE_SLOTS,
    MAX_SYLLABLES,
    N_FEATURES,
    RawSyllableFeatures,
    WordRecord,
    _record,
    extract_features,
    normalize_sentence,
    read_feature_table,
    write_feature_table,
)
from stressnet.lexicon import NUCLEUS_TAGS, TAG_TO_INDEX, StressLevel
from test_cli import MALFORMED_LINES

HOP = 0.01


def tracks(pitch_values, int_values):
    times_p = HOP / 2 + HOP * np.arange(len(pitch_values))
    times_i = HOP / 2 + HOP * np.arange(len(int_values))
    return (PitchTrack(HOP, times_p, np.asarray(pitch_values, dtype=np.float64)),
            IntensityTrack(HOP, times_i, np.asarray(int_values, dtype=np.float64)))


class TestExtractFeatures:
    def test_hand_computed_vector(self):
        pitch, intensity = tracks([100.0, 120.0, np.nan, 140.0],
                                  [-10.0, -20.0, -30.0, -40.0])
        raw = extract_features(pitch, intensity, (0.0, 0.04), (0.01, 0.03))
        v = raw.values
        assert v[0] == pytest.approx(120.0)        # syl pitch mean
        assert v[1] == pytest.approx(140.0)        # syl pitch max
        assert v[2] == pytest.approx(0.03)         # syl voiced duration
        assert v[3] == pytest.approx(-25.0)        # syl intensity mean
        assert v[4] == pytest.approx(-10.0)        # syl intensity max
        assert v[5] == pytest.approx(0.04)         # syl duration
        # nucleus span [0.01, 0.03) holds frames at 15 and 25 ms
        assert v[6] == pytest.approx(120.0)
        assert v[7] == pytest.approx(120.0)
        assert v[8] == pytest.approx(0.01)
        assert v[9] == pytest.approx(-25.0)
        assert v[10] == pytest.approx(-20.0)
        assert v[11] == pytest.approx(0.02)

    def test_fully_unvoiced_syllable(self):
        pitch, intensity = tracks([np.nan, np.nan], [-10.0, -12.0])
        raw = extract_features(pitch, intensity, (0.0, 0.02), (0.0, 0.02))
        assert raw.values[0] is None and raw.values[1] is None
        assert raw.values[2] == 0.0
        assert raw.values[3] == pytest.approx(-11.0)

    def test_identical_spans_identical_six(self):
        pitch, intensity = tracks([100.0, 110.0], [-5.0, -6.0])
        raw = extract_features(pitch, intensity, (0.0, 0.02), (0.0, 0.02))
        assert raw.values[:6] == raw.values[6:]

    def test_nucleus_outside_syllable(self):
        pitch, intensity = tracks([100.0], [-5.0])
        with pytest.raises(InvalidSpan):
            extract_features(pitch, intensity, (0.0, 0.01), (0.0, 0.02))

    def test_span_outside_extent(self):
        pitch, intensity = tracks([100.0], [-5.0])
        with pytest.raises(SpanOutOfRange):
            extract_features(pitch, intensity, (3.0, 3.1), (3.0, 3.1))

    def test_twelve_named_slots(self):
        assert len(FEATURE_SLOTS) == 12


def raw(*values):
    return RawSyllableFeatures(tuple(values))


def filled(value):
    return raw(*([value] * 12))


def oracle_normalize_sentence(raw):
    """normalize_sentence as a loop over slots and syllables: the mean of
    each slot's present values as one list, subtracted one at a time."""
    n = len(raw)
    out = [np.zeros(N_FEATURES) for _ in range(n)]
    for slot in range(N_FEATURES):
        present = [i for i in range(n) if raw[i].values[slot] is not None]
        if not present:
            continue
        mean = float(np.mean([raw[i].values[slot] for i in present]))
        for i in present:
            out[i][slot] = float(raw[i].values[slot]) - mean
    return out


class TestNormalizeSentence:
    def test_mean_subtraction(self):
        out = normalize_sentence([filled(0.1), filled(0.3)])
        assert out[0] == pytest.approx([-0.1] * 12)
        assert out[1] == pytest.approx([0.1] * 12)

    def test_single_syllable_all_zero(self):
        out = normalize_sentence([filled(0.42)])
        assert np.allclose(out[0], 0.0)

    def test_absent_becomes_zero(self):
        a = raw(100.0, *[0.0] * 11)
        b = raw(None, *[0.0] * 11)
        c = raw(140.0, *[0.0] * 11)
        out = normalize_sentence([a, b, c])
        assert out[0][0] == pytest.approx(-20.0)
        assert out[1][0] == 0.0
        assert out[2][0] == pytest.approx(20.0)

    def test_all_absent_slot_is_zero(self):
        a = raw(None, *[1.0] * 11)
        b = raw(None, *[3.0] * 11)
        out = normalize_sentence([a, b])
        assert out[0][0] == 0.0 and out[1][0] == 0.0
        assert out[0][1] == pytest.approx(-1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        sentence = [raw(*rng.normal(0, 10, 12)) for _ in range(7)]
        once = normalize_sentence(sentence)
        twice = normalize_sentence([raw(*v) for v in once])
        for a, b in zip(once, twice):
            assert np.allclose(a, b, atol=1e-12)

    def test_speaker_pitch_shift_invariance(self):
        rng = np.random.default_rng(4)
        base = [list(rng.normal(0, 10, 12)) for _ in range(6)]
        shifted = []
        for v in base:
            w = list(v)
            for slot in (0, 1, 6, 7):  # the pitch value slots
                w[slot] += 37.5
            shifted.append(w)
        out_a = normalize_sentence([raw(*v) for v in base])
        out_b = normalize_sentence([raw(*v) for v in shifted])
        for a, b in zip(out_a, out_b):
            assert np.allclose(a, b, atol=1e-9)

    def test_output_finite_no_absent(self):
        rng = np.random.default_rng(5)
        sentence = []
        for _ in range(10):
            vals = list(rng.normal(0, 5, 12))
            for slot in (0, 1, 6, 7):
                if rng.random() < 0.5:
                    vals[slot] = None
            sentence.append(raw(*vals))
        out = normalize_sentence(sentence)
        for v in out:
            assert np.isfinite(v).all()

    @given(st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=12, max_size=12),
        min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_per_slot_mean_is_zero(self, rows):
        out = normalize_sentence([raw(*v) for v in rows])
        stacked = np.stack(out)
        assert np.all(np.abs(stacked.mean(axis=0)) < 1e-6)

    # n on both sides of NumPy's pairwise-sum boundaries (blocks of 8,
    # leaves of 128), and each pitch slot present, absent or a mixture
    @given(n=st.integers(1, 300) | st.sampled_from([7, 8, 9, 127, 128, 129,
                                                    255, 256, 257]),
           pitch_slots=st.lists(st.sampled_from(["present", "absent"])
                                | st.floats(0.0, 1.0), min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 40.0, 1e6]))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_to_loop_oracle(self, n, pitch_slots, seed, scale):
        rng = np.random.default_rng(seed)
        values = (120.0 + rng.normal(0.0, scale, (n, N_FEATURES))).tolist()
        for slot, mode in zip((0, 1, 6, 7), pitch_slots):
            if mode == "present":
                continue
            absent = rng.random(n) < (1.0 if mode == "absent" else mode)
            for row in np.flatnonzero(absent):
                values[row][slot] = None
        sentence = [raw(*row) for row in values]
        want = np.array(oracle_normalize_sentence(sentence))
        got = normalize_sentence(sentence)
        assert got.shape == (n, N_FEATURES)
        assert got.tobytes() == want.tobytes()
        as_array = np.array(values, dtype=np.float64)  # None becomes NaN
        assert normalize_sentence(as_array).tobytes() == want.tobytes()


# --- feature table fuzzing ----------------------------------------------------

VALID_RECORD = {
    "utterance_id": "u1",
    "word": "overcome",
    "syllables": [
        {"position": i, "features": [0.1 * (i + 1)] * 12, "nucleus": tag,
         "stress": stress}
        for i, (tag, stress) in enumerate([("ow", 2), ("er", 0), ("ah", 1)])
    ],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)


@st.composite
def mutated_records(draw):
    """VALID_RECORD with one field, syllable or feature dropped or replaced."""
    doc = copy.deepcopy(VALID_RECORD)
    where = draw(st.sampled_from(["record", "syllable", "features"]))
    if where == "record":
        container = doc
        key = draw(st.sampled_from(["utterance_id", "word", "syllables"]))
    else:
        i = draw(st.integers(0, 2))
        if where == "syllable":
            container = doc["syllables"][i]
            key = draw(st.sampled_from(
                ["position", "features", "nucleus", "stress"]))
        else:
            container = doc["syllables"][i]["features"]
            key = draw(st.integers(0, 11))
    if draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(json_values)
    return json.dumps(doc).encode()


def read_instances(lines: list[bytes]):
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"\n".join(lines))
        return instances_from_table(read_feature_table(path))
    finally:
        os.unlink(path)


class TestFeatureTableFuzz:
    """Whatever a feature table holds, reading it either works or raises a
    StressnetError."""

    def test_valid_record_reads(self):
        (inst,) = read_instances([json.dumps(VALID_RECORD).encode()])
        assert inst.valid_count == 3
        assert [int(x) for x in inst.labels[:3]] == [2, 0, 1]

    @given(st.lists(st.text(max_size=40).map(str.encode)
                    | st.binary(max_size=40), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_lines(self, lines):
        try:
            read_instances(lines)
        except StressnetError:
            pass

    @given(st.lists(mutated_records(), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_mutated_records(self, lines):
        try:
            read_instances(lines)
        except StressnetError:
            pass


# --- the reader and writer against the per-syllable oracles -------------------
#
# read_feature_table checks a line's syllables in one loop and converts all
# their features with one np.array call; write_feature_table lays out the
# fixed schema itself. The oracles below are the reader they replaced (one
# object, one np.asarray and one StressLevel per syllable, stacked as
# build_instance did) and json.dumps. The reader must accept exactly the
# lines the oracle accepts and give the same bytes; a line with a single
# fault gets the same message too.

@dataclass
class OracleSyllable:
    features: np.ndarray
    nucleus_tag: str
    position: int
    stress: StressLevel | None = None


def oracle_field(doc, key, *types):
    value = doc.get(key, ...)
    if type(value) not in types:
        raise FormatError(f"{key!r} is missing or of the wrong type")
    return value


def oracle_feature_vector(values):
    try:
        ok = (len(values) == N_FEATURES and set(map(type, values)) <= {int, float}
              and all(map(math.isfinite, values)))
    except OverflowError:
        ok = False
    if not ok:
        raise FormatError(f"'features' must be {N_FEATURES} finite numbers")
    return np.asarray(values, dtype=np.float64)


def oracle_syllable(doc):
    if type(doc) is not dict:
        raise FormatError("a syllable is not a JSON object")
    stress = oracle_field(doc, "stress", int, type(None))
    if stress not in (None, 0, 1, 2):
        raise FormatError(f"stress {stress} is not 0, 1, 2 or null")
    nucleus = oracle_field(doc, "nucleus", str)
    if nucleus not in TAG_TO_INDEX:
        raise FormatError(f"unknown nucleus tag {nucleus!r}")
    return OracleSyllable(
        features=oracle_feature_vector(oracle_field(doc, "features", list)),
        nucleus_tag=nucleus,
        position=oracle_field(doc, "position", int),
        stress=None if stress is None else StressLevel(stress),
    )


def oracle_record(line):
    """(utterance_id, word, syllables in position order)."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON ({exc})")
    if type(doc) is not dict:
        raise FormatError("the line is not a JSON object")
    utterance_id = oracle_field(doc, "utterance_id", str)
    word = oracle_field(doc, "word", str)
    syllables = sorted(map(oracle_syllable, oracle_field(doc, "syllables", list)),
                       key=lambda obs: obs.position)
    n = len(syllables)
    if not 1 <= n <= MAX_SYLLABLES:
        raise FormatError(f"{n} syllables, not 1 to {MAX_SYLLABLES}")
    if [obs.position for obs in syllables] != list(range(n)):
        raise FormatError(f"syllable positions are not 0..{n - 1}, each once")
    return utterance_id, word, syllables


def oracle_instance(utterance_id, word, syllables):
    """The arrays build_instance stacked from the oracle's syllables."""
    return WordInstance(
        utterance_id, word,
        np.array([obs.features for obs in syllables], dtype=np.float64),
        np.array([TAG_TO_INDEX[obs.nucleus_tag] for obs in syllables],
                 dtype=np.int64),
        np.array([IGNORE_LABEL if obs.stress is None else int(obs.stress)
                  for obs in syllables], dtype=np.int64))


def assert_reads_as_oracle(line: bytes, same_message: bool = True) -> bool:
    """Whether the line is accepted; fails unless the reader agrees with
    the oracle on that, and on the record or the error."""
    try:
        want = oracle_record(line)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            _record(line)
        if same_message:
            assert str(got.value) == str(exc)
        return False
    rec = _record(line)
    want_inst = oracle_instance(*want)
    assert (rec.utterance_id, rec.word) == want[:2]
    assert rec.features.dtype == np.float64
    assert rec.features.shape == want_inst.features.shape
    assert rec.features.tobytes() == want_inst.features.tobytes()
    assert rec.nucleus_tags == [obs.nucleus_tag for obs in want[2]]
    # plain ints, not StressLevel members
    assert [(type(s), s) for s in rec.stresses] == [
        (type(None), None) if obs.stress is None else (int, int(obs.stress))
        for obs in want[2]]
    inst = build_instance(rec)
    for name in ("features", "type_indices", "labels"):
        got, expected = getattr(inst, name), getattr(want_inst, name)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
        assert got.tobytes() == expected.tobytes(), name
    return True


def syllable_doc(i, tag="ah", stress=0, value=0.5):
    return {"position": i, "features": [value] * 12, "nucleus": tag,
            "stress": stress}


def word_doc(syllables):
    return {"utterance_id": "u", "word": "w", "syllables": syllables}


def with_feature(value):
    doc = copy.deepcopy(VALID_RECORD)
    doc["syllables"][1]["features"][4] = value
    return doc


# case: (line document, whether it is accepted)
EDGE_LINES = {
    "valid": (VALID_RECORD, True),
    "bool_feature": (with_feature(True), False),
    "string_feature": (with_feature("1.5"), False),
    "int_beyond_float": (with_feature(10 ** 400), False),
    "negative_int_beyond_float": (with_feature(-10 ** 400), False),
    "big_int_feature": (with_feature(2 ** 70 + 1), True),
    "int_features": (word_doc([{**syllable_doc(0),
                                "features": list(range(12))}]), True),
    "largest_float": (with_feature(1.7976931348623157e308), True),
    "subnormal_and_negative_zero": (word_doc([
        {**syllable_doc(0), "features": [5e-324, -0.0] * 6}]), True),
    "null_stress": (word_doc([syllable_doc(0, stress=None),
                              syllable_doc(1)]), True),
    "bool_stress": (word_doc([syllable_doc(0, stress=True)]), False),
    "duplicate_position": (word_doc([syllable_doc(0), syllable_doc(0)]), False),
    "missing_position": (word_doc([syllable_doc(0), syllable_doc(2)]), False),
    "negative_position": (word_doc([syllable_doc(-1), syllable_doc(0)]), False),
    "shuffled_positions": (word_doc([
        syllable_doc(i, tag=NUCLEUS_TAGS[i], stress=i % 3, value=0.1 * i)
        for i in (2, 0, 3, 1)]), True),
    "zero_syllables": (word_doc([]), False),
    "one_syllable": (word_doc([syllable_doc(0)]), True),
    "seventeen_syllables": (word_doc([syllable_doc(i) for i in range(17)]), True),
    "eighteen_syllables": (word_doc([syllable_doc(i) for i in range(18)]), False),
}

# any number, or something that is not one
feature_values = (st.floats() | st.integers(-2 ** 80, 2 ** 80)
                  | st.sampled_from([True, False, "1.5", None, 10 ** 400,
                                     -10 ** 400, -0.0, 5e-324]))


@st.composite
def table_lines(draw):
    """A word of 0 to 18 syllables, mostly well formed: its syllables in
    any order, and maybe a position, feature, stress or tag that is off."""
    n = draw(st.integers(0, MAX_SYLLABLES + 1), label="n")
    positions = draw(st.permutations(range(n)), label="positions")
    # one drawn row, rotated by position, so that each syllable differs
    row = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                        | st.integers(-2 ** 60, 2 ** 60),
                        min_size=12, max_size=12), label="row")
    syllables = [
        {"position": p, "features": row[p % 12:] + row[:p % 12],
         "nucleus": draw(st.sampled_from(NUCLEUS_TAGS)),
         "stress": draw(st.sampled_from([None, 0, 1, 2]))}
        for p in positions]
    if syllables:
        syl = draw(st.sampled_from(syllables))
        fault = draw(st.sampled_from(
            ["none", "position", "feature", "stress", "nucleus"]))
        if fault == "position":
            syl["position"] = draw(st.integers(-1, n) | st.booleans())
        elif fault == "feature":
            syl["features"][draw(st.integers(0, 11))] = draw(feature_values)
        elif fault == "stress":
            syl["stress"] = draw(st.sampled_from([True, 3, -1, "1", 1.0]))
        elif fault == "nucleus":
            syl["nucleus"] = draw(st.sampled_from(["zz", "", None, 1]))
    return json.dumps(word_doc(syllables)).encode()


class TestReaderOracle:
    @pytest.mark.parametrize("case", sorted(EDGE_LINES))
    def test_edge_lines(self, case):
        doc, accepted = EDGE_LINES[case]
        assert assert_reads_as_oracle(json.dumps(doc).encode()) == accepted

    @pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
    def test_malformed_lines(self, case):
        bad = MALFORMED_LINES[case]
        if callable(bad):
            doc = copy.deepcopy(VALID_RECORD)
            bad(doc)
            bad = json.dumps(doc)
        assert not assert_reads_as_oracle(bad.encode())

    @given(mutated_records())
    @settings(max_examples=300, deadline=None)
    def test_mutated_records(self, line):
        assert_reads_as_oracle(line)

    @given(table_lines())
    @settings(max_examples=300, deadline=None)
    def test_drawn_words(self, line):
        # one drawn fault may come with the count fault of 0 or 18
        # syllables; the reader may then name the other one
        assert_reads_as_oracle(line, same_message=False)


def oracle_line(rec) -> str:
    """The record's table line as json.dumps writes its document."""
    return json.dumps({
        "utterance_id": rec.utterance_id,
        "word": rec.word,
        "syllables": [
            {"position": i, "features": [float(x) for x in row],
             "nucleus": tag, "stress": stress}
            for i, (row, tag, stress) in enumerate(zip(
                rec.features, rec.nucleus_tags, rec.stresses))],
    }, sort_keys=True) + "\n"


def oracle_table_bytes(records) -> bytes:
    return "".join(map(oracle_line, records)).encode()


def written_bytes(records) -> bytes:
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        write_feature_table(records, path)
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.unlink(path)


# floats whose repr takes every form: signed zeros, subnormals, the
# extremes, integral values and exponents
float_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
     1.7976931348623157e308, 1.0, -3.0, 2.0 ** 60, 1e16, 1e-5, 0.1])


@st.composite
def drawn_records(draw):
    n = draw(st.integers(0, 4))
    return WordRecord(
        draw(st.text(max_size=8)), draw(st.text(max_size=8)),
        np.array(draw(st.lists(st.lists(float_values, min_size=12,
                                         max_size=12),
                               min_size=n, max_size=n)),
                 dtype=np.float64).reshape(n, 12),
        draw(st.lists(st.sampled_from(NUCLEUS_TAGS) | st.text(max_size=3),
                      min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from([None, 0, 1, 2]), min_size=n,
                      max_size=n)))


class TestWriterOracle:
    @pytest.mark.parametrize("noise,labeling", [
        (0.0, "dictionary"), (0.75, "dictionary"), (0.75, "relative_duration")])
    def test_synth_tables(self, lexicon, noise, labeling):
        _, recs = synth_corpus(lexicon, 40, GenConfig(noise, labeling), seed=1)
        assert written_bytes(recs) == oracle_table_bytes(recs)

    @given(st.lists(drawn_records(), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_drawn_records(self, records):
        assert written_bytes(records) == oracle_table_bytes(records)

    def test_text_escapes(self):
        text = 'a"b\\c\n\t\x00\x1f\x7f é 雪 \U0001f600'
        rec = WordRecord(text, text, np.zeros((1, 12)), [text], [None])
        assert written_bytes([rec]) == oracle_table_bytes([rec])
