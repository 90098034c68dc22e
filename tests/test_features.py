import copy
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressnet.corpus import instances_from_table
from stressnet.dsp import IntensityTrack, PitchTrack
from stressnet.errors import InvalidSpan, SpanOutOfRange, StressnetError
from stressnet.features import (
    FEATURE_SLOTS,
    RawSyllableFeatures,
    extract_features,
    normalize_sentence,
    read_feature_table,
)

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
