import copy
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stressnet.corpus import IGNORE_LABEL, GenConfig, Instances, synth_corpus
from stressnet.dsp import Track
from stressnet.errors import (FormatError, InvalidSpan, ShapeError, SpanOutOfRange,
                              StressnetError)
from stressnet.features import (
    FEATURE_SLOTS,
    MAX_SYLLABLES,
    N_FEATURES,
    TableLine,
    extract_features,
    normalize_sentence,
    read_feature_table,
    read_table_lines,
    write_feature_table,
)
from stressnet.lexicon import NUCLEUS_TAGS
from conftest import (MALFORMED_LINES, Record, assert_same_array,
                      assert_same_table, float_values, pack_records, table_records)
from oracles import (oracle_extract_features, oracle_instance,
                     oracle_normalize_sentence, oracle_read_table, oracle_record,
                     oracle_table_bytes)

HOP = 0.01


def tracks(pitch_values, int_values):
    """Pitch and intensity tracks on one frame grid, a frame per value."""
    times = HOP / 2 + HOP * np.arange(len(pitch_values))
    return (Track(HOP, times, np.asarray(pitch_values, dtype=np.float64)),
            Track(HOP, times, np.asarray(int_values, dtype=np.float64)))


def one(pitch, intensity, syllable_span, nucleus_span):
    """extract_features on one syllable: its row of 12."""
    (row,) = extract_features(pitch, intensity, [(*syllable_span, *nucleus_span)])
    return row


class TestExtractFeatures:
    def test_hand_computed_vector(self):
        pitch, intensity = tracks([100.0, 120.0, np.nan, 140.0],
                                  [-10.0, -20.0, -30.0, -40.0])
        v = one(pitch, intensity, (0.0, 0.04), (0.01, 0.03))
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
        v = one(pitch, intensity, (0.0, 0.02), (0.0, 0.02))
        assert np.isnan(v[0]) and np.isnan(v[1])  # ABSENT
        assert v[2] == 0.0
        assert v[3] == pytest.approx(-11.0)

    def test_identical_spans_identical_six(self):
        pitch, intensity = tracks([100.0, 110.0], [-5.0, -6.0])
        v = one(pitch, intensity, (0.0, 0.02), (0.0, 0.02))
        assert v[:6].tobytes() == v[6:].tobytes()

    def test_nucleus_outside_syllable(self):
        pitch, intensity = tracks([100.0], [-5.0])
        with pytest.raises(InvalidSpan):
            one(pitch, intensity, (0.0, 0.01), (0.0, 0.02))

    def test_span_outside_extent(self):
        pitch, intensity = tracks([100.0], [-5.0])
        with pytest.raises(SpanOutOfRange):
            one(pitch, intensity, (3.0, 3.1), (3.0, 3.1))

    def test_first_bad_syllable_decides_the_error(self):
        pitch, intensity = tracks([100.0] * 10, [-5.0] * 10)
        spans = [(0.0, 0.02, 0.0, 0.02),
                 (3.0, 3.1, 3.0, 3.1),      # outside both tracks
                 (0.02, 0.04, 0.0, 0.04)]   # nucleus outside its syllable
        with pytest.raises(SpanOutOfRange, match="3.0"):
            extract_features(pitch, intensity, spans)
        with pytest.raises(InvalidSpan):
            extract_features(pitch, intensity, spans[::-1])

    def test_tracks_on_different_grids(self):
        # two lengths, two hops, or frame times shifted by a quarter hop:
        # refused before any span is looked at
        pitch, intensity = tracks([100.0] * 10, [-5.0] * 10)
        times = intensity.times_s
        for other in (Track(HOP, times[:2], intensity.values[:2]),
                      Track(2 * HOP, times, intensity.values),
                      Track(HOP, times + HOP / 4, intensity.values)):
            for a, b in ((pitch, other), (other, pitch)):
                with pytest.raises(ShapeError, match="one frame grid"):
                    one(a, b, (0.0, 0.02), (0.03, 0.01))

    def test_nucleus_extent_is_not_checked(self):
        # a nucleus before the first frame, inside a syllable that reaches
        # into the tracks, is no error
        pitch, intensity = tracks([100.0, 110.0], [-5.0, -6.0])
        v = one(pitch, intensity, (-0.5, 0.02), (-0.5, -0.4))
        assert np.isnan(v[6]) and v[9] == -5.0  # the nearest frame

    def test_no_syllables(self):
        out = extract_features(*tracks([], []), np.empty((0, 4)))
        assert out.shape == (0, N_FEATURES)

    def test_track_without_frames(self):
        pitch, intensity = tracks([], [])
        with pytest.raises(SpanOutOfRange, match="no frames"):
            one(pitch, intensity, (0.0, 0.01), (0.0, 0.01))

    @given(case=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_per_syllable_oracle(self, case):
        pitch, intensity, spans = case.draw(tracks_and_spans())
        try:
            want = oracle_extract_features(pitch, intensity, spans)
        except StressnetError as exc:
            with pytest.raises(type(exc)) as info:
                extract_features(pitch, intensity, spans)
            assert str(info.value) == str(exc)
            return
        got = extract_features(pitch, intensity, spans)
        assert got.shape == (len(spans), N_FEATURES)
        assert got.tobytes() == want.tobytes()

    def test_twelve_named_slots(self):
        assert len(FEATURE_SLOTS) == 12


# --- extract_features against the per-syllable oracle ------------------------


@st.composite
def tracks_and_spans(draw):
    """Pitch and intensity tracks on one frame grid, pitch with unvoiced
    (NaN) runs, and syllable spans over them: on the grid of quarter hops
    (frame centres, frame edges, the first and the last frame) or
    anywhere, some shorter than a hop so that no frame centre falls
    inside, some a little outside the tracks, and nuclei that may equal
    their syllables."""
    hop = draw(st.sampled_from([0.01, 0.0125, 0.004]))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f0 = rng.uniform(60.0, 400.0, n)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, n - 1))
        f0[at:at + draw(st.integers(1, 12))] = np.nan
    times = hop / 2 + hop * np.arange(n)
    pitch = Track(hop, times, f0)
    intensity = Track(hop, times, rng.uniform(-60.0, 0.0, n))
    point = (st.integers(-1, 4 * n + 1).map(lambda q: q * hop / 4)
             | st.floats(0.0, n * hop))
    spans = []
    for _ in range(draw(st.integers(0, 8))):
        s0, s1 = sorted(draw(st.tuples(point, point)))
        if s0 == s1:
            s1 = s0 + draw(st.sampled_from([0.2, 0.5, 1.0])) * hop
        if draw(st.booleans()):
            n0, n1 = s0, s1
        else:
            n0, n1 = sorted(draw(st.tuples(st.floats(s0, s1), st.floats(s0, s1))))
            if n0 == n1:
                n0, n1 = s0, s1
        spans.append((s0, s1, n0, n1))
    return pitch, intensity, np.array(spans, dtype=np.float64).reshape(-1, 4)


def sentence(*rows):
    """Rows of 12 values as a raw feature matrix; None becomes NaN."""
    return np.array(rows, dtype=np.float64).reshape(-1, N_FEATURES)


def filled(value):
    return [value] * 12


class TestNormalizeSentence:
    def test_mean_subtraction(self):
        out = normalize_sentence(sentence(filled(0.1), filled(0.3)))
        assert out[0] == pytest.approx([-0.1] * 12)
        assert out[1] == pytest.approx([0.1] * 12)

    def test_single_syllable_all_zero(self):
        out = normalize_sentence(sentence(filled(0.42)))
        assert np.allclose(out[0], 0.0)

    def test_absent_becomes_zero(self):
        a = [100.0, *[0.0] * 11]
        b = [None, *[0.0] * 11]
        c = [140.0, *[0.0] * 11]
        out = normalize_sentence(sentence(a, b, c))
        assert out[0][0] == pytest.approx(-20.0)
        assert out[1][0] == 0.0
        assert out[2][0] == pytest.approx(20.0)

    def test_all_absent_slot_is_zero(self):
        a = [None, *[1.0] * 11]
        b = [None, *[3.0] * 11]
        out = normalize_sentence(sentence(a, b))
        assert out[0][0] == 0.0 and out[1][0] == 0.0
        assert out[0][1] == pytest.approx(-1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        once = normalize_sentence(rng.normal(0, 10, (7, 12)))
        twice = normalize_sentence(once)
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
        out_a = normalize_sentence(sentence(*base))
        out_b = normalize_sentence(sentence(*shifted))
        for a, b in zip(out_a, out_b):
            assert np.allclose(a, b, atol=1e-9)

    def test_output_finite_no_absent(self):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(10):
            vals = list(rng.normal(0, 5, 12))
            for slot in (0, 1, 6, 7):
                if rng.random() < 0.5:
                    vals[slot] = None
            rows.append(vals)
        out = normalize_sentence(sentence(*rows))
        for v in out:
            assert np.isfinite(v).all()

    @given(st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=12, max_size=12),
        min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_per_slot_mean_is_zero(self, rows):
        out = normalize_sentence(sentence(*rows))
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
        want = np.array(oracle_normalize_sentence(values))
        got = normalize_sentence(sentence(*values))
        assert got.shape == (n, N_FEATURES)
        assert got.tobytes() == want.tobytes()


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
        return read_feature_table(path)
    finally:
        os.unlink(path)


class TestFeatureTableFuzz:
    """Whatever a feature table holds, reading it either works or raises a
    StressnetError."""

    def test_valid_record_reads(self):
        inst = read_instances([json.dumps(VALID_RECORD).encode()])
        assert len(inst) == 1
        assert inst.offsets.tolist() == [0, 3]
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
# The reader must accept exactly the lines the oracle accepts and give the
# same bytes; a faulty line gets the same message too, that of its first
# fault.


def assert_reads_as_oracle(line: bytes) -> bool:
    """Whether the line is accepted; fails unless the reader, given a table
    of that one line, agrees with the oracle on that, and on the word or
    the error."""
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(line)
        try:
            want = oracle_record(line)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                read_feature_table(path)
            assert str(got.value) == f"{path}:1: {exc}"
            return False
        inst = read_feature_table(path)
    finally:
        os.unlink(path)
    want_inst = oracle_instance(*want)
    assert (inst.utterance_ids, inst.words) == ([want[0]], [want[1]])
    assert inst.offsets.tolist() == [0, len(want[2])]
    for name, got, expected in (
            ("features", inst.features, want_inst.features),
            ("types", inst.types, want_inst.type_indices),
            ("labels", inst.labels, want_inst.labels)):
        assert_same_array(got, expected, name)
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
        # syllables; the reader names the one the oracle names
        assert_reads_as_oracle(line)


# --- whole tables against the line-at-a-time oracle ---------------------------
#
# read_feature_table checks each line completely as it parses it, and
# converts the features of 64 words at a time. The oracle reads a line at
# a time with oracle_record; the first faulty line in file order decides,
# whichever chunk holds it, and within a line its first fault.


def two_faults(value, later):
    """A word's numeric fault, value as feature 0 of its first syllable,
    and after it the structural fault later(syllables) makes: on a
    syllable added last (valid until then), or in the count or the
    positions."""
    def fault(doc):
        syllables = doc["syllables"]
        first = syllables[0]
        syllables.append({**first, "position": len(syllables),
                          "features": list(first["features"])})
        first["features"][0] = value
        later(syllables)
    return fault


# one fault each, numeric (a feature not finite or beyond the float range)
# or structural; or a numeric one and a later structural one in one word
TABLE_FAULTS = {
    "nan_feature": lambda doc: doc["syllables"][0]["features"].__setitem__(
        3, float("nan")),
    "infinite_feature": lambda doc: doc["syllables"][-1]["features"].__setitem__(
        11, float("-inf")),
    "int_beyond_float": lambda doc: doc["syllables"][0]["features"].__setitem__(
        0, 10 ** 400),
    "stress_out_of_range": lambda doc: doc["syllables"][0].update(stress=3),
    "unknown_nucleus": lambda doc: doc["syllables"][-1].update(nucleus="zz"),
    "position_gap": lambda doc: doc["syllables"][0].update(
        position=len(doc["syllables"])),
    "no_syllables": lambda doc: doc.update(syllables=[]),
    "bad_json": None,
    "inf_then_stress_5": two_faults(
        float("inf"), lambda syls: syls[-1].update(stress=5)),
    "nan_then_unknown_nucleus": two_faults(
        float("nan"), lambda syls: syls[-1].update(nucleus="zz")),
    "int_beyond_float_then_string_position": two_faults(
        10 ** 400, lambda syls: syls[-1].update(position="1")),
    "negative_inf_then_18_syllables": two_faults(
        float("-inf"), lambda syls: syls.extend(
            {**syls[-1], "position": p} for p in range(len(syls), 18))),
    "negative_int_beyond_float_then_duplicate_position": two_faults(
        -10 ** 400, lambda syls: syls[-1].update(position=syls[0]["position"])),
}
BLANK_LINES = [b"", b" ", b"\t \r", b"\x0c  "]


def drawn_table_bytes(n_words, seed, faults, blanks) -> bytes:
    """n_words seeded valid words of 1 to 4 syllables in any order, some
    features integers, each line maybe indented. faults holds (word, fault
    name) pairs, one fault a word; blanks holds (index, blank line) pairs,
    the blank line going before that word (after the last at n_words)."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n_words):
        n = int(rng.integers(1, 5))
        rows = rng.normal(0.0, 50.0, (n, N_FEATURES)).tolist()
        for row in rows:
            row[int(rng.integers(N_FEATURES))] = int(rng.integers(-1000, 1000))
        doc = {"utterance_id": f"u{rng.integers(4)}", "word": f"w{i}é",
               "syllables": [
                   {"position": p, "features": rows[p],
                    "nucleus": NUCLEUS_TAGS[int(rng.integers(len(NUCLEUS_TAGS)))],
                    "stress": [None, 0, 1, 2][int(rng.integers(4))]}
                   for p in rng.permutation(n).tolist()]}
        line = json.dumps(doc)
        for word, fault in faults:
            if word == i:
                if TABLE_FAULTS[fault] is None:
                    line = line[:len(line) // 2]
                else:
                    TABLE_FAULTS[fault](doc)
                    line = json.dumps(doc)
        lines.append(" " * int(rng.integers(3)) + line + " " * int(rng.integers(2)))
    for index, blank in sorted(blanks, key=lambda b: b[0], reverse=True):
        lines.insert(index, blank.decode())
    return "".join(line + "\n" for line in lines).encode()


@st.composite
def drawn_tables(draw):
    """drawn_table_bytes arguments: up to 140 words (chunk boundaries at
    64 and 128), up to 3 faulty words and up to 4 blank lines."""
    n_words = draw(st.integers(0, 140))
    faults = draw(st.lists(st.tuples(st.integers(0, n_words - 1),
                                     st.sampled_from(sorted(TABLE_FAULTS))),
                           max_size=3, unique_by=lambda f: f[0])) if n_words else []
    blanks = draw(st.lists(st.tuples(st.integers(0, n_words),
                                     st.sampled_from(BLANK_LINES)), max_size=4))
    return n_words, draw(st.integers(0, 2 ** 32 - 1)), faults, blanks


class TestTableOracle:
    """read_feature_table equals pack_records of the oracle's records bit
    for bit, or raises the oracle's first error with the same
    path:line message; read_table_lines gives the same lines."""

    # faults on either side of the first chunk boundary (word index 63
    # ends the first chunk of 64), a numeric one before or after a
    # structural one, and one after blank lines
    @example(table=(130, 1, [(64, "nan_feature"), (65, "stress_out_of_range")], []))
    @example(table=(130, 2, [(64, "int_beyond_float"), (65, "bad_json")], []))
    @example(table=(130, 3, [(63, "infinite_feature"), (64, "no_syllables")], []))
    @example(table=(130, 4, [(65, "nan_feature"), (64, "position_gap")], []))
    @example(table=(130, 5, [(65, "int_beyond_float"), (64, "nan_feature")], []))
    @example(table=(130, 6, [(64, "int_beyond_float")], [(10, b" "), (64, b"")]))
    @example(table=(130, 7, [(127, "nan_feature"), (128, "unknown_nucleus")], []))
    @example(table=(64, 8, [], [(64, b"\t \r")]))
    @example(table=(0, 9, [], [(0, b" ")]))
    # two faults in one line: the numeric one comes first
    @example(table=(3, 10, [(1, "inf_then_stress_5")], []))
    @example(table=(3, 11, [(0, "nan_then_unknown_nucleus")], []))
    @example(table=(70, 12, [(66, "int_beyond_float_then_string_position")], []))
    @example(table=(3, 13, [(2, "negative_inf_then_18_syllables")], [(1, b"")]))
    @example(table=(3, 14, [(1, "negative_int_beyond_float_then_duplicate_position")],
                    []))
    @given(table=drawn_tables())
    @settings(max_examples=100, deadline=None)
    def test_drawn_tables(self, tmp_path_factory, table):
        path = str(tmp_path_factory.mktemp("t") / "t.jsonl")
        data = drawn_table_bytes(*table)
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            want, spans = oracle_read_table(path, data)
        except FormatError as exc:
            for read in (read_feature_table, read_table_lines):
                with pytest.raises(FormatError) as got:
                    read(path)
                assert str(got.value) == str(exc)
            return
        assert_same_table(read_feature_table(path), want)
        lines = read_table_lines(path)
        assert lines == [TableLine(u, data[first:stop]) for u, (first, stop)
                         in zip(want.utterance_ids, spans)]


def written(table) -> tuple[bytes, Instances]:
    """The bytes write_feature_table writes for the table, and the table
    read_feature_table reads back from them."""
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        write_feature_table(table, path)
        with open(path, "rb") as fh:
            return fh.read(), read_feature_table(path)
    finally:
        os.unlink(path)


@st.composite
def drawn_instances(draw):
    """Up to 3 words of 1 to MAX_SYLLABLES syllables: any texts, any tags,
    null labels too, and features whose repr takes every form."""
    counts = draw(st.lists(st.integers(1, MAX_SYLLABLES), max_size=3))
    n = sum(counts)

    def texts():
        return draw(st.lists(st.text(max_size=8), min_size=len(counts),
                             max_size=len(counts)))

    def column(values, size):
        return draw(st.lists(values, min_size=size, max_size=size))

    return Instances.from_counts(
        texts(), texts(), counts,
        np.array(column(float_values, n * N_FEATURES)).reshape(n, N_FEATURES),
        np.array(column(st.integers(0, len(NUCLEUS_TAGS) - 1), n), dtype=np.int64),
        np.array(column(st.sampled_from([IGNORE_LABEL, 0, 1, 2]), n), dtype=np.int64))


class TestWriterOracle:
    """write_feature_table writes the bytes of json.dumps per record, and
    read_feature_table reads the table back bit for bit."""

    @pytest.mark.parametrize("noise,labeling", [
        (0.0, "dictionary"), (0.75, "dictionary"), (0.75, "relative_duration")])
    def test_synth_tables(self, lexicon, noise, labeling):
        _, table = synth_corpus(lexicon, 40, GenConfig(noise, labeling), seed=1)
        data, back = written(table)
        assert data == oracle_table_bytes(table_records(table))
        assert_same_table(back, table)

    # one word with every tag, its labels unknown
    @example(table=Instances.from_counts(
        ["u"], ["w"], [len(NUCLEUS_TAGS)], np.zeros((len(NUCLEUS_TAGS), N_FEATURES)),
        np.arange(len(NUCLEUS_TAGS), dtype=np.int64),
        np.full(len(NUCLEUS_TAGS), IGNORE_LABEL, dtype=np.int64)))
    @given(table=drawn_instances())
    @settings(max_examples=100, deadline=None)
    def test_drawn_instances(self, table):
        data, back = written(table)
        assert data == oracle_table_bytes(table_records(table))
        assert_same_table(back, table)

    def test_text_escapes(self):
        text = 'a"b\\c\n\t\x00\x1f\x7f é 雪 \U0001f600'
        table = pack_records([Record(text, text, np.zeros((1, 12)), ["ah"], [None])])
        data, back = written(table)
        assert data == oracle_table_bytes(table_records(table))
        assert_same_table(back, table)
