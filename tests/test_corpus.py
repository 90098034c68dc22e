import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stressnet.corpus import (
    COUNT_MISMATCH,
    IGNORE_LABEL,
    MONOSYLLABIC,
    NOT_IN_LEXICON,
    UTTERANCE_EXCLUDED,
    GenConfig,
    UtteranceAlignment,
    compute_class_weights,
    instances_from_table,
    label_utterance,
    load_alignment,
    parse_alignment,
    save_alignment,
    split,
    synth_corpus,
    weights_from_proportions,
)
from stressnet.errors import (
    ConfigError,
    FormatError,
    ShapeError,
    SplitTooSmall,
    StressnetError,
)
from stressnet.features import MAX_SYLLABLES
from stressnet.lexicon import NUCLEUS_TAGS, TAG_TO_INDEX, StressLevel
from stressnet.model import FEATURE_MODES, ModelConfig, make_batch
from conftest import (Record, assert_same_array, assert_same_corpus,
                      assert_same_table, float_values, pack_records, split_table,
                      table_records)
from oracles import (oracle_class_weights, oracle_flatten, oracle_instances,
                     oracle_make_batch, oracle_synth_corpus)


def make_word(text, n_syllables, start=0.0, dur=0.2):
    sylls = []
    t = start
    for _ in range(n_syllables):
        sylls.append({
            "start_s": round(t, 6), "end_s": round(t + dur, 6),
            "nucleus": {"start_s": round(t + 0.05, 6),
                        "end_s": round(t + 0.15, 6)},
        })
        t += dur
    return {"text": text, "syllables": sylls}, t


def make_alignment(words_spec, utt_id="utt-1"):
    words = []
    t = 0.0
    for text, n in words_spec:
        w, t = make_word(text, n, start=t)
        words.append(w)
        t += 0.05
    return {"schema": 1, "utterance_id": utt_id, "audio_path": None,
            "words": words}


class TestAlignmentSchema:
    def test_round_trip(self, tmp_path):
        doc = make_alignment([("overcome", 3), ("maybe", 2)])
        al = parse_alignment(doc)
        assert len(al.words) == 2
        path = tmp_path / "a.json"
        save_alignment(al, str(path))
        assert load_alignment(str(path)) == al

    def test_nucleus_outside_syllable(self):
        doc = make_alignment([("cat", 1)])
        doc["words"][0]["syllables"][0]["nucleus"]["end_s"] = 9.9
        with pytest.raises(FormatError, match="nucleus span outside syllable span"):
            parse_alignment(doc)

    def test_overlapping_syllables(self):
        doc = make_alignment([("maybe", 2)])
        doc["words"][0]["syllables"][1]["start_s"] = 0.1
        with pytest.raises(FormatError, match="overlaps previous syllable"):
            parse_alignment(doc)

    def test_empty_word_list_valid(self):
        al = parse_alignment({"schema": 1, "utterance_id": "u",
                              "audio_path": None, "words": []})
        assert al.words == ()

    def test_missing_field(self):
        with pytest.raises(FormatError):
            parse_alignment({"schema": 1, "utterance_id": "u"})

    def test_wrong_schema_version(self):
        doc = make_alignment([])
        doc["schema"] = 2
        with pytest.raises(FormatError):
            parse_alignment(doc)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            load_alignment(str(path))

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(words=[5]),
        lambda doc: doc["words"][0].update(syllables=[7]),
        lambda doc: doc["words"][0]["syllables"][0].update(nucleus=5),
        lambda doc: doc["words"][0]["syllables"][0].update(start_s=10**400),
        lambda doc: doc.update(audio_path=["a.wav"]),
        lambda doc: doc["words"][0]["syllables"][0]["nucleus"].update(tag=3),
        lambda doc: doc["words"][0]["syllables"][1]["nucleus"].update(tag=["ow"]),
    ], ids=["word", "syllable", "nucleus", "huge_time", "audio_path",
            "tag_number", "tag_list"])
    def test_wrong_json_type(self, edit):
        doc = make_alignment([("maybe", 2)])
        edit(doc)
        with pytest.raises(FormatError):
            parse_alignment(doc)

    @pytest.mark.parametrize("edit,where", [
        (lambda doc: doc.update(schema=True), "unsupported schema True"),
        (lambda doc: doc.update(schema=1.0), "unsupported schema 1.0"),
        (lambda doc: doc.update(utterance_id=None), "'utterance_id' must be"),
        (lambda doc: doc.update(utterance_id=7), "'utterance_id' must be"),
        (lambda doc: doc["words"][1].update(text=True), r"word\[1\]: 'text'"),
        (lambda doc: doc["words"][0].update(text=["a"]), r"word\[0\]: 'text'"),
        (lambda doc: doc["words"][0]["syllables"][1].update(start_s="0.1"),
         r"word\[0\]\.syllable\[1\]: start_s/end_s"),
        (lambda doc: doc["words"][0]["syllables"][0].update(end_s=True),
         r"word\[0\]\.syllable\[0\]: start_s/end_s"),
        (lambda doc: doc["words"][1]["syllables"][0]["nucleus"].update(
            start_s=False), r"word\[1\]\.syllable\[0\]\.nucleus: start_s"),
    ], ids=["schema_true", "schema_float", "utterance_id_null",
            "utterance_id_number", "text_true", "text_list", "start_string",
            "end_true", "nucleus_start_false"])
    def test_field_types_are_not_converted(self, edit, where):
        doc = make_alignment([("maybe", 2), ("overcome", 3)])
        edit(doc)
        with pytest.raises(FormatError, match=where):
            parse_alignment(doc)

    def test_integer_times_are_numbers(self):
        doc = make_alignment([("cat", 1)])
        doc["words"][0]["syllables"][0].update(start_s=0, end_s=2)
        doc["words"][0]["syllables"][0]["nucleus"].update(start_s=0, end_s=1)
        (syl,) = parse_alignment(doc).words[0].syllables
        assert (syl.start_s, syl.end_s, syl.nucleus.end_s) == (0.0, 2.0, 1.0)
        assert all(type(t) is float for t in (syl.start_s, syl.nucleus.start_s))

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"schema": 1, "utterance_id": "caf\xe9"}'.encode("latin-1"))
        with pytest.raises(FormatError):
            load_alignment(str(path))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)


@st.composite
def mutated_alignments(draw):
    """A valid alignment document with one field dropped or replaced."""
    doc = make_alignment([("overcome", 3), ("maybe", 2)])
    containers = [doc]
    for word in doc["words"]:
        containers.append(word)
        for syl in word["syllables"]:
            containers += [syl, syl["nucleus"]]
    container = draw(st.sampled_from(containers))
    key = draw(st.sampled_from(sorted(container)))
    if draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(json_values)
    return json.dumps(doc).encode()


def load_alignment_bytes(blob: bytes):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        return load_alignment(path)
    finally:
        os.unlink(path)


class TestAlignmentFuzz:
    """Whatever an alignment file holds, load_alignment either parses it
    or raises a StressnetError."""

    @given(st.binary(max_size=80) | st.text(max_size=80).map(str.encode))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, blob):
        try:
            load_alignment_bytes(blob)
        except StressnetError:
            pass

    @given(mutated_alignments())
    @settings(max_examples=400, deadline=None)
    def test_mutated_documents(self, blob):
        try:
            load_alignment_bytes(blob)
        except StressnetError:
            pass


@st.composite
def parsed_alignments(draw):
    """An alignment that parse_alignment accepts: any text, times from
    tiny to huge, audio path (without a NUL byte) and nucleus tags present
    or null."""
    text = st.text(max_size=6)
    words = []
    t = draw(st.floats(-1e6, 1e6))
    for _ in range(draw(st.integers(0, 3))):
        sylls = []
        for _ in range(draw(st.integers(1, 3))):
            start = t
            t = start + draw(st.floats(1e-9, 1e9))
            sylls.append({"start_s": start, "end_s": t, "nucleus": {
                "start_s": start, "end_s": t, "tag": draw(st.none() | text)}})
        words.append({"text": draw(text), "syllables": sylls})
    doc = {"schema": 1, "utterance_id": draw(text),
           "audio_path": draw(st.none() | st.text(
               st.characters(exclude_characters="\0"), max_size=6)),
           "words": words}
    try:
        return parse_alignment(doc)
    except FormatError as exc:  # a step too small to move a large time
        assert "bad span" in str(exc)
        assume(False)


def alignment_to_doc(al: UtteranceAlignment) -> dict:
    return {
        "schema": 1,
        "utterance_id": al.utterance_id,
        "audio_path": al.audio_path,
        "words": [
            {
                "text": w.text,
                "syllables": [
                    {
                        "start_s": s.start_s,
                        "end_s": s.end_s,
                        "nucleus": {
                            "start_s": s.nucleus.start_s,
                            "end_s": s.nucleus.end_s,
                            "tag": s.nucleus.tag,
                        },
                    }
                    for s in w.syllables
                ],
            }
            for w in al.words
        ],
    }


class TestSaveAlignment:
    """save_alignment writes json.dump(alignment_to_doc(al),
    sort_keys=True, indent=1) and a newline, byte for byte."""

    @staticmethod
    def assert_written_as_json(al):
        fd, path = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        try:
            save_alignment(al, path)
            with open(path, "rb") as fh:
                written = fh.read()
            assert load_alignment(path) == al
        finally:
            os.unlink(path)
        expected = json.dumps(alignment_to_doc(al), sort_keys=True, indent=1)
        assert written == (expected + "\n").encode("utf-8")

    @pytest.mark.parametrize("gen", [
        GenConfig(), GenConfig(noise=0.75),
        GenConfig(labeling="relative_duration")])
    def test_synth_alignments(self, lexicon, gen):
        alignments, _ = synth_corpus(lexicon, 30, gen, seed=5)
        for al in alignments:
            self.assert_written_as_json(al)

    def test_no_words_and_non_ascii_text(self):
        self.assert_written_as_json(parse_alignment(
            {"schema": 1, "utterance_id": "u", "audio_path": None, "words": []}))
        doc = make_alignment([("caf\xe9\u2014\U0001f600\"\\", 2)],
                             utt_id="\u00fctt\n1")
        doc["audio_path"] = "a/\u00e9.wav"
        doc["words"][0]["syllables"][0]["nucleus"]["tag"] = "\u0259\t"
        self.assert_written_as_json(parse_alignment(doc))

    @given(parsed_alignments())
    @settings(max_examples=200, deadline=None)
    def test_any_parsed_alignment(self, al):
        self.assert_written_as_json(al)


class TestLabelUtterance:
    def test_overcome_labels(self, lexicon):
        al = parse_alignment(make_alignment([("overcome", 3)]))
        records, exclusions = label_utterance(al, lexicon)
        assert not exclusions
        (rec,) = table_records(records)
        assert rec.stresses == [2, 0, 1]
        assert rec.nucleus_tags == ["ow", "er", "ah"]
        assert rec.features.shape == (3, 12)

    def test_monosyllabic_excluded(self, lexicon):
        al = parse_alignment(make_alignment([("cat", 1), ("maybe", 2)]))
        instances, exclusions = label_utterance(al, lexicon)
        assert len(instances) == 1
        assert exclusions[0].reason == MONOSYLLABIC
        assert exclusions[0].word == "cat"

    def test_count_mismatch_excluded(self, lexicon):
        # every OVERCOME variant has 3 syllables
        al = parse_alignment(make_alignment([("overcome", 2)]))
        instances, exclusions = label_utterance(al, lexicon)
        assert not instances
        assert exclusions[0].reason == COUNT_MISMATCH

    def test_unknown_word_excluded(self, lexicon):
        al = parse_alignment(make_alignment([("zyxxyz", 2)]))
        _, exclusions = label_utterance(al, lexicon)
        assert exclusions[0].reason == NOT_IN_LEXICON

    def test_variant_matching_by_count(self, lexicon):
        # SEPARATE has a 3-syllable and a 2-syllable variant
        al3 = parse_alignment(make_alignment([("separate", 3)]))
        al2 = parse_alignment(make_alignment([("separate", 2)]))
        (r3,) = table_records(label_utterance(al3, lexicon)[0])
        (r2,) = table_records(label_utterance(al2, lexicon)[0])
        assert len(r3.stresses) == 3
        assert len(r2.stresses) == 2

    def test_exclusion_scope_utterance(self, lexicon):
        al = parse_alignment(make_alignment([("zyxxyz", 2), ("maybe", 2)]))
        instances, exclusions = label_utterance(
            al, lexicon, exclusion_scope="utterance")
        assert not instances
        reasons = {e.word: e.reason for e in exclusions}
        assert reasons["zyxxyz"] == NOT_IN_LEXICON
        assert reasons["maybe"] == UTTERANCE_EXCLUDED

    def test_records_hold_their_rows_of_the_utterance_matrix(self, lexicon):
        al = parse_alignment(make_alignment([("cat", 1), ("maybe", 2),
                                             ("overcome", 3)]))
        features = np.arange(6 * 12, dtype=np.float64).reshape(6, 12)
        maybe, overcome = table_records(label_utterance(al, lexicon, features)[0])
        assert maybe.features.tobytes() == features[1:3].tobytes()
        assert overcome.features.tobytes() == features[3:6].tobytes()
        with pytest.raises(ShapeError):
            label_utterance(al, lexicon, features[:5])

    def test_accounting_invariant(self, lexicon):
        al = parse_alignment(make_alignment(
            [("cat", 1), ("maybe", 2), ("zyxxyz", 3), ("overcome", 3)]))
        instances, exclusions = label_utterance(al, lexicon)
        assert len(instances) + len(exclusions) == len(al.words)


@st.composite
def packable_records(draw):
    """A valid word record of 1 to 17 syllables: any tags, gold or null
    stresses, and one drawn feature row rotated by position."""
    n = draw(st.integers(1, MAX_SYLLABLES), label="n")
    row = draw(st.lists(float_values, min_size=12, max_size=12), label="row")
    return Record(
        draw(st.sampled_from(["u0", "u1", "u2"])), draw(st.text(max_size=3)),
        np.array([row[p % 12:] + row[:p % 12] for p in range(n)]),
        draw(st.lists(st.sampled_from(NUCLEUS_TAGS), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from([None, 0, 1, 2]), min_size=n, max_size=n)))


class TestInstancesFromTable:
    def test_padding_invariant(self):
        """A word owns its n syllables' rows in position order, no padding;
        a tag becomes its index and an unknown stress IGNORE_LABEL."""
        rec = Record("u", "w", np.repeat([[1.0], [2.0]], 12, axis=1),
                     ["iy", "ax"], [int(StressLevel.PRIMARY), None])
        inst = pack_records([rec])
        assert len(inst) == 1
        assert inst.offsets.tolist() == [0, 2]
        assert inst.features.shape == (2, 12)
        assert inst.features[:, 0].tolist() == [1.0, 2.0]
        assert inst.types.tolist() == [TAG_TO_INDEX["iy"], TAG_TO_INDEX["ax"]]
        assert inst.labels.tolist() == [int(StressLevel.PRIMARY), IGNORE_LABEL]

    def test_one_row_per_syllable_in_word_order(self, lexicon):
        _, instances = synth_corpus(lexicon, 3, GenConfig(noise=0.5), seed=4)
        recs = oracle_synth_corpus(lexicon, 3, GenConfig(noise=0.5), seed=4)[1]
        X, y = instances.features[:, :6], instances.labels
        assert X.shape == (sum(len(rec.stresses) for rec in recs), 6)
        row = 0
        for rec in recs:
            for i, stress in enumerate(rec.stresses):
                assert np.array_equal(X[row], rec.features[i, :6])
                assert y[row] == stress
                row += 1

    def test_empty_table_gives_zero_rows(self):
        instances = instances_from_table([])
        assert len(instances) == 0
        assert instances.offsets.tolist() == [0]
        assert instances.features.shape == (0, 12)
        assert instances.features[:, :6].shape == (0, 6)
        assert instances.types.shape == instances.labels.shape == (0,)

    def test_word_slices(self, lexicon):
        _, instances = synth_corpus(lexicon, 2, GenConfig(noise=0.5), seed=6)
        recs = table_records(instances)
        for start, stop in ((0, 3), (2, 5), (4, 4), (3, 1), (5, 10 ** 6)):
            assert_same_table(instances[start:stop], pack_records(recs[start:stop]))
        assert_same_table(instances[0:4:2], pack_records(recs[0:4:2]))
        assert_same_table(instances[[0, 1]], pack_records(recs[:2]))
        with pytest.raises(TypeError):
            instances[0]

    @given(records=st.lists(packable_records(), max_size=12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_picks_match_the_picked_records(self, records, data):
        """A slice of any step, an index array (repeats and negative
        indices too) or a boolean mask picks the words it names, in its
        order, packed as pack_records packs those records; and
        instances_from_table joins the two sides of any cut back into the
        table."""
        instances = pack_records(records)
        n = len(records)
        ends = st.none() | st.integers(-n - 2, n + 2)
        kind = data.draw(st.sampled_from(["slice", "index", "mask"]), label="kind")
        if kind == "slice":
            key = slice(data.draw(ends), data.draw(ends),
                        data.draw(st.none() | st.integers(-4, 4).filter(bool)))
            picked = records[key]
        elif kind == "index":
            key = np.array(data.draw(st.lists(
                st.integers(-n, n - 1), max_size=8) if n else st.just([])),
                dtype=np.int64)
            picked = [records[i] for i in key]
        else:
            key = np.array(data.draw(st.lists(
                st.booleans(), min_size=n, max_size=n)), dtype=bool)
            picked = [r for r, keep in zip(records, key) if keep]
        assert_same_table(instances[key], pack_records(picked))
        cut = data.draw(st.integers(0, n), label="cut")
        assert_same_table(instances_from_table([instances[:cut], instances[cut:]]),
                          instances)
        # one word is not a table, nor is a 2-D pick
        for key in (0, -1, np.int64(0), np.zeros((1, 1), dtype=np.int64),
                    np.ones((1, n), dtype=bool)):
            with pytest.raises(TypeError):
                instances[key]

    @given(records=st.lists(packable_records(), max_size=40),
           mode=st.sampled_from(FEATURE_MODES), weighted=st.booleans(),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arrays_match_the_per_word_oracle(self, records, mode, weighted,
                                              data):
        got = pack_records(records)
        words = oracle_instances(records)
        assert got.utterance_ids == [w.utterance_id for w in words]
        assert got.words == [w.word for w in words]
        assert_same_array(got.offsets, np.cumsum(
            [0] + [len(w.labels) for w in words], dtype=np.int64), "offsets")
        features, labels = oracle_flatten(words, 12)
        assert_same_array(got.features, features, "features")
        assert_same_array(got.labels, labels, "labels")
        assert_same_array(got.types, np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [w.type_indices for w in words]),
            "types")
        if not records:
            return
        config = ModelConfig(d_model=4, n_heads=2, n_layers=1, feature_mode=mode)
        table = (np.random.default_rng(len(records)).uniform(0.1, 1.0, (16, 3))
                 if weighted else None)
        batch = make_batch(got, config, table)
        want = oracle_make_batch(words, config, table)
        idx = np.array(data.draw(st.lists(
            st.integers(0, len(records) - 1), min_size=1, max_size=8)))
        for b, w in ((batch, want),
                     (make_batch(got[idx], config, table),
                      oracle_make_batch([words[i] for i in idx], config, table))):
            for name in ("features", "types", "mask", "labels", "weights"):
                assert_same_array(getattr(b, name), getattr(w, name), name)


class TestSplit:
    def make_records(self, n_utts, per_utt=3):
        return [Record(f"utt-{u:03d}", f"w{w}", np.zeros((2, 12)),
                       ["iy", "iy"], [int(StressLevel.NON_STRESS)] * 2)
                for u in range(n_utts) for w in range(per_utt)]

    def test_seventy_thirty(self):
        inst = self.make_records(10)
        train, test = split(inst, 0.7, seed=5)
        assert len({i.utterance_id for i in train}) == 7
        assert len({i.utterance_id for i in test}) == 3

    def test_partition(self):
        inst = self.make_records(9)
        train, test = split(inst, 0.7, seed=1)
        train_ids = {id(i) for i in train}
        test_ids = {id(i) for i in test}
        assert not train_ids & test_ids
        assert len(train) + len(test) == len(inst)

    def test_deterministic_and_order_insensitive(self):
        inst = self.make_records(12)
        t1, _ = split(inst, 0.7, seed=9)
        t2, _ = split(list(reversed(inst)), 0.7, seed=9)
        assert {i.utterance_id for i in t1} == {i.utterance_id for i in t2}

    def test_all_train(self):
        inst = self.make_records(4)
        train, test = split(inst, 1.0, seed=0)
        assert len(test) == 0
        assert len(train) == len(inst)

    def test_too_small(self):
        inst = self.make_records(1)
        with pytest.raises(SplitTooSmall):
            split(inst, 0.7, seed=0)


class TestClassWeights:
    def test_bincount_matches_per_word_counting(self, lexicon):
        rng = np.random.default_rng(9)
        for trial in range(20):
            # a few tags only, so that some types go unseen
            tags = rng.choice(len(NUCLEUS_TAGS), int(rng.integers(1, 17)),
                              replace=False)
            recs = []
            for _ in range(int(rng.integers(1, 40))):
                n = int(rng.integers(1, MAX_SYLLABLES + 1))
                recs.append(Record(
                    "u", "w", np.zeros((n, 12)),
                    [NUCLEUS_TAGS[t] for t in rng.choice(tags, n)],
                    rng.integers(0, 3, n).tolist()))
            assert (compute_class_weights(pack_records(recs)).tobytes()
                    == oracle_class_weights(oracle_instances(recs)).tobytes()), trial
        _, table = synth_corpus(lexicon, 30, GenConfig(noise=0.3), seed=4)
        recs = table_records(table)
        assert (compute_class_weights(table).tobytes()
                == oracle_class_weights(oracle_instances(recs)).tobytes())

    def test_syllables_without_gold_label_not_counted(self):
        rec = Record("u", "w", np.zeros((3, 12)), ["iy", "iy", "ax"],
                     [int(StressLevel.PRIMARY), None, None])
        table = compute_class_weights(pack_records([rec]))
        assert np.array_equal(table[TAG_TO_INDEX["iy"]], [0.0, 1.0, 0.0])
        assert np.all(table[TAG_TO_INDEX["ax"]] == 1.0)

    def test_frozen_oracle_values(self):
        w = weights_from_proportions(np.array([0.6, 0.3, 0.1]))
        assert w == pytest.approx(
            [1.0, 0.6155722066724582, 0.28529497656828423], abs=1e-12)

    def test_uniform_gives_ones(self):
        w = weights_from_proportions(np.array([1, 1, 1]) / 3.0)
        assert w == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)

    def test_degenerate_distribution(self):
        w = weights_from_proportions(np.array([1.0, 0.0, 0.0]))
        assert w == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    @given(st.lists(st.floats(0.001, 1.0), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_max_weight_is_one_and_monotone(self, raw_p):
        p = np.array(raw_p) / sum(raw_p)
        w = weights_from_proportions(p)
        assert w.max() == pytest.approx(1.0, abs=1e-12)
        order = np.argsort(p)
        assert w[order[0]] <= w[order[1]] + 1e-12 <= w[order[2]] + 2e-12

    def test_unseen_type_defaults_to_one(self):
        rec = Record("u", "w", np.zeros((2, 12)), ["iy", "iy"],
                     [int(StressLevel.PRIMARY), int(StressLevel.NON_STRESS)])
        table = compute_class_weights(pack_records([rec]))
        # "oy" never appears
        assert np.all(table[TAG_TO_INDEX["oy"]] == 1.0)

    def test_table_from_corpus_max_normalized(self, lexicon):
        _, instances = synth_corpus(lexicon, 30, GenConfig(noise=0.3), seed=4)
        table = compute_class_weights(instances)
        assert np.allclose(table.max(axis=1), 1.0)
        assert np.all(table >= 0.0)


# SHA-256 of what `synth --n 30 --seed 5 --noise 0.75` writes, per
# labeling, as the scalar generator wrote it
SYNTH_DIGESTS = {
    "dictionary": {
        "features.jsonl":
            "c19e74cd2f73d03d15c340a96cd405b423008d883521815dfc9abbd931db7913",
        "alignments/synth-0005-000000.json":
            "88548a4abb8d6022db74e42eb80ea18baf9674d92b3a07d843c590ee3de8bd65",
        "alignments/synth-0005-000001.json":
            "e45e94b6a1994693aba317075d20e7a23063aed92fc79c8d40de5c9c14d5b212",
        "alignments/synth-0005-000002.json":
            "a8a400bc4ad9caf63dfff1d9dac716850b8122387691b96faec70ed33760a613",
        "alignments/synth-0005-000003.json":
            "6da8a962262f547c569735ac11777453eaee1c58bb848860370168b94308487b",
        "alignments/synth-0005-000004.json":
            "4dfeabfeaa97a58ff15be0b6da2089f512ca8b6a82f925a542427d0158dd51be",
        "alignments/synth-0005-000005.json":
            "26560fbc4e71074103935e7b04d4d52bc0a1e04741b230c221decf6e499b2602",
        "alignments/synth-0005-000006.json":
            "80c2d177b49f1131503a282e3f084346514373facefc5f861333e0aca34fc94d",
        "alignments/synth-0005-000007.json":
            "a62c02da55aa3893e304a9281f81c8eedecb34e11bb6eb6c62ac0cdbbdd8892d",
        "alignments/synth-0005-000008.json":
            "269f219e2d2df12473518dcddb8e0cfc84285b3a34a276b6104cab6505876368",
        "alignments/synth-0005-000009.json":
            "67e9624f7aff4aa22b5a9bf2cb69e85a9e06d874a893720786d74205379a8bd9",
        "alignments/synth-0005-000010.json":
            "bda65be9fb3dfa94c77e95def310cb68127332a47ed7665052492fb46d9fd275",
        "alignments/synth-0005-000011.json":
            "904815b5e5ae57ab0657b0fef170273d3caeb91474506f5e1f779fa9f0972a1b",
        "alignments/synth-0005-000012.json":
            "4802ab134cba4c56235029117e1d1c52f0b4d44303de2f5659b4cad19fdf5bff",
        "alignments/synth-0005-000013.json":
            "30c28abad2589333734437ff85dc3c011345d9483db3ec4300f3b1daba9a2fd6",
        "alignments/synth-0005-000014.json":
            "0aa3ebcfca17de65f58a5d5c06b44827474e43eb2f1395a9eee4351071c64346",
        "alignments/synth-0005-000015.json":
            "589bdca1c5572707148fb8555e93f26ad234e9253fec9dd8eadeb6f7c59e5d0a",
        "alignments/synth-0005-000016.json":
            "fd21000b64f2a4cb837f70b3882e43edce517a1010bb580925b35bcd7d129a79",
        "alignments/synth-0005-000017.json":
            "b7c52c06b3857c360c2eebadf0e55d54a097fd19e3a00b146f14560cf44912b2",
        "alignments/synth-0005-000018.json":
            "4a09aebab95a0a32e1b211f0b05a14e2ba217b93fadc884ac4f426e73f828121",
        "alignments/synth-0005-000019.json":
            "593ae927543907f34141aaf9fbf6222a149d2950064c5e1a015d0b4794eeb617",
        "alignments/synth-0005-000020.json":
            "d7ed007691d1295db518ba9bb86f9911264c1ac0d4a15ffe2df93aa8aa68c6e1",
        "alignments/synth-0005-000021.json":
            "47725c23ddee66bafc5b7697ed4d2fb292c83da503a47ed24abbb77a577dad97",
        "alignments/synth-0005-000022.json":
            "506b448df5eb81e04d0f6d48384e09d968f3c2c2aeb2e70b64ccd8c9944317bc",
        "alignments/synth-0005-000023.json":
            "e10e081c95b38c39c31a7084dd874792301c03866df342df962b5e3727cdf1f3",
        "alignments/synth-0005-000024.json":
            "c0ba989329a26cdc8014a362d90b33ab2109cbbeedfda091c0ca9198c54e9ac6",
        "alignments/synth-0005-000025.json":
            "a78e3a68c1aa0d39ba07baa63d609959a56c108947fb979c8e39a54c2aec4ed4",
        "alignments/synth-0005-000026.json":
            "773b90d880a6015b025cce46b4cd977c001de4fed0bc83f2386fe032769b0a30",
        "alignments/synth-0005-000027.json":
            "238bf9b56abcf12fce696f0d9a918333c462a0150405e3230171dcad2af96fc2",
        "alignments/synth-0005-000028.json":
            "ddb4bfc0c52ffcf0760e880b28affe765eb7a489942c5b0c126be3312e054410",
        "alignments/synth-0005-000029.json":
            "ce5784fd7891a3a667c71eab09a2f8d3a9b05361de10c80ea560a18f37a0d42d",
    },
    "relative_duration": {
        "features.jsonl":
            "596c2b8b54f524ccf28f45cfd60e514aa4c01ab7a96a73c54446e2977395e445",
        "alignments/synth-0005-000000.json":
            "edfb8d29113b139fd7c6d5e74dd00fd7d20673f652dfca5a0d5abe82033664da",
        "alignments/synth-0005-000001.json":
            "b613e45aebb913b87a9a2d591bbc633f3b0f79e2b0a3e3e43c0fff786e4575e3",
        "alignments/synth-0005-000002.json":
            "f03dd7e007a4c5332c453d8db63a7e466db62b8a6274225fd245bde2f866f12c",
        "alignments/synth-0005-000003.json":
            "fc0dabe4bb085cccf3d14103a0f08adcb447b8a822894da88993a0a7c3042638",
        "alignments/synth-0005-000004.json":
            "d27ac9724c8e7c2c202ae409728d421e037cd0d93361edae2cb58933c7114bc4",
        "alignments/synth-0005-000005.json":
            "2de2eda0af73c142fe04ad2542e760c858533959fedb891ca7c5a115cc3be392",
        "alignments/synth-0005-000006.json":
            "20809064472530230116609f8eea51397c3e44b4451fd3a2b1b10674b9172ee9",
        "alignments/synth-0005-000007.json":
            "651eaad063176418ea688f74fe156f3e22aadcaa9e05e0c4a0831881206b8e0d",
        "alignments/synth-0005-000008.json":
            "017dd891b1c3d16d0592cfe69af57634bb492d83f2d3566079eeec48ec83ae71",
        "alignments/synth-0005-000009.json":
            "b987e8396a26f11ce0078c932b4b37fda8310d766c716950fef952741236e62e",
        "alignments/synth-0005-000010.json":
            "088187c2d4738fb6074cefd9a176b9ef1cb2edadcaf99512961996e68ff60916",
        "alignments/synth-0005-000011.json":
            "b4c17f7f18db1443934425ab80c11882ae936d87bbd71452a7569f0fbdb93146",
        "alignments/synth-0005-000012.json":
            "fb1739755d552a119c7b1f6e63cc2ea8fff24ab8855c675d38ffbb3e440132e3",
        "alignments/synth-0005-000013.json":
            "ec8d5014333c9d6687f9f31c3cbf6e1f6f223ae88fa13f13634159d90d98c423",
        "alignments/synth-0005-000014.json":
            "e1001bc95c65556f4b6569265d8c261e9fe5fe8c59cb6403c018c2ad73d060b5",
        "alignments/synth-0005-000015.json":
            "ac1c58c5221b33c3121dc20ba78eff5cba0c06bc4d8defaa900eedaaedf453c7",
        "alignments/synth-0005-000016.json":
            "8cf2a9834d69dd0646344c195e72e0cfda2154dc12c25a111ddeed6b93c4087a",
        "alignments/synth-0005-000017.json":
            "07b05d87b974ceaa8592689e3429b7b20eacab7848f44930e7ee247b048eb9d0",
        "alignments/synth-0005-000018.json":
            "fa2c155cbd38fe7dc9f9ea881985b5ceb304f4f40f2f478dc3456ecdcf0b87ca",
        "alignments/synth-0005-000019.json":
            "3f3860db2a2e8dff2cdea6369fb887de03b299591562ae4c964e52ca5437d87b",
        "alignments/synth-0005-000020.json":
            "1b5d8786dd9ae1b6afd7851e1e9a1146afcbd39cea00d44287b1e994634f04b7",
        "alignments/synth-0005-000021.json":
            "a70f72c39d8c8b56b498a6575239125afa2a005b3114213625a79d3f685571b7",
        "alignments/synth-0005-000022.json":
            "bfc86dbc0b93eae4bc766824a3ad1da122c8e7ec07939b11a11961111cff6130",
        "alignments/synth-0005-000023.json":
            "67dae9461c1b6d06b5544052abb098dcbc61c07dd0fb5e76d5f8133136844d5d",
        "alignments/synth-0005-000024.json":
            "452f0eeec6b64e35d68fa423232bb7cec5cbce33e93a335020583f607282e889",
        "alignments/synth-0005-000025.json":
            "e3c8c7adc5ed8a1152bc07da1990208350dacc15eb9f6b072d408fcc82bf6273",
        "alignments/synth-0005-000026.json":
            "958f26d703084465fe924bbf3b44fafb83f58b334a1828d743d0962abcff82f9",
        "alignments/synth-0005-000027.json":
            "b1b3564d28547c168d73cc3530b8a0e086eabd94496125d09713c17fb92aacc1",
        "alignments/synth-0005-000028.json":
            "61927f44fe118b254a06fa4ccb1890be76df51f7425375eb1d8b683fc031e537",
        "alignments/synth-0005-000029.json":
            "788a91c05659912ffc5adf2871b924f01bd257135204d8102119cff23a44610a",
    },
}


class TestSynthOracle:
    """The generator against its one-draw-at-a-time oracle. A draw made
    or skipped out of turn shifts the words of every later utterance."""

    @pytest.mark.parametrize("labeling", ["dictionary", "relative_duration"])
    @pytest.mark.parametrize("noise", [0.0, 0.1, 0.75, 3.0, 1e6, 5e-324])
    @pytest.mark.parametrize("seed", [0, 1, 3, 7])
    def test_bit_identical(self, lexicon, seed, noise, labeling):
        gen = GenConfig(noise, labeling)
        assert_same_corpus(synth_corpus(lexicon, 12, gen, seed=seed),
                           oracle_synth_corpus(lexicon, 12, gen, seed=seed))

    @pytest.mark.parametrize("labeling", ["dictionary", "relative_duration"])
    def test_cli_bytes_pinned(self, tmp_path, labeling):
        from stressnet.cli import run_subcommand
        out = tmp_path / labeling
        assert run_subcommand([
            "synth", "--n", "30", "--seed", "5", "--noise", "0.75",
            "--labeling", labeling, "--out", str(out)]) == 0
        written = ["features.jsonl"] + sorted(
            f"alignments/{p.name}" for p in (out / "alignments").iterdir())
        assert written == list(SYNTH_DIGESTS[labeling])
        for name in written:
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == SYNTH_DIGESTS[labeling][name], name


# SHA-256 of a 4-tree `train --model rf` checkpoint on the split of the
# synth run above (dictionary labeling), and of `predict` and `eval` with
# it on the test part, per feature mode, as the per-tree forest wrote them.
# The forest path uses no BLAS, so these hold on any machine.
FOREST_DIGESTS = {
    "syllable_numerical": {
        "rf.ckpt":
            "80228c75a8846991072b7aac60a7aa5c884b2464988e1990566e86832a810fe6",
        "predictions.jsonl":
            "3a93af39527111b4b3c66a63c0be9dc6512bb925d56695bad5f3f1e7922b610e",
        "report.json":
            "aa7d337f83c93162fe29876bb4bc1da55cbdb205c8266834b4604c544ac52596",
        "report.txt":
            "7af59d87bffdd7197e89535e01f9df2d2832a7c1a62438b41d7d948938df88cc",
    },
    "syllable_nucleus_numerical": {
        "rf.ckpt":
            "f6e4104b350f4955228540b5a880343848aa93fb358df36b9d6869a491057a11",
        "predictions.jsonl":
            "3f7fbf0639e649a9429d86bb02415179a0750089d4d9eef334eb04f03b831f69",
        "report.json":
            "f3218d6a5f2aaa3b4f8d56ab1e923062e6ea2cb0df5353cbe57fe04e19e7f0bc",
        "report.txt":
            "4b585f7469a2c5a527f0e82e1b901690d0e4f68fd1a6459dc0999791261a8339",
    },
}


@pytest.mark.parametrize("mode", sorted(FOREST_DIGESTS))
def test_forest_bytes_pinned(tmp_path, mode):
    from stressnet.cli import run_subcommand
    corpus, split = tmp_path / "corpus", tmp_path / "split"
    assert run_subcommand(["synth", "--n", "30", "--seed", "5", "--noise",
                           "0.75", "--out", str(corpus)]) == 0
    assert run_subcommand(["split", "--features", str(corpus / "features.jsonl"),
                           "--out", str(split)]) == 0
    ckpt, test = tmp_path / "rf.ckpt", str(split / "test.jsonl")
    for argv in (["train", "--model", "rf", "--n-trees", "4", "--feature-mode",
                  mode, "--train", str(split / "train.jsonl"), "--out", str(ckpt)],
                 ["predict", "--model", str(ckpt), "--input", test,
                  "--out", str(tmp_path / "predictions.jsonl")],
                 ["eval", "--model", str(ckpt), "--data", test,
                  "--out", str(tmp_path / "report")]):
        assert run_subcommand(argv) == 0
    for name, want in FOREST_DIGESTS[mode].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


class TestSynthCorpus:
    def test_deterministic(self, lexicon):
        a1, r1 = synth_corpus(lexicon, 6, GenConfig(noise=0.4), seed=3)
        a2, r2 = synth_corpus(lexicon, 6, GenConfig(noise=0.4), seed=3)
        assert a1 == a2
        for x, y in zip(table_records(r1), table_records(r2)):
            assert x.word == y.word
            assert np.array_equal(x.features, y.features)

    def test_noiseless_features_are_class_constants(self, lexicon):
        recs = table_records(synth_corpus(lexicon, 10, GenConfig(noise=0.0), seed=1)[1])
        # within one utterance, syllables with equal (class, type) get equal
        # raw features, hence equal normalized features
        by_key = {}
        for rec in recs:
            for stress, tag, row in zip(rec.stresses, rec.nucleus_tags,
                                        rec.features):
                key = (rec.utterance_id, stress, tag)
                if key in by_key:
                    assert np.allclose(by_key[key], row, atol=1e-9)
                else:
                    by_key[key] = row

    def test_negative_noise_rejected(self, lexicon):
        with pytest.raises(ConfigError):
            synth_corpus(lexicon, 2, GenConfig(noise=-1.0), seed=0)

    def test_multi_syllable_only(self, lexicon):
        recs = table_records(synth_corpus(lexicon, 8, GenConfig(), seed=2)[1])
        assert all(len(r.stresses) >= 2 for r in recs)

    def test_alignment_matches_table(self, lexicon):
        aligns, table = synth_corpus(lexicon, 5, GenConfig(noise=0.2), seed=9)
        recs = table_records(table)
        by_utt = {}
        for rec in recs:
            by_utt.setdefault(rec.utterance_id, []).append(rec)
        for al in aligns:
            words = by_utt[al.utterance_id]
            assert [w.word for w in words] == [w.text for w in al.words]
            for rec, aw in zip(words, al.words):
                assert rec.nucleus_tags == [s.nucleus.tag for s in aw.syllables]

    def test_relative_duration_labeling(self, lexicon):
        _, table = synth_corpus(
            lexicon, 8, GenConfig(noise=0.0, labeling="relative_duration"),
            seed=5)
        for rec in table_records(table):
            stresses = rec.stresses
            assert stresses.count(int(StressLevel.PRIMARY)) == 1
            assert stresses.count(int(StressLevel.NON_STRESS)) == 1

    def test_padding_invariant_property(self, lexicon):
        """Every instance holds exactly its oracle record's syllables, in
        order."""
        _, instances = synth_corpus(lexicon, 6, GenConfig(noise=0.5), seed=8)
        _, recs = oracle_synth_corpus(lexicon, 6, GenConfig(noise=0.5), seed=8)
        assert len(instances) == len(recs)
        for i, rec in enumerate(recs):
            n = len(rec.stresses)
            start, stop = instances.offsets[i:i + 2]
            assert stop - start == n
            features = instances.features[start:stop]
            types = instances.types[start:stop]
            labels = instances.labels[start:stop]
            assert features.shape == rec.features.shape == (n, 12)
            assert types.shape == labels.shape == (n,)
            assert np.array_equal(features, rec.features)
            assert types.tolist() == [TAG_TO_INDEX[tag] for tag in rec.nucleus_tags]
            assert labels.tolist() == rec.stresses

    def test_large_noise_approaches_majority_rate(self, lexicon):
        # noise at 3x the class gaps drowns the class structure; a strong
        # per-syllable classifier ends up near the majority-class rate
        from stressnet.baselines import train_forest
        _, table = synth_corpus(lexicon, 200, GenConfig(noise=3.0), seed=17)
        train_set, test_set = split_table(table, 0.7, seed=17)
        Xtr, ytr = train_set.features, train_set.labels
        Xte, yte = test_set.features, test_set.labels
        majority = np.bincount(ytr, minlength=3).argmax()
        majority_rate = float((yte == majority).mean())
        acc = float((train_forest(Xtr, ytr, n_trees=40, seed=17)
                     .vote_shares(Xte).argmax(axis=1) == yte).mean())
        assert abs(acc - majority_rate) < 0.05
