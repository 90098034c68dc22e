import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stressnet.corpus import (
    COUNT_MISMATCH,
    MONOSYLLABIC,
    NOT_IN_LEXICON,
    UTTERANCE_EXCLUDED,
    GenConfig,
    alignment_to_doc,
    build_instance,
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
    AlignmentFormat,
    ConfigError,
    InvalidSpans,
    SplitTooSmall,
    StressnetError,
)
from stressnet.features import WordRecord
from stressnet.lexicon import TAG_TO_INDEX, StressLevel


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
        with pytest.raises(InvalidSpans):
            parse_alignment(doc)

    def test_overlapping_syllables(self):
        doc = make_alignment([("maybe", 2)])
        doc["words"][0]["syllables"][1]["start_s"] = 0.1
        with pytest.raises(InvalidSpans):
            parse_alignment(doc)

    def test_empty_word_list_valid(self):
        al = parse_alignment({"schema": 1, "utterance_id": "u",
                              "audio_path": None, "words": []})
        assert al.words == ()

    def test_missing_field(self):
        with pytest.raises(AlignmentFormat):
            parse_alignment({"schema": 1, "utterance_id": "u"})

    def test_wrong_schema_version(self):
        doc = make_alignment([])
        doc["schema"] = 2
        with pytest.raises(AlignmentFormat):
            parse_alignment(doc)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(AlignmentFormat):
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
        with pytest.raises(AlignmentFormat):
            parse_alignment(doc)

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"schema": 1, "utterance_id": "caf\xe9"}'.encode("latin-1"))
        with pytest.raises(AlignmentFormat):
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
    tiny to huge, audio path and nucleus tags present or null."""
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
           "audio_path": draw(st.none() | text), "words": words}
    try:
        return parse_alignment(doc)
    except InvalidSpans:  # a step too small to move a large time
        assume(False)


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
        (rec,) = records
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
        (r3,), _ = label_utterance(al3, lexicon)
        (r2,), _ = label_utterance(al2, lexicon)
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

    def test_accounting_invariant(self, lexicon):
        al = parse_alignment(make_alignment(
            [("cat", 1), ("maybe", 2), ("zyxxyz", 3), ("overcome", 3)]))
        instances, exclusions = label_utterance(al, lexicon)
        assert len(instances) + len(exclusions) == len(al.words)


class TestBuildInstance:
    def test_padding_invariant(self):
        """An instance holds its n syllables in position order, no padding."""
        rec = WordRecord("u", "w", np.repeat([[1.0], [2.0]], 12, axis=1),
                         ["iy", "ax"], [int(StressLevel.PRIMARY), None])
        inst = build_instance(rec)
        assert inst.valid_count == 2
        assert inst.features.shape == (2, 12)
        assert inst.features[:, 0].tolist() == [1.0, 2.0]
        assert inst.type_indices.tolist() == [TAG_TO_INDEX["iy"], TAG_TO_INDEX["ax"]]
        assert inst.labels.tolist() == [int(StressLevel.PRIMARY), -1]


class TestSplit:
    def make_instances(self, n_utts, per_utt=3):
        out = []
        for u in range(n_utts):
            for w in range(per_utt):
                rec = WordRecord(f"utt-{u:03d}", f"w{w}", np.zeros((2, 12)),
                                 ["iy", "iy"], [int(StressLevel.NON_STRESS)] * 2)
                out.append(build_instance(rec))
        return out

    def test_seventy_thirty(self):
        inst = self.make_instances(10)
        train, test = split(inst, 0.7, seed=5)
        assert len({i.utterance_id for i in train}) == 7
        assert len({i.utterance_id for i in test}) == 3

    def test_partition(self):
        inst = self.make_instances(9)
        train, test = split(inst, 0.7, seed=1)
        train_ids = {id(i) for i in train}
        test_ids = {id(i) for i in test}
        assert not train_ids & test_ids
        assert len(train) + len(test) == len(inst)

    def test_deterministic_and_order_insensitive(self):
        inst = self.make_instances(12)
        t1, _ = split(inst, 0.7, seed=9)
        t2, _ = split(list(reversed(inst)), 0.7, seed=9)
        assert {i.utterance_id for i in t1} == {i.utterance_id for i in t2}

    def test_all_train(self):
        inst = self.make_instances(4)
        train, test = split(inst, 1.0, seed=0)
        assert len(test) == 0
        assert len(train) == len(inst)

    def test_too_small(self):
        inst = self.make_instances(1)
        with pytest.raises(SplitTooSmall):
            split(inst, 0.7, seed=0)


class TestClassWeights:
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
        rec = WordRecord("u", "w", np.zeros((2, 12)), ["iy", "iy"],
                         [int(StressLevel.PRIMARY), int(StressLevel.NON_STRESS)])
        cw = compute_class_weights([build_instance(rec)])
        # "oy" never appears
        assert np.all(cw.table[TAG_TO_INDEX["oy"]] == 1.0)

    def test_table_from_corpus_max_normalized(self, lexicon):
        _, recs = synth_corpus(lexicon, 30, GenConfig(noise=0.3), seed=4)
        cw = compute_class_weights(instances_from_table(recs))
        assert np.allclose(cw.table.max(axis=1), 1.0)
        assert np.all(cw.table >= 0.0)


class TestSynthCorpus:
    def test_deterministic(self, lexicon):
        a1, r1 = synth_corpus(lexicon, 6, GenConfig(noise=0.4), seed=3)
        a2, r2 = synth_corpus(lexicon, 6, GenConfig(noise=0.4), seed=3)
        assert a1 == a2
        for x, y in zip(r1, r2):
            assert x.word == y.word
            assert np.array_equal(x.features, y.features)

    def test_noiseless_features_are_class_constants(self, lexicon):
        _, recs = synth_corpus(lexicon, 10, GenConfig(noise=0.0), seed=1)
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
        _, recs = synth_corpus(lexicon, 8, GenConfig(), seed=2)
        assert all(len(r.stresses) >= 2 for r in recs)

    def test_alignment_matches_table(self, lexicon):
        aligns, recs = synth_corpus(lexicon, 5, GenConfig(noise=0.2), seed=9)
        by_utt = {}
        for rec in recs:
            by_utt.setdefault(rec.utterance_id, []).append(rec)
        for al in aligns:
            words = by_utt[al.utterance_id]
            assert [w.word for w in words] == [w.text for w in al.words]
            for rec, aw in zip(words, al.words):
                assert rec.nucleus_tags == [s.nucleus.tag for s in aw.syllables]

    def test_relative_duration_labeling(self, lexicon):
        _, recs = synth_corpus(
            lexicon, 8, GenConfig(noise=0.0, labeling="relative_duration"),
            seed=5)
        for rec in recs:
            stresses = rec.stresses
            assert stresses.count(int(StressLevel.PRIMARY)) == 1
            assert stresses.count(int(StressLevel.NON_STRESS)) == 1

    def test_padding_invariant_property(self, lexicon):
        """Every instance holds exactly its record's syllables, in order."""
        _, recs = synth_corpus(lexicon, 6, GenConfig(noise=0.5), seed=8)
        for rec, inst in zip(recs, instances_from_table(recs)):
            n = len(rec.stresses)
            assert inst.valid_count == n
            assert inst.features.shape == rec.features.shape == (n, 12)
            assert inst.type_indices.shape == inst.labels.shape == (n,)
            assert np.array_equal(inst.features, rec.features)
            assert inst.type_indices.tolist() == [
                TAG_TO_INDEX[tag] for tag in rec.nucleus_tags]
            assert inst.labels.tolist() == rec.stresses

    def test_large_noise_approaches_majority_rate(self, lexicon):
        # noise at 3x the class gaps drowns the class structure; a strong
        # per-syllable classifier ends up near the majority-class rate
        from stressnet.baselines import flatten, scores, train_forest
        _, recs = synth_corpus(lexicon, 200, GenConfig(noise=3.0), seed=17)
        train_set, test_set = split(instances_from_table(recs), 0.7, seed=17)
        Xtr, ytr = flatten(train_set, 12)
        Xte, yte = flatten(test_set, 12)
        majority = np.bincount(ytr, minlength=3).argmax()
        majority_rate = float((yte == majority).mean())
        acc = float((scores(train_forest(Xtr, ytr, n_trees=40, seed=17),
                            Xte).argmax(axis=1) == yte).mean())
        assert abs(acc - majority_rate) < 0.05
