import io

import pytest
from hypothesis import given, strategies as st

from stressnet.errors import EmptyLexicon, NoNucleus, UnknownVowel
from stressnet.lexicon import (
    NUCLEUS_TAGS,
    PronEntry,
    StressLevel,
    nucleus_type_of,
    parse_dictionary,
    syllabify,
)


def parse(text):
    return parse_dictionary(io.StringIO(text))


class TestParseDictionary:
    def test_single_line(self):
        lex = parse("OVERCOME  OW2 V ER0 K AH1 M\n")
        entries = lex.lookup("overcome")
        assert len(entries) == 1
        assert len(entries[0].phonemes) == 6
        assert entries[0].vowel_count() == 3

    def test_comment_lines_skipped(self):
        lex = parse(";;; a comment\nCAT  K AE1 T\n;;; another\n")
        assert lex.report.n_comments == 2
        assert lex.report.n_entries == 1

    def test_alternate_pronunciations_grouped(self):
        lex = parse("READ  R IY1 D\nREAD(1)  R EH1 D\n")
        variants = lex.lookup("READ")
        assert len(variants) == 2
        assert [v.variant_index for v in variants] == [0, 1]
        assert variants[0].phonemes == ("R", "IY1", "D")
        assert variants[1].phonemes == ("R", "EH1", "D")

    def test_empty_stream_raises(self):
        with pytest.raises(EmptyLexicon):
            parse(";;; nothing but comments\n")

    def test_malformed_line_counted_and_skipped(self):
        lex = parse("CAT  K AE1 T\nBAD  K AE T\nWORSE\n")
        assert lex.report.n_entries == 1
        assert len(lex.report.skipped) == 2

    def test_fields_split_on_ascii_space_and_tab_only(self):
        lex = parse("ab\xa0c  AH1 B\nq\x85r  K AE1 T\nCAT\tK AE1 T\n"
                    "\xa0DOG  D AO1 G\r\n")
        assert lex.report.skipped == [
            (1, "whitespace in headword 'ab\\xa0c'"),
            (2, "whitespace in headword 'q\\x85r'"),
            (4, "whitespace in headword '\\xa0DOG'")]
        assert sorted(lex.words()) == ["CAT"]
        assert lex.lookup("ab\xa0c") == lex.lookup("ab") == []

    def test_consonants_from_cmudict_inventory_only(self):
        lex = parse("XY  k AE1 T\nXZ  K AE1 \xe9\nCAT  K AE1 T\n")
        assert lex.report.skipped == [(1, "not a CMUdict phoneme: 'k'"),
                                      (2, "not a CMUdict phoneme: '\xe9'")]
        assert sorted(lex.words()) == ["CAT"]

    def test_lookup_strips_punctuation_and_case(self):
        lex = parse("CAT  K AE1 T\n")
        assert lex.lookup("Cat!") == lex.lookup("CAT")
        assert lex.lookup("cat,") == lex.lookup("CAT") != []

    def test_headwords_keyed_as_lookup_normalizes(self):
        lex = parse('"close-quote  K L OW1 Z K W OW1 T\n'
                    "read  R IY1 D\nREAD  R EH1 D\n")
        assert sorted(lex.words()) == ["CLOSE-QUOTE", "READ"]
        (entry,) = lex.lookup("Close-Quote")
        assert entry.word == '"close-quote'  # as written
        # entries that meet under one key keep file order
        assert [v.phonemes for v in lex.lookup("read")] == [
            ("R", "IY1", "D"), ("R", "EH1", "D")]


class TestSyllabify:
    def test_overcome(self):
        entry = PronEntry("OVERCOME", ("OW2", "V", "ER0", "K", "AH1", "M"))
        syl = syllabify(entry)
        assert syl.stresses() == [StressLevel.SECONDARY, StressLevel.NON_STRESS,
                                  StressLevel.PRIMARY]
        assert syl.nucleus_tags() == ["ow", "er", "ah"]

    def test_emotion(self):
        entry = PronEntry("EMOTION", ("IH0", "M", "OW1", "SH", "AH0", "N"))
        syl = syllabify(entry)
        assert syl.stresses() == [StressLevel.NON_STRESS, StressLevel.PRIMARY,
                                  StressLevel.NON_STRESS]

    def test_single_vowel(self):
        syl = syllabify(PronEntry("CAT", ("K", "AE1", "T")))
        assert len(syl.syllables) == 1
        assert syl.syllables[0].onset == ("K",)
        assert syl.syllables[0].coda == ("T",)
        assert syl.syllables[0].stress == StressLevel.PRIMARY

    def test_medial_consonants_go_to_following_onset(self):
        syl = syllabify(PronEntry("X", ("AE1", "B", "S", "T", "AH0")))
        assert syl.syllables[0].coda == ()
        assert syl.syllables[1].onset == ("B", "S", "T")

    def test_no_vowel_raises(self):
        with pytest.raises(NoNucleus):
            syllabify(PronEntry("SHH", ("SH",)))


class TestNucleusType:
    def test_unstressed_ah_is_schwa(self):
        assert nucleus_type_of("AH", 0) == "ax"

    def test_stressed_ah(self):
        assert nucleus_type_of("AH", 1) == "ah"
        assert nucleus_type_of("AH", 2) == "ah"

    def test_identity_lowercase(self):
        assert nucleus_type_of("IY", 2) == "iy"
        assert nucleus_type_of("ER", 0) == "er"

    def test_unknown_vowel(self):
        with pytest.raises(UnknownVowel):
            nucleus_type_of("ZH", 1)

    def test_tag_set_closed(self):
        assert len(NUCLEUS_TAGS) == 16
        assert len(set(NUCLEUS_TAGS)) == 16


class TestFullDictionary:
    def test_round_trip_every_entry(self, lexicon):
        for word in lexicon.words():
            for entry in lexicon.lookup(word):
                assert syllabify(entry).flatten() == list(entry.phonemes)

    def test_syllable_count_equals_vowel_count(self, lexicon):
        for word in lexicon.words():
            for entry in lexicon.lookup(word):
                assert len(syllabify(entry).syllables) == entry.vowel_count()

    def test_tag_inventory_is_exactly_sixteen(self, lexicon):
        produced = set()
        for word in lexicon.words():
            for entry in lexicon.lookup(word):
                produced.update(syllabify(entry).nucleus_tags())
        assert produced == set(NUCLEUS_TAGS)

    def test_golden_stress_patterns(self, lexicon):
        golden = {
            "overcome": [2, 0, 1],
            "emotion": [0, 1, 0],
            "underwear": [1, 0, 2],
        }
        for word, pattern in golden.items():
            syl = syllabify(lexicon.lookup(word)[0])
            assert [int(s) for s in syl.stresses()] == pattern


@given(st.integers(min_value=0, max_value=2))
def test_stress_digit_bijection(digit):
    assert int(StressLevel(digit)) == digit
