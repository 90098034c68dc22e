"""CMU Pronouncing Dictionary parsing, syllabification, and stress labels.

The dictionary file is plain text: one entry per line, ``WORD  PH1 PH2 ...``,
with ``;;;`` comment lines and ``WORD(n)`` marking alternate pronunciations.
Vowel phonemes carry a trailing stress digit (0 = none, 1 = primary,
2 = secondary); consonants carry none. Entries are keyed by their headword
as lookup normalizes a query (upper case, only A-Z, 0-9 and ' - . kept),
so the lower-case cmudict.dict works as the upper-case cmudict-0.7b does;
PronEntry.word keeps the headword as written.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, TextIO

from .errors import EmptyLexicon, NoNucleus, UnknownVowel


class StressLevel(IntEnum):  # values are the CMUdict stress digits
    NON_STRESS = 0
    PRIMARY = 1
    SECONDARY = 2


# CMUdict's phoneme inventory: vowels (stress digit stripped), consonants.
VOWELS = frozenset([
    "AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER",
    "EY", "IH", "IY", "OW", "OY", "UH", "UW",
])
CONSONANTS = frozenset("B CH D DH F G HH JH K L M N NG P R S SH T TH V W Y Z ZH"
                       .split())

# The 16 nucleus tags, in canonical display order. CMUdict has 15 vowels;
# unstressed AH is split off as schwa ("ax") to make 16.
NUCLEUS_TAGS = (
    "iy", "ih", "ey", "eh",
    "ae", "aa", "ao", "uh",
    "ow", "uw", "ah", "ay",
    "aw", "oy", "ax", "er",
)
PAD_TYPE_INDEX = len(NUCLEUS_TAGS)  # 16

TAG_TO_INDEX = {tag: i for i, tag in enumerate(NUCLEUS_TAGS)}

_ALTERNATE_RE = re.compile(r"^(.*)\((\d+)\)$")
_FIELD_SEP_RE = re.compile(r"[ \t]+")
_STRIP_RE = re.compile(r"[^A-Z0-9'\-\.]")


@dataclass(frozen=True)
class PronEntry:
    """One dictionary pronunciation: headword, phonemes, variant index."""

    word: str
    phonemes: tuple[str, ...]
    variant_index: int = 0

    def vowel_count(self) -> int:
        return sum(1 for p in self.phonemes if p[-1].isdigit())


@dataclass(frozen=True)
class Syllable:
    onset: tuple[str, ...]
    nucleus_tag: str
    coda: tuple[str, ...]
    stress: StressLevel
    # the raw vowel phoneme including its digit, e.g. "AH0"
    nucleus_phoneme: str = ""


@dataclass(frozen=True)
class Syllabification:
    syllables: tuple[Syllable, ...]

    def stresses(self) -> list[StressLevel]:
        return [s.stress for s in self.syllables]

    def nucleus_tags(self) -> list[str]:
        return [s.nucleus_tag for s in self.syllables]

    def flatten(self) -> list[str]:
        """Reconstruct the source phoneme sequence (round-trip check)."""
        out: list[str] = []
        for s in self.syllables:
            out.extend(s.onset)
            out.append(s.nucleus_phoneme)
            out.extend(s.coda)
        return out


@dataclass
class ParseReport:
    """Counts of lines seen and skipped while parsing a dictionary stream."""

    n_lines: int = 0
    n_entries: int = 0
    n_comments: int = 0
    skipped: list[tuple[int, str]] = field(default_factory=list)


def nucleus_type_of(vowel: str, stress_digit: int) -> str:
    """Nucleus tag for a vowel symbol + stress digit.

    Unstressed AH maps to schwa ("ax"); stressed AH stays "ah"; every other
    vowel maps to its lowercase symbol. The image is exactly the 16-tag set.
    """
    if vowel not in VOWELS:
        raise UnknownVowel(f"not a CMUdict vowel symbol: {vowel!r}")
    if vowel == "AH":
        return "ax" if stress_digit == 0 else "ah"
    return vowel.lower()


def syllabify(entry: PronEntry) -> Syllabification:
    """Group an entry's phonemes into syllables, one per vowel.

    Every consonant cluster strictly between two nuclei goes to the onset of
    the following syllable; leading consonants open the first syllable and
    trailing consonants close the last one. Boundary placement does not
    affect stress labels or nucleus tags, which are the outputs the model
    consumes.
    """
    nuclei: list[int] = [
        i for i, p in enumerate(entry.phonemes) if p[-1].isdigit()
    ]
    if not nuclei:
        raise NoNucleus(f"no vowel in pronunciation of {entry.word!r}")

    syllables: list[Syllable] = []
    last = len(nuclei) - 1
    for k, idx in enumerate(nuclei):
        onset_start = 0 if k == 0 else nuclei[k - 1] + 1
        phon = entry.phonemes[idx]
        vowel, digit = phon[:-1], int(phon[-1])
        coda = entry.phonemes[idx + 1:] if k == last else ()
        syllables.append(Syllable(
            onset=tuple(entry.phonemes[onset_start:idx]),
            nucleus_tag=nucleus_type_of(vowel, digit),
            coda=tuple(coda),
            stress=StressLevel(digit),
            nucleus_phoneme=phon,
        ))
    return Syllabification(tuple(syllables))


class Lexicon:
    """Immutable word -> pronunciations map with case-insensitive lookup."""

    def __init__(self, entries: dict[str, list[PronEntry]], report: ParseReport):
        self._entries = entries
        self.report = report

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _normalize(word: str) -> str:
        word = word.upper()
        return _STRIP_RE.sub("", word)

    def lookup(self, word: str) -> list[PronEntry]:
        """All pronunciation variants for a word, in dictionary order.

        Lookup is case-insensitive; punctuation other than the apostrophes,
        hyphens and periods that occur in CMUdict headwords is stripped.
        """
        return list(self._entries.get(self._normalize(word), []))

    def words(self) -> Iterable[str]:
        return self._entries.keys()


def _parse_line(line: str) -> tuple[str, int, tuple[str, ...]] | None:
    """Split a dictionary line into (headword, variant index, phonemes).

    Fields are split on ASCII spaces and tabs. Returns None for a line with
    no phonemes; raises ValueError for other whitespace in the headword or
    a phoneme other than CMUdict's consonants and 0/1/2-stressed vowels.
    """
    parts = _FIELD_SEP_RE.split(line)
    if len(parts) < 2:
        return None
    head, phonemes = parts[0], parts[1:]
    if any(ch.isspace() for ch in head):
        raise ValueError(f"whitespace in headword {head!r}")
    variant = 0
    m = _ALTERNATE_RE.match(head)
    if m:
        head, variant = m.group(1), int(m.group(2))
    for p in phonemes:
        if not (p in CONSONANTS or (p[:-1] in VOWELS and p[-1] in "012")):
            raise ValueError(f"not a CMUdict phoneme: {p!r}")
    return head, variant, tuple(phonemes)


def parse_dictionary(source: TextIO | Iterable[str]) -> Lexicon:
    """Parse a CMUdict-format stream into a Lexicon.

    Comment lines start with ";;;". Malformed lines are counted in the
    parse report and skipped; an entirely empty stream raises EmptyLexicon.
    """
    entries: dict[str, list[PronEntry]] = {}
    report = ParseReport()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip(" \t\r\n")
        report.n_lines += 1
        if not line:
            continue
        if line.startswith(";;;"):
            report.n_comments += 1
            continue
        try:
            parsed = _parse_line(line)
        except ValueError as exc:
            report.skipped.append((lineno, str(exc)))
            continue
        if parsed is None:
            report.skipped.append((lineno, "no phonemes"))
            continue
        head, variant, phonemes = parsed
        entry = PronEntry(word=head, phonemes=phonemes, variant_index=variant)
        entries.setdefault(Lexicon._normalize(head), []).append(entry)
        report.n_entries += 1
    if not entries:
        raise EmptyLexicon("dictionary stream produced no entries")
    for variants in entries.values():
        variants.sort(key=lambda e: e.variant_index)
    return Lexicon(entries, report)


def load_dictionary(path: str) -> Lexicon:
    """Parse a dictionary file from disk (latin-1, as CMUdict ships)."""
    with open(path, "r", encoding="latin-1") as fh:
        return parse_dictionary(fh)
