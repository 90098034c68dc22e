"""Per-syllable feature assembly and sentence-level mean normalization.

Twelve numerical features per syllable, six over the full syllable span
and the same six over its nucleus span, in this fixed slot order:

    0 syl_pitch_mean   1 syl_pitch_max   2 syl_voiced_dur_s
    3 syl_int_mean     4 syl_int_max     5 syl_dur_s
    6 nuc_pitch_mean   7 nuc_pitch_max   8 nuc_voiced_dur_s
    9 nuc_int_mean    10 nuc_int_max    11 nuc_dur_s

extract_features computes all of them for an utterance at once, as one
(n_syllables, 12) float64 matrix in alignment order. It takes a pitch and
an intensity track on one frame grid, as dsp's trackers make them from
one signal, and refuses two grids (ShapeError): each span set's frames
are found with one search of that grid. Pitch statistics over
a fully unvoiced span are ABSENT, marked NaN: an unvoiced syllable says
nothing about pitch, and after normalization it sits exactly at the
sentence mean (zero), the neutral input for the linear projection.
normalize_sentence takes that matrix, or the rows of it that share a
normalization pool: every syllable of the utterance, or under the
multisyllabic_only pool those of words with 2 or more syllables. It takes
each slot's mean as np.mean does, over the slot's present entries copied
into one contiguous array: NumPy's own pairwise order over exactly those
values, so the bits do not depend on where the absent entries sit. A
reduction along axis 0, or one with zeros in the absent places, sums in
another order.

The feature table interface is line-delimited JSON, one object per word
instance: {"utterance_id", "word", "syllables": [{"position", "features"
(12 floats, slot order above), "nucleus" (tag), "stress" (0/1/2 or
null)}]}. A word has 1 to MAX_SYLLABLES syllables whose positions are
0..n-1, each used once. In memory a table is one flat Instances,
whoever builds it (this reader, synth, label or featurize), and
write_feature_table writes it from the flat arrays, a type as its tag and
IGNORE_LABEL as null, through write_word_lines: the one word loop behind
every per-word JSON line (tables, predict's output, labels.jsonl). One
parse loop, _words, checks each line completely where it parses it, its
numbers too, so the first faulty line in file order is the one reported,
with the first fault in it.
Reader and writer both work a chunk of _CHUNK_WORDS (64) words at a time:
a read holds one chunk's parsed numbers, a write one chunk's texts.
read_feature_table makes each chunk's words, their syllables in position
order, into a table with one float64 conversion, and joins the chunks
with instances_from_table; it makes no per-word object. Converting the
whole table at the end would keep every parsed number alive until then
(more than three times the read's peak memory on a 2.7k-word table), and
a conversion per word costs a NumPy call each. write_word_lines asks each
column for the texts of a chunk's rows just before it writes the chunk's
lines: spelling a 2.7k-word synth table's texts before the first line
peaked at 7.5 MB under tracemalloc, against 0.28 MB a chunk at a time.
read_table_lines runs the same loop for a table that is only to be cut
into parts (split): it keeps each valid word's line and utterance id but
no features, and write_table_lines writes those lines out, so no number
is formatted again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .dsp import Track
from .errors import (FormatError, InvalidSpan, ShapeError, SpanOutOfRange,
                     StressnetError, open_output)
from .lexicon import NUCLEUS_TAGS, TAG_TO_INDEX

FEATURE_SLOTS = (
    "syl_pitch_mean", "syl_pitch_max", "syl_voiced_dur_s",
    "syl_int_mean", "syl_int_max", "syl_dur_s",
    "nuc_pitch_mean", "nuc_pitch_max", "nuc_voiced_dur_s",
    "nuc_int_mean", "nuc_int_max", "nuc_dur_s",
)
N_FEATURES = len(FEATURE_SLOTS)  # 12
MAX_SYLLABLES = 17
IGNORE_LABEL = -1


@dataclass
class Instances:
    """The words of a feature table as flat arrays, one row per syllable:
    the words in table order, each word's syllables in position order.
    Word i owns rows offsets[i]:offsets[i + 1].

    There are no padded slots: training.make_batch pads a batch to its
    longest word. instances[words] holds the words that a slice, a 1-D
    index array or a boolean mask picks, in that order.
    """

    utterance_ids: list[str]  # one per word
    words: list[str]          # one per word
    offsets: np.ndarray       # (n_words + 1,) int64
    features: np.ndarray      # (n_syllables, 12) float64
    types: np.ndarray         # (n_syllables,) int64
    labels: np.ndarray        # (n_syllables,) int64, IGNORE_LABEL where unknown

    @classmethod
    def from_counts(cls, utterance_ids: list[str], words: list[str], counts,
                    features: np.ndarray, types: np.ndarray,
                    labels: np.ndarray) -> "Instances":
        """The table whose word i has counts[i] syllables."""
        offsets = np.zeros(len(words) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(utterance_ids, words, offsets, features, types, labels)

    def __len__(self) -> int:
        return len(self.words)

    def positions(self, rows: slice) -> np.ndarray:
        """The position in its word of each syllable row of a slice of rows."""
        index = np.arange(*rows.indices(int(self.offsets[-1])))
        return index - self.offsets[np.searchsorted(self.offsets, index, "right") - 1]

    def __getitem__(self, words) -> "Instances":
        # an int picks one word, and a word is not a table
        if not isinstance(words, slice) and np.ndim(words) != 1:
            raise TypeError("Instances take a slice, index array or mask of words")
        idx = np.arange(len(self))[words]
        starts, ends = self.offsets[idx], self.offsets[idx + 1]
        offsets = np.concatenate([[0], np.cumsum(ends - starts)])
        rows = np.repeat(starts - offsets[:-1], ends - starts) + np.arange(offsets[-1])
        picked = idx.tolist()
        return Instances([self.utterance_ids[i] for i in picked],
                         [self.words[i] for i in picked], offsets,
                         self.features[rows], self.types[rows], self.labels[rows])


_NO_WORDS = Instances([], [], np.zeros(1, dtype=np.int64), np.zeros((0, N_FEATURES)),
                      np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def instances_from_table(tables: Sequence[Instances]) -> Instances:
    """The tables laid end to end as one table, their words in order."""
    tables = list(tables) or [_NO_WORDS]
    return Instances.from_counts(
        [uid for t in tables for uid in t.utterance_ids],
        [word for t in tables for word in t.words],
        np.concatenate([np.diff(t.offsets) for t in tables]),
        np.concatenate([t.features for t in tables]),
        np.concatenate([t.types for t in tables]),
        np.concatenate([t.labels for t in tables]))


def _span_error(extent: tuple[float, float] | None, s0: float, s1: float,
                n0: float, n1: float) -> StressnetError | None:
    """What is wrong with one syllable's spans, checked in this order: the
    nucleus outside the syllable, the syllable outside the tracks' extent
    (the time range their frames cover, None if they have none), then an
    empty or inverted syllable or nucleus span. None if nothing is."""
    if not (s0 <= n0 and n1 <= s1):
        return InvalidSpan(f"nucleus span [{n0},{n1}) outside syllable [{s0},{s1})")
    if extent is None:
        return SpanOutOfRange("track has no frames")
    lo, hi = extent
    if s1 <= lo or s0 >= hi:
        return SpanOutOfRange(
            f"span [{s0}, {s1}) outside track extent [{lo}, {hi})")
    for start, end in ((s0, s1), (n0, n1)):
        if not start < end:
            return InvalidSpan(f"inverted span [{start}, {end})")
    return None


def extract_features(pitch: Track, intensity: Track,
                     spans: np.ndarray) -> np.ndarray:
    """The (n, 12) raw feature matrix of an utterance's n syllables.

    pitch and intensity are estimate_pitch's and compute_intensity's
    tracks of one signal: they must share one frame grid (equal hop and
    frame times), else ShapeError. spans is an alignment's spans, (n, 4):
    syllable start and end, nucleus start and end, in seconds. A span
    holds the frames whose centers fall in [start, end); the frame times
    must be sorted, as the trackers make them. Pitch statistics count
    voiced frames only and are NaN (ABSENT) over a span with none.
    Intensity statistics over a span too short to hold a frame center
    fall back to the frame nearest its middle, so only pitch slots can be
    ABSENT. Each mean and max is taken over the span's own slice of the
    track. The first syllable whose nucleus lies outside it, whose span
    lies outside the tracks, or with an empty span, is an error.
    """
    times, hop = pitch.times_s, pitch.frame_hop_s
    if intensity.frame_hop_s != hop or not np.array_equal(intensity.times_s, times):
        raise ShapeError("pitch and intensity tracks are not on one frame grid")
    spans = np.asarray(spans, dtype=np.float64).reshape(-1, 4)
    half = hop / 2.0
    extent = (float(times[0]) - half, float(times[-1]) + half) if len(times) else None
    for row in spans.tolist():
        error = _span_error(extent, *row)
        if error is not None:
            raise error
    out = np.empty((len(spans), N_FEATURES))
    for first, (start, end) in ((0, spans[:, :2].T), (6, spans[:, 2:].T)):
        six = out[:, first:first + 6]
        six[:, 5] = end - start
        lo, hi = np.searchsorted(times, (start, end)).tolist()
        mids = (0.5 * (start + end)).tolist()
        for row, a, b, mid in zip(six, lo, hi, mids):
            voiced = pitch.values[a:b]
            voiced = voiced[np.isfinite(voiced)]
            if len(voiced):  # the sum and count np.mean takes
                row[:3] = (np.add.reduce(voiced) / len(voiced),
                           np.maximum.reduce(voiced), len(voiced) * hop)
            else:
                row[:3] = np.nan, np.nan, 0.0
            if a < b:
                levels = intensity.values[a:b]
                row[3:5] = (np.add.reduce(levels) / len(levels),
                            np.maximum.reduce(levels))
            else:  # the frame nearest the span's middle, the first on a tie
                row[3:5] = intensity.values[np.abs(times - mid).argmin()]
    return out


def normalize_sentence(raw: np.ndarray) -> np.ndarray:
    """Subtract the per-slot sentence mean; ABSENT entries become 0.

    raw is the sentence's (n, 12) raw feature matrix, NaN where a value
    is ABSENT, and the result is (n, 12). The mean of each slot is taken
    over the syllables where it is present; absent entries are set to
    that mean, i.e. exactly 0 after subtraction. A slot absent everywhere
    comes out all-zero.
    """
    if not len(raw):
        raise InvalidSpan("empty sentence")
    out = np.zeros(raw.shape)
    for column, out_column in zip(raw.T, out.T):  # one slot each
        present = ~np.isnan(column)
        values = column[present]  # a contiguous copy of the present entries
        if len(values):
            # the pairwise sum over the count, as np.mean takes it
            out_column[present] = values - np.add.reduce(values) / len(values)
    return out


# --- feature table io -------------------------------------------------------

# words per chunk: read_feature_table converts a chunk's numbers to arrays
# together, and write_word_lines spells a chunk's texts together
_CHUNK_WORDS = 64


def write_word_lines(table: Instances, path: str,
                     **columns: Callable[[slice], Sequence[str]]) -> None:
    """Write a line per word of table: the bytes json.dumps(doc,
    sort_keys=True) and a newline would write for {name: [...] for each
    column, "utterance_id", "word"}, word i's list being the column's texts
    of rows offsets[i]:offsets[i + 1]. A column is a function that, given
    a slice of rows, returns their texts, one per row; it is asked for each
    chunk of _CHUNK_WORDS words just before the chunk's lines are written,
    so a write holds one chunk's texts at a time. A text is one row's JSON,
    spelled as json.dumps spells it (", " and ": " between items, keys
    sorted, a float as its repr or NaN, Infinity, -Infinity, a string as
    JSON's ASCII string). Column names must sort before "utterance_id"."""
    heads = [(f"{encode_basestring_ascii(name)}: [", column)
             for name, column in sorted(columns.items())]
    with open_output(path) as fh:
        for first in range(0, len(table), _CHUNK_WORDS):
            words = slice(first, first + _CHUNK_WORDS)
            ends = table.offsets[first:first + _CHUNK_WORDS + 1]
            rows = slice(int(ends[0]), int(ends[-1]))
            texts = [(head, column(rows)) for head, column in heads]
            bounds = (ends - ends[0]).tolist()  # the words' rows in the chunk
            for uid, word, start, stop in zip(table.utterance_ids[words],
                                              table.words[words], bounds, bounds[1:]):
                fh.write("{" + "".join([f"{head}{', '.join(chunk[start:stop])}], "
                                        for head, chunk in texts])
                         + f'"utterance_id": {encode_basestring_ascii(uid)}, '
                           f'"word": {encode_basestring_ascii(word)}}}\n')


def write_feature_table(table: Instances, path: str) -> None:
    """Write the table with write_word_lines, its syllables laid out as
    the module docstring says: a type as its tag NUCLEUS_TAGS[type], an
    IGNORE_LABEL stress as null. Features must be finite, as
    read_feature_table requires."""
    tag_json = [encode_basestring_ascii(tag) for tag in NUCLEUS_TAGS]

    def syllables(rows: slice) -> list[str]:
        return [f'{{"features": [{", ".join(map(float.__repr__, row))}], '
                f'"nucleus": {tag_json[t]}, "position": {i}, '
                f'"stress": {"null" if s == IGNORE_LABEL else s}}}'
                for row, t, i, s in zip(
                    table.features[rows].tolist(), table.types[rows].tolist(),
                    table.positions(rows).tolist(), table.labels[rows].tolist())]

    write_word_lines(table, path, syllables=syllables)


def _wrong_type(key: str) -> FormatError:
    return FormatError(f"{key!r} is missing or of the wrong type")


def _field(doc: dict, key: str, kind: type):
    """doc[key], whose exact type must be kind (so a bool is no int)."""
    value = doc.get(key)
    if type(value) is not kind:
        raise _wrong_type(key)
    return value


_NUMBER_TYPES = frozenset((int, float))
_FEATURES_ERROR = f"'features' must be {N_FEATURES} finite numbers"


def _word(line: bytes) -> tuple[str, str, list, list, list]:
    """One line's word as (utterance_id, word, rows, types, labels), its n
    syllables in position order: each feature row as the line's list of
    12 finite ints or floats, each nucleus tag as its type index and each
    stress as its label (IGNORE_LABEL for null). Each syllable's fields
    are checked in turn, by exact type, and the syllable is put at its
    position; then the count and the positions are checked."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON ({exc})")
    if type(doc) is not dict:
        raise FormatError("the line is not a JSON object")
    utterance_id, word = _field(doc, "utterance_id", str), _field(doc, "word", str)
    syllables = _field(doc, "syllables", list)
    n = len(syllables)
    rows, types, labels = [None] * n, [None] * n, [None] * n
    positions_ok = True  # each position so far in 0..n-1 and used once
    for syl in syllables:
        if type(syl) is not dict:
            raise FormatError("a syllable is not a JSON object")
        stress = syl.get("stress", ...)  # missing is not null
        if stress is None:
            stress = IGNORE_LABEL
        elif type(stress) is not int:
            raise _wrong_type("stress")
        elif not 0 <= stress <= 2:
            raise FormatError(f"stress {stress} is not 0, 1, 2 or null")
        nucleus = syl.get("nucleus")
        if type(nucleus) is not str:
            raise _wrong_type("nucleus")
        index = TAG_TO_INDEX.get(nucleus)
        if index is None:
            raise FormatError(f"unknown nucleus tag {nucleus!r}")
        values = syl.get("features")
        if type(values) is not list:
            raise _wrong_type("features")
        try:
            ok = (len(values) == N_FEATURES
                  and _NUMBER_TYPES.issuperset(map(type, values))
                  and all(map(math.isfinite, values)))
        except OverflowError:  # an int beyond the float range
            ok = False
        if not ok:
            raise FormatError(_FEATURES_ERROR)
        position = syl.get("position")
        if type(position) is not int:
            raise _wrong_type("position")
        if 0 <= position < n and rows[position] is None:
            rows[position], types[position], labels[position] = values, index, stress
        else:
            positions_ok = False
    if not 1 <= n <= MAX_SYLLABLES:
        raise FormatError(f"{n} syllables, not 1 to {MAX_SYLLABLES}")
    if not positions_ok:
        raise FormatError(f"syllable positions are not 0..{n - 1}, each once")
    return utterance_id, word, rows, types, labels


def _words(path: str, lines: Iterable[bytes]) -> Iterator[tuple[bytes, tuple]]:
    """The one parse loop over a feature table's lines: each non-blank
    line with its _word. A malformed line or an invalid word is a
    FormatError at path:line."""
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                word = _word(line)
            except FormatError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            yield line, word


def read_feature_table(path: str) -> Instances:
    """A feature table's words as one flat Instances table, in input order;
    a malformed line or an invalid word is a FormatError at path:line."""
    tables = []
    with open(path, "rb") as fh:
        words = (word for _, word in _words(path, fh))
        while chunk := list(islice(words, _CHUNK_WORDS)):
            ids, texts, rows, types, labels = zip(*chunk)
            tables.append(Instances.from_counts(
                list(ids), list(texts), list(map(len, rows)),
                np.array(list(chain.from_iterable(rows)), dtype=np.float64),
                np.array(list(chain.from_iterable(types)), dtype=np.int64),
                np.array(list(chain.from_iterable(labels)), dtype=np.int64)))
    return instances_from_table(tables)


class TableLine(NamedTuple):
    """A feature-table word's line, surrounding whitespace left out, and
    its utterance id (so corpus.split can split lines by utterance, as
    train_utterances splits a table's words)."""

    utterance_id: str
    line: bytes


def read_table_lines(path: str) -> list[TableLine]:
    """The line of each of a feature table's words, in input order. Every
    line is checked as read_feature_table checks it, with the same
    FormatError, so write_table_lines writes only valid words."""
    with open(path, "rb") as fh:
        return [TableLine(word[0], line.strip()) for line, word in _words(path, fh)]


def write_table_lines(lines: Sequence[TableLine], path: str) -> None:
    """Write each line, ended by a newline, in the order given. A line
    that write_feature_table wrote comes out byte for byte as it was; any
    other keeps its own spelling of the same record."""
    with open_output(path, "wb") as fh:
        fh.writelines(line.line + b"\n" for line in lines)
