"""Per-syllable feature assembly and sentence-level mean normalization.

Twelve numerical features per syllable, six over the full syllable span
and the same six over its nucleus span, in this fixed slot order:

    0 syl_pitch_mean   1 syl_pitch_max   2 syl_voiced_dur_s
    3 syl_int_mean     4 syl_int_max     5 syl_dur_s
    6 nuc_pitch_mean   7 nuc_pitch_max   8 nuc_voiced_dur_s
    9 nuc_int_mean    10 nuc_int_max    11 nuc_dur_s

extract_features computes all of them for an utterance at once, as one
(n_syllables, 12) float64 matrix in alignment order. Pitch statistics over
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
write_feature_table writes it from the flat arrays: a type as its tag,
IGNORE_LABEL as null. One parse loop checks each line and makes each
chunk of 64 words, their syllables in position order, into a table;
read_feature_table joins the chunks with instances_from_table, and makes
no per-word object. The loop converts a chunk's features to float64 and
checks them at once: converting the whole table at the end would keep
every parsed number alive until then (more than three times the read's
peak memory on a 2.7k-word table), and a conversion per word costs a
NumPy call each. The first faulty line in file order is the one
reported, whichever chunk holds it.
read_table_lines runs the same loop for a table that is only to be cut
into parts (split): it keeps the table's bytes and where each valid
word's line lies in them, but no features, and write_table_lines copies
those lines out, so no number is formatted again.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .dsp import IntensityTrack, PitchTrack, Track
from .errors import (FormatError, InvalidSpan, SpanOutOfRange, StressnetError,
                     open_output)
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


def _extent(track: Track) -> tuple[float, float] | None:
    """The time range a track's frames cover, or None if it has none."""
    if len(track) == 0:
        return None
    half = track.frame_hop_s / 2.0
    return float(track.times_s[0]) - half, float(track.times_s[-1]) + half


def _span_error(extents: list, s0: float, s1: float, n0: float,
                n1: float) -> StressnetError | None:
    """What is wrong with one syllable's spans, checked in this order: the
    nucleus outside the syllable, the syllable outside the pitch or the
    intensity track's extent, then an empty or inverted syllable or
    nucleus span. None if nothing is."""
    if not (s0 <= n0 and n1 <= s1):
        return InvalidSpan(f"nucleus span [{n0},{n1}) outside syllable [{s0},{s1})")
    for extent in extents:
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


def extract_features(pitch: PitchTrack, intensity: IntensityTrack,
                     spans: np.ndarray) -> np.ndarray:
    """The (n, 12) raw feature matrix of an utterance's n syllables.

    spans is an alignment's spans, (n, 4): syllable start and end, nucleus
    start and end, in seconds. A span holds the frames whose centers fall
    in [start, end); the track times must be sorted, as the trackers make
    them. Pitch statistics count voiced frames only and are NaN (ABSENT)
    over a span with none. Intensity statistics over a span too short to hold a frame
    center fall back to the frame nearest its middle, so only pitch slots
    can be ABSENT. Each mean and max is taken over the span's own slice of
    the track. The first syllable whose nucleus lies outside it, whose
    span lies outside either track, or with an empty span, is an error.
    """
    spans = np.asarray(spans, dtype=np.float64).reshape(-1, 4)
    extents = [_extent(pitch), _extent(intensity)]
    for row in spans.tolist():
        error = _span_error(extents, *row)
        if error is not None:
            raise error
    out = np.empty((len(spans), N_FEATURES))
    hop = pitch.frame_hop_s
    for first, (start, end) in ((0, spans[:, :2].T), (6, spans[:, 2:].T)):
        six = out[:, first:first + 6]
        six[:, 5] = end - start
        p_lo, p_hi = np.searchsorted(pitch.times_s, (start, end)).tolist()
        i_lo, i_hi = np.searchsorted(intensity.times_s, (start, end)).tolist()
        mids = (0.5 * (start + end)).tolist()
        for row, a, b, c, d, mid in zip(six, p_lo, p_hi, i_lo, i_hi, mids):
            voiced = pitch.values[a:b]
            voiced = voiced[np.isfinite(voiced)]
            if len(voiced):  # the sum and count np.mean takes
                row[:3] = (np.add.reduce(voiced) / len(voiced),
                           np.maximum.reduce(voiced), len(voiced) * hop)
            else:
                row[:3] = np.nan, np.nan, 0.0
            if c < d:
                levels = intensity.values[c:d]
                row[3:5] = (np.add.reduce(levels) / len(levels),
                            np.maximum.reduce(levels))
            else:  # the frame nearest the span's middle, the first on a tie
                row[3:5] = intensity.values[np.abs(intensity.times_s - mid).argmin()]
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

def write_feature_table(table: Instances, path: str) -> None:
    """Write the bytes json.dumps(doc, sort_keys=True) and a newline would
    write for each word's document, its nucleus tags NUCLEUS_TAGS[type]
    and an IGNORE_LABEL stress null. The fixed schema is laid out here
    instead: features as the repr of a float, text as JSON's ASCII string.
    Features must be finite, as read_feature_table requires."""
    tag_json = [encode_basestring_ascii(tag) for tag in NUCLEUS_TAGS]
    tags = [tag_json[t] for t in table.types.tolist()]
    stresses = ["null" if s == IGNORE_LABEL else str(s)
                for s in table.labels.tolist()]
    offsets = table.offsets.tolist()
    with open_output(path) as fh:
        for uid, word, start, stop in zip(table.utterance_ids, table.words,
                                          offsets, offsets[1:]):
            sylls = ", ".join(
                f'{{"features": [{", ".join(map(float.__repr__, row))}], '
                f'"nucleus": {tag}, "position": {i}, "stress": {stress}}}'
                for i, (row, tag, stress) in enumerate(zip(
                    table.features[start:stop].tolist(), tags[start:stop],
                    stresses[start:stop])))
            fh.write(f'{{"syllables": [{sylls}], '
                     f'"utterance_id": {encode_basestring_ascii(uid)}, '
                     f'"word": {encode_basestring_ascii(word)}}}\n')


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
# words whose features are converted to float64 and checked together
_CHUNK_WORDS = 64


def _word(line: bytes) -> tuple[str, str, list, list, list]:
    """One line's word as (utterance_id, word, rows, types, labels), its n
    syllables in position order: each feature row as the line's list of
    12 numbers (converted later, by _floats), each nucleus tag as its type
    index and each stress as its label (IGNORE_LABEL for null). Each
    syllable's fields are checked in turn, by exact type, and the syllable
    is put at its position; then the count and the positions are checked."""
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
        if len(values) != N_FEATURES or not _NUMBER_TYPES.issuperset(map(type, values)):
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


def _floats(rows: list) -> np.ndarray | None:
    """The feature rows as one float64 array, or None if a value is beyond
    the float range or not finite."""
    try:
        block = np.array(rows, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    return block if np.isfinite(block).all() else None


def _convert(path: str, rows: list, counts: list[int],
             linenos: list[int]) -> np.ndarray:
    """The rows of consecutive words converted by _floats; a value that
    fails makes a FormatError at the line of the first word, in file
    order, that holds one. counts and linenos hold each word's syllable
    count and line number."""
    block = _floats(rows)
    if block is None:
        stop = 0
        for n, lineno in zip(counts, linenos):
            start, stop = stop, stop + n
            if _floats(rows[start:stop]) is None:
                raise FormatError(f"{path}:{lineno}: {_FEATURES_ERROR}")
    return block


def _chunks(path: str, lines: Iterable[bytes]) -> Iterator[tuple[Instances, list]]:
    """The one parse loop over a feature table's lines: up to _CHUNK_WORDS
    consecutive words at a time, as a table and each word's line number.
    Blank lines are skipped; a malformed line or an invalid word is a
    FormatError at path:line, the first such line in file order deciding:
    a chunk's features are converted and checked when it is full, and
    before a later line's fault is raised."""
    ids, words, counts, linenos, rows, types, labels = ([] for _ in range(7))

    def chunk() -> tuple[Instances, list]:
        features = _convert(path, rows, counts, linenos)
        return Instances.from_counts(ids, words, counts, features,
                                     np.array(types, dtype=np.int64),
                                     np.array(labels, dtype=np.int64)), linenos

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            utterance_id, word, word_rows, word_types, word_labels = _word(line)
        except FormatError as exc:
            _convert(path, rows, counts, linenos)  # an earlier line's fault first
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        ids.append(utterance_id)
        words.append(word)
        counts.append(len(word_rows))
        linenos.append(lineno)
        rows += word_rows
        types += word_types
        labels += word_labels
        if len(words) == _CHUNK_WORDS:
            yield chunk()
            ids, words, counts, linenos, rows, types, labels = ([] for _ in range(7))
    if words:
        yield chunk()


def read_feature_table(path: str) -> Instances:
    """A feature table's words as one flat Instances table, in input order;
    a malformed line or an invalid word is a FormatError at path:line."""
    with open(path, "rb") as fh:
        return instances_from_table([table for table, _ in _chunks(path, fh)])


class TableLine(NamedTuple):
    """Where a feature-table word's line lies in the table's bytes, and its
    utterance id (so corpus.split can split lines by utterance, as
    train_utterances splits a table's words)."""

    utterance_id: str
    start: int
    stop: int


def read_table_lines(path: str) -> tuple[bytes, list[TableLine]]:
    """A feature table's bytes and the line of each of its words, in input
    order, surrounding whitespace left out. Every line is checked as
    read_feature_table checks it, with the same FormatError, so
    write_table_lines copies only valid words."""
    with open(path, "rb") as fh:
        data = fh.read()
    spans = []  # each line's (start, stop), surrounding whitespace left out

    def lines():
        start = 0
        for line in io.BytesIO(data):
            first = start + len(line) - len(line.lstrip())
            spans.append((first, first + len(line.strip())))
            start += len(line)
            yield line

    return data, [TableLine(utterance_id, *spans[lineno - 1])
                  for table, linenos in _chunks(path, lines())
                  for utterance_id, lineno in zip(table.utterance_ids, linenos)]


def write_table_lines(data: bytes, lines: Sequence[TableLine], path: str) -> None:
    """Write each line's bytes from data, ended by a newline, in the order
    given. A line that write_feature_table wrote comes out byte for byte
    as it was; any other keeps its own spelling of the same record."""
    with open_output(path, "wb") as fh:
        fh.writelines(data[line.start:line.stop] + b"\n" for line in lines)
