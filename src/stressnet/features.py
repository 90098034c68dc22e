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
0..n-1, each used once; one parse loop checks this, and
read_feature_table returns each word's syllables in position order.
read_table_lines runs the same loop for a table that is only to be cut
into parts (split): it keeps the table's bytes and where each valid
word's line lies in them, and write_table_lines copies those lines out,
so no number is formatted again.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .dsp import IntensityTrack, PitchTrack, Track
from .errors import FormatError, InvalidSpan, SpanOutOfRange, StressnetError
from .lexicon import TAG_TO_INDEX

FEATURE_SLOTS = (
    "syl_pitch_mean", "syl_pitch_max", "syl_voiced_dur_s",
    "syl_int_mean", "syl_int_max", "syl_dur_s",
    "nuc_pitch_mean", "nuc_pitch_max", "nuc_voiced_dur_s",
    "nuc_int_mean", "nuc_int_max", "nuc_dur_s",
)
N_FEATURES = len(FEATURE_SLOTS)  # 12
MAX_SYLLABLES = 17


@dataclass
class WordRecord:
    """One word instance of a feature table, its n syllables in position
    order: their features as one (n, 12) float64 matrix, their nucleus
    tags, and their stresses (plain ints 0/1/2, None where unknown)."""

    utterance_id: str
    word: str
    features: np.ndarray
    nucleus_tags: list[str]
    stresses: list[int | None]


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

    spans is (n, 4): syllable start and end, nucleus start and end, in
    seconds. A span holds the frames whose centers fall in [start, end);
    the track times must be sorted, as the trackers make them. Pitch
    statistics count voiced frames only and are NaN (ABSENT) over a span
    with none. Intensity statistics over a span too short to hold a frame
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

def write_feature_table(records: Sequence[WordRecord], path: str) -> None:
    """Write the bytes json.dumps(doc, sort_keys=True) and a newline would
    write for each record's document. The fixed schema is laid out here
    instead: features as the repr of a float, text as JSON's ASCII string.
    Features must be finite, as read_feature_table requires."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            sylls = ", ".join(
                f'{{"features": [{", ".join(map(float.__repr__, row))}], '
                f'"nucleus": {encode_basestring_ascii(tag)}, "position": {i}, '
                f'"stress": {"null" if stress is None else stress}}}'
                for i, (row, tag, stress) in enumerate(zip(
                    rec.features.tolist(), rec.nucleus_tags, rec.stresses)))
            fh.write(f'{{"syllables": [{sylls}], '
                     f'"utterance_id": {encode_basestring_ascii(rec.utterance_id)}, '
                     f'"word": {encode_basestring_ascii(rec.word)}}}\n')


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


def _record(line: bytes) -> WordRecord:
    """One line's word. Each syllable's fields are checked in turn, by
    exact type, and the syllable is put at its position; then the count
    and the positions are checked, and the features of all syllables are
    converted and checked for finiteness together."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON ({exc})")
    if type(doc) is not dict:
        raise FormatError("the line is not a JSON object")
    utterance_id, word = _field(doc, "utterance_id", str), _field(doc, "word", str)
    syllables = _field(doc, "syllables", list)
    n = len(syllables)
    rows, tags, stresses = [None] * n, [None] * n, [None] * n
    positions_ok = True  # each position so far in 0..n-1 and used once
    for syl in syllables:
        if type(syl) is not dict:
            raise FormatError("a syllable is not a JSON object")
        stress = syl.get("stress", ...)  # missing is not null
        if stress is not None:
            if type(stress) is not int:
                raise _wrong_type("stress")
            if not 0 <= stress <= 2:
                raise FormatError(f"stress {stress} is not 0, 1, 2 or null")
        nucleus = syl.get("nucleus")
        if type(nucleus) is not str:
            raise _wrong_type("nucleus")
        if nucleus not in TAG_TO_INDEX:
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
            rows[position], tags[position], stresses[position] = values, nucleus, stress
        else:
            positions_ok = False
    if not 1 <= n <= MAX_SYLLABLES:
        raise FormatError(f"{n} syllables, not 1 to {MAX_SYLLABLES}")
    if not positions_ok:
        raise FormatError(f"syllable positions are not 0..{n - 1}, each once")
    try:
        features = np.array(rows, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise FormatError(_FEATURES_ERROR)
    if not np.isfinite(features).all():
        raise FormatError(_FEATURES_ERROR)
    return WordRecord(utterance_id, word, features, tags, stresses)


def _table_words(path: str,
                 lines: Iterable[bytes]) -> Iterator[tuple[WordRecord, int, int]]:
    """The one parse loop over a feature table's lines: each word's record
    and the (start, stop) byte offsets of its line in the table, with the
    line's surrounding whitespace left out. Blank lines are skipped; a
    malformed line or an invalid word is a FormatError at path:line."""
    start = 0
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if text:
            try:
                rec = _record(line)
            except FormatError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            first = start + len(line) - len(line.lstrip())
            yield rec, first, first + len(text)
        start += len(line)


def read_feature_table(path: str) -> list[WordRecord]:
    """Parse a feature table; a malformed line or an invalid word is a
    FormatError at path:line."""
    with open(path, "rb") as fh:
        return [rec for rec, _, _ in _table_words(path, fh)]


class TableLine(NamedTuple):
    """Where a feature-table word's line lies in the table's bytes, and its
    utterance id (so corpus.split can split lines as it splits records)."""

    utterance_id: str
    start: int
    stop: int


def read_table_lines(path: str) -> tuple[bytes, list[TableLine]]:
    """A feature table's bytes and the line of each of its words, in input
    order. Every line is checked as read_feature_table checks it, with the
    same FormatError, so write_table_lines copies only valid words."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, [TableLine(rec.utterance_id, first, stop)
                  for rec, first, stop in _table_words(path, io.BytesIO(data))]


def write_table_lines(data: bytes, lines: Sequence[TableLine], path: str) -> None:
    """Write each line's bytes from data, ended by a newline, in the order
    given. A line that write_feature_table wrote comes out byte for byte
    as it was; any other keeps its own spelling of the same record."""
    with open(path, "wb") as fh:
        fh.writelines(data[line.start:line.stop] + b"\n" for line in lines)
