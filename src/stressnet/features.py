"""Per-syllable feature assembly and sentence-level mean normalization.

Twelve numerical features per syllable, six over the full syllable span
and the same six over its nucleus span, in this fixed slot order:

    0 syl_pitch_mean   1 syl_pitch_max   2 syl_voiced_dur_s
    3 syl_int_mean     4 syl_int_max     5 syl_dur_s
    6 nuc_pitch_mean   7 nuc_pitch_max   8 nuc_voiced_dur_s
    9 nuc_int_mean    10 nuc_int_max    11 nuc_dur_s

Pitch statistics over a fully unvoiced span are ABSENT (None): an
unvoiced syllable says nothing about pitch, and after normalization it
sits exactly at the sentence mean (zero), the neutral input for the
linear projection. normalize_sentence takes each slot's mean as np.mean
does, over the slot's present entries copied into one contiguous array:
NumPy's own pairwise order over exactly those values, so the bits do not
depend on where the absent entries sit. A reduction along axis 0, or one
with zeros in the absent places, sums in another order.

The feature table interface is line-delimited JSON, one object per word
instance: {"utterance_id", "word", "syllables": [{"position", "features"
(12 floats, slot order above), "nucleus" (tag), "stress" (0/1/2 or
null)}]}. A word has 1 to MAX_SYLLABLES syllables whose positions are
0..n-1, each used once; read_feature_table is the one place that checks
this, and it returns each word's syllables in position order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .dsp import IntensityTrack, PitchTrack, SegmentStats, Track, segment_stats
from .errors import FormatError, InvalidSpan, SpanOutOfRange
from .lexicon import TAG_TO_INDEX

FEATURE_SLOTS = (
    "syl_pitch_mean", "syl_pitch_max", "syl_voiced_dur_s",
    "syl_int_mean", "syl_int_max", "syl_dur_s",
    "nuc_pitch_mean", "nuc_pitch_max", "nuc_voiced_dur_s",
    "nuc_int_mean", "nuc_int_max", "nuc_dur_s",
)
N_FEATURES = len(FEATURE_SLOTS)  # 12
MAX_SYLLABLES = 17


@dataclass(frozen=True)
class RawSyllableFeatures:
    """The 12 pre-normalization feature values; None marks ABSENT pitch."""

    values: tuple

    def __post_init__(self):
        if len(self.values) != N_FEATURES:
            raise InvalidSpan(f"expected {N_FEATURES} slots, got {len(self.values)}")


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


def _check_extent(track: Track, start_s: float, end_s: float) -> None:
    if len(track) == 0:
        raise SpanOutOfRange("track has no frames")
    half = track.frame_hop_s / 2.0
    lo = float(track.times_s[0]) - half
    hi = float(track.times_s[-1]) + half
    if end_s <= lo or start_s >= hi:
        raise SpanOutOfRange(
            f"span [{start_s}, {end_s}) outside track extent [{lo}, {hi})")


def _nearest_value(track: Track, start_s: float, end_s: float) -> float:
    mid = 0.5 * (start_s + end_s)
    idx = int(np.argmin(np.abs(track.times_s - mid)))
    return float(track.values[idx])


def extract_features(pitch: PitchTrack, intensity: IntensityTrack,
                     syllable_span: tuple[float, float],
                     nucleus_span: tuple[float, float]) -> RawSyllableFeatures:
    """The 12-slot raw feature vector for one syllable.

    The nucleus span must lie inside the syllable span. Intensity stats on
    a span too short to contain a frame center fall back to the nearest
    frame, so only pitch slots can be ABSENT.
    """
    s0, s1 = syllable_span
    n0, n1 = nucleus_span
    if not (s0 <= n0 and n1 <= s1):
        raise InvalidSpan(f"nucleus span [{n0},{n1}) outside syllable [{s0},{s1})")
    _check_extent(pitch, s0, s1)
    _check_extent(intensity, s0, s1)

    def six(span0: float, span1: float) -> list:
        p: SegmentStats = segment_stats(pitch, span0, span1)
        i: SegmentStats = segment_stats(intensity, span0, span1)
        int_mean = i.mean if i.mean is not None else _nearest_value(intensity, span0, span1)
        int_max = i.max if i.max is not None else int_mean
        return [p.mean, p.max, p.voiced_duration_s, int_mean, int_max, span1 - span0]

    return RawSyllableFeatures(tuple(six(s0, s1) + six(n0, n1)))


def normalize_sentence(raw: Sequence[RawSyllableFeatures] | np.ndarray,
                       ) -> np.ndarray:
    """Subtract the per-slot sentence mean; ABSENT entries become 0.

    raw is the sentence's syllables, or their values as an (n, 12) float
    array with NaN where a value is ABSENT. The result is (n, 12). The
    mean of each slot is taken over the syllables where it is present;
    absent entries are set to that mean, i.e. exactly 0 after subtraction.
    A slot absent everywhere comes out all-zero.
    """
    if not len(raw):
        raise InvalidSpan("empty sentence")
    if not isinstance(raw, np.ndarray):  # None becomes NaN
        raw = np.array([r.values for r in raw], dtype=np.float64)
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


def read_feature_table(path: str) -> list[WordRecord]:
    """Parse a feature table; a malformed line or an invalid word is a
    FormatError at path:line."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if line.strip():
                    records.append(_record(line))
            except FormatError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return records
