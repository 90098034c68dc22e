"""Alignment ingestion, gold labeling, filtering, splits, class weights,
and a synthetic oracle corpus.

Alignment documents are JSON, one utterance per file:

    {"schema": 1,
     "utterance_id": "utt-000001",
     "audio_path": "audio/utt-000001.wav",      # may be null
     "words": [
       {"text": "overcome",
        "syllables": [
          {"start_s": 0.00, "end_s": 0.21,
           "nucleus": {"start_s": 0.02, "end_s": 0.12, "tag": "ow"}},
          ...
        ]}]}

Times are seconds as decimals. Syllable spans must be ordered and
non-overlapping within a word, and each nucleus span must sit inside its
syllable span. The nucleus "tag" is informational; gold labels and types
always come from the lexicon.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentFormat,
    InvalidConfig,
    InvalidSpans,
    LabelError,
    ShapeError,
    SplitTooSmall,
)
from .features import (
    MAX_SYLLABLES,
    N_FEATURES,
    RawSyllableFeatures,
    SyllableObservation,
    WordRecord,
    normalize_sentence,
)
from .lexicon import (
    NUCLEUS_TAGS,
    TAG_TO_INDEX,
    Lexicon,
    StressLevel,
    syllabify,
)

log = logging.getLogger(__name__)

IGNORE_LABEL = -1
WEIGHT_EXPONENT = 0.7

# exclusion reason codes
MONOSYLLABIC = "MONOSYLLABIC"
TOO_LONG = "TOO_LONG"
NOT_IN_LEXICON = "NOT_IN_LEXICON"
COUNT_MISMATCH = "COUNT_MISMATCH"
UTTERANCE_EXCLUDED = "UTTERANCE_EXCLUDED"


# --- alignment schema -------------------------------------------------------

@dataclass(frozen=True)
class NucleusSpan:
    start_s: float
    end_s: float
    tag: str | None = None


@dataclass(frozen=True)
class SyllableSpan:
    start_s: float
    end_s: float
    nucleus: NucleusSpan


@dataclass(frozen=True)
class AlignedWord:
    text: str
    syllables: tuple[SyllableSpan, ...]


@dataclass(frozen=True)
class UtteranceAlignment:
    utterance_id: str
    audio_path: str | None
    words: tuple[AlignedWord, ...]


def _require(doc: dict, key: str, ctx: str):
    if not isinstance(doc, dict):
        raise AlignmentFormat(f"{ctx}: not a JSON object")
    if key not in doc:
        raise AlignmentFormat(f"{ctx}: missing field {key!r}")
    return doc[key]


def _span(doc: dict, ctx: str) -> tuple[float, float]:
    start = _require(doc, "start_s", ctx)
    end = _require(doc, "end_s", ctx)
    try:
        start, end = float(start), float(end)
    except (TypeError, ValueError, OverflowError):
        raise AlignmentFormat(f"{ctx}: start_s/end_s must be numbers")
    if not (math.isfinite(start) and math.isfinite(end)) or start >= end:
        raise InvalidSpans(f"{ctx}: bad span [{start}, {end})")
    return start, end


def parse_alignment(doc: dict, source: str = "<doc>") -> UtteranceAlignment:
    """Validate a parsed alignment document against the schema."""
    if not isinstance(doc, dict):
        raise AlignmentFormat(f"{source}: top level must be an object")
    if _require(doc, "schema", source) != 1:
        raise AlignmentFormat(f"{source}: unsupported schema {doc.get('schema')!r}")
    utt_id = str(_require(doc, "utterance_id", source))
    audio_path = doc.get("audio_path")
    if not isinstance(audio_path, (str, type(None))):
        raise AlignmentFormat(f"{source}: 'audio_path' must be a string or null")
    words_doc = _require(doc, "words", source)
    if not isinstance(words_doc, list):
        raise AlignmentFormat(f"{source}: 'words' must be a list")

    words: list[AlignedWord] = []
    for wi, wdoc in enumerate(words_doc):
        ctx = f"{source}: word[{wi}]"
        text = str(_require(wdoc, "text", ctx))
        sylls_doc = _require(wdoc, "syllables", ctx)
        if not isinstance(sylls_doc, list) or not sylls_doc:
            raise AlignmentFormat(f"{ctx}: 'syllables' must be a non-empty list")
        sylls: list[SyllableSpan] = []
        prev_end = -math.inf
        for si, sdoc in enumerate(sylls_doc):
            sctx = f"{ctx}.syllable[{si}]"
            s0, s1 = _span(sdoc, sctx)
            if s0 < prev_end:
                raise InvalidSpans(f"{sctx}: overlaps previous syllable")
            prev_end = s1
            ndoc = _require(sdoc, "nucleus", sctx)
            n0, n1 = _span(ndoc, f"{sctx}.nucleus")
            if n0 < s0 or n1 > s1:
                raise InvalidSpans(f"{sctx}: nucleus span outside syllable span")
            sylls.append(SyllableSpan(s0, s1, NucleusSpan(n0, n1, ndoc.get("tag"))))
        words.append(AlignedWord(text, tuple(sylls)))
    return UtteranceAlignment(utt_id, audio_path, tuple(words))


def load_alignment(path: str) -> UtteranceAlignment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise AlignmentFormat(f"{path}: not valid UTF-8 JSON ({exc})")
    return parse_alignment(doc, source=path)


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


def save_alignment(al: UtteranceAlignment, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(alignment_to_doc(al), fh, sort_keys=True, indent=1)
        fh.write("\n")


# --- word instances ---------------------------------------------------------

@dataclass
class WordInstance:
    """One word as arrays over its n syllables, in position order.

    There are no padded slots: training.make_batch pads a batch to its
    longest word.
    """

    utterance_id: str
    word: str
    features: np.ndarray      # (n, 12) float64
    type_indices: np.ndarray  # (n,) int64
    labels: np.ndarray        # (n,) int64, IGNORE_LABEL where unknown

    @property
    def valid_count(self) -> int:
        return len(self.labels)


def build_instance(record: WordRecord) -> WordInstance:
    """Pack a valid record into arrays: one read by read_feature_table or
    built by this program, syllables in position order."""
    sylls = record.syllables
    return WordInstance(
        record.utterance_id, record.word,
        np.array([obs.features for obs in sylls], dtype=np.float64),
        np.array([TAG_TO_INDEX[obs.nucleus_tag] for obs in sylls], dtype=np.int64),
        np.array([IGNORE_LABEL if obs.stress is None else int(obs.stress)
                  for obs in sylls], dtype=np.int64))


def instances_from_table(records: list[WordRecord]) -> list[WordInstance]:
    return [build_instance(r) for r in records]


def require_gold(instances: list[WordInstance]) -> None:
    """LabelError naming the first word with a syllable of unknown stress."""
    for inst in instances:
        if (inst.labels == IGNORE_LABEL).any():
            raise LabelError(f"{inst.utterance_id}: {inst.word!r} has a "
                             "syllable without a gold stress label")


# --- labeling ---------------------------------------------------------------

@dataclass
class Exclusion:
    utterance_id: str
    word: str
    reason: str


def _match_variant(lexicon: Lexicon, text: str, n_syllables: int):
    """First pronunciation variant whose syllable count matches, or None."""
    variants = lexicon.lookup(text)
    if not variants:
        return None, NOT_IN_LEXICON
    for entry in variants:
        if entry.vowel_count() == n_syllables:
            return syllabify(entry), None
    return None, COUNT_MISMATCH


def label_utterance(alignment: UtteranceAlignment, lexicon: Lexicon,
                    word_features: list[list[np.ndarray]] | None = None,
                    exclusion_scope: str = "word",
                    ) -> tuple[list[WordRecord], list[Exclusion]]:
    """Attach gold stress labels and nucleus types to an utterance's words.

    For each word, pronunciation variants are tried in dictionary order and
    the first whose syllable count matches the alignment wins. Monosyllabic
    words are dropped; lookup failures and count mismatches are reported as
    exclusions. With exclusion_scope="utterance", a lookup/count failure
    anywhere discards the whole utterance.

    word_features, when given, supplies the normalized 12-vectors per word
    per syllable (same shape as the alignment). Without it, features are
    zero, which suits label-only workflows.
    """
    if exclusion_scope not in ("word", "utterance"):
        raise InvalidConfig(f"unknown exclusion_scope {exclusion_scope!r}")
    if word_features is not None and len(word_features) != len(alignment.words):
        raise ShapeError("word_features does not match alignment word count")

    records: list[WordRecord] = []
    exclusions: list[Exclusion] = []
    fatal = False
    for wi, word in enumerate(alignment.words):
        n = len(word.syllables)
        if n < 2:
            exclusions.append(Exclusion(alignment.utterance_id, word.text, MONOSYLLABIC))
            continue
        if n > MAX_SYLLABLES:
            exclusions.append(Exclusion(alignment.utterance_id, word.text, TOO_LONG))
            continue
        syl, reason = _match_variant(lexicon, word.text, n)
        if syl is None:
            exclusions.append(Exclusion(alignment.utterance_id, word.text, reason))
            fatal = True
            continue
        obs = []
        for i, s in enumerate(syl.syllables):
            feats = (word_features[wi][i] if word_features is not None
                     else np.zeros(N_FEATURES))
            obs.append(SyllableObservation(
                features=np.asarray(feats, dtype=np.float64),
                nucleus_tag=s.nucleus_tag,
                position=i,
                stress=s.stress,
            ))
        records.append(WordRecord(alignment.utterance_id, word.text, obs))

    if fatal and exclusion_scope == "utterance":
        exclusions.extend(
            Exclusion(rec.utterance_id, rec.word, UTTERANCE_EXCLUDED)
            for rec in records)
        records = []
    return records, exclusions


# --- split ------------------------------------------------------------------

def split(words: list, train_fraction: float = 0.7,
          seed: int = 0) -> tuple[list, list]:
    """Seeded train/test split at utterance granularity of word records or
    instances; only their utterance_id is read, and input order is kept.

    Utterance ids are sorted before shuffling so membership depends only on
    the id set and the seed, not on input order.
    """
    if not 0.0 <= train_fraction <= 1.0:
        raise InvalidConfig(f"train_fraction {train_fraction} not in [0, 1]")
    utt_ids = sorted({w.utterance_id for w in words})
    if len(utt_ids) < 2:
        raise SplitTooSmall(f"need at least 2 utterances, got {len(utt_ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(utt_ids))
    n_train = int(round(train_fraction * len(utt_ids)))
    train_ids = {utt_ids[i] for i in order[:n_train]}
    train = [w for w in words if w.utterance_id in train_ids]
    test = [w for w in words if w.utterance_id not in train_ids]
    return train, test


# --- class weights ----------------------------------------------------------

@dataclass
class ClassWeights:
    """Per (nucleus type, stress level) loss weights, max-normalized per type."""

    table: np.ndarray  # (16, 3) float64


def weights_from_proportions(p: np.ndarray) -> np.ndarray:
    """(p / max p) ** 0.7 along the last axis; max p must be positive."""
    p = np.asarray(p, dtype=np.float64)
    top = p.max(axis=-1, keepdims=True)
    return (p / top) ** WEIGHT_EXPONENT


def compute_class_weights(train: list[WordInstance]) -> ClassWeights:
    """Stress-level weights per nucleus type from training proportions.

    Types that never occur in the training set get weight 1 for every
    class so the loss stays defined on rare types.
    """
    if not train:
        raise InvalidConfig("empty training set")
    counts = np.zeros((len(NUCLEUS_TAGS), 3))
    for inst in train:
        np.add.at(counts, (inst.type_indices, inst.labels), 1.0)
    table = np.ones((len(NUCLEUS_TAGS), 3))
    for t in range(len(NUCLEUS_TAGS)):
        total = counts[t].sum()
        if total == 0:
            log.info("nucleus type %r unseen in training; weights default to 1",
                     NUCLEUS_TAGS[t])
            continue
        table[t] = weights_from_proportions(counts[t] / total)
    return ClassWeights(table)


# --- synthetic corpus -------------------------------------------------------

LABELINGS = ("dictionary", "relative_duration")
# Bounds on the generator settings. No useful corpus comes near them; they
# keep every drawn duration, pitch and level finite, so that the sentence
# means taken in normalize_sentence cannot overflow.
MAX_WORDS_PER_UTTERANCE = 1000
MAX_GEN_MAGNITUDE = 1e6

# per real-valued GenConfig field: the range it must lie in besides
# |value| <= MAX_GEN_MAGNITUDE, as text and as a test
_ANY = ("", lambda v: True)
_GEN_REAL_RULES = {
    "duration_base_s": ("> 0 and ", lambda v: v > 0),
    "duration_class_mult": ("> 0 and ", lambda v: v > 0),
    "pitch_base_hz": ("> 0 and ", lambda v: v > 0),
    "pitch_class_offset_hz": _ANY,
    "intensity_base_db": _ANY,
    "intensity_class_offset_db": _ANY,
    "noise": (">= 0 and ", lambda v: v >= 0),
    # keeps the per-type duration factor 1 + scale * U(-1, 1) positive
    "type_offset_scale": ("in [0, 1) and ", lambda v: 0 <= v < 1),
    "nucleus_duration_fraction": ("in (0, 1] and ", lambda v: 0 < v <= 1),
    "nucleus_pitch_shift_hz": _ANY,
    "nucleus_intensity_shift_db": _ANY,
    "voiced_fraction": ("in [0, 1] and ", lambda v: 0 <= v <= 1),
    "word_gap_s": (">= 0 and ", lambda v: v >= 0),
}
# fields that hold one value per stress class
_PER_CLASS = ("duration_class_mult", "pitch_class_offset_hz",
              "intensity_class_offset_db")


def _gen_real_ok(value, test) -> bool:
    """A real number, not a bool, within the magnitude bound (which NaN and
    the infinities fail) and passing test."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= MAX_GEN_MAGNITUDE and test(value))


@dataclass(frozen=True)
class GenConfig:
    """Class-conditioned feature generator settings.

    noise is expressed in units of each slot's class gap: the per-slot
    Gaussian sigma is noise times the largest class offset of that slot,
    so noise=0 gives exact class constants and noise around 3 drowns the
    class structure.

    Every field is checked on construction; a bad value is InvalidConfig.
    """

    n_words_range: tuple[int, int] = (8, 14)
    duration_base_s: float = 0.15
    duration_class_mult: tuple[float, float, float] = (1.0, 1.5, 1.25)
    pitch_base_hz: float = 120.0
    pitch_class_offset_hz: tuple[float, float, float] = (0.0, 40.0, 15.0)
    intensity_base_db: float = -20.0
    intensity_class_offset_db: tuple[float, float, float] = (0.0, 6.0, 3.0)
    noise: float = 0.0
    type_offset_scale: float = 0.25
    nucleus_duration_fraction: float = 0.6
    nucleus_pitch_shift_hz: float = 5.0
    nucleus_intensity_shift_db: float = 1.0
    voiced_fraction: float = 0.8
    labeling: str = "dictionary"  # or "relative_duration"
    word_gap_s: float = 0.05

    def __post_init__(self):
        words = self.n_words_range
        if not (isinstance(words, tuple) and len(words) == 2
                and all(type(w) is int for w in words)
                and 1 <= words[0] <= words[1] <= MAX_WORDS_PER_UTTERANCE):
            raise InvalidConfig(
                "n_words_range must be two integers lo, hi with "
                f"1 <= lo <= hi <= {MAX_WORDS_PER_UTTERANCE}, got {words!r:.60}")
        for name, (rule, test) in _GEN_REAL_RULES.items():
            value = getattr(self, name)
            if name in _PER_CLASS:
                ok = (isinstance(value, tuple) and len(value) == 3
                      and all(_gen_real_ok(v, test) for v in value))
                what = "three numbers, one per stress class, each"
            else:
                ok = _gen_real_ok(value, test)
                what = "a number"
            if not ok:
                raise InvalidConfig(
                    f"{name} must be {what} {rule}at most "
                    f"{MAX_GEN_MAGNITUDE:g} in magnitude, got {value!r:.60}")
        if not (isinstance(self.labeling, str) and self.labeling in LABELINGS):
            raise InvalidConfig(
                f"labeling must be one of {LABELINGS}, got {self.labeling!r:.40}")

    def sigmas(self) -> tuple[float, float, float]:
        """(duration, pitch, intensity) noise sigmas."""
        gap_dur = self.duration_base_s * (max(self.duration_class_mult) - 1.0)
        gap_pitch = max(self.pitch_class_offset_hz)
        gap_int = max(self.intensity_class_offset_db)
        return (self.noise * gap_dur, self.noise * gap_pitch, self.noise * gap_int)

    @staticmethod
    def from_dict(d: dict) -> "GenConfig":
        d = dict(d)
        for key in ("n_words_range", "duration_class_mult",
                    "pitch_class_offset_hz", "intensity_class_offset_db"):
            if key in d:
                d[key] = tuple(d[key])
        return GenConfig(**d)


def _relative_duration_labels(durations: np.ndarray) -> list[StressLevel]:
    """Within-word rule: longest syllable is primary, shortest is unstressed,
    anything in between is secondary."""
    order = np.argsort(durations, kind="stable")
    labels = [StressLevel.SECONDARY] * len(durations)
    labels[int(order[-1])] = StressLevel.PRIMARY
    labels[int(order[0])] = StressLevel.NON_STRESS
    return labels


def synth_corpus(lexicon: Lexicon, n_utterances: int,
                 cfg: GenConfig = GenConfig(), seed: int = 0,
                 ) -> tuple[list[UtteranceAlignment], list[WordRecord]]:
    """Build a deterministic synthetic corpus from class-conditioned draws.

    Multi-syllable dictionary words are sampled into utterances; each
    syllable's 12 raw features are drawn from distributions conditioned on
    its stress class and nucleus type, then sentence-normalized exactly
    like real audio features. Returns alignments plus the feature table.
    """
    rng = np.random.default_rng(seed)
    sigma_dur, sigma_pitch, sigma_int = cfg.sigmas()

    # per-type base offsets, drawn once per nucleus type from the seed
    n_types = len(NUCLEUS_TAGS)
    type_dur_mult = 1.0 + cfg.type_offset_scale * rng.uniform(-1, 1, n_types)
    type_pitch_off = cfg.type_offset_scale * max(cfg.pitch_class_offset_hz) \
        * rng.uniform(-1, 1, n_types)
    type_int_off = cfg.type_offset_scale * max(cfg.intensity_class_offset_db) \
        * rng.uniform(-1, 1, n_types)

    vocab = sorted(
        word for word in lexicon.words()
        if 2 <= lexicon.lookup(word)[0].vowel_count() <= MAX_SYLLABLES
    )
    if not vocab:
        raise InvalidConfig("lexicon has no usable multi-syllable words")

    def noisy(x: float, sigma: float) -> float:
        return float(x + rng.normal(0.0, sigma)) if sigma > 0 else float(x)

    alignments: list[UtteranceAlignment] = []
    records: list[WordRecord] = []
    lo, hi = cfg.n_words_range
    for u in range(n_utterances):
        utt_id = f"synth-{seed:04d}-{u:06d}"
        n_words = int(rng.integers(lo, hi + 1))
        texts = [vocab[int(i)] for i in rng.integers(0, len(vocab), n_words)]

        utt_raw: list[RawSyllableFeatures] = []
        utt_words: list[AlignedWord] = []
        word_meta = []  # (text, [(tag, stress)]), aligned with feature rows
        clock = 0.0
        for text in texts:
            entry = lexicon.lookup(text)[0]
            syl = syllabify(entry)
            tags = syl.nucleus_tags()
            if cfg.labeling == "relative_duration":
                base_durs = rng.uniform(0.10, 0.30, len(tags))
                stresses = _relative_duration_labels(base_durs)
            else:
                stresses = syl.stresses()
                base_durs = np.array([
                    cfg.duration_base_s
                    * cfg.duration_class_mult[int(s)]
                    * type_dur_mult[TAG_TO_INDEX[t]]
                    for s, t in zip(stresses, tags)
                ])

            spans: list[SyllableSpan] = []
            for i, (tag, stress) in enumerate(zip(tags, stresses)):
                ti = TAG_TO_INDEX[tag]
                s = int(stress)
                syl_dur = max(0.02, noisy(base_durs[i], sigma_dur))
                if cfg.labeling == "relative_duration":
                    pitch_mean = cfg.pitch_base_hz + type_pitch_off[ti]
                    int_mean = cfg.intensity_base_db + type_int_off[ti]
                else:
                    pitch_mean = (cfg.pitch_base_hz + cfg.pitch_class_offset_hz[s]
                                  + type_pitch_off[ti])
                    int_mean = (cfg.intensity_base_db
                                + cfg.intensity_class_offset_db[s]
                                + type_int_off[ti])
                syl_pitch_mean = noisy(pitch_mean, sigma_pitch)
                syl_pitch_max = syl_pitch_mean + abs(noisy(0.0, sigma_pitch))
                syl_int_mean = noisy(int_mean, sigma_int)
                syl_int_max = syl_int_mean + abs(noisy(0.0, sigma_int))
                syl_voiced = min(syl_dur, max(
                    0.0, noisy(cfg.voiced_fraction * syl_dur, sigma_dur)))
                nuc_dur = min(syl_dur, max(
                    0.01, noisy(cfg.nucleus_duration_fraction * syl_dur, sigma_dur)))
                nuc_pitch_mean = noisy(
                    syl_pitch_mean + cfg.nucleus_pitch_shift_hz, sigma_pitch)
                nuc_pitch_max = nuc_pitch_mean + abs(noisy(0.0, sigma_pitch))
                nuc_int_mean = noisy(
                    syl_int_mean + cfg.nucleus_intensity_shift_db, sigma_int)
                nuc_int_max = nuc_int_mean + abs(noisy(0.0, sigma_int))
                nuc_voiced = min(nuc_dur, max(0.0, noisy(nuc_dur, sigma_dur)))

                utt_raw.append(RawSyllableFeatures((
                    syl_pitch_mean, syl_pitch_max, syl_voiced,
                    syl_int_mean, syl_int_max, syl_dur,
                    nuc_pitch_mean, nuc_pitch_max, nuc_voiced,
                    nuc_int_mean, nuc_int_max, nuc_dur,
                )))
                n0 = clock + 0.5 * (syl_dur - nuc_dur)
                spans.append(SyllableSpan(
                    round(clock, 6), round(clock + syl_dur, 6),
                    NucleusSpan(round(n0, 6), round(n0 + nuc_dur, 6), tag)))
                clock += syl_dur
            clock += cfg.word_gap_s
            utt_words.append(AlignedWord(text, tuple(spans)))
            word_meta.append((text, list(zip(tags, stresses))))

        normalized = normalize_sentence(utt_raw)
        alignments.append(UtteranceAlignment(utt_id, None, tuple(utt_words)))
        row = 0
        for text, meta in word_meta:
            obs = []
            for i, (tag, stress) in enumerate(meta):
                obs.append(SyllableObservation(
                    features=normalized[row], nucleus_tag=tag,
                    position=i, stress=stress))
                row += 1
            records.append(WordRecord(utt_id, text, obs))
    return alignments, records
