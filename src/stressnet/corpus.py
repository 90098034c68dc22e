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

"schema" is the integer 1, "utterance_id" and "text" are strings, and
times are seconds as JSON numbers (not booleans, not strings); any other
type is a FormatError. Syllable spans must be ordered and
non-overlapping within a word, and each nucleus span must sit inside its
syllable span. The nucleus "tag", a string or null, is informational;
gold labels and types always come from the lexicon.

In memory an alignment is one flat UtteranceAlignment, laid out as
Instances is: its word texts, offsets (word i owns rows offsets[i]:
offsets[i + 1]), spans, one (n_syllables, 4) float64 row per syllable of
syllable start and end, nucleus start and end (extract_features' spans),
and tags, one nucleus tag per syllable.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateData,
    EmptyLexicon,
    FormatError,
    LabelError,
    ShapeError,
    SplitTooSmall,
    open_output,
)
from .features import (
    IGNORE_LABEL,
    MAX_SYLLABLES,
    N_FEATURES,
    Instances,
    instances_from_table,
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

WEIGHT_EXPONENT = 0.7

# exclusion reason codes
MONOSYLLABIC = "MONOSYLLABIC"
TOO_LONG = "TOO_LONG"
NOT_IN_LEXICON = "NOT_IN_LEXICON"
COUNT_MISMATCH = "COUNT_MISMATCH"
UTTERANCE_EXCLUDED = "UTTERANCE_EXCLUDED"
EXCLUSION_SCOPES = ("word", "utterance")


# --- alignment schema -------------------------------------------------------

@dataclass
class UtteranceAlignment:
    utterance_id: str
    audio_path: str | None
    words: list[str]        # one text per word
    offsets: np.ndarray     # (n_words + 1,) int64
    spans: np.ndarray       # (n_syllables, 4) float64
    tags: list[str | None]  # one nucleus tag per syllable


def _require(doc: dict, key: str, ctx: str):
    if not isinstance(doc, dict):
        raise FormatError(f"{ctx}: not a JSON object")
    if key not in doc:
        raise FormatError(f"{ctx}: missing field {key!r}")
    return doc[key]


def _span(doc: dict, ctx: str) -> tuple[float, float]:
    start = _require(doc, "start_s", ctx)
    end = _require(doc, "end_s", ctx)
    # a JSON number; bool is an int subclass and a string would float()
    if not all(isinstance(t, (int, float)) and not isinstance(t, bool)
               for t in (start, end)):
        raise FormatError(f"{ctx}: start_s/end_s must be numbers")
    try:
        start, end = float(start), float(end)
    except OverflowError:  # an integer beyond float range
        raise FormatError(f"{ctx}: start_s/end_s must be numbers")
    if not (math.isfinite(start) and math.isfinite(end)) or start >= end:
        raise FormatError(f"{ctx}: bad span [{start}, {end})")
    return start, end


def parse_alignment(doc: dict, source: str = "<doc>") -> UtteranceAlignment:
    """Validate a parsed alignment document against the schema."""
    if not isinstance(doc, dict):
        raise FormatError(f"{source}: top level must be an object")
    schema = _require(doc, "schema", source)
    if type(schema) is not int or schema != 1:  # not true, not 1.0
        raise FormatError(f"{source}: unsupported schema {schema!r}")
    utt_id = _require(doc, "utterance_id", source)
    if not isinstance(utt_id, str):
        raise FormatError(f"{source}: 'utterance_id' must be a string")
    audio_path = doc.get("audio_path")
    if not isinstance(audio_path, (str, type(None))):
        raise FormatError(f"{source}: 'audio_path' must be a string or null")
    if audio_path is not None and "\0" in audio_path:  # no file has that name
        raise FormatError(f"{source}: 'audio_path' holds a NUL byte")
    words_doc = _require(doc, "words", source)
    if not isinstance(words_doc, list):
        raise FormatError(f"{source}: 'words' must be a list")

    words, offsets, spans, tags = [], [0], [], []
    for wi, wdoc in enumerate(words_doc):
        ctx = f"{source}: word[{wi}]"
        text = _require(wdoc, "text", ctx)
        if not isinstance(text, str):
            raise FormatError(f"{ctx}: 'text' must be a string")
        sylls_doc = _require(wdoc, "syllables", ctx)
        if not isinstance(sylls_doc, list) or not sylls_doc:
            raise FormatError(f"{ctx}: 'syllables' must be a non-empty list")
        prev_end = -math.inf
        for si, sdoc in enumerate(sylls_doc):
            sctx = f"{ctx}.syllable[{si}]"
            s0, s1 = _span(sdoc, sctx)
            if s0 < prev_end:
                raise FormatError(f"{sctx}: overlaps previous syllable")
            prev_end = s1
            ndoc = _require(sdoc, "nucleus", sctx)
            n0, n1 = _span(ndoc, f"{sctx}.nucleus")
            if n0 < s0 or n1 > s1:
                raise FormatError(f"{sctx}: nucleus span outside syllable span")
            tag = ndoc.get("tag")
            if not isinstance(tag, (str, type(None))):
                raise FormatError(f"{sctx}.nucleus: 'tag' must be a string or null")
            spans.append((s0, s1, n0, n1))
            tags.append(tag)
        words.append(text)
        offsets.append(len(spans))
    return UtteranceAlignment(utt_id, audio_path, words, np.array(offsets),
                              np.array(spans).reshape(-1, 4), tags)


def load_alignment(path: str) -> UtteranceAlignment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise FormatError(f"{path}: not valid UTF-8 JSON ({exc})")
    return parse_alignment(doc, source=path)


def _json_text(text: str | None) -> str:
    return "null" if text is None else encode_basestring_ascii(text)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of already encoded items, each on its own line below
    a bracket at the given indent, as json.dumps(..., indent=1) lays it."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def save_alignment(al: UtteranceAlignment, path: str) -> None:
    """Write the bytes json.dump(doc, fh, sort_keys=True, indent=1) and a
    newline would write, doc being the alignment as the schema above. An
    indent makes json use its pure-Python encoder, so the fixed schema is
    laid out here instead: times as the repr of a float, text as JSON's
    ASCII string."""
    sylls = [
        "    {\n"
        f'     "end_s": {s1!r},\n'
        '     "nucleus": {\n'
        f'      "end_s": {n1!r},\n'
        f'      "start_s": {n0!r},\n'
        f'      "tag": {_json_text(tag)}\n'
        "     },\n"
        f'     "start_s": {s0!r}\n'
        "    }"
        for (s0, s1, n0, n1), tag in zip(al.spans.tolist(), al.tags)]
    offsets = al.offsets.tolist()
    words = [f'  {{\n   "syllables": {_json_list(sylls[a:b], "   ")},\n'
             f'   "text": {_json_text(text)}\n  }}'
             for text, a, b in zip(al.words, offsets, offsets[1:])]
    with open_output(path) as fh:
        fh.write(f'{{\n "audio_path": {_json_text(al.audio_path)},\n'
                 ' "schema": 1,\n'
                 f' "utterance_id": {_json_text(al.utterance_id)},\n'
                 f' "words": {_json_list(words, " ")}\n}}\n')


# --- instances --------------------------------------------------------------

def require_gold(instances: Instances) -> None:
    """LabelError naming the first word with a syllable of unknown stress."""
    unknown = np.flatnonzero(instances.labels == IGNORE_LABEL)
    if len(unknown):
        i = int(np.searchsorted(instances.offsets, unknown[0], side="right")) - 1
        raise LabelError(f"{instances.utterance_ids[i]}: {instances.words[i]!r} "
                         "has a syllable without a gold stress label")


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
                    features: np.ndarray | None = None,
                    exclusion_scope: str = "word",
                    ) -> tuple[Instances, list[Exclusion]]:
    """Attach gold stress labels and nucleus types to an utterance's words.

    For each word, pronunciation variants are tried in dictionary order and
    the first whose syllable count matches the alignment wins. Monosyllabic
    words are dropped; lookup failures and count mismatches are reported as
    exclusions. With exclusion_scope="utterance", a lookup/count failure
    anywhere discards the whole utterance. Returns the kept words as a
    table, in alignment order, and the exclusions.

    features, when given, is the utterance's normalized (n_syllables, 12)
    matrix, its rows in alignment order; the table holds the kept words'
    rows. Without it, features are zero, which suits label-only workflows.
    """
    if exclusion_scope not in EXCLUSION_SCOPES:
        raise ConfigError(f"unknown exclusion_scope {exclusion_scope!r}")
    sizes = np.diff(alignment.offsets).tolist()
    if features is not None and len(features) != sum(sizes):
        raise ShapeError(f"{len(features)} feature rows for "
                         f"{sum(sizes)} aligned syllables")

    utt_id = alignment.utterance_id
    kept = [False] * len(sizes)  # per aligned word
    words, counts, types, labels = [], [], [], []
    exclusions: list[Exclusion] = []
    fatal = False
    for i, (word, n) in enumerate(zip(alignment.words, sizes)):
        syl, reason = ((None, MONOSYLLABIC) if n < 2 else
                       (None, TOO_LONG) if n > MAX_SYLLABLES else
                       _match_variant(lexicon, word, n))
        if syl is None:
            exclusions.append(Exclusion(utt_id, word, reason))
            fatal |= reason in (NOT_IN_LEXICON, COUNT_MISMATCH)
            continue
        kept[i] = True
        words.append(word)
        counts.append(n)
        types += [TAG_TO_INDEX[tag] for tag in syl.nucleus_tags()]
        labels += map(int, syl.stresses())

    if fatal and exclusion_scope == "utterance":
        exclusions.extend(Exclusion(utt_id, word, UTTERANCE_EXCLUDED) for word in words)
        return instances_from_table([]), exclusions
    if features is None:
        features = np.zeros((len(types), N_FEATURES))
    else:  # the kept words' rows
        features = features[np.repeat(np.array(kept, dtype=bool), sizes)]
    return Instances.from_counts(
        [utt_id] * len(words), words, counts, features,
        np.array(types, dtype=np.int64), np.array(labels, dtype=np.int64)), exclusions


# --- split ------------------------------------------------------------------

def train_utterances(utterance_ids: list[str], train_fraction: float = 0.7,
                     seed: int = 0) -> np.ndarray:
    """The seeded train/test split at utterance granularity, as a boolean
    mask over the given words' utterance ids: True for a training word.

    Utterance ids are sorted before shuffling so membership depends only on
    the id set and the seed, not on input order.
    """
    if not 0.0 <= train_fraction <= 1.0:
        raise ConfigError(f"train_fraction {train_fraction} not in [0, 1]")
    utt_ids = sorted(set(utterance_ids))
    if len(utt_ids) < 2:
        raise SplitTooSmall(f"need at least 2 utterances, got {len(utt_ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(utt_ids))
    n_train = int(round(train_fraction * len(utt_ids)))
    train_ids = {utt_ids[i] for i in order[:n_train]}
    return np.array([u in train_ids for u in utterance_ids], dtype=bool)


def split(words: list, train_fraction: float = 0.7,
          seed: int = 0) -> tuple[list, list]:
    """The train_utterances split of feature-table lines; only their
    utterance_id is read, and input order is kept. A table is split by
    indexing it with the train_utterances mask of its utterance_ids."""
    in_train = train_utterances([w.utterance_id for w in words],
                                train_fraction, seed).tolist()
    return ([w for w, t in zip(words, in_train) if t],
            [w for w, t in zip(words, in_train) if not t])


# --- class weights ----------------------------------------------------------

def weights_from_proportions(p: np.ndarray) -> np.ndarray:
    """(p / max p) ** 0.7 along the last axis; max p must be positive."""
    p = np.asarray(p, dtype=np.float64)
    top = p.max(axis=-1, keepdims=True)
    return (p / top) ** WEIGHT_EXPONENT


def compute_class_weights(train: Instances) -> np.ndarray:
    """The (16, 3) loss weights per (nucleus type, stress level): each
    type's training proportions, max-normalized per type.

    Syllables without a gold label are not counted. Types that never
    occur get weight 1 for every class so the loss stays defined on rare
    types.
    """
    if not len(train):
        raise DegenerateData("empty training set")
    gold = train.labels != IGNORE_LABEL
    n_types = len(NUCLEUS_TAGS)
    counts = np.bincount(train.types[gold] * 3 + train.labels[gold],
                         minlength=n_types * 3).reshape(n_types, 3)
    totals = counts.sum(axis=1)
    for t in np.flatnonzero(totals == 0):
        log.info("nucleus type %r unseen in training; weights default to 1",
                 NUCLEUS_TAGS[t])
    seen = totals > 0
    table = np.ones((n_types, 3))
    table[seen] = weights_from_proportions(counts[seen] / totals[seen, None])
    return table


# --- synthetic corpus -------------------------------------------------------

LABELINGS = ("dictionary", "relative_duration")
# Bound on the noise. No useful corpus comes near it; it keeps every drawn
# duration, pitch and level finite, so that the sentence means taken in
# normalize_sentence cannot overflow.
MAX_NOISE = 1e6

# The generator's fixed shape: words per utterance (inclusive range),
# per-class duration, pitch and intensity targets (one value per stress
# class, in StressLevel order), the spread of per-nucleus-type offsets,
# the nucleus and voiced shares of a syllable, nucleus shifts and the gap
# between words.
N_WORDS_RANGE = (8, 14)
DURATION_BASE_S = 0.15
DURATION_CLASS_MULT = (1.0, 1.5, 1.25)
PITCH_BASE_HZ = 120.0
PITCH_CLASS_OFFSET_HZ = (0.0, 40.0, 15.0)
INTENSITY_BASE_DB = -20.0
INTENSITY_CLASS_OFFSET_DB = (0.0, 6.0, 3.0)
TYPE_OFFSET_SCALE = 0.25
VOICED_FRACTION = 0.8
NUCLEUS_DURATION_FRACTION = 0.6
NUCLEUS_PITCH_SHIFT_HZ = 5.0
NUCLEUS_INTENSITY_SHIFT_DB = 1.0
WORD_GAP_S = 0.05


@dataclass(frozen=True)
class GenConfig:
    """Class-conditioned feature generator settings.

    noise is expressed in units of each slot's class gap: the per-slot
    Gaussian sigma is noise times the largest class offset of that slot,
    so noise=0 gives exact class constants and noise around 3 drowns the
    class structure. labeling picks the gold labels: the dictionary's, or
    the relative_duration rule over drawn syllable durations.

    Both fields are checked on construction; a bad value is a ConfigError.
    """

    noise: float = 0.0
    labeling: str = "dictionary"

    def __post_init__(self):
        # a real number, not a bool; NaN and the infinities fail the bound
        if (isinstance(self.noise, bool)
                or not isinstance(self.noise, numbers.Real)
                or not 0 <= self.noise <= MAX_NOISE):
            raise ConfigError(
                f"noise must be a number in [0, {MAX_NOISE:g}], "
                f"got {self.noise!r:.60}")
        if not (isinstance(self.labeling, str) and self.labeling in LABELINGS):
            raise ConfigError(
                f"labeling must be one of {LABELINGS}, got {self.labeling!r:.40}")

    def sigmas(self) -> tuple[float, float, float]:
        """(duration, pitch, intensity) noise sigmas."""
        gap_dur = DURATION_BASE_S * (max(DURATION_CLASS_MULT) - 1.0)
        gap_pitch = max(PITCH_CLASS_OFFSET_HZ)
        gap_int = max(INTENSITY_CLASS_OFFSET_DB)
        return (self.noise * gap_dur, self.noise * gap_pitch, self.noise * gap_int)


def _relative_duration_labels(durations: np.ndarray) -> list[StressLevel]:
    """Within-word rule: longest syllable is primary, shortest is unstressed,
    anything in between is secondary."""
    order = np.argsort(durations, kind="stable")
    labels = [StressLevel.SECONDARY] * len(durations)
    labels[int(order[-1])] = StressLevel.PRIMARY
    labels[int(order[0])] = StressLevel.NON_STRESS
    return labels


class _VocabWord(NamedTuple):
    """A word synth can draw, syllabified once: its nucleus tags, and its
    type indices and dictionary stresses as int64 arrays."""

    text: str
    tags: list[str]
    type_index: np.ndarray
    stress_index: np.ndarray

    @classmethod
    def of(cls, lexicon: Lexicon, text: str) -> "_VocabWord":
        syl = syllabify(lexicon.lookup(text)[0])
        tags = syl.nucleus_tags()
        return cls(text, tags,
                   np.array([TAG_TO_INDEX[t] for t in tags], dtype=np.int64),
                   np.array(syl.stresses(), dtype=np.int64))


# For each of a syllable's twelve noise draws, in draw order (see
# synth_corpus), its index into GenConfig.sigmas().
_DRAW_SIGMA = (0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2, 0)


def synth_corpus(lexicon: Lexicon, n_utterances: int,
                 cfg: GenConfig = GenConfig(), seed: int = 0,
                 ) -> tuple[list[UtteranceAlignment], Instances]:
    """Build a deterministic synthetic corpus from class-conditioned draws.

    Multi-syllable dictionary words are sampled into utterances; each
    syllable's 12 raw features are drawn from distributions conditioned on
    its stress class and nucleus type, then sentence-normalized exactly
    like real audio features. Returns alignments plus the feature table,
    each utterance's table joined by instances_from_table.

    Draw order, which fixes every output bit for a seed: the per-type
    offsets (three uniform(-1, 1, 16) draws), then per utterance the word
    count and the word choices. Under dictionary labeling one
    standard_normal((n_syllables, k)) block follows, a row per syllable;
    under relative_duration labeling each word draws uniform(0.10, 0.30,
    n) base durations and then its own (n, k) block. A row holds the
    syllable's noise draws in _DRAW_SIGMA order: duration, pitch mean,
    |pitch|, intensity mean, |intensity|, voiced, nucleus duration,
    nucleus pitch mean, |pitch|, nucleus intensity mean, |intensity|,
    nucleus voiced. A slot whose sigma is 0 draws nothing (k counts the
    others), so noise 0 draws no normal at all; at a subnormal noise the
    duration sigma alone rounds to 0. standard_normal(k) takes
    the stream as k scalar normal(0, sigma) calls would, and a scaled
    draw z * sigma is the value normal(0.0, sigma) returns, so the blocks
    give the values of one scalar draw per slot in that order. Each
    feature is computed with the operations, in the order, of the scalar
    formula for one syllable, np.maximum/np.minimum doing the clamps.
    Alignment times are one running np.cumsum of the syllable durations
    and word gaps, rounded with Python's round(x, 6), which is correctly
    rounded where np.round is not.
    """
    if n_utterances < 1:
        raise ConfigError(f"need at least 1 utterance, got {n_utterances}")
    rng = np.random.default_rng(seed)
    sigma = np.array(cfg.sigmas())[list(_DRAW_SIGMA)]
    drawn = sigma > 0
    sigma_drawn = sigma[drawn]

    # per-type base offsets, drawn once per nucleus type from the seed
    n_types = len(NUCLEUS_TAGS)
    type_dur_mult = 1.0 + TYPE_OFFSET_SCALE * rng.uniform(-1, 1, n_types)
    type_pitch_off = TYPE_OFFSET_SCALE * max(PITCH_CLASS_OFFSET_HZ) \
        * rng.uniform(-1, 1, n_types)
    type_int_off = TYPE_OFFSET_SCALE * max(INTENSITY_CLASS_OFFSET_DB) \
        * rng.uniform(-1, 1, n_types)

    vocab = [_VocabWord.of(lexicon, word) for word in sorted(
        word for word in lexicon.words()
        if 2 <= lexicon.lookup(word)[0].vowel_count() <= MAX_SYLLABLES
    )]
    if not vocab:
        raise EmptyLexicon("lexicon has no usable multi-syllable words")

    relative = cfg.labeling == "relative_duration"
    dur_mult = np.array(DURATION_CLASS_MULT)
    pitch_class = np.array(PITCH_CLASS_OFFSET_HZ)
    int_class = np.array(INTENSITY_CLASS_OFFSET_DB)

    def noise(n: int) -> np.ndarray:
        """The next n syllables' noise, (n, 12) in draw order."""
        e = np.zeros((n, N_FEATURES))
        e[:, drawn] = rng.standard_normal((n, len(sigma_drawn))) * sigma_drawn
        return e

    alignments: list[UtteranceAlignment] = []
    tables: list[Instances] = []
    lo, hi = N_WORDS_RANGE
    for u in range(n_utterances):
        utt_id = f"synth-{seed:04d}-{u:06d}"
        n_words = int(rng.integers(lo, hi + 1))
        words = [vocab[int(i)] for i in rng.integers(0, len(vocab), n_words)]
        ti = np.concatenate([w.type_index for w in words])
        if relative:
            base_durs, stresses, blocks = [], [], []
            for w in words:
                durs = rng.uniform(0.10, 0.30, len(w.tags))
                base_durs.append(durs)
                stresses += _relative_duration_labels(durs)
                blocks.append(noise(len(w.tags)))
            base_dur = np.concatenate(base_durs)
            e = np.concatenate(blocks)
            si = np.array(stresses, dtype=np.int64)
            pitch_mean = PITCH_BASE_HZ + type_pitch_off[ti]
            int_mean = INTENSITY_BASE_DB + type_int_off[ti]
        else:
            si = np.concatenate([w.stress_index for w in words])
            base_dur = DURATION_BASE_S * dur_mult[si] * type_dur_mult[ti]
            pitch_mean = (PITCH_BASE_HZ + pitch_class[si]) + type_pitch_off[ti]
            int_mean = (INTENSITY_BASE_DB + int_class[si]) + type_int_off[ti]
            e = noise(len(si))

        syl_dur = np.maximum(0.02, base_dur + e[:, 0])
        syl_pitch_mean = pitch_mean + e[:, 1]
        syl_int_mean = int_mean + e[:, 3]
        nuc_dur = np.minimum(syl_dur, np.maximum(
            0.01, NUCLEUS_DURATION_FRACTION * syl_dur + e[:, 6]))
        nuc_pitch_mean = (syl_pitch_mean + NUCLEUS_PITCH_SHIFT_HZ) + e[:, 7]
        nuc_int_mean = (syl_int_mean + NUCLEUS_INTENSITY_SHIFT_DB) + e[:, 9]
        raw = np.stack([
            syl_pitch_mean, syl_pitch_mean + np.abs(e[:, 2]),
            np.minimum(syl_dur, np.maximum(
                0.0, VOICED_FRACTION * syl_dur + e[:, 5])),
            syl_int_mean, syl_int_mean + np.abs(e[:, 4]), syl_dur,
            nuc_pitch_mean, nuc_pitch_mean + np.abs(e[:, 8]),
            np.minimum(nuc_dur, np.maximum(0.0, nuc_dur + e[:, 11])),
            nuc_int_mean, nuc_int_mean + np.abs(e[:, 10]), nuc_dur,
        ], axis=1)
        normalized = normalize_sentence(raw)

        # the clock before each step: syllable durations, a gap after
        # each word; syllable i is step at[i]
        sizes = [len(w.tags) for w in words]
        offsets = np.cumsum([0] + sizes)
        at = np.arange(len(si)) + np.repeat(np.arange(n_words), sizes)
        steps = np.full(len(si) + n_words, WORD_GAP_S)
        steps[at] = syl_dur
        clock = np.concatenate(([0.0], np.cumsum(steps)))
        n0 = clock[at] + 0.5 * (syl_dur - nuc_dur)
        rows = np.stack([clock[at], clock[at + 1], n0, n0 + nuc_dur], axis=1)
        spans = [round(t, 6) for t in rows.ravel().tolist()]
        texts = [w.text for w in words]
        alignments.append(UtteranceAlignment(
            utt_id, None, texts, offsets, np.array(spans).reshape(-1, 4),
            [tag for w in words for tag in w.tags]))
        tables.append(Instances(
            [utt_id] * n_words, texts, offsets, normalized, ti, si))
    return alignments, instances_from_table(tables)
