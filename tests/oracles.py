"""The kept reference implementations, each the code a fast path in
stressnet replaced or a rule restated one value at a time. The tests and
tests/bench_*.py hold each fast path to its oracle bit for bit."""

import json
import math
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from conftest import Record, pack_records, table_records
from stressnet import corpus, corpus as C
from stressnet.baselines import ForestModel, OrdinalModel
from stressnet.checkpoint import load_any
from stressnet.corpus import (IGNORE_LABEL, GenConfig, UtteranceAlignment,
                              weights_from_proportions)
from stressnet.dsp import DspConfig
from stressnet.errors import (AlignmentError, DegenerateData, FormatError,
                              InvalidSpan, LabelError, SpanOutOfRange)
from stressnet.evaluation import EvalReport
from stressnet.features import (MAX_SYLLABLES, N_FEATURES, read_feature_table,
                                write_feature_table)
from stressnet.lexicon import (NUCLEUS_TAGS, PAD_TYPE_INDEX, TAG_TO_INDEX,
                               StressLevel, syllabify)
from stressnet.model import Batch, feature_dim, network
from stressnet.model.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


# --- per-word arrays: the tables before corpus.Instances ----------------------

class OracleWord(NamedTuple):
    """One word as arrays over its n syllables, in position order."""

    utterance_id: str
    word: str
    features: np.ndarray      # (n, 12) float64, the record's own matrix
    type_indices: np.ndarray  # (n,) int64
    labels: np.ndarray        # (n,) int64, IGNORE_LABEL where unknown


def oracle_instances(records):
    """Each record's index arrays, built one word at a time: the per-word
    form of a table that corpus.Instances replaced."""
    return [OracleWord(
        r.utterance_id, r.word, r.features,
        np.array([TAG_TO_INDEX[tag] for tag in r.nucleus_tags], dtype=np.int64),
        np.array([IGNORE_LABEL if s is None else s for s in r.stresses],
                 dtype=np.int64)) for r in records]


def oracle_flatten(words, k):
    """baselines.flatten, which the flat Instances arrays replaced: one
    row per syllable, in word order, features[:k] as (n, k) and the gold
    labels as (n,). No words give (0, k) and (0,)."""
    if not words:
        return np.zeros((0, k)), np.zeros(0, dtype=np.int64)
    return (np.concatenate([w.features[:, :k] for w in words]),
            np.concatenate([w.labels for w in words]))


def oracle_make_batch(words, config, weight_table=None):
    """make_batch over per-word arrays: each array concatenated word by
    word into the mask, and the slot weights looked up where it holds."""
    K = config.feature_dim
    counts = np.array([len(w.labels) for w in words])
    mask = np.arange(counts.max()) < counts[:, None]
    features = np.zeros(mask.shape + (K,))
    features[mask] = np.concatenate([w.features[:, :K] for w in words])
    types = np.full(mask.shape, PAD_TYPE_INDEX, dtype=np.int64)
    types[mask] = np.concatenate([w.type_indices for w in words])
    labels = np.full(mask.shape, IGNORE_LABEL, dtype=np.int64)
    labels[mask] = np.concatenate([w.labels for w in words])
    weights = np.zeros(mask.shape)
    valid = np.where(mask)
    weights[valid] = (1.0 if weight_table is None
                      else weight_table[types[valid], labels[valid]])
    return Batch(features, types, mask, labels, weights)


# --- dsp: the per-frame trackers and the SciPy reader -------------------------

def reference_pitch(samples, sr, nfft, cfg=DspConfig()):
    """The per-frame pitch loop the block path replaced, with the FFT
    length as a parameter; used only as a test oracle."""
    samples = np.asarray(samples, dtype=np.float64)
    win = int(round(cfg.window_s * sr))
    hop = int(round(cfg.hop_s * sr))
    starts = np.arange(0, len(samples) - win + 1, hop)
    lag_min = max(2, int(np.floor(sr / cfg.f_max)))
    lag_max = min(int(np.ceil(sr / cfg.f_min)), win - 2)
    window = np.hanning(win)
    wspec = np.abs(np.fft.rfft(window, nfft)) ** 2
    r_win = np.fft.irfft(wspec)[:lag_max + 2]
    r_win /= r_win[0]
    f0 = np.full(len(starts), np.nan)
    for i, s in enumerate(starts):
        frame = samples[s:s + win]
        frame = frame - frame.mean()
        energy = float(np.dot(frame, frame))
        if energy < 1e-12 * win:
            continue
        spec = np.abs(np.fft.rfft(frame * window, nfft)) ** 2
        r = np.fft.irfft(spec)[:lag_max + 2]
        if r[0] <= 0.0:
            continue
        r = (r / r[0]) / r_win
        band = r[lag_min:lag_max + 1]
        best = float(band.max())
        if not best >= cfg.voicing_threshold:  # a NaN frame's best is NaN
            continue
        interior = np.zeros(band.shape, dtype=bool)
        interior[1:-1] = (band[1:-1] >= band[:-2]) & (band[1:-1] >= band[2:])
        interior[0] = band[0] >= band[1]
        interior[-1] = band[-1] >= band[-2]
        candidates = np.nonzero(interior & (band >= best - 0.02))[0]
        lag = lag_min + int(candidates[0])
        y0, y1, y2 = r[lag - 1], r[lag], r[lag + 1]
        denom = y0 - 2.0 * y1 + y2
        delta = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
        f0_hz = sr / (lag + delta)
        if cfg.f_min <= f0_hz <= cfg.f_max:
            f0[i] = f0_hz
    return f0


def reference_intensity(samples, sr, cfg=DspConfig()):
    """The per-frame intensity loop the block path replaced."""
    win = int(round(cfg.window_s * sr))
    hop = int(round(cfg.hop_s * sr))
    starts = np.arange(0, len(samples) - win + 1, hop)
    db = np.full(len(starts), -120.0)
    for i, s in enumerate(starts):
        frame = samples[s:s + win]
        rms = float(np.sqrt(np.mean(frame * frame)))
        if rms >= 1e-6:
            db[i] = 20.0 * np.log10(rms)
    return db


def scipy_read_wav(path):
    """read_wav as it was on scipy.io.wavfile, kept as the oracle: float64
    samples (integers scaled by full scale), channels averaged."""
    from scipy.io import wavfile
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise FormatError(f"{path}: unsupported WAV sample format {data.dtype}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return samples, float(rate)


# --- features: the per-syllable extractor -------------------------------------

def oracle_segment_stats(track, start_s, end_s, voiced_only):
    """(mean, max, voiced duration) over the frames whose centers fall in
    [start_s, end_s), found with a mask; None for mean and max where no
    usable frame is in the span. voiced_only (pitch) counts voiced frames
    only."""
    if not start_s < end_s:
        raise InvalidSpan(f"inverted span [{start_s}, {end_s})")
    in_span = (track.times_s >= start_s) & (track.times_s < end_s)
    values = track.values[in_span]
    if voiced_only:
        values = values[np.isfinite(values)]
    if values.size == 0:
        return None, None, 0.0
    return (float(values.mean()), float(values.max()),
            float(values.size * track.frame_hop_s))


def oracle_check_extent(track, start_s, end_s):
    """The per-syllable extractor's extent check: SpanOutOfRange unless
    the span overlaps the track, each frame a hop wide about its centre."""
    if len(track) == 0:
        raise SpanOutOfRange("track has no frames")
    half = track.frame_hop_s / 2.0
    lo = float(track.times_s[0]) - half
    hi = float(track.times_s[-1]) + half
    if end_s <= lo or start_s >= hi:
        raise SpanOutOfRange(
            f"span [{start_s}, {end_s}) outside track extent [{lo}, {hi})")


def oracle_syllable_features(pitch, intensity, s0, s1, n0, n1):
    """One syllable's 12 values as extract_features once computed them,
    a syllable at a time; None where pitch is ABSENT."""
    if not (s0 <= n0 and n1 <= s1):
        raise InvalidSpan(f"nucleus span [{n0},{n1}) outside syllable [{s0},{s1})")
    oracle_check_extent(pitch, s0, s1)
    oracle_check_extent(intensity, s0, s1)

    def six(span0, span1):
        p_mean, p_max, voiced = oracle_segment_stats(pitch, span0, span1, True)
        i_mean, i_max, _ = oracle_segment_stats(intensity, span0, span1, False)
        if i_mean is None:  # the frame nearest the span's middle
            mid = 0.5 * (span0 + span1)
            i_mean = float(intensity.values[
                int(np.argmin(np.abs(intensity.times_s - mid)))])
        if i_max is None:
            i_max = i_mean
        return [p_mean, p_max, voiced, i_mean, i_max, span1 - span0]

    return six(s0, s1) + six(n0, n1)


def oracle_extract_features(pitch, intensity, spans):
    """extract_features a syllable at a time, each span's frames found with
    a mask over all frame times; ABSENT (None) becomes NaN in the matrix."""
    rows = [oracle_syllable_features(pitch, intensity, *row)
            for row in np.asarray(spans, dtype=np.float64).reshape(-1, 4).tolist()]
    return np.array(rows, dtype=np.float64).reshape(-1, N_FEATURES)


def oracle_normalize_sentence(raw):
    """normalize_sentence as a loop over slots and syllables: the mean of
    each slot's present values as one list, subtracted one at a time. raw
    is rows of 12 values, None where ABSENT."""
    n = len(raw)
    out = [np.zeros(N_FEATURES) for _ in range(n)]
    for slot in range(N_FEATURES):
        present = [i for i in range(n) if raw[i][slot] is not None]
        if not present:
            continue
        mean = float(np.mean([raw[i][slot] for i in present]))
        for i in present:
            out[i][slot] = float(raw[i][slot]) - mean
    return out


# --- features: the per-syllable table reader and json.dumps writer ------------
# The reader read_feature_table replaced: one object, one np.asarray and one
# StressLevel per syllable, stacked per word. And json.dumps, whose bytes
# write_feature_table lays out itself.

@dataclass
class OracleSyllable:
    """A syllable as the per-syllable reader held it."""

    features: np.ndarray
    nucleus_tag: str
    position: int
    stress: StressLevel | None = None


def oracle_field(doc, key, *types):
    """The per-syllable reader's field check: doc[key], of exactly one of
    types, else FormatError."""
    value = doc.get(key, ...)
    if type(value) not in types:
        raise FormatError(f"{key!r} is missing or of the wrong type")
    return value


def oracle_feature_vector(values):
    """A syllable's features as the per-syllable reader took them:
    N_FEATURES finite ints or floats as one float64 array, else
    FormatError."""
    try:
        ok = (len(values) == N_FEATURES and set(map(type, values)) <= {int, float}
              and all(map(math.isfinite, values)))
    except OverflowError:
        ok = False
    if not ok:
        raise FormatError(f"'features' must be {N_FEATURES} finite numbers")
    return np.asarray(values, dtype=np.float64)


def oracle_syllable(doc):
    """One syllable object checked field by field, as the reader that
    read_feature_table replaced did."""
    if type(doc) is not dict:
        raise FormatError("a syllable is not a JSON object")
    stress = oracle_field(doc, "stress", int, type(None))
    if stress not in (None, 0, 1, 2):
        raise FormatError(f"stress {stress} is not 0, 1, 2 or null")
    nucleus = oracle_field(doc, "nucleus", str)
    if nucleus not in TAG_TO_INDEX:
        raise FormatError(f"unknown nucleus tag {nucleus!r}")
    return OracleSyllable(
        features=oracle_feature_vector(oracle_field(doc, "features", list)),
        nucleus_tag=nucleus,
        position=oracle_field(doc, "position", int),
        stress=None if stress is None else StressLevel(stress),
    )


def oracle_record(line):
    """One table line checked as the per-syllable reader did: (utterance_id,
    word, syllables in position order)."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON ({exc})")
    if type(doc) is not dict:
        raise FormatError("the line is not a JSON object")
    utterance_id = oracle_field(doc, "utterance_id", str)
    word = oracle_field(doc, "word", str)
    syllables = sorted(map(oracle_syllable, oracle_field(doc, "syllables", list)),
                       key=lambda obs: obs.position)
    n = len(syllables)
    if not 1 <= n <= MAX_SYLLABLES:
        raise FormatError(f"{n} syllables, not 1 to {MAX_SYLLABLES}")
    if [obs.position for obs in syllables] != list(range(n)):
        raise FormatError(f"syllable positions are not 0..{n - 1}, each once")
    return utterance_id, word, syllables


def oracle_instance(utterance_id, word, syllables):
    """One word's arrays, stacked from the oracle's syllables."""
    return OracleWord(
        utterance_id, word,
        np.array([obs.features for obs in syllables], dtype=np.float64),
        np.array([TAG_TO_INDEX[obs.nucleus_tag] for obs in syllables],
                 dtype=np.int64),
        np.array([IGNORE_LABEL if obs.stress is None else int(obs.stress)
                  for obs in syllables], dtype=np.int64))


def oracle_read_table(path: str, data: bytes):
    """(pack_records of the oracle's records, each word's line span), or
    the oracle's first FormatError at path:line."""
    pieces = data.split(b"\n")
    lines = [piece + b"\n" for piece in pieces[:-1]] + [pieces[-1]] * bool(pieces[-1])
    records, spans, start = [], [], 0
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                utterance_id, word, syllables = oracle_record(line)
            except FormatError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            records.append(Record(
                utterance_id, word,
                np.array([obs.features for obs in syllables], dtype=np.float64),
                [obs.nucleus_tag for obs in syllables],
                [None if obs.stress is None else int(obs.stress)
                 for obs in syllables]))
            first = start + len(line) - len(line.lstrip())
            spans.append((first, first + len(line.strip())))
        start += len(line)
    return pack_records(records), spans


def oracle_line(rec) -> str:
    """The record's table line as json.dumps writes its document."""
    return json.dumps({
        "utterance_id": rec.utterance_id,
        "word": rec.word,
        "syllables": [
            {"position": i, "features": [float(x) for x in row],
             "nucleus": tag, "stress": stress}
            for i, (row, tag, stress) in enumerate(zip(
                rec.features, rec.nucleus_tags, rec.stresses))],
    }, sort_keys=True) + "\n"


def oracle_table_bytes(records) -> bytes:
    """What write_feature_table must write for the records: json.dumps
    per word."""
    return "".join(map(oracle_line, records)).encode()


# --- corpus: the scalar generator and the per-word class weights --------------

def oracle_synth_corpus(lexicon, n_utterances, cfg=GenConfig(), seed=0):
    """synth_corpus one scalar draw at a time: a normal(0, sigma) call
    per noisy slot (none where sigma is 0), syllabification per drawn
    word and the oracle's per-syllable normalization."""
    rng = np.random.default_rng(seed)
    sigma_dur, sigma_pitch, sigma_int = cfg.sigmas()

    n_types = len(NUCLEUS_TAGS)
    type_dur_mult = 1.0 + C.TYPE_OFFSET_SCALE * rng.uniform(-1, 1, n_types)
    type_pitch_off = C.TYPE_OFFSET_SCALE * max(C.PITCH_CLASS_OFFSET_HZ) \
        * rng.uniform(-1, 1, n_types)
    type_int_off = C.TYPE_OFFSET_SCALE * max(C.INTENSITY_CLASS_OFFSET_DB) \
        * rng.uniform(-1, 1, n_types)

    vocab = sorted(
        word for word in lexicon.words()
        if 2 <= lexicon.lookup(word)[0].vowel_count() <= MAX_SYLLABLES
    )

    def noisy(x, sigma):
        return float(x + rng.normal(0.0, sigma)) if sigma > 0 else float(x)

    alignments, records = [], []
    lo, hi = C.N_WORDS_RANGE
    for u in range(n_utterances):
        utt_id = f"synth-{seed:04d}-{u:06d}"
        n_words = int(rng.integers(lo, hi + 1))
        texts = [vocab[int(i)] for i in rng.integers(0, len(vocab), n_words)]

        utt_raw, spans, utt_tags, word_meta = [], [], [], []
        clock = 0.0
        for text in texts:
            syl = syllabify(lexicon.lookup(text)[0])
            tags = syl.nucleus_tags()
            if cfg.labeling == "relative_duration":
                base_durs = rng.uniform(0.10, 0.30, len(tags))
                stresses = C._relative_duration_labels(base_durs)
            else:
                stresses = syl.stresses()
                base_durs = np.array([
                    C.DURATION_BASE_S
                    * C.DURATION_CLASS_MULT[int(s)]
                    * type_dur_mult[TAG_TO_INDEX[t]]
                    for s, t in zip(stresses, tags)
                ])

            for i, (tag, stress) in enumerate(zip(tags, stresses)):
                ti = TAG_TO_INDEX[tag]
                s = int(stress)
                syl_dur = max(0.02, noisy(base_durs[i], sigma_dur))
                if cfg.labeling == "relative_duration":
                    pitch_mean = C.PITCH_BASE_HZ + type_pitch_off[ti]
                    int_mean = C.INTENSITY_BASE_DB + type_int_off[ti]
                else:
                    pitch_mean = (C.PITCH_BASE_HZ + C.PITCH_CLASS_OFFSET_HZ[s]
                                  + type_pitch_off[ti])
                    int_mean = (C.INTENSITY_BASE_DB
                                + C.INTENSITY_CLASS_OFFSET_DB[s]
                                + type_int_off[ti])
                syl_pitch_mean = noisy(pitch_mean, sigma_pitch)
                syl_pitch_max = syl_pitch_mean + abs(noisy(0.0, sigma_pitch))
                syl_int_mean = noisy(int_mean, sigma_int)
                syl_int_max = syl_int_mean + abs(noisy(0.0, sigma_int))
                syl_voiced = min(syl_dur, max(
                    0.0, noisy(C.VOICED_FRACTION * syl_dur, sigma_dur)))
                nuc_dur = min(syl_dur, max(0.01, noisy(
                    C.NUCLEUS_DURATION_FRACTION * syl_dur, sigma_dur)))
                nuc_pitch_mean = noisy(
                    syl_pitch_mean + C.NUCLEUS_PITCH_SHIFT_HZ, sigma_pitch)
                nuc_pitch_max = nuc_pitch_mean + abs(noisy(0.0, sigma_pitch))
                nuc_int_mean = noisy(
                    syl_int_mean + C.NUCLEUS_INTENSITY_SHIFT_DB, sigma_int)
                nuc_int_max = nuc_int_mean + abs(noisy(0.0, sigma_int))
                nuc_voiced = min(nuc_dur, max(0.0, noisy(nuc_dur, sigma_dur)))

                utt_raw.append((
                    syl_pitch_mean, syl_pitch_max, syl_voiced,
                    syl_int_mean, syl_int_max, syl_dur,
                    nuc_pitch_mean, nuc_pitch_max, nuc_voiced,
                    nuc_int_mean, nuc_int_max, nuc_dur,
                ))
                n0 = clock + 0.5 * (syl_dur - nuc_dur)
                spans.append((round(clock, 6), round(clock + syl_dur, 6),
                              round(n0, 6), round(n0 + nuc_dur, 6)))
                utt_tags.append(tag)
                clock += syl_dur
            clock += C.WORD_GAP_S
            word_meta.append((text, tags, stresses))

        normalized = np.array(oracle_normalize_sentence(utt_raw))
        alignments.append(UtteranceAlignment(
            utt_id, None, texts, np.cumsum([0] + [len(t) for _, t, _ in word_meta]),
            np.array(spans), utt_tags))
        row = 0
        for text, tags, stresses in word_meta:
            records.append(Record(utt_id, text,
                                  normalized[row:row + len(tags)], tags,
                                  [int(s) for s in stresses]))
            row += len(tags)
    return alignments, records


def oracle_class_weights(train):
    """compute_class_weights with one np.add.at per word and one
    normalization per type: the implementation the bincount one replaced."""
    counts = np.zeros((len(NUCLEUS_TAGS), 3))
    for inst in train:
        np.add.at(counts, (inst.type_indices, inst.labels), 1.0)
    table = np.ones((len(NUCLEUS_TAGS), 3))
    for t in range(len(NUCLEUS_TAGS)):
        total = counts[t].sum()
        if total > 0:
            table[t] = weights_from_proportions(counts[t] / total)
    return table


# --- baselines: the per-node grower and the per-step ordinal fit --------------

def oracle_gini_best_split(X, y, feature_ids):
    """The best (feature, threshold) of one node by weighted Gini, or None:
    the node's rows sorted anew for each candidate, as the grower that
    _grow_tree replaced did."""
    n = y.shape[0]
    total = np.bincount(y, minlength=3).astype(np.float64)
    best = None
    best_score = np.inf
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        onehot = np.zeros((n, 3))
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        valid = np.nonzero(xs[:-1] < xs[1:])[0]
        if valid.size == 0:
            continue
        nl = (valid + 1).astype(np.float64)
        nr = n - nl
        cl = cum[valid]
        cr = total[None, :] - cl
        gini_l = 1.0 - ((cl / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((cr / nr[:, None]) ** 2).sum(axis=1)
        score = (nl * gini_l + nr * gini_r) / n
        k = int(np.argmin(score))
        if score[k] < best_score - 1e-12:
            best_score = score[k]
            best = (int(f), float(xs[valid[k]]))
    if best is None:
        return None
    parent_gini = 1.0 - ((total / n) ** 2).sum()
    if best_score >= parent_gini - 1e-12:
        return None
    return best


def oracle_grow_tree(X, y, max_depth, m_features, rng):
    """baselines._grow_tree as it was before it sorted each feature once
    per tree: it sorts the node's rows for every candidate at every node.
    Both must give the same trees, bit for bit, and leave the generator in
    the same state."""
    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node(idx):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(np.bincount(y[idx], minlength=3).astype(np.int64))
        return node

    def build(idx, depth):
        node = new_node(idx)
        c = counts[node]
        if depth >= max_depth or int((c > 0).sum()) <= 1:
            return node
        cand = rng.choice(X.shape[1], size=m_features, replace=False)
        found = oracle_gini_best_split(X[idx], y[idx], np.sort(cand))
        if found is None:
            return node
        f, thr = found
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = build(idx[go_left], depth + 1)
        right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return (np.asarray(feature, dtype=np.int64),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.int64),
            np.asarray(right, dtype=np.int64),
            np.stack(counts).astype(np.int64))


def oracle_vote_shares(model, x):
    """ForestModel.vote_shares as it was before it walked all trees at
    once: one tree at a time, one pass per depth level, each tree's votes
    added in tree order."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    rows = np.arange(n)
    votes = np.zeros((n, 3))
    offsets = model.tree_offsets.tolist()
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        feature, threshold = model.feature[lo:hi], model.threshold[lo:hi]
        left, right = model.left[lo:hi], model.right[lo:hi]
        node = np.zeros(n, dtype=np.int64)
        # ends at a leaf: every tree's child ids exceed their parent's
        while True:
            f = feature[node]
            inner = f >= 0
            if not inner.any():
                break
            go_left = np.zeros(n, dtype=bool)
            go_left[inner] = (x[rows[inner], f[inner]]
                              <= threshold[node[inner]])
            node = np.where(inner, np.where(go_left, left[node], right[node]),
                            node)
        leaf_class = model.counts[lo:hi][node].argmax(axis=1)
        votes[rows, leaf_class] += 1.0
    return votes / model.n_trees


def oracle_sigmoid(z):
    """The logistic function, split by sign: baselines._sigmoid's bits."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_nll_grad(beta, theta, X, ranks, lam):
    """The ordinal NLL and its gradients as train_ordinal once computed
    them: both cut points of every row at every step, with +-inf at the
    ends, and the sigmoid on all of them."""
    n = X.shape[0]
    t0 = theta[0]
    t1 = t0 + np.exp(theta[1])
    z = X @ beta
    upper = np.where(ranks == 0, t0 - z, np.where(ranks == 1, t1 - z, np.inf))
    lower = np.where(ranks == 0, -np.inf, np.where(ranks == 1, t0 - z, t1 - z))
    Fu = oracle_sigmoid(upper)
    Fl = oracle_sigmoid(lower)
    lik = np.clip(Fu - Fl, 1e-12, None)
    nll = -np.log(lik).sum() / n + 0.5 * lam * float(beta @ beta)
    fu = Fu * (1.0 - Fu)
    fl = Fl * (1.0 - Fl)
    inv = 1.0 / lik
    dz = (fu - fl) * inv / n
    dbeta = X.T @ dz + lam * beta
    du = -fu * inv / n
    dl = fl * inv / n
    dt0 = du[ranks == 0].sum() + dl[ranks == 1].sum()
    dt1 = du[ranks == 1].sum() + dl[ranks == 2].sum()
    dtheta = np.array([dt0 + dt1, dt1 * np.exp(theta[1])])
    return nll, dbeta, dtheta


ORACLE_RANK = {StressLevel.NON_STRESS: 0, StressLevel.SECONDARY: 1,
               StressLevel.PRIMARY: 2}


def oracle_train_ordinal(X, labels, lam=1e-4, seed=0, n_iter=500, lr=0.5):
    """train_ordinal before it grouped the rows by rank once: Adam on
    oracle_nll_grad. Both must give the same bits."""
    X = np.asarray(X, dtype=np.float64)
    ranks = np.array([ORACLE_RANK[StressLevel(int(y))] for y in labels])
    if len(set(ranks.tolist())) < 2:
        raise DegenerateData("ordinal fit needs at least 2 distinct classes")
    rng = np.random.default_rng(seed)
    beta = rng.normal(0.0, 0.01, X.shape[1])
    theta = np.array([-0.5, 0.0])
    mb = np.zeros_like(beta)
    vb = np.zeros_like(beta)
    mt = np.zeros_like(theta)
    vt = np.zeros_like(theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, n_iter + 1):
        _, dbeta, dtheta = oracle_nll_grad(beta, theta, X, ranks, lam)
        mb = b1 * mb + (1 - b1) * dbeta
        vb = b2 * vb + (1 - b2) * dbeta ** 2
        mt = b1 * mt + (1 - b1) * dtheta
        vt = b2 * vt + (1 - b2) * dtheta ** 2
        beta -= lr * (mb / (1 - b1 ** t)) / (np.sqrt(vb / (1 - b2 ** t)) + eps)
        theta -= lr * (mt / (1 - b1 ** t)) / (np.sqrt(vt / (1 - b2 ** t)) + eps)
    t0, t1 = theta[0], theta[0] + np.exp(theta[1])
    return OrdinalModel(beta, np.array([t0, t1]))


# --- model: dict parameters, per-array Adam and NumPy reductions --------------
# The encoder reduces the last axis with network._sum_last / _max_last;
# these oracles reduce with NumPy's own sum, mean, var and max.

def oracle_init_params(config, rng):
    """init_params as one dict of separately allocated arrays, drawn in
    the documented order: the reference the flat storage must reproduce."""
    def xavier(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    D, Hd, F = config.d_model, config.n_heads * config.head_dim, config.ffn_dim
    p = {"E_pos": rng.normal(0.0, 0.02, size=(config.max_positions, D))}
    if config.uses_type_embedding:
        p["E_type"] = rng.normal(0.0, 0.02, size=(PAD_TYPE_INDEX + 1, D))
        p["E_type"][PAD_TYPE_INDEX] = 0.0
    p["C"] = xavier(config.feature_dim, D)
    for l in range(config.n_layers):
        pre = f"layers.{l}."
        p[pre + "ln1.gamma"] = np.ones(D)
        p[pre + "ln1.beta"] = np.zeros(D)
        for name in ("Wq", "Wk", "Wv"):
            p[pre + "attn." + name] = xavier(D, Hd)
        p[pre + "attn.bq"] = np.zeros(Hd)
        p[pre + "attn.bk"] = np.zeros(Hd)
        p[pre + "attn.bv"] = np.zeros(Hd)
        p[pre + "attn.Wo"] = xavier(Hd, D)
        p[pre + "attn.bo"] = np.zeros(D)
        p[pre + "ln2.gamma"] = np.ones(D)
        p[pre + "ln2.beta"] = np.zeros(D)
        p[pre + "ffn.W1"] = xavier(D, F)
        p[pre + "ffn.b1"] = np.zeros(F)
        p[pre + "ffn.W2"] = xavier(F, D)
        p[pre + "ffn.b2"] = np.zeros(D)
    p["final_ln.gamma"] = np.ones(D)
    p["final_ln.beta"] = np.zeros(D)
    p["head.W"] = xavier(D, config.n_classes)
    p["head.b"] = np.zeros(config.n_classes)
    return p


def oracle_adam_step(params, grads, m, v, t, lr):
    """One Adam step array by array, in place; the flat Adam must match it."""
    b1c = 1.0 - ADAM_BETA1 ** t
    b2c = 1.0 - ADAM_BETA2 ** t
    for key, g in grads.items():
        m[key] *= ADAM_BETA1
        m[key] += (1.0 - ADAM_BETA1) * g
        v[key] *= ADAM_BETA2
        v[key] += (1.0 - ADAM_BETA2) * g * g
        params[key] -= lr * (m[key] / b1c) / (np.sqrt(v[key] / b2c) + ADAM_EPS)


def oracle_layer_norm(x, gamma, beta):
    """network._layer_norm with NumPy's own mean and var in place of
    _sum_last: the same bits, signs of zeros included."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + network.LN_EPS)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def oracle_layer_norm_backward(dy, cache, grads, pre):
    """network._layer_norm_backward with NumPy's own sum and mean."""
    xhat, inv, gamma = cache
    grads[pre + "gamma"][:] = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    grads[pre + "beta"][:] = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2)


def oracle_masked_softmax(scores, key_mask):
    """The attention softmax over the keys key_mask holds, with NumPy's own
    max and sum in place of _max_last and _sum_last."""
    neg = np.where(key_mask, scores, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    e = np.exp(neg - m)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_softmax_backward(dA, A):
    """network._softmax_backward with NumPy's own sum."""
    return A * (dA - (dA * A).sum(axis=-1, keepdims=True))


# --- evaluation: the per-syllable loop ----------------------------------------

def oracle_evaluate(predictions, instances, weight_table=None):
    """evaluate as a loop over every syllable of the per-word instances,
    one prediction list per word: the implementation the bincount one
    replaced."""
    if len(predictions) != len(instances):
        raise AlignmentError(
            f"{len(predictions)} prediction lists for {len(instances)} instances")
    for inst in instances:
        if (inst.labels == IGNORE_LABEL).any():
            raise LabelError(f"{inst.utterance_id}: {inst.word!r} has a "
                             "syllable without a gold stress label")
    confusion = np.zeros((3, 3), dtype=np.int64)
    per_type = {tag: np.zeros((3, 3), dtype=np.int64) for tag in NUCLEUS_TAGS}
    weight_sum = 0.0
    weighted_correct = 0.0
    for preds, inst in zip(predictions, instances):
        if len(preds) != len(inst.labels):
            raise AlignmentError(
                f"{inst.word!r}: {len(preds)} predictions for "
                f"{len(inst.labels)} syllables")
        for i, pred in enumerate(preds):
            real = int(inst.labels[i])
            t = int(inst.type_indices[i])
            confusion[real, int(pred)] += 1
            per_type[NUCLEUS_TAGS[t]][real, int(pred)] += 1
            if weight_table is not None:
                w = float(weight_table[t, real])
                weight_sum += w
                weighted_correct += w * (int(pred) == real)
    n_syllables = int(confusion.sum())
    if n_syllables == 0:
        raise AlignmentError("no syllables to score")
    accuracy = float(np.trace(confusion)) / n_syllables
    weighted = None
    if weight_table is not None and weight_sum > 0:
        weighted = weighted_correct / weight_sum
    per_type = {tag: m for tag, m in per_type.items() if m.sum() > 0}
    return EvalReport(accuracy, weighted, confusion, per_type,
                      n_syllables, len(instances))


# --- cli: split and predict as they were --------------------------------------

def oracle_split(table: Path, out: Path, fraction: float, seed: int) -> None:
    """split as it was: read the table, split the records, write both
    parts with write_feature_table."""
    train_set, test_set = corpus.split(table_records(read_feature_table(str(table))),
                                       fraction, seed)
    out.mkdir(parents=True, exist_ok=True)
    write_feature_table(pack_records(train_set), str(out / "train.jsonl"))
    write_feature_table(pack_records(test_set), str(out / "test.jsonl"))


def oracle_label_lines(records) -> str:
    """labels.jsonl as label once wrote it: json.dumps(doc, sort_keys=True)
    per word of gold records."""
    return "".join(json.dumps({
        "utterance_id": r.utterance_id, "word": r.word, "nuclei": r.nucleus_tags,
        "stresses": r.stresses}, sort_keys=True) + "\n" for r in records)


def oracle_predictions(instances, probs) -> str:
    """predict's output as it was made: json.dumps(doc, sort_keys=True)
    per word."""
    preds, lines, start = probs.argmax(axis=1), [], 0
    for inst in instances:
        stop = start + len(inst.labels)
        lines.append(json.dumps({
            "utterance_id": inst.utterance_id,
            "word": inst.word,
            "syllables": [{"position": i, "stress_pred": int(level),
                           "probs": row.tolist()}
                          for i, (level, row) in enumerate(
                              zip(preds[start:stop], probs[start:stop]))],
        }, sort_keys=True) + "\n")
        start = stop
    return "".join(lines)


def per_word_reference(ckpt, table):
    """predict's output lines, scoring one word per call as a reference."""
    model, feature_mode, _ = load_any(ckpt)
    score = (partial(oracle_vote_shares, model)
             if isinstance(model, ForestModel) else model.class_probs)
    words = oracle_instances(table_records(read_feature_table(table)))
    return oracle_predictions(words, np.concatenate(
        [score(w.features[:, :feature_dim(feature_mode)]) for w in words]))
