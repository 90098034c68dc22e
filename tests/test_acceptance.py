"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from conftest import random_instance_batch
from stressnet.cli import run_subcommand
from stressnet.corpus import (
    GenConfig,
    compute_class_weights,
    instances_from_table,
    split,
    synth_corpus,
    weights_from_proportions,
)
from stressnet.dsp import compute_intensity, estimate_pitch
from stressnet.evaluation import evaluate, pca_type_embeddings
from stressnet.features import (
    WordRecord,
    normalize_sentence,
)
from stressnet.lexicon import (
    NUCLEUS_TAGS,
    PAD_TYPE_INDEX,
    StressLevel,
    syllabify,
)
from stressnet.model import (
    PRESETS,
    ModelConfig,
    TrainConfig,
    evaluate_batch,
    forward,
    init_params,
    loss_and_grads,
    make_batch,
    train,
)
from stressnet.model.network import loss_from_logits
from stressnet.baselines import train_forest, train_ordinal


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _fd_worst(cfg, seed, n_samples, eps=1e-4):
    """Worst relative error, reverse-mode vs central differences.

    Central differences are meaningless across a ReLU kink, so sampled
    entries whose +-eps perturbation flips any preactivation sign are
    replaced by a fresh draw.
    """
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    feats, types, mask, labels, weights = random_instance_batch(
        rng, 4, cfg.feature_dim)

    def loss_and_signs(ps):
        logits, _, cache = forward(ps, feats, types, mask, cfg,
                                      need_cache=True)
        loss, _ = loss_from_logits(logits, labels, mask, weights)
        return loss, [c["u"] > 0 for c in cache["layers"]]

    _, base_signs = loss_and_signs(params)
    _, grads, _ = loss_and_grads(params, feats, types, mask, labels,
                                 weights, cfg)
    keys = sorted(params.keys())
    worst, checked = 0.0, 0
    while checked < n_samples:
        key = keys[int(rng.integers(len(keys)))]
        arr = params[key]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        if key == "E_type" and idx[0] == PAD_TYPE_INDEX:
            continue
        orig = arr[idx]
        arr[idx] = orig + eps
        lp, sp = loss_and_signs(params)
        arr[idx] = orig - eps
        lm, sm = loss_and_signs(params)
        arr[idx] = orig
        if any(not np.array_equal(a, b) or not np.array_equal(a, c)
               for a, b, c in zip(base_signs, sp, sm)):
            continue
        fd = (lp - lm) / (2.0 * eps)
        an = grads[key][idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
        checked += 1
    return worst, checked


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    worst_m, n_m = _fd_worst(ModelConfig(**PRESETS["attn-medium"], dropout=0.0),
                             seed=101, n_samples=100)
    worst_l, n_l = _fd_worst(ModelConfig(**PRESETS["attn-large"], dropout=0.0),
                             seed=202, n_samples=100)
    elapsed = time.monotonic() - t0
    worst = max(worst_m, worst_l)
    ok = worst < 1e-3 and (n_m + n_l) >= 200 and elapsed < 60.0
    report(1, ok, f"max rel err {worst:.2e} over {n_m + n_l} params "
                  f"(medium {worst_m:.2e}, large {worst_l:.2e}), "
                  f"{elapsed:.1f}s")


def test_criterion_2_mask_invariance():
    cfg = ModelConfig(**PRESETS["attn-medium"], dropout=0.0)
    params = init_params(cfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    worst = 0.0
    for chunk in range(4):
        feats, types, mask, _, _ = random_instance_batch(rng, 250, 12)
        base, _, _ = forward(params, feats, types, mask, cfg)
        feats2 = feats.copy()
        types2 = types.copy()
        pad = ~mask
        feats2[pad] = rng.normal(0.0, 100.0, feats2[pad].shape)
        types2[pad] = rng.integers(0, PAD_TYPE_INDEX + 1, int(pad.sum()))
        pert, _, _ = forward(params, feats2, types2, mask, cfg)
        worst = max(worst, float(np.abs(base[mask] - pert[mask]).max()))
    ok = worst <= 1e-9
    report(2, ok, f"1000 instances, padded-slot perturbations move "
                  f"valid logits by at most {worst:.2e}")


def test_criterion_3_weight_oracle(lexicon):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        p = rng.dirichlet(np.ones(3))
        got = weights_from_proportions(p)
        expected = (p / p.max()) ** 0.7  # direct evaluation
        worst = max(worst, float(np.abs(got - expected).max()))
    formula_ok = worst < 1e-12

    # the count path: integer counts -> proportions -> weights
    count_worst = 0.0
    for _ in range(10):
        counts = rng.integers(1, 40, 3)
        tag = NUCLEUS_TAGS[int(rng.integers(16))]
        labels = np.repeat([0, 1, 2], counts)[:17].tolist()
        instances = instances_from_table([WordRecord(
            "u", "w", np.zeros((len(labels), 12)), [tag] * len(labels), labels)])
        table = compute_class_weights(instances)
        realized = np.bincount(labels, minlength=3)
        expected = (realized / realized.sum())
        expected = (expected / expected.max()) ** 0.7
        from stressnet.lexicon import TAG_TO_INDEX
        count_worst = max(count_worst, float(
            np.abs(table[TAG_TO_INDEX[tag]] - expected).max()))
    count_ok = count_worst < 1e-12

    uniform = weights_from_proportions(np.full(3, 1.0 / 3.0))
    uniform_ok = np.allclose(uniform, 1.0, atol=1e-12)

    _, recs = synth_corpus(lexicon, 40, GenConfig(noise=0.5), seed=12)
    table = compute_class_weights(instances_from_table(recs))
    max_ok = bool(np.allclose(table.max(axis=1), 1.0, atol=0.0))

    ok = formula_ok and count_ok and uniform_ok and max_ok
    report(3, ok, f"100 triples max err {worst:.1e}, count path "
                  f"{count_worst:.1e}, uniform->ones {uniform_ok}, "
                  f"max-per-type==1 {max_ok}")


def test_criterion_4_normalization(lexicon):
    _, recs = synth_corpus(lexicon, 50, GenConfig(noise=0.8), seed=13)
    by_utt = {}
    for rec in recs:
        by_utt.setdefault(rec.utterance_id, []).extend(rec.features)
    worst_mean = max(
        float(np.abs(np.stack(feats).mean(axis=0)).max())
        for feats in by_utt.values())
    mean_ok = worst_mean < 1e-9

    rng = np.random.default_rng(14)
    base = [list(rng.normal(0.0, 10.0, 12)) for _ in range(9)]
    shifted = []
    for row in base:
        row2 = list(row)
        for slot in (0, 1, 6, 7):  # pitch mean/max slots
            row2[slot] += 55.0
        shifted.append(row2)
    out_a = normalize_sentence(np.array(base))
    out_b = normalize_sentence(np.array(shifted))
    worst_shift = max(float(np.abs(a - b).max()) for a, b in zip(out_a, out_b))
    shift_ok = worst_shift < 1e-9

    ok = mean_ok and shift_ok
    report(4, ok, f"per-slot utterance means <= {worst_mean:.1e}; constant "
                  f"pitch offset moves outputs by <= {worst_shift:.1e}")


def test_criterion_5_lexicon_goldens(lexicon):
    golden = {
        "overcome": [StressLevel.SECONDARY, StressLevel.NON_STRESS,
                     StressLevel.PRIMARY],
        "emotion": [StressLevel.NON_STRESS, StressLevel.PRIMARY,
                    StressLevel.NON_STRESS],
        "underwear": [StressLevel.PRIMARY, StressLevel.NON_STRESS,
                      StressLevel.SECONDARY],
    }
    golden_ok = all(
        syllabify(lexicon.lookup(word)[0]).stresses() == pattern
        for word, pattern in golden.items())

    round_trip_ok = True
    tags = set()
    for word in lexicon.words():
        for entry in lexicon.lookup(word):
            syl = syllabify(entry)
            tags.update(syl.nucleus_tags())
            if syl.flatten() != list(entry.phonemes):
                round_trip_ok = False
    inventory_ok = tags == set(NUCLEUS_TAGS)
    ok = golden_ok and round_trip_ok and inventory_ok
    report(5, ok, f"golden stress patterns {golden_ok}, full round-trip "
                  f"{round_trip_ok}, 16-tag inventory {inventory_ok}")


def test_criterion_6_dsp_accuracy():
    t0 = time.monotonic()
    sr = 16000
    t = np.arange(sr // 2) / sr
    tone_ok = True
    worst_frac = 1.0
    for freq in (100.0, 150.0, 220.0, 300.0, 400.0):
        track = estimate_pitch(np.sin(2 * np.pi * freq * t), sr)
        f0 = track.values[np.isfinite(track.values)]
        frac = float((np.abs(f0 - freq) / freq < 0.02).mean()) if f0.size else 0.0
        worst_frac = min(worst_frac, frac)
        if frac < 0.95:
            tone_ok = False

    sine = np.sin(2 * np.pi * 220.0 * t)
    db = compute_intensity(sine, sr).values[1:-1]
    closed_form = 20.0 * np.log10(1.0 / np.sqrt(2.0))
    intensity_ok = bool(np.all(np.abs(db - closed_form) < 0.1))

    silence = estimate_pitch(np.zeros(sr // 2), sr)
    silence_ok = not np.isfinite(silence.values).any()
    elapsed = time.monotonic() - t0
    ok = tone_ok and intensity_ok and silence_ok and elapsed < 60.0
    report(6, ok, f"worst in-band frame fraction {worst_frac:.3f}, intensity "
                  f"within 0.1 dB {intensity_ok}, silence unvoiced "
                  f"{silence_ok}, {elapsed:.1f}s")


def test_criterion_7_separable_oracle_learning(lexicon):
    t0 = time.monotonic()
    _, recs = synth_corpus(lexicon, 320, GenConfig(noise=0.0), seed=11)
    n_separable = len(instances_from_table(recs))
    assert n_separable >= 2000
    train_all, test_set = map(instances_from_table, split(recs, 0.7, seed=3))
    n_val = max(1, len(train_all) // 10)
    train_set, val_set = train_all[n_val:], train_all[:n_val]
    cfg = ModelConfig(**PRESETS["attn-medium"], dropout=0.0)
    params, table, _ = train(
        train_set, val_set, cfg,
        TrainConfig(epochs=30, seed=5, learning_rate=3e-3))
    _, acc = evaluate_batch(params, make_batch(test_set, cfg, table), cfg)
    elapsed = time.monotonic() - t0
    sep_ok = acc >= 0.995 and elapsed < 600.0

    # context-dependent variant: the label is the syllable's duration rank
    # within its word, invisible to any single-syllable classifier
    _, recs = synth_corpus(
        lexicon, 250, GenConfig(noise=0.0, labeling="relative_duration"),
        seed=21)
    train_all, test_set = map(instances_from_table, split(recs, 0.7, seed=21))
    n_val = max(1, len(train_all) // 10)
    train_set, val_set = train_all[n_val:], train_all[:n_val]
    params, table, _ = train(
        train_set, val_set, cfg,
        TrainConfig(epochs=30, seed=21, learning_rate=3e-3))
    _, attn_acc = evaluate_batch(params, make_batch(test_set, cfg, table), cfg)
    Xtr, ytr = train_all.features, train_all.labels
    Xte, yte = test_set.features, test_set.labels
    rf_acc = float((train_forest(Xtr, ytr, n_trees=50, seed=21)
                    .vote_shares(Xte).argmax(axis=1) == yte).mean())
    or_acc = float((train_ordinal(Xtr, ytr, seed=21)
                    .class_probs(Xte).argmax(axis=1) == yte).mean())
    gap = attn_acc - max(rf_acc, or_acc)
    ctx_ok = gap >= 0.10
    ok = sep_ok and ctx_ok
    report(7, ok, f"separable test acc {acc:.4f} in {elapsed:.0f}s "
                  f"({n_separable} instances); context task attn "
                  f"{attn_acc:.4f} vs rf {rf_acc:.4f} / or {or_acc:.4f} "
                  f"(gap {gap * 100:.1f} pts)")


def test_criterion_8_moderate_noise_ordering(lexicon):
    results = []
    for seed in (1, 2, 3):
        _, recs = synth_corpus(lexicon, 250, GenConfig(noise=0.75), seed=seed)
        train_all, test_set = map(instances_from_table,
                                  split(recs, 0.7, seed=seed))
        n_val = max(1, len(train_all) // 10)
        train_set, val_set = train_all[n_val:], train_all[:n_val]
        cfg = ModelConfig(**PRESETS["attn-medium"], dropout=0.0)
        params, table, _ = train(
            train_set, val_set, cfg,
            TrainConfig(epochs=30, seed=seed, learning_rate=3e-3))
        _, attn = evaluate_batch(params, make_batch(test_set, cfg, table), cfg)
        Xtr, ytr = train_all.features, train_all.labels
        Xte, yte = test_set.features, test_set.labels
        rf = float((train_forest(Xtr, ytr, n_trees=50, seed=seed)
                    .vote_shares(Xte).argmax(axis=1) == yte).mean())
        om = float((train_ordinal(Xtr, ytr, seed=seed)
                    .class_probs(Xte).argmax(axis=1) == yte).mean())
        results.append((seed, attn, rf, om))
    ok = all(attn >= rf >= om for _, attn, rf, om in results)
    detail = "; ".join(f"seed {s}: attn {a:.3f} >= rf {r:.3f} >= or {o:.3f}"
                       for s, a, r, o in results)
    report(8, ok, detail)


def test_criterion_9_evaluation_self_consistency(lexicon):
    rng = np.random.default_rng(30)
    _, recs = synth_corpus(lexicon, 25, GenConfig(noise=1.0), seed=16)
    instances = instances_from_table(recs)
    preds = np.concatenate([rng.integers(0, 3, n)
                            for n in np.diff(instances.offsets)])
    report_plain = evaluate(preds, instances)
    trace_ok = (report_plain.accuracy
                == np.trace(report_plain.confusion) / report_plain.n_syllables)
    total = sum(report_plain.per_type_confusion.values())
    sum_ok = np.array_equal(total, report_plain.confusion)
    report_unit = evaluate(preds, instances, np.ones((16, 3)))
    unit_ok = abs(report_unit.weighted_accuracy - report_unit.accuracy) < 1e-12
    ok = trace_ok and sum_ok and unit_ok
    report(9, ok, f"trace/total == accuracy {trace_ok}, per-type sums "
                  f"{sum_ok}, unit weights == plain {unit_ok}")


def test_criterion_10_pipeline_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run_subcommand(["synth", "--n", "20", "--seed", "9",
                               "--noise", "0.3", "--out", str(out)]) == 0
        assert run_subcommand(["split", "--features",
                               str(out / "features.jsonl"), "--seed", "4",
                               "--out", str(out / "s")]) == 0
        assert run_subcommand(["train", "--model", "attn-medium",
                               "--train", str(out / "s" / "train.jsonl"),
                               "--out", str(out / "model.ckpt"),
                               "--epochs", "3", "--seed", "6"]) == 0
        assert run_subcommand(["eval", "--model", str(out / "model.ckpt"),
                               "--data", str(out / "s" / "test.jsonl"),
                               "--out", str(out / "report")]) == 0
        outs.append(out)
    a, b = outs
    same = {
        rel: (a / rel).read_bytes() == (b / rel).read_bytes()
        for rel in ("features.jsonl", "model.ckpt", "report.json",
                    "report.txt")
    }
    ok = all(same.values())
    report(10, ok, "byte-identical " + ", ".join(
        f"{k}={v}" for k, v in same.items()))


def test_criterion_11_pca_contract():
    rng = np.random.default_rng(33)
    params = init_params(ModelConfig(**PRESETS["attn-medium"]), rng)
    params["E_type"][:PAD_TYPE_INDEX] = rng.normal(0, 0.5, (16, 5))
    proj = pca_type_embeddings(params)
    gram = proj.components.T @ proj.components
    orth_ok = bool(np.allclose(gram, np.eye(3), atol=1e-9))
    v = proj.explained_variance
    desc_ok = bool(v[0] >= v[1] >= v[2] >= 0)
    proj2 = pca_type_embeddings({k: v.copy() for k, v in params.items()})
    sign_ok = all(
        np.array_equal(proj.points[tag], proj2.points[tag])
        for tag in NUCLEUS_TAGS)
    for j in range(3):
        k = int(np.argmax(np.abs(proj.components[:, j])))
        sign_ok = sign_ok and proj.components[k, j] > 0
    ok = orth_ok and desc_ok and sign_ok
    report(11, ok, f"orthonormal {orth_ok}, descending variance {desc_ok}, "
                   f"deterministic sign {sign_ok}")
