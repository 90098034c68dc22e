import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_instance_batch
from stressnet.checkpoint import FORMAT_ATTENTION, load_any, save_model
from stressnet.corpus import GenConfig, instances_from_table, split, synth_corpus
from stressnet.errors import (
    CheckpointError,
    ConfigError,
    DegenerateData,
    LabelError,
    NumericalInstability,
    ShapeError,
)
from stressnet.lexicon import PAD_TYPE_INDEX, StressLevel
from stressnet.model import (
    ALL_FEATURES,
    FEATURE_MODES,
    PRESETS,
    SYLLABLE_NUMERICAL,
    Adam,
    ModelConfig,
    Params,
    TrainConfig,
    embed,
    forward,
    init_params,
    loss_and_grads,
    loss_from_logits,
    make_batch,
    param_layout,
    predict_instance,
    predict_instances,
    train,
)
from stressnet.model import network
from stressnet.model.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def tiny_config(**kw):
    kw.setdefault("dropout", 0.0)
    return ModelConfig(d_model=4, n_heads=2, n_layers=2, **kw)


class TestConfig:
    def test_presets(self):
        m = ModelConfig(**PRESETS["attn-medium"])
        l = ModelConfig(**PRESETS["attn-large"])
        assert (m.d_model, m.n_heads, m.n_layers) == (5, 6, 3)
        assert (l.d_model, l.n_heads, l.n_layers) == (10, 12, 6)

    def test_medium_head_projection(self):
        assert ModelConfig(**PRESETS["attn-medium"]).head_dim == 1

    def test_strict_divisibility_mode(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=5, n_heads=6, n_layers=1,
                        require_divisible_heads=True)
        ModelConfig(d_model=6, n_heads=2, n_layers=1,
                    require_divisible_heads=True)

    @pytest.mark.parametrize("make", [
        lambda: TrainConfig(learning_rate=True),
        lambda: TrainConfig(validation_fraction=False),
        lambda: ModelConfig(d_model=4, n_heads=2, n_layers=1, dropout=False),
        lambda: ModelConfig(d_model=4, n_heads=2, n_layers=1, dropout=None),
    ], ids=["learning_rate-true", "validation_fraction-false",
            "dropout-false", "dropout-null"])
    def test_bool_where_a_number_is_meant(self, make):
        with pytest.raises(ConfigError, match="must be a number"):
            make()

    def test_no_instances_is_a_data_error(self):
        with pytest.raises(DegenerateData):
            make_batch(instances_from_table([]), tiny_config())
        with pytest.raises(DegenerateData):
            train(instances_from_table([]), instances_from_table([]),
                  tiny_config(), TrainConfig(epochs=1))

    def test_class_weight_resolution(self):
        tc = TrainConfig()
        medium = PRESETS["attn-medium"]
        assert tc.resolve_use_weights(ModelConfig(**medium)) is True
        assert tc.resolve_use_weights(
            ModelConfig(**medium, feature_mode=SYLLABLE_NUMERICAL)) is False
        forced = TrainConfig(use_class_weights=True)
        assert forced.resolve_use_weights(
            ModelConfig(**medium, feature_mode=SYLLABLE_NUMERICAL)) is True


class TestEmbed:
    def test_sum_of_three_terms(self):
        cfg = ModelConfig(d_model=2, n_heads=1, n_layers=1, dropout=0.0)
        params = init_params(cfg, np.random.default_rng(0))
        params["E_pos"][:] = 0.0
        params["E_pos"][0] = [0.1, 0.2]
        params["E_type"][:] = 0.0
        params["E_type"][3] = [0.3, 0.4]
        params["C"][:] = 0.0
        # features chosen so x @ C = [0.5, 0.6]
        params["C"][0] = [0.5, 0.6]
        feats = np.zeros((1, 17, 12))
        feats[0, 0, 0] = 1.0
        types = np.full((1, 17), PAD_TYPE_INDEX)
        types[0, 0] = 3
        mask = np.zeros((1, 17), dtype=bool)
        mask[0, 0] = True
        V = embed(feats, types, mask, params, cfg)
        assert V[0, 0] == pytest.approx([0.9, 1.2])

    def test_zero_everything_gives_zero(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(0))
        for key in ("E_pos", "E_type", "C"):
            params[key][:] = 0.0
        feats = np.zeros((1, 17, 12))
        types = np.zeros((1, 17), dtype=np.int64)
        mask = np.ones((1, 17), dtype=bool)
        assert np.all(embed(feats, types, mask, params, cfg) == 0.0)

    def test_padded_row_zero_regardless_of_params(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        feats = rng.normal(0, 1, (1, 17, 12))
        types = rng.integers(0, 16, (1, 17))
        mask = np.zeros((1, 17), dtype=bool)
        mask[0, :5] = True
        V = embed(feats, types, mask, params, cfg)
        assert np.all(V[0, 5:] == 0.0)

    def test_feature_dim_mismatch(self):
        cfg = tiny_config(feature_mode=SYLLABLE_NUMERICAL)
        params = init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            embed(np.zeros((1, 17, 12)), np.zeros((1, 17), dtype=int),
                  np.ones((1, 17), dtype=bool), params, cfg)


class TestForward:
    def test_probabilities_sum_to_one(self):
        cfg = ModelConfig(**PRESETS["attn-medium"], dropout=0.0)
        params = init_params(cfg, np.random.default_rng(3))
        batch = random_instance_batch(np.random.default_rng(4), 5, 12)
        feats, types, mask, _, _ = batch
        _, probs, _ = forward(params, feats, types, mask, cfg)
        sums = probs.sum(axis=-1)
        assert np.all(np.abs(sums[mask] - 1.0) < 1e-9)

    def test_padded_perturbation_changes_nothing(self):
        cfg = ModelConfig(**PRESETS["attn-medium"], dropout=0.0)
        params = init_params(cfg, np.random.default_rng(5))
        feats, types, mask, _, _ = random_instance_batch(
            np.random.default_rng(6), 8, 12)
        logits1, _, _ = forward(params, feats, types, mask, cfg)
        rng = np.random.default_rng(7)
        feats2 = feats.copy()
        feats2[~mask] = rng.normal(0, 50, feats2[~mask].shape)
        types2 = types.copy()
        types2[~mask] = rng.integers(0, 17, int((~mask).sum()))
        logits2, _, _ = forward(params, feats2, types2, mask, cfg)
        assert np.abs(logits1[mask] - logits2[mask]).max() <= 1e-9

    def test_single_valid_attention_one_hot(self):
        cfg = ModelConfig(**PRESETS["attn-medium"], dropout=0.0)
        params = init_params(cfg, np.random.default_rng(8))
        feats = np.zeros((1, 17, 12))
        types = np.full((1, 17), PAD_TYPE_INDEX)
        types[0, 0] = 4
        mask = np.zeros((1, 17), dtype=bool)
        mask[0, 0] = True
        _, _, cache = forward(params, feats, types, mask, cfg, need_cache=True)
        for A in (c["A"] for c in cache["layers"]):
            assert A[0, :, 0, 0] == pytest.approx(np.ones(cfg.n_heads))
            assert np.all(A[0, :, 0, 1:] == 0.0)

    def test_attention_rows_sum_to_one_masked_keys_zero(self):
        cfg = ModelConfig(**PRESETS["attn-medium"], dropout=0.0)
        params = init_params(cfg, np.random.default_rng(9))
        feats, types, mask, _, _ = random_instance_batch(
            np.random.default_rng(10), 4, 12)
        _, _, cache = forward(params, feats, types, mask, cfg, need_cache=True)
        for A in (c["A"] for c in cache["layers"]):
            assert np.abs(A.sum(axis=-1) - 1.0).max() < 1e-9
            key_mask = mask[:, None, None, :]
            assert np.all(A[~np.broadcast_to(key_mask, A.shape)] == 0.0)

    def test_nonfinite_raises(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(11))
        params["head.W"][0, 0] = np.inf
        feats, types, mask, _, _ = random_instance_batch(
            np.random.default_rng(12), 2, 12)
        with pytest.raises(NumericalInstability):
            forward(params, feats, types, mask, cfg)

    def test_permutation_equivariance_without_positions(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(13))
        params["E_pos"][:] = 0.0
        rng = np.random.default_rng(14)
        n = 6
        feats = np.zeros((1, 17, 12))
        feats[0, :n] = rng.normal(0, 1, (n, 12))
        types = np.full((1, 17), PAD_TYPE_INDEX)
        types[0, :n] = rng.integers(0, 16, n)
        mask = np.zeros((1, 17), dtype=bool)
        mask[0, :n] = True
        logits, _, _ = forward(params, feats, types, mask, cfg)
        perm = rng.permutation(n)
        feats2, types2 = feats.copy(), types.copy()
        feats2[0, :n] = feats[0, perm]
        types2[0, :n] = types[0, perm]
        logits2, _, _ = forward(params, feats2, types2, mask, cfg)
        assert np.allclose(logits2[0, :n], logits[0, perm], atol=1e-9)
        # with position embeddings restored the outputs are, in general,
        # position-sensitive
        params2 = init_params(cfg, np.random.default_rng(13))
        logits3, _, _ = forward(params2, feats, types, mask, cfg)
        logits4, _, _ = forward(params2, feats2, types2, mask, cfg)
        assert not np.allclose(logits4[0, :n], logits3[0, perm], atol=1e-6)


class TestLoss:
    def test_uniform_logits_ln3(self):
        logits = np.zeros((2, 17, 3))
        mask = np.zeros((2, 17), dtype=bool)
        mask[:, :4] = True
        labels = np.zeros((2, 17), dtype=np.int64)
        labels[~mask] = -1
        weights = mask.astype(np.float64)
        loss, _ = loss_from_logits(logits, labels, mask, weights)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_zero_weight_sample_contributes_nothing(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(0, 1, (2, 17, 3))
        mask = np.zeros((2, 17), dtype=bool)
        mask[:, :3] = True
        labels = np.where(mask, 1, -1).astype(np.int64)
        weights = mask.astype(np.float64)
        base, _ = loss_from_logits(logits, labels, mask, weights)
        weights2 = weights.copy()
        weights2[0, 0] = 0.0
        less, _ = loss_from_logits(logits, labels, mask, weights2)
        # removing one sample's weight removes exactly its contribution
        lmax = logits[0, 0].max()
        logp = logits[0, 0] - lmax - np.log(np.exp(logits[0, 0] - lmax).sum())
        assert base - less == pytest.approx(-logp[1] / mask.sum(), abs=1e-12)

    def test_doubling_weights_doubles_loss(self):
        rng = np.random.default_rng(16)
        logits = rng.normal(0, 1, (3, 17, 3))
        mask = np.zeros((3, 17), dtype=bool)
        mask[:, :5] = True
        labels = np.where(mask, 2, -1).astype(np.int64)
        weights = np.where(mask, rng.uniform(0.1, 1.0, (3, 17)), 0.0)
        l1, _ = loss_from_logits(logits, labels, mask, weights)
        l2, _ = loss_from_logits(logits, labels, mask, 2.0 * weights)
        assert l2 == pytest.approx(2.0 * l1, rel=1e-12)

    def test_ignore_label_at_valid_position(self):
        logits = np.zeros((1, 17, 3))
        mask = np.zeros((1, 17), dtype=bool)
        mask[0, :2] = True
        labels = np.full((1, 17), -1, dtype=np.int64)
        with pytest.raises(LabelError):
            loss_from_logits(logits, labels, mask, mask.astype(np.float64))


def finite_difference_check(cfg, seed, n_samples=60, eps=1e-4):
    """Max relative error of reverse-mode vs central differences.

    Entries whose +-eps perturbation flips any ReLU preactivation sign are
    resampled: the loss is not differentiable there, so a central
    difference is not a valid reference.
    """
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    feats, types, mask, labels, weights = random_instance_batch(
        rng, 4, cfg.feature_dim)

    def loss_and_signs(ps):
        logits, _, cache = forward(ps, feats, types, mask, cfg,
                                      need_cache=True)
        loss, _ = loss_from_logits(logits, labels, mask, weights)
        signs = [c["u"] > 0 for c in cache["layers"]]
        return loss, signs

    _, base_signs = loss_and_signs(params)
    loss, grads, _ = loss_and_grads(params, feats, types, mask, labels,
                                    weights, cfg)
    worst = 0.0
    checked = 0
    keys = sorted(params.keys())
    while checked < n_samples:
        key = keys[int(rng.integers(len(keys)))]
        arr = params[key]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        if key == "E_type" and idx[0] == PAD_TYPE_INDEX:
            continue
        orig = arr[idx]
        arr[idx] = orig + eps
        lp, signs_p = loss_and_signs(params)
        arr[idx] = orig - eps
        lm, signs_m = loss_and_signs(params)
        arr[idx] = orig
        crossed = any(
            not np.array_equal(a, b) or not np.array_equal(a, c)
            for a, b, c in zip(base_signs, signs_p, signs_m))
        if crossed:
            continue
        fd = (lp - lm) / (2.0 * eps)
        an = grads[key][idx]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        worst = max(worst, rel)
        checked += 1
    return worst, checked


class TestGradients:
    def test_finite_difference_small_config(self):
        worst, checked = finite_difference_check(tiny_config(), seed=100)
        assert checked >= 60
        assert worst < 1e-3

    def test_zero_weight_batch_zero_gradients(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(17))
        feats, types, mask, labels, _ = random_instance_batch(
            np.random.default_rng(18), 3, 12)
        weights = np.zeros(mask.shape)
        _, grads, _ = loss_and_grads(params, feats, types, mask, labels,
                                     weights, cfg)
        for key, g in grads.items():
            assert np.all(g == 0.0), key

    def test_duplicated_batch_same_gradients(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(19))
        feats, types, mask, labels, weights = random_instance_batch(
            np.random.default_rng(20), 3, 12)
        _, g1, _ = loss_and_grads(params, feats, types, mask, labels,
                                  weights, cfg)
        dup = lambda a: np.concatenate([a, a], axis=0)
        _, g2, _ = loss_and_grads(params, dup(feats), dup(types), dup(mask),
                                  dup(labels), dup(weights), cfg)
        for key in g1:
            assert np.allclose(g1[key], g2[key], atol=1e-12), key

    def test_pad_type_row_gradient_zero(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(21))
        feats, types, mask, labels, weights = random_instance_batch(
            np.random.default_rng(22), 4, 12)
        _, grads, _ = loss_and_grads(params, feats, types, mask, labels,
                                     weights, cfg)
        assert np.all(grads["E_type"][PAD_TYPE_INDEX] == 0.0)


@pytest.fixture(scope="module")
def small_corpus(lexicon):
    _, recs = synth_corpus(lexicon, 60, GenConfig(noise=0.0), seed=31)
    train_recs, test_recs = split(recs, 0.7, seed=1)
    return instances_from_table(train_recs), instances_from_table(test_recs)


# --- parameter storage ---------------------------------------------------------

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


def assert_views_of_flat(params):
    assert params.flat.dtype == np.float64 and params.flat.ndim == 1
    assert sum(a.size for a in params.values()) == params.flat.size
    for name, arr in params.items():
        assert arr.base is params.flat, name
        assert np.shares_memory(arr, params.flat), name


class TestParamStorage:
    @pytest.mark.parametrize("preset", ["attn-medium", "attn-large"],
                             ids=["medium_config", "large_config"])
    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_init_matches_per_array_oracle(self, preset, mode):
        cfg = ModelConfig(**PRESETS[preset], feature_mode=mode)
        params = init_params(cfg, np.random.default_rng(17))
        expected = oracle_init_params(cfg, np.random.default_rng(17))
        assert list(params) == list(expected)
        assert [(k, a.shape) for k, a in params.items()] == param_layout(cfg)
        for key, arr in expected.items():
            assert params[key].dtype == np.float64
            assert np.array_equal(params[key], arr), key
        assert_views_of_flat(params)

    def test_adam_matches_per_array_oracle(self):
        cfg = ModelConfig(**PRESETS["attn-medium"])
        rng = np.random.default_rng(18)
        params = init_params(cfg, np.random.default_rng(19))
        ref = {k: a.copy() for k, a in params.items()}
        m = {k: np.zeros_like(a) for k, a in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        opt = Adam(params, 3e-3)
        for t in range(1, 6):
            grads = Params(param_layout(cfg))
            grads.flat[:] = rng.normal(0.0, 1.0, grads.flat.size)
            opt.step(params, grads)
            oracle_adam_step(ref, grads, m, v, t, 3e-3)
            for key in ref:
                assert np.array_equal(params[key], ref[key]), (t, key)
        assert_views_of_flat(params)

    def test_gradients_trained_and_loaded_params_are_views(self, small_corpus,
                                                           tmp_path):
        train_set, test_set = small_corpus
        cfg = tiny_config(feature_mode=ALL_FEATURES)
        params = init_params(cfg, np.random.default_rng(20))
        feats, types, mask, labels, weights = random_instance_batch(
            np.random.default_rng(21), 3, 12)
        _, grads, _ = loss_and_grads(params, feats, types, mask, labels,
                                     weights, cfg)
        assert_views_of_flat(grads)
        trained, cw, _ = train(train_set, test_set, cfg,
                               TrainConfig(epochs=1, seed=2, batch_size=32))
        assert_views_of_flat(trained)
        path = str(tmp_path / "m.ckpt")
        save_model(path, trained, cfg, cw)
        (loaded, _), _, _ = load_any(path)
        assert_views_of_flat(loaded)
        assert np.array_equal(loaded.flat, trained.flat)

    def test_mismatched_header_rejected_before_allocation(self, tmp_path):
        # no arrays, so the header agrees with the file's byte count; the
        # model it declares would need about 189 MB of parameters
        config = dataclasses.asdict(ModelConfig(d_model=700, n_heads=1, n_layers=4))
        path = tmp_path / "big.ckpt"
        path.write_bytes(json.dumps({
            "format": FORMAT_ATTENTION, "version": 1, "arrays": [],
            "meta": {"feature_mode": ALL_FEATURES, "model_config": config,
                     "has_class_weights": False},
        }, sort_keys=True).encode() + b"\n")
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError):
                load_any(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestTraining:
    def test_determinism(self, small_corpus):
        train_set, test_set = small_corpus
        cfg = tiny_config(feature_mode=ALL_FEATURES)
        tc = TrainConfig(epochs=2, seed=12, batch_size=32)
        p1, _, h1 = train(train_set, test_set, cfg, tc)
        p2, _, h2 = train(train_set, test_set, cfg, tc)
        assert h1 == h2
        for key in p1:
            assert np.array_equal(p1[key], p2[key]), key

    def test_zero_epochs_returns_initialization(self, small_corpus):
        train_set, test_set = small_corpus
        cfg = tiny_config()
        tc = TrainConfig(epochs=0, seed=7)
        params, _, history = train(train_set, test_set, cfg, tc)
        assert history == []
        seq = np.random.SeedSequence(7).spawn(3)
        expected = init_params(cfg, np.random.default_rng(seq[0]))
        for key in expected:
            assert np.array_equal(params[key], expected[key]), key

    def test_learns_separable_data(self, small_corpus):
        train_set, test_set = small_corpus
        cfg = ModelConfig(**PRESETS["attn-medium"], dropout=0.0)
        tc = TrainConfig(epochs=12, seed=3, learning_rate=3e-3)
        params, weights, history = train(train_set, test_set, cfg, tc)
        assert max(h["val_acc"] for h in history) > 0.95

    def test_dropout_training_still_deterministic(self, small_corpus):
        train_set, test_set = small_corpus
        cfg = tiny_config(dropout=0.2)
        tc = TrainConfig(epochs=2, seed=5, batch_size=32)
        p1, _, h1 = train(train_set, test_set, cfg, tc)
        p2, _, h2 = train(train_set, test_set, cfg, tc)
        assert h1 == h2
        for key in p1:
            assert np.array_equal(p1[key], p2[key])

    def test_divergence_aborts_with_epoch(self, small_corpus, monkeypatch):
        import stressnet.model.training as training_mod
        from stressnet.errors import DivergedAtEpoch

        def exploding(*args, **kwargs):
            raise NumericalInstability("synthetic blow-up")

        monkeypatch.setattr(training_mod, "loss_and_grads", exploding)
        train_set, test_set = small_corpus
        with pytest.raises(DivergedAtEpoch) as excinfo:
            train(train_set, test_set, tiny_config(),
                  TrainConfig(epochs=3, seed=1))
        assert excinfo.value.epoch == 0


class TestPredict:
    def test_shapes_and_mask(self, small_corpus):
        train_set, _ = small_corpus
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(23))
        inst = train_set[0:1]
        probs = predict_instance(params, cfg, inst)
        assert probs.shape == (len(inst.labels), 3)
        assert probs.sum(axis=1) == pytest.approx(np.ones(len(inst.labels)))

    def test_argmax_and_tie_rule(self):
        probs = np.array([0.2, 0.5, 0.3])
        assert StressLevel(int(probs.argmax())) == StressLevel.PRIMARY
        tie = np.array([1 / 3, 1 / 3, 1 / 3])
        assert StressLevel(int(tie.argmax())) == StressLevel.NON_STRESS

    def test_constant_head_ties_to_non_stress(self, small_corpus):
        train_set, _ = small_corpus
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(24))
        params["head.W"][:] = 0.0
        params["head.b"][:] = 0.0
        probs = predict_instance(params, cfg, train_set[0:1])
        assert np.all(probs.argmax(axis=1) == StressLevel.NON_STRESS)


def pad_to_full_width(feats, types, mask, labels, weights, width=17):
    """The same words laid out over `width` slots, padding as make_batch does."""
    extra = width - mask.shape[1]
    return (np.pad(feats, ((0, 0), (0, extra), (0, 0))),
            np.pad(types, ((0, 0), (0, extra)), constant_values=PAD_TYPE_INDEX),
            np.pad(mask, ((0, 0), (0, extra))),
            np.pad(labels, ((0, 0), (0, extra)), constant_values=-1),
            np.pad(weights, ((0, 0), (0, extra))))


class TestTrimmedBatches:
    """A batch cut to its longest word computes what the 17-slot one does."""

    def test_embed_accepts_fewer_slots_and_rejects_more(self):
        cfg = tiny_config()
        params = init_params(cfg, np.random.default_rng(40))
        full = random_instance_batch(np.random.default_rng(41), 3, 12,
                                     max_positions=5)
        feats, types, mask, _, _ = pad_to_full_width(*full)
        V_full = embed(feats, types, mask, params, cfg)
        V_trim = embed(*full[:3], params, cfg)
        assert V_trim.shape == (3, 5, cfg.d_model)
        assert np.array_equal(V_trim, V_full[:, :5])
        with pytest.raises(ShapeError):
            embed(np.zeros((1, 18, 12)), np.zeros((1, 18), dtype=int),
                  np.ones((1, 18), dtype=bool), params, cfg)

    @pytest.mark.parametrize("preset", ["attn-medium", "attn-large"],
                             ids=["medium_config", "large_config"])
    def test_logits_loss_and_gradients_match_full_width(self, preset):
        cfg = ModelConfig(**PRESETS[preset], dropout=0.1)
        params = init_params(cfg, np.random.default_rng(42))
        trimmed = random_instance_batch(np.random.default_rng(43), 9, 12,
                                        max_positions=7)
        full = pad_to_full_width(*trimmed)
        P = trimmed[2].shape[1]
        logits_t, probs_t, _ = forward(params, *trimmed[:3], cfg)
        logits_f, probs_f, _ = forward(params, *full[:3], cfg)
        assert np.abs(logits_t - logits_f[:, :P]).max() < 1e-12
        assert np.abs(probs_t - probs_f[:, :P]).max() < 1e-12
        # dropout on: slot i must draw the same mask at either width
        loss_t, grads_t, _ = loss_and_grads(
            params, *trimmed, cfg, train=True, rng=np.random.default_rng(44))
        loss_f, grads_f, _ = loss_and_grads(
            params, *full, cfg, train=True, rng=np.random.default_rng(44))
        assert abs(loss_t - loss_f) < 1e-12
        assert set(grads_t) == set(grads_f)
        for key in grads_f:
            assert np.abs(grads_t[key] - grads_f[key]).max() < 1e-12, key
        assert np.all(grads_t["E_pos"][P:] == 0.0)

    def test_make_batch_and_take_trim_to_longest_word(self, small_corpus):
        train_set, _ = small_corpus
        batch = make_batch(train_set, tiny_config())
        counts = np.diff(train_set.offsets)
        longest = counts.max()
        assert longest < 17
        assert batch.mask.shape == (len(train_set), longest)
        assert batch.features.shape == (len(train_set), longest, 12)
        for row, (lo, n) in enumerate(zip(train_set.offsets, counts)):
            rows = slice(lo, lo + n)
            assert np.array_equal(batch.features[row, :n], train_set.features[rows])
            assert np.array_equal(batch.types[row, :n], train_set.types[rows])
            assert np.array_equal(batch.labels[row, :n], train_set.labels[rows])
            assert batch.mask[row, :n].all() and not batch.mask[row, n:].any()
            assert np.all(batch.features[row, n:] == 0.0)
            assert np.all(batch.types[row, n:] == PAD_TYPE_INDEX)
            assert np.all(batch.labels[row, n:] == -1)
        idx = np.flatnonzero(counts <= 2)[:5]
        sub = batch.take(idx)
        assert sub.mask.shape == (len(idx), 2)
        for arr, full in zip((sub.features, sub.types, sub.mask, sub.labels,
                              sub.weights),
                             (batch.features, batch.types, batch.mask,
                              batch.labels, batch.weights)):
            assert np.array_equal(arr, full[idx, :2])

    def test_batched_scorer_matches_one_word_forward(self, small_corpus,
                                                     monkeypatch):
        import stressnet.model.training as training_mod

        _, test_set = small_corpus
        cfg = ModelConfig(**PRESETS["attn-medium"], dropout=0.0)
        params = init_params(cfg, np.random.default_rng(45))
        # several chunks, the last one short
        monkeypatch.setattr(training_mod, "SCORE_CHUNK", 7)
        scored = predict_instances(params, cfg, test_set)
        # one row per syllable: the words in order, each in position order
        assert scored.shape == (len(test_set.labels), 3)
        start = 0
        for i in range(len(test_set)):
            one = make_batch(test_set[i:i + 1], cfg)
            n = int(one.mask.sum())
            feats, types, mask, _, _ = pad_to_full_width(
                one.features, one.types, one.mask, one.labels, one.weights)
            assert mask.shape == (1, 17)
            _, probs, _ = forward(params, feats, types, mask, cfg)
            p = scored[start:start + n]
            assert np.abs(p - probs[0, :n]).max() < 1e-12
            start += n
        offset = test_set.offsets[3]
        one = predict_instance(params, cfg, test_set[3:4])
        assert one.shape == (test_set.offsets[4] - offset, 3)
        assert np.array_equal(one.argmax(axis=1),
                              scored[offset:offset + len(one)].argmax(axis=1))
        assert predict_instances(params, cfg, instances_from_table([])).shape == (0, 3)


# --- encoder primitives against NumPy-reduction oracles -------------------------
#
# The encoder's softmax and layer norms reduce the last axis with
# network._sum_last / _max_last. The oracles below reduce with NumPy's own
# sum, mean, var and max; the primitives must give the same bits, signs of
# zeros included.

def oracle_layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + network.LN_EPS)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def oracle_layer_norm_backward(dy, cache, grads, pre):
    xhat, inv, gamma = cache
    grads[pre + "gamma"][:] = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    grads[pre + "beta"][:] = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2)


def oracle_masked_softmax(scores, key_mask):
    neg = np.where(key_mask, scores, -np.inf)
    m = neg.max(axis=-1, keepdims=True)
    e = np.exp(neg - m)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_softmax_backward(dA, A):
    return A * (dA - (dA * A).sum(axis=-1, keepdims=True))


def wide_range(rng, shape):
    """Normal draws scaled per row by 10**k, k in [-300, 300], and within a
    row by up to e**±6; about a tenth of the entries and a few whole rows
    are -0.0."""
    rows = 10.0 ** rng.integers(-300, 301, shape[:-1] + (1,))
    x = rng.normal(0.0, 1.0, shape) * np.exp(rng.uniform(-6, 6, shape)) * rows
    x[rng.random(shape) < 0.1] = -0.0
    x[rng.random(shape[:-1]) < 0.05] = -0.0
    return x


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestEncoderPrimitives:
    @pytest.mark.parametrize("n", [*range(1, 34), 130])
    def test_last_axis_reductions_match_numpy(self, n):
        rng = np.random.default_rng(100 + n)
        x = wide_range(rng, (3, 4, n))
        assert_same_bits(network._sum_last(x), x.sum(axis=-1, keepdims=True))
        assert_same_bits(network._sum_last(np.full((2, n), -0.0)),
                         np.zeros((2, 1)))
        # the max agrees in value; a tie of -0.0 with +0.0 may take either sign
        x[0, 0, rng.integers(n)] = np.nan
        assert np.array_equal(network._max_last(x),
                              x.max(axis=-1, keepdims=True), equal_nan=True)

    @pytest.mark.parametrize("P", range(1, 18))
    def test_softmax_and_backward_match_oracle(self, P):
        rng = np.random.default_rng(200 + P)
        B, H = int(rng.integers(1, 70)), int(rng.integers(1, 13))
        scores = wide_range(rng, (B, H, P, P))
        mask = rng.random((B, P)) < 0.6
        mask[:, 0] = True
        mask[: B // 3, 1:] = False  # a single valid key
        key_mask = mask[:, None, None, :]
        key_bias = np.where(mask, 0.0, -np.inf)[:, None, None, :]
        A = network._softmax(scores + key_bias)
        assert_same_bits(A, oracle_masked_softmax(scores, key_mask))
        dA = wide_range(rng, (B, H, P, P))
        assert_same_bits(network._softmax_backward(dA, A),
                         oracle_softmax_backward(dA, A))

    @pytest.mark.parametrize("D", [1, 5, 8, 10, 20])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # 1e300**2
    def test_layer_norm_and_backward_match_oracle(self, D):
        rng = np.random.default_rng(300 + D)
        B, P = int(rng.integers(1, 70)), int(rng.integers(1, 18))
        x = wide_range(rng, (B, P, D))
        gamma, beta = rng.normal(0.0, 1.0, D), rng.normal(0.0, 1.0, D)
        y, cache = network._layer_norm(x, gamma, beta)
        y_ref, cache_ref = oracle_layer_norm(x, gamma, beta)
        assert_same_bits(y, y_ref)
        for got, want in zip(cache, cache_ref):
            assert_same_bits(got, want)
        dy = wide_range(rng, (B, P, D))
        grads = {"g.gamma": np.zeros(D), "g.beta": np.zeros(D)}
        grads_ref = {"g.gamma": np.zeros(D), "g.beta": np.zeros(D)}
        assert_same_bits(network._layer_norm_backward(dy, cache, grads, "g."),
                         oracle_layer_norm_backward(dy, cache, grads_ref, "g."))
        for key in grads:
            assert_same_bits(grads[key], grads_ref[key])

    @pytest.mark.parametrize("preset", ["attn-medium", "attn-large"],
                             ids=["medium_config", "large_config"])
    def test_training_is_bitwise_that_of_the_oracles(self, small_corpus,
                                                     monkeypatch, preset):
        train_set, test_set = small_corpus
        cfg = ModelConfig(**PRESETS[preset], dropout=0.1)
        tc = TrainConfig(epochs=2, seed=8, learning_rate=3e-3)
        params, _, history = train(train_set, test_set, cfg, tc)
        for name, oracle in [
                ("_softmax", lambda x: oracle_masked_softmax(x, True)),
                ("_softmax_backward", oracle_softmax_backward),
                ("_layer_norm", oracle_layer_norm),
                ("_layer_norm_backward", oracle_layer_norm_backward),
                # what is left, the loss, reduces with NumPy too
                ("_sum_last", lambda a: a.sum(axis=-1, keepdims=True)),
                ("_max_last", lambda a: a.max(axis=-1, keepdims=True))]:
            monkeypatch.setattr(network, name, oracle)
        ref, _, ref_history = train(train_set, test_set, cfg, tc)
        assert params.flat.tobytes() == ref.flat.tobytes()
        assert history == ref_history
