"""Mini-batch Adam training with per-epoch history and deterministic seeding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import IGNORE_LABEL, Instances, compute_class_weights
from ..errors import DegenerateData, DivergedAtEpoch, NumericalInstability
from ..lexicon import PAD_TYPE_INDEX
from .config import ModelConfig, TrainConfig
from .network import (
    Params,
    forward,
    init_params,
    loss_and_grads,
    loss_from_logits,
    param_layout,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# words per forward call when scoring; memory grows as chunk x P^2 x heads.
# A scoring forward peaks at about 2 (chunk, H, P, P) attention maps
# (tracemalloc at P = 17: 2.04 maps = 14.5 MB for attn-medium, 2.02 =
# 28.8 MB for attn-large), its one shared map and the residual stream.
SCORE_CHUNK = 512


@dataclass
class Batch:
    """Words one per row, padded to P = the longest; make_batch builds it."""

    features: np.ndarray  # (N, P, K)
    types: np.ndarray     # (N, P)
    mask: np.ndarray      # (N, P)
    labels: np.ndarray    # (N, P)
    weights: np.ndarray   # (N, P)


def make_batch(instances: Instances, config: ModelConfig,
               weight_table: np.ndarray | None = None) -> Batch:
    """Stack the words into arrays padded to the longest word, features
    sliced to the config's K. A padded slot has zero features, the PAD
    type, the IGNORE label, weight 0 and mask False. A valid slot weighs
    weight_table[type, label], or 1.0 without a table."""
    if not len(instances):
        raise DegenerateData("no instances")
    K = config.feature_dim
    counts = np.diff(instances.offsets)
    mask = np.arange(counts.max()) < counts[:, None]
    # boolean-mask assignment fills row by row, each word's slots in order
    features = np.zeros(mask.shape + (K,))
    features[mask] = instances.features[:, :K]
    types = np.full(mask.shape, PAD_TYPE_INDEX, dtype=np.int64)
    types[mask] = instances.types
    labels = np.full(mask.shape, IGNORE_LABEL, dtype=np.int64)
    labels[mask] = instances.labels
    weights = np.zeros(mask.shape)
    weights[mask] = (1.0 if weight_table is None
                     else weight_table[instances.types, instances.labels])
    return Batch(features, types, mask, labels, weights)


class Adam:
    def __init__(self, params: Params, lr: float):
        self.lr = lr
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0

    def step(self, params: Params, grads: Params) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        g = grads.flat
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * g * g
        params.flat -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + ADAM_EPS)


def evaluate_batch(params: Params, batch: Batch, config: ModelConfig,
                   ) -> tuple[float, float]:
    """(mean loss, accuracy) over valid slots, dropout off."""
    logits, _, _ = forward(params, batch.features, batch.types,
                           batch.mask, config)
    loss, _ = loss_from_logits(logits, batch.labels, batch.mask, batch.weights)
    pred = logits.argmax(axis=-1)
    correct = (pred == batch.labels) & batch.mask
    return loss, float(correct.sum() / batch.mask.sum())


def train(train_set: Instances, val_set: Instances,
          model_config: ModelConfig, train_config: TrainConfig,
          ) -> tuple[Params, np.ndarray | None, list[dict]]:
    """Mini-batch Adam on the weighted cross-entropy, each minibatch
    make_batch of the next batch_size words of the epoch's shuffle.

    Returns the parameters with the best validation accuracy (the final
    ones if no epoch improves on the start), the (16, 3) class-weight
    table of the training set (None when weighting is off), and the
    per-epoch history. Fully deterministic for a given seed.
    """
    if not len(train_set) or not len(val_set):
        raise DegenerateData("train and validation sets must be non-empty")
    table = (compute_class_weights(train_set)
             if train_config.resolve_use_weights(model_config) else None)

    val_batch = make_batch(val_set, model_config, table)

    seed_seq = np.random.SeedSequence(train_config.seed)
    init_rng, shuffle_rng, drop_rng = (
        np.random.default_rng(s) for s in seed_seq.spawn(3))
    params = init_params(model_config, init_rng)
    opt = Adam(params, train_config.learning_rate)
    grads = Params(param_layout(model_config))  # every step overwrites it

    history: list[dict] = []
    best_acc = -1.0
    best_flat = params.flat.copy()
    n = len(train_set)
    bs = train_config.batch_size
    for epoch in range(train_config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        epoch_valid = 0
        for start in range(0, n, bs):
            mb = make_batch(train_set[order[start:start + bs]], model_config, table)
            try:
                loss, grads, probs = loss_and_grads(
                    params, mb.features, mb.types, mb.mask, mb.labels,
                    mb.weights, model_config, train=True, rng=drop_rng,
                    grads=grads)
            except NumericalInstability as exc:
                raise DivergedAtEpoch(epoch, f"epoch {epoch}: {exc}")
            if not np.isfinite(loss):
                raise DivergedAtEpoch(epoch)
            opt.step(params, grads)
            pred = probs.argmax(axis=-1)
            epoch_correct += int(((pred == mb.labels) & mb.mask).sum())
            epoch_valid += int(mb.mask.sum())
            epoch_loss += loss * int(mb.mask.sum())
        try:
            val_loss, val_acc = evaluate_batch(params, val_batch, model_config)
        except NumericalInstability as exc:
            raise DivergedAtEpoch(epoch, f"epoch {epoch}: {exc}")
        if not np.isfinite(val_loss):
            raise DivergedAtEpoch(epoch)
        history.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(epoch_valid, 1),
            "train_acc": epoch_correct / max(epoch_valid, 1),
            "val_loss": val_loss,
            "val_acc": val_acc,
        })
        if val_acc > best_acc:
            best_acc = val_acc
            best_flat = params.flat.copy()
    return Params(param_layout(model_config), best_flat), table, history


def predict_instances(params: Params, config: ModelConfig,
                      instances: Instances) -> np.ndarray:
    """The (n_syllables, 3) class probabilities of every syllable, in the
    row order of the instances' own arrays.

    Scores SCORE_CHUNK words per forward pass, each chunk trimmed to its
    longest word. Padded slots yield nothing.
    """
    out = [np.zeros((0, config.n_classes))]
    for start in range(0, len(instances), SCORE_CHUNK):
        batch = make_batch(instances[start:start + SCORE_CHUNK], config)
        _, probs, _ = forward(params, batch.features, batch.types,
                              batch.mask, config)
        out.append(probs[batch.mask])
    return np.concatenate(out)


def predict_instance(params: Params, config: ModelConfig,
                     instance: Instances) -> np.ndarray:
    """The (n, 3) class probabilities of a one-word table's n syllables."""
    return predict_instances(params, config, instance)
