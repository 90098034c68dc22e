"""Masked self-attention stress classifier."""

from .config import (
    ALL_FEATURES,
    FEATURE_MODES,
    PRESETS,
    SYLLABLE_NUCLEUS_NUMERICAL,
    SYLLABLE_NUMERICAL,
    ModelConfig,
    TrainConfig,
    feature_dim,
)
from .network import (
    Params,
    backward,
    embed,
    forward,
    init_params,
    loss_and_grads,
    loss_from_logits,
    param_layout,
)
from .training import (
    Adam,
    Batch,
    evaluate_batch,
    make_batch,
    predict_instance,
    predict_instances,
    train,
)

__all__ = [
    "ALL_FEATURES", "FEATURE_MODES", "PRESETS",
    "SYLLABLE_NUCLEUS_NUMERICAL", "SYLLABLE_NUMERICAL",
    "ModelConfig", "TrainConfig", "feature_dim", "Params", "backward", "embed",
    "forward", "param_layout", "init_params", "loss_and_grads",
    "loss_from_logits",
    "Adam", "Batch", "evaluate_batch", "make_batch", "predict_instance",
    "predict_instances", "train",
]
