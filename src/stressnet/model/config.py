"""Model and training configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InvalidConfig
from ..features import MAX_SYLLABLES

# feature modes: which slice of the 12 numerical slots is used and whether
# the nucleus-type embedding term participates in the input sum
SYLLABLE_NUMERICAL = "syllable_numerical"              # K=6, no type embedding
SYLLABLE_NUCLEUS_NUMERICAL = "syllable_nucleus_numerical"  # K=12, no type emb
ALL_FEATURES = "all_features"                          # K=12 + type embedding

FEATURE_MODES = (SYLLABLE_NUMERICAL, SYLLABLE_NUCLEUS_NUMERICAL, ALL_FEATURES)


def _require_ints(config, names: tuple[str, ...]) -> None:
    """Count fields must be Python ints; a float or a bool is rejected."""
    for name in names:
        value = getattr(config, name)
        if type(value) is not int:
            raise InvalidConfig(f"{name} must be an integer, got {value!r}")


def feature_dim(feature_mode: str) -> int:
    if feature_mode == SYLLABLE_NUMERICAL:
        return 6
    if feature_mode in (SYLLABLE_NUCLEUS_NUMERICAL, ALL_FEATURES):
        return 12
    raise InvalidConfig(f"unknown feature mode {feature_mode!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Encoder size and input mode.

    The medium preset pairs D=5 with 6 heads, which breaks the usual
    "D divisible by heads" rule; each head therefore projects D down to
    head_dim = max(1, ceil(D / heads)) independently and the concatenation
    of all heads is projected back to D. Set require_divisible_heads to
    reject such configs instead.
    """

    d_model: int
    n_heads: int
    n_layers: int
    ffn_hidden: int = 0  # 0 resolves to 4 * d_model
    dropout: float = 0.1
    feature_mode: str = ALL_FEATURES
    max_positions: int = MAX_SYLLABLES
    require_divisible_heads: bool = False

    def __post_init__(self):
        _require_ints(self, ("d_model", "n_heads", "n_layers", "ffn_hidden",
                             "max_positions"))
        if self.d_model < 1 or self.n_heads < 1 or self.n_layers < 1:
            raise InvalidConfig("d_model, n_heads and n_layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidConfig(f"dropout {self.dropout} not in [0, 1)")
        if self.feature_mode not in FEATURE_MODES:
            raise InvalidConfig(f"unknown feature mode {self.feature_mode!r}")
        if self.require_divisible_heads and self.d_model % self.n_heads != 0:
            raise InvalidConfig(
                f"d_model={self.d_model} not divisible by heads={self.n_heads}")

    @property
    def head_dim(self) -> int:
        return max(1, math.ceil(self.d_model / self.n_heads))

    @property
    def ffn_dim(self) -> int:
        return self.ffn_hidden if self.ffn_hidden > 0 else 4 * self.d_model

    @property
    def n_classes(self) -> int:
        return 3

    @property
    def feature_dim(self) -> int:
        return feature_dim(self.feature_mode)

    @property
    def uses_type_embedding(self) -> bool:
        return self.feature_mode == ALL_FEATURES

    def to_dict(self) -> dict:
        return {
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "n_layers": self.n_layers,
            "ffn_hidden": self.ffn_hidden,
            "dropout": self.dropout,
            "feature_mode": self.feature_mode,
            "max_positions": self.max_positions,
            "require_divisible_heads": self.require_divisible_heads,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(**d)


def medium_config(feature_mode: str = ALL_FEATURES, **kw) -> ModelConfig:
    return ModelConfig(d_model=5, n_heads=6, n_layers=3,
                       feature_mode=feature_mode, **kw)


def large_config(feature_mode: str = ALL_FEATURES, **kw) -> ModelConfig:
    return ModelConfig(d_model=10, n_heads=12, n_layers=6,
                       feature_mode=feature_mode, **kw)


PRESETS = {"attn-medium": medium_config, "attn-large": large_config}


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings (adaptive-moment gradient descent).

    use_class_weights=None resolves to True exactly when the model embeds
    nucleus types (the all-features mode); pass True/False to override.
    """

    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 30
    seed: int = 0
    use_class_weights: bool | None = None
    validation_fraction: float = 0.1

    def __post_init__(self):
        _require_ints(self, ("epochs", "batch_size"))
        if not 0 < self.learning_rate < math.inf:  # NaN fails too
            raise InvalidConfig("learning_rate must be a finite number > 0, "
                                f"got {self.learning_rate!r:.40}")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise InvalidConfig("validation_fraction must be in [0, 1)")
        # exactly a bool or None: 1 or "x" would pass a truth test
        if (self.use_class_weights is not None
                and type(self.use_class_weights) is not bool):
            raise InvalidConfig(
                "use_class_weights must be true, false or null, got "
                f"{self.use_class_weights!r:.40}")

    def resolve_use_weights(self, model_config: ModelConfig) -> bool:
        if self.use_class_weights is None:
            return model_config.uses_type_embedding
        return self.use_class_weights

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "seed": self.seed,
            "use_class_weights": self.use_class_weights,
            "validation_fraction": self.validation_fraction,
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        return TrainConfig(**d)
