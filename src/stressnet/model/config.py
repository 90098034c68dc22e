"""Model and training configuration."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ..errors import ConfigError
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
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def _require_reals(config, names: tuple[str, ...]) -> None:
    """Real-valued fields must be numbers; a bool, which Python counts as
    an int, is rejected."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{name} must be a number, got {value!r:.40}")


def feature_dim(feature_mode: str) -> int:
    if feature_mode == SYLLABLE_NUMERICAL:
        return 6
    if feature_mode in (SYLLABLE_NUCLEUS_NUMERICAL, ALL_FEATURES):
        return 12
    raise ConfigError(f"unknown feature mode {feature_mode!r}")


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
        _require_reals(self, ("dropout",))
        if self.d_model < 1 or self.n_heads < 1 or self.n_layers < 1:
            raise ConfigError("d_model, n_heads and n_layers must be >= 1")
        if self.ffn_hidden < 0:
            raise ConfigError(f"ffn_hidden must be >= 0, got {self.ffn_hidden}")
        if not 1 <= self.max_positions <= MAX_SYLLABLES:
            raise ConfigError(f"max_positions must be in 1..{MAX_SYLLABLES}, "
                              f"got {self.max_positions}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} not in [0, 1)")
        if self.feature_mode not in FEATURE_MODES:
            raise ConfigError(f"unknown feature mode {self.feature_mode!r}")
        # exactly a bool: "no" would pass a truth test
        if type(self.require_divisible_heads) is not bool:
            raise ConfigError(
                "require_divisible_heads must be true or false, got "
                f"{self.require_divisible_heads!r:.40}")
        if self.require_divisible_heads and self.d_model % self.n_heads != 0:
            raise ConfigError(
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


# the sizes each named preset fixes
PRESETS = {"attn-medium": {"d_model": 5, "n_heads": 6, "n_layers": 3},
           "attn-large": {"d_model": 10, "n_heads": 12, "n_layers": 6}}


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
        _require_reals(self, ("learning_rate", "validation_fraction"))
        if not 0 < self.learning_rate < math.inf:  # NaN fails too
            raise ConfigError("learning_rate must be a finite number > 0, "
                              f"got {self.learning_rate!r:.40}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in [0, 1)")
        # exactly a bool or None: 1 or "x" would pass a truth test
        if (self.use_class_weights is not None
                and type(self.use_class_weights) is not bool):
            raise ConfigError(
                "use_class_weights must be true, false or null, got "
                f"{self.use_class_weights!r:.40}")

    def resolve_use_weights(self, model_config: ModelConfig) -> bool:
        if self.use_class_weights is None:
            return model_config.uses_type_embedding
        return self.use_class_weights
