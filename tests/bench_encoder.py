"""Timings of the encoder's softmax and layer-norm primitives against the
NumPy-reduction oracles in test_model.py.

    python -m pytest tests/bench_encoder.py

The file name does not match test_*.py, so the test suite does not collect
it. Two shapes, with attn-medium's H = 6 heads and D = 5 features:
"train" is attn-train's typical minibatch (B = 64 words trimmed to P = 7
slots), "score" one scoring chunk (B = 512 words, P = 17 slots).
"""

import numpy as np
import pytest

from stressnet.model import network
from test_model import (
    oracle_layer_norm,
    oracle_layer_norm_backward,
    oracle_masked_softmax,
    oracle_softmax_backward,
)

SHAPES = {"train": (64, 7), "score": (512, 17)}
H, D = 6, 5


def _inputs(shape):
    B, P = SHAPES[shape]
    rng = np.random.default_rng(0)
    mask = np.arange(P)[None, :] < rng.integers(1, P + 1, (B, 1))
    return {
        "scores": rng.normal(0.0, 1.0, (B, H, P, P)),
        "mask": mask,
        "key_bias": np.where(mask, 0.0, -np.inf)[:, None, None, :],
        "dA": rng.normal(0.0, 1.0, (B, H, P, P)),
        "x": rng.normal(0.0, 1.0, (B, P, D)),
        "dy": rng.normal(0.0, 1.0, (B, P, D)),
        "gamma": rng.normal(1.0, 0.1, D),
        "beta": rng.normal(0.0, 0.1, D),
    }


def _calls(a, impl):
    """primitive -> zero-argument call of impl ("oracle" or "new")."""
    A = oracle_masked_softmax(a["scores"], a["mask"][:, None, None, :])
    _, ln_cache = oracle_layer_norm(a["x"], a["gamma"], a["beta"])
    grads = {"g.gamma": np.zeros(D), "g.beta": np.zeros(D)}
    if impl == "oracle":
        return {
            "softmax": lambda: oracle_masked_softmax(
                a["scores"], a["mask"][:, None, None, :]),
            "softmax_backward": lambda: oracle_softmax_backward(a["dA"], A),
            "layer_norm": lambda: oracle_layer_norm(a["x"], a["gamma"], a["beta"]),
            "layer_norm_backward": lambda: oracle_layer_norm_backward(
                a["dy"], ln_cache, grads, "g."),
        }
    return {
        "softmax": lambda: network._softmax(a["scores"] + a["key_bias"]),
        "softmax_backward": lambda: network._softmax_backward(a["dA"], A),
        "layer_norm": lambda: network._layer_norm(a["x"], a["gamma"], a["beta"]),
        "layer_norm_backward": lambda: network._layer_norm_backward(
            a["dy"], ln_cache, grads, "g."),
    }


@pytest.mark.parametrize("impl", ["oracle", "new"])
@pytest.mark.parametrize("primitive", ["softmax", "softmax_backward",
                                       "layer_norm", "layer_norm_backward"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_primitive(benchmark, shape, primitive, impl):
    benchmark.group = f"{primitive} {shape} B,P={SHAPES[shape]}"
    benchmark(_calls(_inputs(shape), impl)[primitive])
