"""Timings of the encoder's softmax and layer-norm primitives against the
NumPy-reduction oracles in oracles.py, and of two whole encoder calls.

    python -m pytest tests/bench_encoder.py

The file name does not match test_*.py, so the test suite does not collect
it. Two shapes, with attn-medium's H = 6 heads and D = 5 features:
"train" is attn-train's typical minibatch (B = 64 words trimmed to P = 7
slots), "score" one scoring chunk (B = 512 words, P = 17 slots). The whole
calls are loss_and_grads at "train", as train makes it (dropout on, one
reused gradient Params), and the scoring forward at "score". Each records
its tracemalloc peak in extra_info, in MB and in (B, H, P, P) maps.
"""

import tracemalloc

import numpy as np
import pytest

from stressnet.lexicon import PAD_TYPE_INDEX
from stressnet.model import PRESETS, ModelConfig, Params, network
from oracles import (
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
        # _softmax writes over its argument: the sum is a fresh copy per call
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


def _whole_call(shape):
    """The zero-argument whole-encoder call at this shape."""
    B, P = SHAPES[shape]
    cfg = ModelConfig(**PRESETS["attn-medium"])
    rng = np.random.default_rng(0)
    params = network.init_params(cfg, rng)
    mask = np.arange(P)[None, :] < rng.integers(1, P + 1, (B, 1))
    mask[0] = True
    feats = rng.normal(0.0, 1.0, (B, P, cfg.feature_dim)) * mask[..., None]
    types = np.where(mask, rng.integers(0, PAD_TYPE_INDEX, (B, P)),
                     PAD_TYPE_INDEX)
    if shape == "score":
        return lambda: network.forward(params, feats, types, mask, cfg)
    labels = np.where(mask, rng.integers(0, 3, (B, P)), -1)
    weights = mask.astype(np.float64)
    grads = Params(network.param_layout(cfg))
    return lambda: network.loss_and_grads(
        params, feats, types, mask, labels, weights, cfg, train=True,
        rng=rng, grads=grads)


@pytest.mark.parametrize("shape,call", [("train", "loss_and_grads"),
                                        ("score", "forward")])
def test_whole_call(benchmark, shape, call):
    B, P = SHAPES[shape]
    fn = _whole_call(shape)
    fn()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.group = f"{call} {shape} B,P={SHAPES[shape]}"
    benchmark.extra_info["peak_mb"] = peak / 1e6
    benchmark.extra_info["peak_maps"] = peak / (B * H * P * P * 8)
    benchmark(fn)
