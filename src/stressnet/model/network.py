"""The self-attention stress classifier: embedding, forward pass, weighted
cross-entropy loss, and hand-derived reverse-mode gradients.

Input embedding per syllable i:

    v_i = E_pos(p_i) + E_type(t_i) + x_i C

with the type term dropped entirely in the numerical-only feature modes.
Padded slots stay exact zero vectors. The encoder is pre-norm: each layer
adds masked multi-head self-attention and a ReLU feed-forward block on a
residual stream; a key bias built once per forward pass adds -inf to
attention scores toward padded keys before the softmax, so padded slots
receive exactly zero attention weight and contribute nothing to any valid
slot. A final layer norm feeds one shared linear head producing 3 logits
per slot.

Every reduction over the last axis (softmax over keys or classes, the
layer-norm mean and variance, the loss's max and log-sum-exp, and their
backward sums) goes through _sum_last and _max_last. NumPy reduces such a
short axis (P <= 17 keys, D features) slowly; the helpers add whole slices
in NumPy's own order, so every result is bit-identical to NumPy's and
reruns keep byte-identical checkpoints and reports. A new last-axis
reduction in the encoder must use them too.

All parameters, and likewise all gradients, live in one float64 vector,
params.flat; a Params maps each name to its C-order view. param_layout
lists names and shapes in storage order, which is also init_params' draw
order: E_pos, E_type (all-features mode only), C, each layer's blocks,
final_ln, head.

Everything runs in float64; gradients are exact (verified against central
finite differences in the test suite).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import LabelError, NumericalInstability, ShapeError
from ..lexicon import PAD_TYPE_INDEX
from .config import ModelConfig

LN_EPS = 1e-5


# --- parameters --------------------------------------------------------------

def param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in storage and init order."""
    D, Hd, F = config.d_model, config.n_heads * config.head_dim, config.ffn_dim
    layout = [("E_pos", (config.max_positions, D))]
    if config.uses_type_embedding:
        layout.append(("E_type", (PAD_TYPE_INDEX + 1, D)))
    layout.append(("C", (config.feature_dim, D)))
    for l in range(config.n_layers):
        pre = f"layers.{l}."
        layout += [(pre + name, shape) for name, shape in (
            ("ln1.gamma", (D,)), ("ln1.beta", (D,)), ("attn.Wq", (D, Hd)),
            ("attn.Wk", (D, Hd)), ("attn.Wv", (D, Hd)), ("attn.bq", (Hd,)),
            ("attn.bk", (Hd,)), ("attn.bv", (Hd,)), ("attn.Wo", (Hd, D)),
            ("attn.bo", (D,)), ("ln2.gamma", (D,)), ("ln2.beta", (D,)),
            ("ffn.W1", (D, F)), ("ffn.b1", (F,)), ("ffn.W2", (F, D)),
            ("ffn.b2", (D,)))]
    layout += [("final_ln.gamma", (D,)), ("final_ln.beta", (D,)),
               ("head.W", (D, config.n_classes)), ("head.b", (config.n_classes,))]
    return layout


class Params(dict):
    """Parameter name -> array, each array a view of the float64 vector
    ``flat`` in layout order. flat is zero-filled unless given."""

    def __init__(self, layout: list[tuple[str, tuple[int, ...]]],
                 flat: np.ndarray | None = None):
        ends = list(itertools.accumulate(math.prod(shape) for _, shape in layout))
        self.flat = np.zeros(ends[-1]) if flat is None else flat
        super().__init__(
            (name, self.flat[end - math.prod(shape):end].reshape(shape))
            for (name, shape), end in zip(layout, ends))


def init_params(config: ModelConfig, rng: np.random.Generator) -> Params:
    """Seeded initialization: Xavier-uniform weight matrices, N(0, 0.02)
    embeddings (PAD type row pinned to zero), zero biases, unit LN gains."""
    p = Params(param_layout(config))
    for name, arr in p.items():
        if name.startswith("E_"):
            arr[:] = rng.normal(0.0, 0.02, size=arr.shape)
        elif arr.ndim == 2:  # C and every W: limit sqrt(6 / (fan_in + fan_out))
            limit = np.sqrt(6.0 / sum(arr.shape))
            arr[:] = rng.uniform(-limit, limit, size=arr.shape)
        elif name.endswith("gamma"):
            arr[:] = 1.0
    if config.uses_type_embedding:
        p["E_type"][PAD_TYPE_INDEX] = 0.0
    return p


# --- last-axis reductions (see the module docstring) ---------------------------

def _sum_last(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True), bit for bit, for a C-contiguous a.

    NumPy starts from +0.0 (so a row of -0.0 sums to +0.0) and adds fewer
    than 8 elements left to right. From 8 up it keeps 8 partial sums, adds
    each later full block of 8 into them, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then adds the tail left to
    right. It splits an axis longer than 128 in halves first; such an axis
    (only a custom model's D can be one) is left to NumPy itself.
    """
    n = a.shape[-1]
    if n > 128:
        return a.sum(axis=-1, keepdims=True)
    if n < 8:
        s = a[..., 0] + 0.0
        for j in range(1, n):
            s += a[..., j]
        return s[..., None]
    full = n - n % 8
    r = a[..., :8]
    for i in range(8, full, 8):
        r = r + a[..., i:i + 8]
    s = ((r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3])) \
        + ((r[..., 4] + r[..., 5]) + (r[..., 6] + r[..., 7]))
    for j in range(full, n):
        s += a[..., j]
    s += 0.0
    return s[..., None]


def _max_last(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True) in value; NaN propagates as in NumPy.

    Where -0.0 and +0.0 tie for the maximum, the sign of the zero may
    differ from NumPy's. Every caller subtracts the maximum before exp,
    where the sign of a zero cannot show.
    """
    m = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j], out=m)
    return m[..., None]


# --- primitive forward/backward ----------------------------------------------

def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Layer norm over the last axis; mean and variance as np.mean/np.var."""
    D = x.shape[-1]
    xc = x - _sum_last(x) / D
    inv = 1.0 / np.sqrt(_sum_last(xc * xc) / D + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _layer_norm_backward(dy: np.ndarray, cache, grads: Params, pre: str):
    """dx; writes the gain and bias gradients to grads[pre + "gamma"/"beta"]."""
    xhat, inv, gamma = cache
    grads[pre + "gamma"][:] = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    grads[pre + "beta"][:] = dy.sum(axis=tuple(range(dy.ndim - 1)))
    D = dy.shape[-1]
    dxhat = dy * gamma
    m1 = _sum_last(dxhat) / D
    m2 = _sum_last(dxhat * xhat) / D
    return inv * (dxhat - m1 - xhat * m2)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; a -inf entry gets exact zero weight."""
    e = x - _max_last(x)
    np.exp(e, out=e)
    e /= _sum_last(e)
    return e


def _softmax_backward(dA: np.ndarray, A: np.ndarray) -> np.ndarray:
    return A * (dA - _sum_last(dA * A))


def _dropout_mask(rng: np.random.Generator, shape, p: float,
                  max_positions: int) -> np.ndarray:
    """Inverted-dropout mask for a (B, P, D) tensor.

    Draws are made for all max_positions slots and cut to P, so slot i
    gets the same draw whatever width its batch was trimmed to.
    """
    B, P, D = shape
    full = rng.random((B, max_positions, D))[:, :P]
    return (full >= p).astype(np.float64) / (1.0 - p)


# --- embedding ---------------------------------------------------------------

def embed(features: np.ndarray, types: np.ndarray, mask: np.ndarray,
          params: Params, config: ModelConfig) -> np.ndarray:
    """Eq-style input sum -> (B, P, D); padded rows are exact zeros.

    Any P up to config.max_positions is accepted; slot i always takes
    position embedding row i, so a batch cut to its longest word embeds
    its valid slots exactly as the full-width batch does.
    """
    B, P, K = features.shape
    if K != config.feature_dim:
        raise ShapeError(
            f"feature dim {K} does not match mode {config.feature_mode!r} "
            f"(expected {config.feature_dim})")
    if P > config.max_positions:
        raise ShapeError(
            f"{P} slots exceed max_positions {config.max_positions}")
    V = features @ params["C"] + params["E_pos"][None, :P, :]
    if config.uses_type_embedding:
        V = V + params["E_type"][types]
    return V * mask[..., None]


# --- forward -----------------------------------------------------------------

def forward(params: Params, features: np.ndarray, types: np.ndarray,
            mask: np.ndarray, config: ModelConfig, *,
            train: bool = False, rng: np.random.Generator | None = None,
            need_cache: bool = False):
    """Run the encoder; returns (logits, probs, cache).

    cache is None unless need_cache; it holds each layer's (B, H, P, P)
    attention weights as cache["layers"][l]["A"].
    """
    B, P = mask.shape
    H, dh = config.n_heads, config.head_dim
    scale = 1.0 / np.sqrt(dh)
    use_dropout = train and config.dropout > 0.0
    if use_dropout and rng is None:
        raise ShapeError("training forward needs an rng for dropout")
    # added to every layer's scores: padded keys get -inf, so exact zero weight
    key_bias = np.where(mask, 0.0, -np.inf)[:, None, None, :]  # (B,1,1,P)

    x = embed(features, types, mask, params, config)
    cache: dict = {"embed_in": features, "layers": []} if need_cache else None

    for l in range(config.n_layers):
        pre = f"layers.{l}."
        a_in, ln1_cache = _layer_norm(
            x, params[pre + "ln1.gamma"], params[pre + "ln1.beta"])
        q = a_in @ params[pre + "attn.Wq"] + params[pre + "attn.bq"]
        k = a_in @ params[pre + "attn.Wk"] + params[pre + "attn.bk"]
        v = a_in @ params[pre + "attn.Wv"] + params[pre + "attn.bv"]
        qh = q.reshape(B, P, H, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(B, P, H, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(B, P, H, dh).transpose(0, 2, 1, 3)
        scores = qh @ kh.transpose(0, 1, 3, 2)
        scores *= scale
        scores += key_bias
        A = _softmax(scores)
        ctxh = A @ vh
        ctx = ctxh.transpose(0, 2, 1, 3).reshape(B, P, H * dh)
        o = ctx @ params[pre + "attn.Wo"] + params[pre + "attn.bo"]
        drop1 = _dropout_mask(rng, o.shape, config.dropout,
                              config.max_positions) if use_dropout else None
        if drop1 is not None:
            o = o * drop1
        x_mid = x + o

        f_in, ln2_cache = _layer_norm(
            x_mid, params[pre + "ln2.gamma"], params[pre + "ln2.beta"])
        u = f_in @ params[pre + "ffn.W1"] + params[pre + "ffn.b1"]
        r = np.maximum(u, 0.0)
        f = r @ params[pre + "ffn.W2"] + params[pre + "ffn.b2"]
        drop2 = _dropout_mask(rng, f.shape, config.dropout,
                              config.max_positions) if use_dropout else None
        if drop2 is not None:
            f = f * drop2
        x_out = x_mid + f

        if need_cache:
            cache["layers"].append({
                "ln1": ln1_cache, "a_in": a_in, "A": A, "qh": qh, "kh": kh,
                "vh": vh, "ctx": ctx, "drop1": drop1,
                "ln2": ln2_cache, "f_in": f_in, "u": u, "r": r, "drop2": drop2,
            })
        x = x_out

    xf, lnf_cache = _layer_norm(x, params["final_ln.gamma"], params["final_ln.beta"])
    logits = xf @ params["head.W"] + params["head.b"]
    if not np.isfinite(logits[mask]).all():
        raise NumericalInstability("non-finite logits in forward pass")
    probs = _softmax(logits)
    if need_cache:
        cache.update({"lnf": lnf_cache, "xf": xf, "types": types, "mask": mask,
                      "probs": probs})
    return logits, probs, cache


# --- loss --------------------------------------------------------------------

def position_weights(weight_table: np.ndarray | None, types: np.ndarray,
                     labels: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-slot loss weights from a (16, 3) table; 1.0 when table is None."""
    w = np.zeros(mask.shape)
    if weight_table is None:
        w[mask] = 1.0
        return w
    valid = np.where(mask)
    w[valid] = weight_table[types[valid], labels[valid]]
    return w


def loss_from_logits(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray,
                     weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Weighted mean cross-entropy over valid slots and its dlogits.

    loss = sum_i w_i * CE_i / n_valid over valid slots i; padded slots
    contribute exactly zero, in value and in gradient.
    """
    if np.any((labels < 0) & mask):
        raise LabelError("IGNORE label at a valid position")
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise LabelError("batch has no valid positions")
    shifted = logits - _max_last(logits)
    logsumexp = np.log(_sum_last(np.exp(shifted)))
    logp = shifted - logsumexp
    b, p = np.where(mask)
    nll = -logp[b, p, labels[b, p]]
    total = float((weights[b, p] * nll).sum() / n_valid)

    probs = np.exp(logp)
    dlogits = np.zeros_like(logits)
    dlogits[b, p] = probs[b, p] * weights[b, p, None]
    dlogits[b, p, labels[b, p]] -= weights[b, p]
    dlogits /= n_valid
    return total, dlogits


# --- backward ----------------------------------------------------------------

def backward(params: Params, cache: dict, dlogits: np.ndarray,
             config: ModelConfig) -> Params:
    """Exact reverse-mode gradients of the scalar loss w.r.t. every
    parameter, written into one zeroed Params. The PAD row of the type
    embedding is forced to zero."""
    B, P, _ = dlogits.shape
    H, dh = config.n_heads, config.head_dim
    scale = 1.0 / np.sqrt(dh)
    grads = Params(param_layout(config))
    mask = cache["mask"]

    xf = cache["xf"]
    grads["head.W"][:] = xf.reshape(-1, config.d_model).T @ dlogits.reshape(-1, 3)
    grads["head.b"][:] = dlogits.sum(axis=(0, 1))
    dxf = dlogits @ params["head.W"].T
    dx = _layer_norm_backward(dxf, cache["lnf"], grads, "final_ln.")

    for l in reversed(range(config.n_layers)):
        pre = f"layers.{l}."
        c = cache["layers"][l]
        # feed-forward block
        df = dx if c["drop2"] is None else dx * c["drop2"]
        grads[pre + "ffn.W2"][:] = c["r"].reshape(-1, config.ffn_dim).T \
            @ df.reshape(-1, config.d_model)
        grads[pre + "ffn.b2"][:] = df.sum(axis=(0, 1))
        dr = df @ params[pre + "ffn.W2"].T
        du = dr * (c["u"] > 0.0)
        grads[pre + "ffn.W1"][:] = c["f_in"].reshape(-1, config.d_model).T \
            @ du.reshape(-1, config.ffn_dim)
        grads[pre + "ffn.b1"][:] = du.sum(axis=(0, 1))
        df_in = du @ params[pre + "ffn.W1"].T
        dx = dx + _layer_norm_backward(df_in, c["ln2"], grads, pre + "ln2.")

        # attention block
        do = dx if c["drop1"] is None else dx * c["drop1"]
        grads[pre + "attn.Wo"][:] = c["ctx"].reshape(-1, H * dh).T \
            @ do.reshape(-1, config.d_model)
        grads[pre + "attn.bo"][:] = do.sum(axis=(0, 1))
        dctx = do @ params[pre + "attn.Wo"].T
        dctxh = dctx.reshape(B, P, H, dh).transpose(0, 2, 1, 3)
        dA = dctxh @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["A"].transpose(0, 1, 3, 2) @ dctxh
        dS = _softmax_backward(dA, c["A"])
        dqh = (dS @ c["kh"]) * scale
        dkh = (dS.transpose(0, 1, 3, 2) @ c["qh"]) * scale
        dq = dqh.transpose(0, 2, 1, 3).reshape(B, P, H * dh)
        dk = dkh.transpose(0, 2, 1, 3).reshape(B, P, H * dh)
        dv = dvh.transpose(0, 2, 1, 3).reshape(B, P, H * dh)
        a_in2 = c["a_in"].reshape(-1, config.d_model)
        grads[pre + "attn.Wq"][:] = a_in2.T @ dq.reshape(-1, H * dh)
        grads[pre + "attn.Wk"][:] = a_in2.T @ dk.reshape(-1, H * dh)
        grads[pre + "attn.Wv"][:] = a_in2.T @ dv.reshape(-1, H * dh)
        grads[pre + "attn.bq"][:] = dq.sum(axis=(0, 1))
        grads[pre + "attn.bk"][:] = dk.sum(axis=(0, 1))
        grads[pre + "attn.bv"][:] = dv.sum(axis=(0, 1))
        da_in = (dq @ params[pre + "attn.Wq"].T
                 + dk @ params[pre + "attn.Wk"].T
                 + dv @ params[pre + "attn.Wv"].T)
        dx = dx + _layer_norm_backward(da_in, c["ln1"], grads, pre + "ln1.")

    # embedding backward; padded rows were zeroed in embed, so their
    # upstream gradient must not reach any parameter
    dV = dx * mask[..., None]
    feats = cache["embed_in"]
    grads["C"][:] = np.einsum("bpk,bpd->kd", feats * mask[..., None], dV)
    # rows past P stay exact zeros: no slot of this batch used them
    grads["E_pos"][:P] = dV.sum(axis=0)
    if config.uses_type_embedding:
        dE = grads["E_type"]
        np.add.at(dE, cache["types"].reshape(-1), dV.reshape(-1, config.d_model))
        dE[PAD_TYPE_INDEX] = 0.0
    return grads


def loss_and_grads(params: Params, features: np.ndarray, types: np.ndarray,
                   mask: np.ndarray, labels: np.ndarray, weights: np.ndarray,
                   config: ModelConfig, *, train: bool = False,
                   rng: np.random.Generator | None = None,
                   ) -> tuple[float, Params, np.ndarray]:
    """One forward/backward pass; returns (loss, gradients, probabilities)."""
    logits, probs, cache = forward(
        params, features, types, mask, config,
        train=train, rng=rng, need_cache=True)
    total, dlogits = loss_from_logits(logits, labels, mask, weights)
    grads = backward(params, cache, dlogits, config)
    return total, grads, probs
