"""Self-describing checkpoint container shared by all model kinds.

Byte layout, designed so an independent implementation can read or write
it without this code:

  1. One UTF-8 JSON line (sorted keys, terminated by a single ``\\n``)::

       {"arrays": [{"dtype": "<f8", "name": ..., "shape": [...]}, ...],
        "format": "stressnet-checkpoint" | "stressnet-or" | "stressnet-rf",
        "meta": {...},
        "version": 1}

  2. For each entry of "arrays", in list order: the raw array bytes,
     C-order, little-endian, with the declared dtype ("<f8" float64 or
     "<i8" int64). No padding between arrays.

Array names are sorted, so identical contents give byte-identical files.

meta always carries "feature_mode", "nucleus_tags" (the canonical type
order indices refer to), and "feature_slots" (the 12-slot order feature
vectors use). The attention format adds the model configuration and, when
class weighting was active, a (16, 3) "class_weights" array. The forest
format flattens all trees into contiguous node arrays indexed by
"tree_offsets" (n_trees + 1 entries; tree t owns nodes
[offsets[t], offsets[t+1]) and node ids are tree-local).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from .baselines import ForestModel, OrdinalModel, TreeNodes
from .errors import CheckpointError, ConfigError
from .features import FEATURE_SLOTS
from .lexicon import NUCLEUS_TAGS
from .model import ModelConfig, Params, feature_dim, param_layout

FORMAT_ATTENTION = "stressnet-checkpoint"
FORMAT_ORDINAL = "stressnet-or"
FORMAT_FOREST = "stressnet-rf"

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def _base_meta(feature_mode: str) -> dict:
    return {
        "feature_mode": feature_mode,
        "nucleus_tags": list(NUCLEUS_TAGS),
        "feature_slots": list(FEATURE_SLOTS),
    }


def save_container(path: str, format_tag: str, meta: dict,
                   arrays: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype("<f8")
            dtype = "<f8"
        elif np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype("<i8")
            dtype = "<i8"
        else:
            raise CheckpointError(f"array {name!r} has unsupported dtype {arr.dtype}")
        entries.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        blobs.append(arr.tobytes(order="C"))
    header = {"format": format_tag, "version": 1, "meta": meta, "arrays": entries}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def _array_entry(path: str, entry) -> tuple[str, np.dtype, tuple[int, ...]]:
    """(name, dtype, shape) of one header array entry, validated."""
    if not isinstance(entry, dict) or not {"name", "dtype", "shape"} <= set(entry):
        raise CheckpointError(f"{path}: malformed array entry {entry!r}")
    name = entry["name"]
    if type(name) is not str:
        raise CheckpointError(f"{path}: array name {name!r} is not a string")
    dtype = _DTYPES.get(entry["dtype"]) if type(entry["dtype"]) is str else None
    if dtype is None:
        raise CheckpointError(f"{path}: unknown dtype {entry['dtype']!r}")
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape):
        raise CheckpointError(f"{path}: array {name!r} has bad shape {shape!r}")
    return name, dtype, tuple(shape)


def load_container(path: str) -> tuple[str, dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise CheckpointError(f"{path}: bad header ({exc})")
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("version") != 1:
            raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")
        fmt = header.get("format")
        if fmt not in (FORMAT_ATTENTION, FORMAT_ORDINAL, FORMAT_FOREST):
            raise CheckpointError(f"{path}: unknown format tag {fmt!r}")
        if not isinstance(header.get("meta"), dict):
            raise CheckpointError(f"{path}: header has no meta object")
        if not isinstance(header.get("arrays"), list):
            raise CheckpointError(f"{path}: header has no array list")
        declared: dict[str, tuple[np.dtype, tuple[int, ...], int]] = {}
        for entry in header["arrays"]:
            name, dtype, shape = _array_entry(path, entry)
            if name in declared:
                raise CheckpointError(f"{path}: array {name!r} declared twice")
            # a Python int product, so no declared shape can wrap around
            declared[name] = dtype, shape, math.prod(shape) * dtype.itemsize
        total = sum(nbytes for _, _, nbytes in declared.values())
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if total != left:
            raise CheckpointError(
                f"{path}: header declares {total} array bytes, file holds {left}")
        arrays: dict[str, np.ndarray] = {}
        for name, (dtype, shape, nbytes) in declared.items():
            raw = np.frombuffer(fh.read(nbytes), dtype=dtype)
            try:
                arrays[name] = raw.reshape(shape).copy()
            except ValueError as exc:  # over 64 dimensions, or a huge empty shape
                raise CheckpointError(f"{path}: array {name!r}: {exc}")
    return fmt, header["meta"], arrays


# --- attention model ----------------------------------------------------------

def save_model(path: str, params: Params, config: ModelConfig,
               class_weights: np.ndarray | None = None) -> None:
    meta = _base_meta(config.feature_mode)
    meta["model_config"] = dataclasses.asdict(config)
    meta["has_class_weights"] = class_weights is not None
    arrays = dict(params)
    if class_weights is not None:
        arrays = dict(arrays, class_weights=class_weights)
    save_container(path, FORMAT_ATTENTION, meta, arrays)


def _model_from(meta: dict, arrays: dict[str, np.ndarray],
                ) -> tuple[tuple[Params, ModelConfig], str, np.ndarray | None]:
    config = ModelConfig(**meta["model_config"])
    layout = param_layout(config)
    expected = dict(layout)
    if meta.get("has_class_weights"):
        expected["class_weights"] = (len(NUCLEUS_TAGS), 3)
    if {k: v.shape for k, v in arrays.items()} != expected:
        raise ValueError("array names or shapes do not fit the model config")
    if any(a.dtype != np.dtype("<f8") for a in arrays.values()):
        raise ValueError("attention checkpoint arrays must be <f8")
    weights = arrays.get("class_weights")
    if weights is not None and not (np.isfinite(weights) & (weights >= 0)).all():
        raise ValueError("class_weights must be finite and non-negative")
    flat = np.concatenate([arrays[name].ravel() for name, _ in layout])
    return (Params(layout, flat), config), config.feature_mode, weights


# --- baselines ----------------------------------------------------------------

def save_ordinal(path: str, model: OrdinalModel, feature_mode: str) -> None:
    save_container(path, FORMAT_ORDINAL, _base_meta(feature_mode), {
        "coefficients": model.coefficients,
        "thresholds": model.thresholds,
    })


def _ordinal_from(meta: dict, arrays: dict[str, np.ndarray],
                  ) -> tuple[OrdinalModel, str, None]:
    k = feature_dim(meta["feature_mode"])
    coefficients, thresholds = arrays["coefficients"], arrays["thresholds"]
    if coefficients.dtype != np.dtype("<f8") or coefficients.shape != (k,):
        raise ValueError(f"coefficients must be <f8 of shape ({k},)")
    if thresholds.dtype != np.dtype("<f8") or thresholds.shape != (2,):
        raise ValueError("thresholds must be <f8 of shape (2,)")
    if not (np.isfinite(coefficients).all() and np.isfinite(thresholds).all()):
        raise ValueError("coefficients and thresholds must be finite")
    if not thresholds[0] < thresholds[1]:
        raise ValueError("thresholds must be strictly increasing")
    return OrdinalModel(coefficients, thresholds), meta["feature_mode"], None


def save_forest(path: str, model: ForestModel, feature_mode: str) -> None:
    offsets = [0]
    for tree in model.trees:
        offsets.append(offsets[-1] + len(tree.feature))
    meta = _base_meta(feature_mode)
    meta.update({"n_trees": model.n_trees, "max_depth": model.max_depth,
                 "features_per_split": model.features_per_split})
    save_container(path, FORMAT_FOREST, meta, {
        "nodes_feature": np.concatenate([t.feature for t in model.trees]),
        "nodes_threshold": np.concatenate([t.threshold for t in model.trees]),
        "nodes_left": np.concatenate([t.left for t in model.trees]),
        "nodes_right": np.concatenate([t.right for t in model.trees]),
        "nodes_counts": np.concatenate([t.counts for t in model.trees]),
        "tree_offsets": np.asarray(offsets, dtype=np.int64),
    })


def _forest_from(meta: dict, arrays: dict[str, np.ndarray],
                 ) -> tuple[ForestModel, str, None]:
    feature, threshold = arrays["nodes_feature"], arrays["nodes_threshold"]
    left, right = arrays["nodes_left"], arrays["nodes_right"]
    counts, offsets = arrays["nodes_counts"], arrays["tree_offsets"]
    if any(a.dtype.kind != "i" for a in (feature, left, right, offsets)):
        raise ValueError("node indices and tree_offsets must be integers")
    n = len(feature)
    if not (feature.shape == threshold.shape == left.shape == right.shape
            == (n,) and counts.shape == (n, 3)):
        raise ValueError("node arrays differ in shape")
    if offsets.ndim != 1 or len(offsets) < 2:
        raise ValueError("tree_offsets must list at least one tree")
    sizes = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != n or (sizes < 1).any():
        raise ValueError("tree_offsets do not split the nodes into trees")
    # tree-local node ids, and the size of each node's tree
    local = np.arange(n) - np.repeat(offsets[:-1], sizes)
    size = np.repeat(sizes, sizes)
    inner = feature >= 0
    good = ((feature < feature_dim(meta["feature_mode"]))
            & (local < left) & (left < size) & (local < right) & (right < size))
    if (inner & ~good).any():
        raise ValueError("an inner node reads a feature or child out of range")
    trees = [TreeNodes(feature=feature[lo:hi], threshold=threshold[lo:hi],
                       left=left[lo:hi], right=right[lo:hi],
                       counts=counts[lo:hi])
             for lo, hi in zip(offsets[:-1], offsets[1:])]
    fit = [meta[key] for key in ("n_trees", "max_depth", "features_per_split")]
    if not all(type(v) is int and v >= 0 for v in fit):
        raise ValueError(f"n_trees, max_depth and features_per_split must be "
                         f"non-negative integers, got {fit}")
    if fit[0] != len(trees):
        raise ValueError(f"n_trees is {fit[0]}, but the arrays hold "
                         f"{len(trees)} trees")
    return ForestModel(trees, *fit[1:]), meta["feature_mode"], None


_BUILDERS = {
    FORMAT_ATTENTION: _model_from,
    FORMAT_ORDINAL: _ordinal_from,
    FORMAT_FOREST: _forest_from,
}


def load_any(path: str):
    """(model, feature_mode, the (16, 3) class-weight table or None) of a
    checkpoint of any format, the file read once. The model is an
    OrdinalModel, a ForestModel or an attention (Params, ModelConfig)
    pair; a meta or array set that does not fit its format is a
    CheckpointError."""
    fmt, meta, arrays = load_container(path)
    try:
        return _BUILDERS[fmt](meta, arrays)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(
            f"{path}: malformed {fmt} checkpoint ({type(exc).__name__}: {exc})")
