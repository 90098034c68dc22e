import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import json_values
from stressnet.baselines import train_forest, train_ordinal
from stressnet.checkpoint import (
    FORMAT_ATTENTION,
    load_any,
    load_container,
    save_container,
    save_forest,
    save_model,
    save_ordinal,
)
from stressnet.errors import CheckpointError, StressnetError
from stressnet.model import PRESETS, SYLLABLE_NUCLEUS_NUMERICAL, ModelConfig, init_params


class TestContainer:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        arrays = {
            "a": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b": np.array([1, 2, 3], dtype=np.int64),
        }
        save_container(path, FORMAT_ATTENTION, {"x": 1}, arrays)
        fmt, meta, back = load_container(path)
        assert fmt == FORMAT_ATTENTION
        assert meta == {"x": 1}
        assert np.array_equal(back["a"], arrays["a"])
        assert back["b"].dtype == np.int64

    def test_header_is_one_json_line(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_container(path, FORMAT_ATTENTION, {}, {"a": np.zeros(2)})
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            assert header["version"] == 1
            assert header["arrays"][0] == {
                "name": "a", "shape": [2], "dtype": "<f8"}
            assert len(fh.read()) == 16  # 2 float64 values

    def test_byte_determinism(self, tmp_path):
        p1, p2 = str(tmp_path / "1.ckpt"), str(tmp_path / "2.ckpt")
        arrays = {"z": np.ones(4), "a": np.zeros((2, 2))}
        save_container(p1, FORMAT_ATTENTION, {"k": [1, 2]}, arrays)
        save_container(p2, FORMAT_ATTENTION, {"k": [1, 2]}, dict(reversed(arrays.items())))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_container(path, FORMAT_ATTENTION, {}, {"a": np.zeros(8)})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(CheckpointError):
            load_container(path)

    @pytest.mark.parametrize("shape", [[0, 2**70], [0, 2**40, 2**40], [1] * 65])
    def test_shape_numpy_cannot_hold(self, tmp_path, shape):
        # the declared byte count matches the file, yet no array has this shape
        path = tmp_path / "c.ckpt"
        path.write_bytes(json.dumps({
            "format": FORMAT_ATTENTION, "version": 1, "meta": {},
            "arrays": [{"name": "a", "dtype": "<f8", "shape": shape}],
        }).encode() + b"\n" + bytes(8 * math.prod(shape)))
        with pytest.raises(CheckpointError):
            load_container(str(path))

    def test_unknown_format_tag(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        with open(path, "wb") as fh:
            fh.write(json.dumps({"format": "nope", "version": 1, "meta": {},
                                 "arrays": []}).encode() + b"\n")
        with pytest.raises(CheckpointError):
            load_container(path)


class TestModelCheckpoint:
    def test_round_trip_with_weights(self, tmp_path):
        cfg = ModelConfig(**PRESETS["attn-medium"])
        params = init_params(cfg, np.random.default_rng(0))
        weights = np.random.default_rng(1).uniform(0, 1, (16, 3))
        path = str(tmp_path / "m.ckpt")
        save_model(path, params, cfg, weights)
        kind, (params2, cfg2), mode, weights2 = load_any(path)
        assert kind == "attention" and mode == cfg.feature_mode
        assert cfg2 == cfg
        assert set(params2) == set(params)
        for key in params:
            assert np.array_equal(params[key], params2[key])
        assert np.array_equal(weights, weights2)

    def test_load_any_kinds(self, tmp_path):
        rng = np.random.default_rng(3)
        X, y = rng.normal(0, 1, (60, 12)), rng.integers(0, 3, 60)
        o_path = str(tmp_path / "o.ckpt")
        f_path = str(tmp_path / "f.ckpt")
        m_path = str(tmp_path / "m.ckpt")
        save_ordinal(o_path, train_ordinal(X, y, seed=1),
                     SYLLABLE_NUCLEUS_NUMERICAL)
        save_forest(f_path, train_forest(X, y, n_trees=4, seed=1),
                    SYLLABLE_NUCLEUS_NUMERICAL)
        cfg = ModelConfig(**PRESETS["attn-medium"])
        save_model(m_path, init_params(cfg, rng), cfg, None)
        assert load_any(o_path)[0] == "ordinal"
        assert load_any(f_path)[0] == "forest"
        assert load_any(m_path)[0] == "attention"

    def test_load_any_parses_each_file_once(self, tmp_path, monkeypatch):
        import stressnet.checkpoint as checkpoint_mod

        rng = np.random.default_rng(6)
        X, y = rng.normal(0, 1, (60, 12)), rng.integers(0, 3, 60)
        paths = [str(tmp_path / name) for name in ("o.ckpt", "f.ckpt", "m.ckpt")]
        save_ordinal(paths[0], train_ordinal(X, y, seed=1),
                     SYLLABLE_NUCLEUS_NUMERICAL)
        save_forest(paths[1], train_forest(X, y, n_trees=2, seed=1),
                    SYLLABLE_NUCLEUS_NUMERICAL)
        cfg = ModelConfig(**PRESETS["attn-medium"])
        save_model(paths[2], init_params(cfg, rng), cfg, np.ones((16, 3)))
        calls = []

        def counting(path):
            calls.append(path)
            return load_container(path)

        monkeypatch.setattr(checkpoint_mod, "load_container", counting)
        for path in paths:
            load_any(path)
        assert calls == paths

    def test_parameters_must_fit_model_config(self, tmp_path):
        cfg = ModelConfig(**PRESETS["attn-medium"])
        params = init_params(cfg, np.random.default_rng(7))
        path = str(tmp_path / "m.ckpt")
        save_model(path, dict(params, **{"head.b": np.zeros(4)}), cfg, None)
        with pytest.raises(CheckpointError):
            load_any(path)
        del params["head.W"]
        save_model(path, params, cfg, None)
        with pytest.raises(CheckpointError):
            load_any(path)

    def test_arrays_must_be_float64(self, tmp_path):
        cfg = ModelConfig(**PRESETS["attn-medium"])
        params = init_params(cfg, np.random.default_rng(8))
        path = str(tmp_path / "m.ckpt")
        # shapes fit; only the declared dtype is "<i8"
        save_model(path, dict(params, E_pos=params["E_pos"].astype(np.int64)),
                   cfg, None)
        with pytest.raises(CheckpointError, match="<f8"):
            load_any(path)
        save_model(path, params, cfg, np.ones((16, 3), dtype=np.int64))
        with pytest.raises(CheckpointError, match="<f8"):
            load_any(path)
        save_model(path, params, cfg, np.ones((16, 3)))
        assert load_any(path)[0] == "attention"


class TestBaselineCheckpoints:
    def test_ordinal_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        model = train_ordinal(rng.normal(0, 1, (80, 6)),
                              rng.integers(0, 3, 80), seed=2)
        path = str(tmp_path / "o.ckpt")
        save_ordinal(path, model, "syllable_numerical")
        kind, back, mode, _ = load_any(path)
        assert kind == "ordinal" and mode == "syllable_numerical"
        assert np.array_equal(back.coefficients, model.coefficients)
        assert np.array_equal(back.thresholds, model.thresholds)

    def test_forest_round_trip_same_predictions(self, tmp_path):
        rng = np.random.default_rng(5)
        X, y = rng.normal(0, 1, (120, 12)), rng.integers(0, 3, 120)
        model = train_forest(X, y, n_trees=7, max_depth=6, seed=3)
        path = str(tmp_path / "f.ckpt")
        save_forest(path, model, SYLLABLE_NUCLEUS_NUMERICAL)
        kind, back, _, _ = load_any(path)
        assert kind == "forest"
        assert back.n_trees == model.n_trees
        assert np.array_equal(back.vote_shares(X), model.vote_shares(X))

    def test_forest_scores_from_leaves_whatever_its_max_depth(self):
        rng = np.random.default_rng(5)
        X, y = rng.normal(0, 1, (120, 12)), rng.integers(0, 3, 120)
        model = train_forest(X, y, n_trees=3, max_depth=6, seed=3)
        shallow = dataclasses.replace(model, max_depth=0)
        assert np.array_equal(shallow.vote_shares(X), model.vote_shares(X))


# --- container fuzzing --------------------------------------------------------

array_entries = st.fixed_dictionaries({
    "name": st.sampled_from(["a", "b"]) | json_values,
    "dtype": st.sampled_from(["<f8", "<i8"]) | json_values,
    "shape": st.lists(st.integers(0, 3) | st.integers(-1, 2**70), max_size=3)
    | json_values,
})

headers = st.fixed_dictionaries({
    "format": st.sampled_from([FORMAT_ATTENTION, "stressnet-or"]) | json_values,
    "version": st.just(1) | json_values,
    "meta": st.just({}) | json_values,
    "arrays": st.lists(array_entries, max_size=3) | json_values,
})


def load_bytes(blob: bytes):
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        return load_container(path)
    finally:
        os.unlink(path)


class TestContainerFuzz:
    """Whatever a checkpoint file holds, load_container either returns
    exactly the declared arrays or raises a StressnetError."""

    @given(headers.map(lambda h: json.dumps(h).encode()) | st.binary(max_size=60),
           st.binary(max_size=64))
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_headers_and_trailing_bytes(self, header, tail):
        try:
            _, _, arrays = load_bytes(header + b"\n" + tail)
        except StressnetError:
            return
        assert sum(a.nbytes for a in arrays.values()) == len(tail)
