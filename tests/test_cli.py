import collections
import contextlib
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stressnet
from conftest import (MALFORMED_LINES, MALFORMED_WAVS, Record, damaged_wavs,
                      float_values, json_values, pack_records, table_records)
from stressnet import bundled_dictionary_path
from stressnet.cli import _write_predictions, run_subcommand
from stressnet import checkpoint, corpus
from stressnet.corpus import GenConfig, load_alignment
from stressnet.dsp import DspConfig, compute_intensity, estimate_pitch, read_wav
from stressnet.features import (
    FEATURE_SLOTS,
    MAX_SYLLABLES,
    extract_features,
    normalize_sentence,
    read_feature_table,
    write_feature_table,
)
from stressnet.lexicon import NUCLEUS_TAGS, VOWELS
from stressnet.model import FEATURE_MODES
from oracles import (oracle_instances, oracle_predictions, oracle_split,
                     per_word_reference)


def run(*argv):
    return run_subcommand(list(argv))


class TestLexiconCommand:
    def test_lookup_overcome(self, capsys):
        assert run("lexicon", "lookup", "overcome") == 0
        out = capsys.readouterr().out
        assert "stresses: 2 0 1" in out
        assert "3 syllable(s)" in out

    def test_missing_word(self, capsys):
        assert run("lexicon", "lookup", "zzzznotaword") == 4


class TestErrorsAndExitCodes:
    def test_unknown_subcommand_usage_exit(self, capsys):
        assert run("frobnicate") == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = run("--config", str(tmp_path / "absent.json"),
                   "synth", "--n", "1", "--out", str(tmp_path / "o"))
        assert code == 3
        assert "absent.json" in capsys.readouterr().err

    def test_config_file_is_a_directory(self, tmp_path, capsys):
        code = run("--config", str(tmp_path), "synth", "--n", "1",
                   "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"config error: config file not found: {tmp_path}\n"

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": "\xff"}')
        code = run("--config", str(cfg), "synth", "--n", "1",
                   "--out", str(tmp_path / "o"))
        assert code == 3

    def test_unknown_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"surprise": 1}')
        code = run("--config", str(cfg), "synth", "--n", "1",
                   "--out", str(tmp_path / "o"))
        assert code == 3

    @pytest.mark.parametrize("value", ["abc", None, [1, 2], 3],
                             ids=["string", "null", "list", "number"])
    @pytest.mark.parametrize("section,argv", [
        ("gen", ["synth", "--n", "2", "--out", "{tmp}/o"]),
        ("train", ["train", "--model", "attn-medium", "--train",
                   "{tmp}/t.jsonl", "--out", "{tmp}/m.ckpt"]),
        ("model", ["train", "--model", "attn-custom", "--train",
                   "{tmp}/t.jsonl", "--out", "{tmp}/m.ckpt"]),
        ("dsp", ["featurize", "--alignments", "{tmp}/a", "--out",
                 "{tmp}/f.jsonl"]),
    ])
    def test_section_not_an_object(self, tmp_path, capsys, section, argv,
                                   value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: value}))
        code = run("--config", str(cfg),
                   *[a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert f"section {section!r}" in err and "Traceback" not in err

    def test_bad_alignment_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "a.json"
        bad.write_text('{"schema": 1}')
        code = run("label", "--alignments", str(bad),
                   "--out", str(tmp_path / "o"))
        assert code == 4


def edit_checkpoint_header(path, edit):
    """Apply edit to a checkpoint's JSON header in place, keeping the arrays."""
    header_line, arrays = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + arrays)


def _set(name, index, value):
    """An edit that sets one element of a checkpoint array."""
    def edit(arrays):
        arrays[name][index] = value
    return edit


FOREST_EDITS = {
    "left_child_far_outside": _set("nodes_left", 0, 1000000),
    "right_child_is_the_node": _set("nodes_right", 0, 0),
    "left_child_in_next_tree": lambda a: a["nodes_left"].__setitem__(
        0, a["tree_offsets"][1]),
    "feature_past_mode_width": _set("nodes_feature", 0, 12),
    "offsets_decreasing": lambda a: a["tree_offsets"].__setitem__(
        slice(1, 3), a["tree_offsets"][2:0:-1]),
    "offsets_past_nodes": lambda a: a["tree_offsets"].__setitem__(
        -1, a["tree_offsets"][-1] + 5),
    "float_child_indices": lambda a: a.update(
        nodes_left=a["nodes_left"].astype(np.float64)),
    "counts_not_per_class": lambda a: a.update(
        nodes_counts=a["nodes_counts"][:, :2]),
    # NaN counts made every leaf vote for class 0, and eval exited 0
    "nan_counts": lambda a: a.update(
        nodes_counts=np.full(a["nodes_counts"].shape, np.nan)),
    "negative_count": _set("nodes_counts", (0, 0), -1),
}


# edits of an or checkpoint's (meta, arrays) trained on 6 features
ORDINAL_EDITS = {
    "thresholds_cut_to_one": lambda m, a: a.update(
        thresholds=a["thresholds"][:1]),
    "thresholds_reversed": lambda m, a: a.update(
        thresholds=a["thresholds"][::-1].copy()),
    "thresholds_equal": lambda m, a: a.update(
        thresholds=a["thresholds"][[0, 0]]),
    "threshold_infinite": lambda m, a: a["thresholds"].__setitem__(
        1, float("inf")),
    "coefficient_nan": lambda m, a: a["coefficients"].__setitem__(
        0, float("nan")),
    "coefficients_too_short": lambda m, a: a.update(
        coefficients=a["coefficients"][:-1]),
    "thresholds_integer": lambda m, a: a.update(
        thresholds=np.array([-1, 1])),
    "feature_mode_unknown": lambda m, a: m.update(feature_mode="bogus"),
    "feature_mode_wider": lambda m, a: m.update(
        feature_mode="syllable_nucleus_numerical"),
}


class TestMalformedCheckpoints:
    """A checkpoint that does not parse or fit is a data error, exit 4."""

    @pytest.fixture
    def ckpt(self, tmp_path):
        from stressnet.checkpoint import save_model
        from stressnet.model import PRESETS, ModelConfig, init_params

        cfg = ModelConfig(**PRESETS["attn-medium"])
        path = tmp_path / "m.ckpt"
        save_model(str(path), init_params(cfg, np.random.default_rng(0)),
                   cfg, None)
        return path

    def check_data_error(self, ckpt, tmp_path, capsys):
        code = run("pca", "--model", str(ckpt), "--out", str(tmp_path / "p.json"))
        assert code == 4
        assert "CheckpointError" in capsys.readouterr().err

    def test_model_config_extra_key(self, ckpt, tmp_path, capsys):
        edit_checkpoint_header(
            ckpt, lambda h: h["meta"]["model_config"].update(extra=1))
        self.check_data_error(ckpt, tmp_path, capsys)

    def test_model_config_missing_key(self, ckpt, tmp_path, capsys):
        edit_checkpoint_header(
            ckpt, lambda h: h["meta"]["model_config"].pop("d_model"))
        self.check_data_error(ckpt, tmp_path, capsys)

    def test_header_without_arrays(self, ckpt, tmp_path, capsys):
        edit_checkpoint_header(ckpt, lambda h: h.pop("arrays"))
        self.check_data_error(ckpt, tmp_path, capsys)

    def test_negative_array_shape(self, ckpt, tmp_path, capsys):
        def negate(header):
            header["arrays"][0]["shape"] = [-d for d in header["arrays"][0]["shape"]]
        edit_checkpoint_header(ckpt, negate)
        self.check_data_error(ckpt, tmp_path, capsys)

    def test_array_name_not_a_string(self, ckpt, tmp_path, capsys):
        edit_checkpoint_header(
            ckpt, lambda h: h["arrays"][0].update(name=["E_type"]))
        self.check_data_error(ckpt, tmp_path, capsys)

    def test_repeated_array_name(self, ckpt, tmp_path, capsys):
        # a second E_type entry, its bytes appended: a last-one-wins reader
        # would load it without complaint
        header_line, arrays = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        (entry,) = [e for e in header["arrays"] if e["name"] == "E_type"]
        header["arrays"].append(entry)
        ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                         + arrays + bytes(8 * int(np.prod(entry["shape"]))))
        self.check_data_error(ckpt, tmp_path, capsys)

    @pytest.mark.parametrize("shape", [[2**40, 2**40], [2**70]])
    def test_shape_beyond_int64_or_file(self, ckpt, tmp_path, capsys, shape):
        edit_checkpoint_header(ckpt, lambda h: h["arrays"][0].update(shape=shape))
        self.check_data_error(ckpt, tmp_path, capsys)

    @pytest.mark.parametrize("field,value", [
        ("d_model", 5.0), ("n_layers", 3.5), ("max_positions", True)])
    def test_model_config_count_not_an_int(self, ckpt, tmp_path, capsys,
                                           field, value):
        edit_checkpoint_header(
            ckpt, lambda h: h["meta"]["model_config"].update({field: value}))
        self.check_data_error(ckpt, tmp_path, capsys)


    @pytest.mark.parametrize("case", sorted(FOREST_EDITS))
    def test_forest_node_arrays(self, pipeline, tmp_path, capsys, case):
        from stressnet.checkpoint import load_container, save_container

        _, out, _, rf = pipeline
        fmt, meta, arrays = load_container(rf)
        assert arrays["nodes_feature"][0] >= 0  # the first root is split
        FOREST_EDITS[case](arrays)
        bad = tmp_path / "rf.ckpt"
        save_container(str(bad), fmt, meta, arrays)
        code = run("predict", "--model", str(bad), "--input",
                   str(out / "splits" / "test.jsonl"),
                   "--out", str(tmp_path / "preds.jsonl"))
        err = capsys.readouterr().err
        assert code == 4
        assert "CheckpointError" in err and "Traceback" not in err

    # Infinity made int() raise OverflowError; -5 made every row score
    # from its root node's votes
    @pytest.mark.parametrize("value", [float("inf"), -5, 2.0, True, "3", None],
                             ids=["inf", "negative", "float", "bool", "str",
                                  "null"])
    @pytest.mark.parametrize("key", ["n_trees", "max_depth",
                                     "features_per_split"])
    def test_forest_meta_count(self, pipeline, tmp_path, capsys, key, value):
        _, out, _, rf = pipeline
        bad = tmp_path / "rf.ckpt"
        bad.write_bytes(Path(rf).read_bytes())
        edit_checkpoint_header(bad, lambda h: h["meta"].update({key: value}))
        code = run("eval", "--model", str(bad), "--data",
                   str(out / "splits" / "test.jsonl"),
                   "--out", str(tmp_path / "report"))
        err = capsys.readouterr().err
        assert code == 4
        assert "CheckpointError" in err and "Traceback" not in err


    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("case", sorted(ORDINAL_EDITS))
    def test_ordinal_arrays_and_meta(self, pipeline, baseline_ckpts, tmp_path,
                                     capsys, case, command):
        # cut thresholds crashed with an IndexError; reversed ones gave
        # negative probabilities; an unknown feature mode was exit 3
        from stressnet.checkpoint import load_container, save_container

        _, out, _, _ = pipeline
        fmt, meta, arrays = load_container(baseline_ckpts["or"])
        ORDINAL_EDITS[case](meta, arrays)
        bad = tmp_path / "or.ckpt"
        save_container(str(bad), fmt, meta, arrays)
        flag = "--data" if command == "eval" else "--input"
        code = run(command, "--model", str(bad), flag,
                   str(out / "splits" / "test.jsonl"),
                   "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 4
        assert "CheckpointError" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_class_weight_not_finite_or_negative(self, pipeline, tmp_path,
                                                 capsys, value):
        # an infinite weight made eval write a NaN weighted accuracy
        from stressnet.checkpoint import load_container, save_container

        _, out, attn, _ = pipeline
        fmt, meta, arrays = load_container(attn)
        arrays["class_weights"][3, 1] = value
        bad = tmp_path / "attn.ckpt"
        save_container(str(bad), fmt, meta, arrays)
        code = run("eval", "--model", str(bad), "--data",
                   str(out / "splits" / "test.jsonl"),
                   "--out", str(tmp_path / "report"))
        err = capsys.readouterr().err
        assert code == 4
        assert "class_weights" in err and "Traceback" not in err

    @pytest.mark.parametrize("n_trees", [0, 5, 13])
    def test_forest_tree_count_must_match_its_trees(self, pipeline, tmp_path,
                                                    capsys, n_trees):
        _, out, _, rf = pipeline
        bad = tmp_path / "rf.ckpt"
        bad.write_bytes(Path(rf).read_bytes())
        edit_checkpoint_header(bad, lambda h: h["meta"].update(n_trees=n_trees))
        code = run("eval", "--model", str(bad), "--data",
                   str(out / "splits" / "test.jsonl"),
                   "--out", str(tmp_path / "report"))
        err = capsys.readouterr().err
        assert code == 4
        assert "n_trees" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("max_positions", -1), ("max_positions", 0), ("max_positions", 18),
        ("max_positions", 10**9), ("ffn_hidden", -3)])
    def test_model_config_count_out_of_range(self, ckpt, tmp_path, capsys,
                                             field, value):
        edit_checkpoint_header(
            ckpt, lambda h: h["meta"]["model_config"].update({field: value}))
        self.check_data_error(ckpt, tmp_path, capsys)

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_divisible_heads_switch_not_a_bool(self, ckpt, tmp_path, capsys,
                                               value):
        # "no" was loaded as given, and read as true by the head check
        edit_checkpoint_header(ckpt, lambda h: h["meta"]["model_config"].update(
            require_divisible_heads=value))
        self.check_data_error(ckpt, tmp_path, capsys)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> split -> train(attn + rf) artifacts shared by CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    out = root / "corpus"
    assert run("synth", "--n", "60", "--seed", "7", "--noise", "0.25",
               "--out", str(out)) == 0
    assert run("split", "--features", str(out / "features.jsonl"),
               "--seed", "2", "--out", str(out / "splits")) == 0
    train_path = str(out / "splits" / "train.jsonl")
    attn = str(root / "attn.ckpt")
    rf = str(root / "rf.ckpt")
    assert run("train", "--model", "attn-medium", "--train", train_path,
               "--out", attn, "--epochs", "6", "--seed", "5",
               "--learning-rate", "0.003", "--dropout", "0.0") == 0
    assert run("train", "--model", "rf", "--train", train_path,
               "--out", rf, "--feature-mode", "syllable_nucleus_numerical",
               "--n-trees", "12", "--seed", "5") == 0
    return root, out, attn, rf


class TestPipeline:
    def test_synth_wrote_alignments_and_manifest(self, pipeline):
        _, out, _, _ = pipeline
        files = list((out / "alignments").glob("*.json"))
        assert len(files) == 60
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["arguments"]["seed"] == 7

    def test_split_partition(self, pipeline):
        _, out, _, _ = pipeline
        train = read_feature_table(str(out / "splits" / "train.jsonl"))
        test = read_feature_table(str(out / "splits" / "test.jsonl"))
        all_records = read_feature_table(str(out / "features.jsonl"))
        assert len(train) + len(test) == len(all_records)
        assert not set(train.utterance_ids) & set(test.utterance_ids)

    def test_eval_reports(self, pipeline, capsys):
        root, out, attn, rf = pipeline
        test_path = str(out / "splits" / "test.jsonl")
        assert run("eval", "--model", attn, "--data", test_path,
                   "--out", str(root / "attn_report")) == 0
        assert run("eval", "--model", rf, "--data", test_path,
                   "--out", str(root / "rf_report")) == 0
        attn_doc = json.loads((root / "attn_report.json").read_text())
        rf_doc = json.loads((root / "rf_report.json").read_text())
        assert 0.0 <= attn_doc["accuracy"] <= 1.0
        assert attn_doc["weighted_accuracy"] is not None
        assert rf_doc["weighted_accuracy"] is None
        total = np.asarray(attn_doc["confusion"]).sum()
        assert total == attn_doc["n_syllables"]

    def test_predict_output_shape(self, pipeline):
        root, out, attn, _ = pipeline
        test_path = str(out / "splits" / "test.jsonl")
        preds_path = str(root / "preds.jsonl")
        assert run("predict", "--model", attn, "--input", test_path,
                   "--out", preds_path) == 0
        records = read_feature_table(test_path)
        lines = [json.loads(l) for l in Path(preds_path).read_text().splitlines()]
        assert len(lines) == len(records)
        for line, n in zip(lines, np.diff(records.offsets).tolist()):
            assert len(line["syllables"]) == n
            for s in line["syllables"]:
                assert s["stress_pred"] in (0, 1, 2)
                assert abs(sum(s["probs"]) - 1.0) < 1e-9

    def test_pca_output(self, pipeline):
        root, _, attn, _ = pipeline
        out_path = str(root / "pca.json")
        assert run("pca", "--model", attn, "--out", out_path) == 0
        doc = json.loads(Path(out_path).read_text())
        assert len(doc["points"]) == 16
        assert len(doc["explained_variance"]) == 3
        v = doc["explained_variance"]
        assert v[0] >= v[1] >= v[2] >= 0

    def test_label_subcommand(self, pipeline):
        root, out, _, _ = pipeline
        lab_out = root / "labels"
        assert run("label", "--alignments", str(out / "alignments"),
                   "--out", str(lab_out)) == 0
        lines = [json.loads(l)
                 for l in (lab_out / "labels.jsonl").read_text().splitlines()]
        assert lines
        assert all(set(l) == {"utterance_id", "word", "stresses", "nuclei"}
                   for l in lines)


class TestDeterminism:
    def test_repeat_run_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("synth", "--n", "12", "--seed", "3",
                       "--out", str(out)) == 0
            assert run("split", "--features", str(out / "features.jsonl"),
                       "--seed", "1", "--out", str(out / "s")) == 0
            ckpt = str(out / "m.ckpt")
            assert run("train", "--model", "attn-medium", "--train",
                       str(out / "s" / "train.jsonl"), "--out", ckpt,
                       "--epochs", "2", "--seed", "4") == 0
            assert run("eval", "--model", ckpt, "--data",
                       str(out / "s" / "test.jsonl"),
                       "--out", str(out / "report")) == 0
            outs.append(out)
        a, b = outs
        for rel in ("features.jsonl", "m.ckpt", "report.json", "report.txt"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestFeaturize:
    def make_audio_and_alignment(self, tmp_path):
        from scipy.io import wavfile
        sr = 16000
        t = np.arange(int(0.8 * sr)) / sr
        # two tone segments: [0.05, 0.35) at 220 Hz, [0.35, 0.70) at 170 Hz
        sig = np.zeros_like(t)
        seg1 = (t >= 0.05) & (t < 0.35)
        seg2 = (t >= 0.35) & (t < 0.70)
        sig[seg1] = 0.8 * np.sin(2 * np.pi * 220.0 * t[seg1])
        sig[seg2] = 0.4 * np.sin(2 * np.pi * 170.0 * t[seg2])
        wav = tmp_path / "utt.wav"
        wavfile.write(str(wav), sr, (sig * 32767).astype(np.int16))
        alignment = {
            "schema": 1,
            "utterance_id": "real-utt",
            "audio_path": "utt.wav",
            "words": [{
                "text": "maybe",
                "syllables": [
                    {"start_s": 0.05, "end_s": 0.35,
                     "nucleus": {"start_s": 0.10, "end_s": 0.30}},
                    {"start_s": 0.35, "end_s": 0.70,
                     "nucleus": {"start_s": 0.40, "end_s": 0.65}},
                ],
            }],
        }
        apath = tmp_path / "utt.json"
        apath.write_text(json.dumps(alignment))
        return apath

    def test_featurize_pipeline(self, tmp_path):
        apath = self.make_audio_and_alignment(tmp_path)
        out = str(tmp_path / "features.jsonl")
        assert run("featurize", "--alignments", str(apath),
                   "--out", out) == 0
        (rec,) = table_records(read_feature_table(out))
        assert rec.word == "maybe"
        assert rec.stresses == [1, 0]
        f0, f1 = rec.features
        # 220 Hz vs 170 Hz: after sentence normalization the first syllable
        # sits above the mean, the second below
        assert f0[0] > 0 > f1[0]          # syllable pitch mean
        assert f0[3] > 0 > f1[3]          # syllable intensity mean
        assert f0[5] < f1[5]              # 0.30 s vs 0.35 s duration
        assert np.isclose(f0[0], -f1[0])  # two-syllable normalization

    def test_out_in_missing_directory(self, tmp_path):
        apath = self.make_audio_and_alignment(tmp_path)
        out = tmp_path / "new" / "dir" / "features.jsonl"
        assert run("featurize", "--alignments", str(apath),
                   "--out", str(out)) == 0
        (rec,) = table_records(read_feature_table(str(out)))
        assert rec.word == "maybe"
        assert Path(f"{out}.manifest.json").is_file()

    def test_featurize_loads_no_scipy(self, tmp_path):
        # a fresh interpreter: this one has SciPy loaded to write the WAV
        apath = self.make_audio_and_alignment(tmp_path)
        script = ("import sys\n"
                  "from stressnet.cli import run_subcommand\n"
                  "code = run_subcommand(sys.argv[1:])\n"
                  "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        src = str(Path(stressnet.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, "featurize", "--alignments",
             str(apath), "--out", str(tmp_path / "features.jsonl")],
            capture_output=True, text=True, env=env, timeout=300)
        assert done.stdout.splitlines()[-1] == "0 []", done.stderr
        assert len(read_feature_table(str(tmp_path / "features.jsonl"))) == 1

    @pytest.mark.parametrize("name", sorted(MALFORMED_WAVS))
    def test_malformed_wav_is_format_error(self, tmp_path, capsys, name):
        apath = self.make_audio_and_alignment(tmp_path)
        (tmp_path / "utt.wav").write_bytes(MALFORMED_WAVS[name])
        code = run("featurize", "--alignments", str(apath),
                   "--out", str(tmp_path / "features.jsonl"))
        err = capsys.readouterr().err
        assert code == 4
        assert "FormatError" in err and "utt.wav" in err
        assert "Traceback" not in err

    # a float WAV with one bad sample: NaN or inf is unreadable, and 1e200
    # overflows once squared, so its features are not finite
    @pytest.mark.parametrize("dtype, value, error", [
        (np.float32, np.inf, "FormatError"),
        (np.float64, np.nan, "FormatError"),
        (np.float64, 1e200, "NumericalInstability"),
    ])
    def test_non_finite_is_a_named_data_error(self, tmp_path, capsys, dtype,
                                              value, error):
        from scipy.io import wavfile
        apath = self.make_audio_and_alignment(tmp_path)
        sr, pcm = wavfile.read(str(tmp_path / "utt.wav"))
        samples = (pcm / 32768.0).astype(dtype)
        samples[4000] = value
        wavfile.write(str(tmp_path / "utt.wav"), sr, samples)
        out = tmp_path / "features.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("featurize", "--alignments", str(apath),
                       "--out", str(out))
        err = capsys.readouterr().err
        assert code == 4
        assert error in err and "utt.wav" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_wav_shorter_than_one_window(self, tmp_path, capsys):
        from scipy.io import wavfile
        sr = 16000
        t = np.arange(600) / sr  # 37.5 ms: no 40 ms frame fits
        wavfile.write(str(tmp_path / "short.wav"), sr,
                      (0.5 * np.sin(2 * np.pi * 200.0 * t) * 32767)
                      .astype(np.int16))
        apath = tmp_path / "short.json"
        apath.write_text(json.dumps({
            "schema": 1, "utterance_id": "short", "audio_path": "short.wav",
            "words": [{"text": "maybe", "syllables": [
                {"start_s": 0.0, "end_s": 0.02,
                 "nucleus": {"start_s": 0.005, "end_s": 0.015}},
                {"start_s": 0.02, "end_s": 0.035,
                 "nucleus": {"start_s": 0.025, "end_s": 0.03}},
            ]}],
        }))
        code = run("featurize", "--alignments", str(apath),
                   "--out", str(tmp_path / "features.jsonl"))
        err = capsys.readouterr().err
        assert code == 4
        assert "SpanOutOfRange" in err and "Traceback" not in err

    @pytest.mark.parametrize("dsp", [
        {"hop_s": 1e-6},                 # rounds to zero samples at 16 kHz
        {"hop_s": 0.0},
        {"window_s": -0.04},
        {"window_s": 0.0005},            # too short for the pitch lag band
        {"f_min": 700.0, "f_max": 600.0},
        {"f_min": 0.0},
        {"voicing_threshold": "abc"},
        {"voicing_threshold": None},
        {"window_s": float("inf")},
        {"hop_s": float("inf")},
        {"window_s": True},
        {"window_size": 0.04},           # not a dsp setting
    ])
    def test_bad_dsp_config_is_config_error(self, tmp_path, capsys, dsp):
        apath = self.make_audio_and_alignment(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dsp": dsp}))
        code = run("--config", str(cfg), "featurize", "--alignments",
                   str(apath), "--out", str(tmp_path / "features.jsonl"))
        assert code == 3
        assert "dsp" in capsys.readouterr().err

    @pytest.mark.parametrize("window_s", [0.9, 1e300])
    def test_window_longer_than_wav_is_out_of_range(self, tmp_path, capsys,
                                                    window_s):
        apath = self.make_audio_and_alignment(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dsp": {"window_s": window_s}}))
        code = run("--config", str(cfg), "featurize", "--alignments",
                   str(apath), "--out", str(tmp_path / "features.jsonl"))
        err = capsys.readouterr().err
        assert code == 4
        assert "SpanOutOfRange" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(DspConfig)])
    @given(value=st.floats(1e-4, 1e3) | st.floats() | json_values)
    @settings(max_examples=40, deadline=None)
    def test_any_dsp_field_value(self, tmp_path_factory, field, value):
        root = tmp_path_factory.mktemp("dsp")
        apath = self.make_audio_and_alignment(root)
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps({"dsp": {field: value}}))
        code = run("--config", str(cfg), "featurize", "--alignments",
                   str(apath), "--out", str(root / "features.jsonl"))
        assert code in (0, 3, 4)


# Two utterances for the normalization pool and the exclusion rules.
# "mixed" holds a monosyllabic word, a word missing from the lexicon and a
# word aligned with 2 syllables where its only variant has 3; "clean" holds
# a monosyllabic word and lexicon words of the right count.
POOL_UTTERANCES = {
    "mixed": [("cat", 1), ("maybe", 2), ("zyxxyz", 2), ("overcome", 2),
              ("separate", 3)],
    "clean": [("cat", 1), ("overcome", 3), ("maybe", 2)],
}
# per utterance, the words that exclusion scope "word" keeps
POOL_KEPT = {"mixed": [1, 4], "clean": [1, 2]}
POOL_SR = 16000
POOL_SYLLABLE = 2400  # samples per syllable, 0.15 s
POOL_GAP = 800        # samples of silence between words, 0.05 s


def write_pool_fixture(root: Path) -> Path:
    """A 16 kHz int16 WAV and an alignment per POOL_UTTERANCES entry;
    returns the alignment directory. Each syllable is a triangle wave whose
    period (100 to 150 samples: 107 to 160 Hz) and level change from
    syllable to syllable, and every fifth syllable is silent, so its pitch
    is ABSENT. The samples are integer arithmetic: the same bytes anywhere."""
    from scipy.io import wavfile
    (root / "alignments").mkdir(parents=True)
    k = 0
    for utt, words in POOL_UTTERANCES.items():
        pieces, word_docs, at = [np.zeros(POOL_GAP, dtype=np.int64)], [], POOL_GAP
        for text, n in words:
            syllables = []
            for _ in range(n):
                period = 100 + 10 * (k % 6)
                n_idx = np.arange(POOL_SYLLABLE)
                tri = np.abs(2 * (n_idx % period) - period) - period // 2
                level = 0 if k % 5 == 4 else 40 + 15 * (k % 4)
                pieces.append(tri * level)
                syllables.append({
                    "start_s": at / POOL_SR,
                    "end_s": (at + POOL_SYLLABLE) / POOL_SR,
                    "nucleus": {"start_s": (at + 600) / POOL_SR,
                                "end_s": (at + 1800) / POOL_SR}})
                at += POOL_SYLLABLE
                k += 1
            pieces.append(np.zeros(POOL_GAP, dtype=np.int64))
            at += POOL_GAP
            word_docs.append({"text": text, "syllables": syllables})
        wavfile.write(str(root / f"{utt}.wav"), POOL_SR,
                      np.concatenate(pieces).astype(np.int16))
        (root / "alignments" / f"{utt}.json").write_text(json.dumps({
            "schema": 1, "utterance_id": utt, "audio_path": f"../{utt}.wav",
            "words": word_docs}))
    return root / "alignments"


# SHA-256 of featurize's table for the pool fixture, per pool and scope,
# as the per-syllable extract_features wrote it
POOL_TABLE_DIGESTS = {
    ("sentence", "word"):
        "7b1c299b47302c41eeedfb59935152194f9a986532a3228d46425070087d24db",
    ("sentence", "utterance"):
        "362d850b6fff314360b8b2f0a1ea2f28a0d47eb982e8b85c7365f2a355c8f949",
    ("multisyllabic_only", "word"):
        "89ae43de648f791066b3c84b5d2a44dd8ab7ef2bca11bc3b2cdf1993d0d7c8d7",
    ("multisyllabic_only", "utterance"):
        "4609fd3427e45a0a1ca1fe7b457e0205bb060785bed7f09f82baf7f117acf98c",
}

# SHA-256 of label's outputs for the pool fixture, per exclusion scope
POOL_LABEL_DIGESTS = {
    "word": {
        "labels.jsonl":
            "615d743c19d56a62de2f29b271c2de5fbbcc82a3a213770aa0cb0060ce5a5aee",
        "exclusions.jsonl":
            "19756f2cf182f3183a97e74c1cbcb5ff31f2a2f2ae2c2744f360330e471c97b4",
    },
    "utterance": {
        "labels.jsonl":
            "06efe25b6c8e28127da6c6c6b7d41b00805917ef17b9b9a9cfef2d4b44f2d4c1",
        "exclusions.jsonl":
            "00840f33f636e77d25b9940bfb05c24f6cc0c056901c0aaa2aa0a385f7c1f0f4",
    },
}


@pytest.fixture(scope="module")
def pool_runs(tmp_path_factory):
    """The pool fixture's alignment directory, and per (pool, scope) the
    featurize table and its printed summary."""
    root = tmp_path_factory.mktemp("pools")
    alignments = write_pool_fixture(root)
    runs = {}
    for pool, scope in POOL_TABLE_DIGESTS:
        out = root / f"{pool}-{scope}.jsonl"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run("featurize", "--alignments", str(alignments),
                       "--out", str(out), "--normalization-pool", pool,
                       "--exclusion-scope", scope) == 0
        runs[pool, scope] = out, stdout.getvalue()
    return alignments, runs


class TestFeaturizePools:
    """The normalization pool and the exclusions on real WAVs."""

    @pytest.mark.parametrize("pool,scope", sorted(POOL_TABLE_DIGESTS))
    def test_table_digest(self, pool_runs, pool, scope):
        out, _ = pool_runs[1][pool, scope]
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == POOL_TABLE_DIGESTS[pool, scope])

    @pytest.mark.parametrize("scope", sorted(POOL_LABEL_DIGESTS))
    def test_label_digests(self, pool_runs, tmp_path, scope):
        assert run("label", "--alignments", str(pool_runs[0]), "--out",
                   str(tmp_path), "--exclusion-scope", scope) == 0
        for name, want in POOL_LABEL_DIGESTS[scope].items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == want, name

    def test_each_pool_is_normalized_over_its_rows(self, pool_runs):
        alignments, runs = pool_runs
        tables = {
            pool: table_records(read_feature_table(str(runs[pool, "word"][0])))
            for pool in ("sentence", "multisyllabic_only")}
        for utt, words in POOL_UTTERANCES.items():
            al = load_alignment(str(alignments / f"{utt}.json"))
            samples, rate = read_wav(str(alignments / al.audio_path))
            raw = extract_features(
                estimate_pitch(samples, rate), compute_intensity(samples, rate),
                al.spans)
            assert np.isnan(raw).any()  # a silent syllable's pitch
            counts = [n for _, n in words]
            starts = np.cumsum([0] + counts)
            pools = {"sentence": np.ones(len(raw), dtype=bool),
                     "multisyllabic_only": np.repeat(np.array(counts) >= 2, counts)}
            for pool, table in tables.items():
                want = np.zeros(raw.shape)
                want[pools[pool]] = normalize_sentence(raw[pools[pool]])
                records = [r for r in table if r.utterance_id == utt]
                assert [r.word for r in records] == [
                    words[wi][0] for wi in POOL_KEPT[utt]]
                for rec, wi in zip(records, POOL_KEPT[utt]):
                    assert rec.features.tobytes() == want[
                        starts[wi]:starts[wi + 1]].tobytes()
        # the monosyllabic words move every pooled mean
        for a, b in zip(*tables.values()):
            assert a.word == b.word
            assert not np.array_equal(a.features, b.features)

    @pytest.mark.parametrize("scope,instances,reasons", [
        ("word", 4, {corpus.MONOSYLLABIC: 2, corpus.NOT_IN_LEXICON: 1,
                     corpus.COUNT_MISMATCH: 1}),
        ("utterance", 2, {corpus.MONOSYLLABIC: 2, corpus.NOT_IN_LEXICON: 1,
                          corpus.COUNT_MISMATCH: 1,
                          corpus.UTTERANCE_EXCLUDED: 2}),
    ])
    def test_exclusion_counts(self, pool_runs, tmp_path, scope, instances,
                              reasons):
        alignments, runs = pool_runs
        n_excluded = sum(reasons.values())
        for pool in ("sentence", "multisyllabic_only"):
            out, summary = runs[pool, scope]
            assert len(read_feature_table(str(out))) == instances
            assert f"{instances} word instances ({n_excluded} exclusions)" in summary
        assert run("label", "--alignments", str(alignments), "--out",
                   str(tmp_path), "--exclusion-scope", scope) == 0
        lines = (tmp_path / "exclusions.jsonl").read_text().splitlines()
        got = collections.Counter(json.loads(line)["reason"] for line in lines)
        assert got == reasons

    def test_alignment_without_words(self, tmp_path, capsys):
        alignments = write_pool_fixture(tmp_path)
        for f in alignments.glob("*.json"):
            doc = json.loads(f.read_text())
            f.write_text(json.dumps({**doc, "words": []}))
        out = tmp_path / "features.jsonl"
        assert run("featurize", "--alignments", str(alignments),
                   "--out", str(out)) == 0
        assert out.read_bytes() == b""
        assert "0 word instances (0 exclusions)" in capsys.readouterr().out


@pytest.fixture(scope="module")
def baseline_ckpts(pipeline):
    """The pipeline's rf checkpoint plus an or one on the 6 syllable features."""
    root, out, _, rf = pipeline
    ordinal = str(root / "or.ckpt")
    assert run("train", "--model", "or", "--train",
               str(out / "splits" / "train.jsonl"), "--out", ordinal,
               "--feature-mode", "syllable_numerical", "--seed", "5") == 0
    return {"rf": rf, "or": ordinal}


class TestBaselineCheckpoints:
    """eval/predict on or and rf checkpoints score every syllable of a file
    in one call and give what scoring word by word gives."""

    def test_forest_predict_matches_per_word_bytes(self, pipeline,
                                                   baseline_ckpts):
        root, out, _, _ = pipeline
        table = str(out / "splits" / "test.jsonl")
        preds = root / "rf_preds.jsonl"
        assert run("predict", "--model", baseline_ckpts["rf"], "--input",
                   table, "--out", str(preds)) == 0
        assert preds.read_text() == per_word_reference(baseline_ckpts["rf"], table)

    def test_ordinal_predict_matches_per_word_scores(self, pipeline,
                                                     baseline_ckpts):
        root, out, _, _ = pipeline
        table = str(out / "splits" / "test.jsonl")
        preds = root / "or_preds.jsonl"
        assert run("predict", "--model", baseline_ckpts["or"], "--input",
                   table, "--out", str(preds)) == 0
        got = [json.loads(l) for l in preds.read_text().splitlines()]
        want = [json.loads(l) for l in
                per_word_reference(baseline_ckpts["or"], table).splitlines()]
        assert len(got) == len(want) == len(read_feature_table(table))
        for g, w in zip(got, want):
            assert (g["utterance_id"], g["word"]) == (w["utterance_id"], w["word"])
            assert len(g["syllables"]) == len(w["syllables"])
            for gs, ws in zip(g["syllables"], w["syllables"]):
                assert gs["stress_pred"] == ws["stress_pred"]
                assert np.abs(np.subtract(gs["probs"], ws["probs"])).max() < 1e-12

    @pytest.mark.parametrize("kind", ["rf", "or"])
    def test_empty_input(self, tmp_path, capsys, baseline_ckpts, kind):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        preds = tmp_path / "preds.jsonl"
        assert run("predict", "--model", baseline_ckpts[kind], "--input",
                   str(empty), "--out", str(preds)) == 0
        assert preds.read_text() == ""
        assert run("eval", "--model", baseline_ckpts[kind], "--data",
                   str(empty), "--out", str(tmp_path / "report")) == 4
        assert "AlignmentError" in capsys.readouterr().err


class TestPathErrors:
    """A path that is a directory where a file is needed, or that runs
    through a file where a directory is needed, is exit 4 with a one-line
    error, not a traceback."""

    @staticmethod
    def assert_exit_4(capsys, *argv):
        capsys.readouterr()
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.fixture
    def a_file(self, tmp_path):
        path = tmp_path / "a_file"
        path.write_text("")
        return path

    def test_split_features_is_a_directory(self, tmp_path, capsys):
        self.assert_exit_4(capsys, "split", "--features", str(tmp_path),
                           "--out", str(tmp_path / "splits"))

    def test_split_out_is_a_file(self, pipeline, a_file, capsys):
        _, out, _, _ = pipeline
        self.assert_exit_4(capsys, "split", "--features",
                           str(out / "features.jsonl"), "--out", str(a_file))

    def test_synth_out_is_a_file(self, a_file, capsys):
        self.assert_exit_4(capsys, "synth", "--n", "2", "--out", str(a_file))

    def test_predict_out_is_a_directory(self, pipeline, tmp_path, capsys):
        _, out, _, rf = pipeline
        self.assert_exit_4(capsys, "predict", "--model", rf, "--input",
                           str(out / "splits" / "test.jsonl"),
                           "--out", str(tmp_path))

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "or", "--train", "{m}", "--out", "{d}"],
        ["train", "--model", "attn-medium", "--train", "{m}",
         "--out", "{m}.ckpt", "--history", "{d}"],
        ["featurize", "--alignments", "{m}", "--out", "{d}"],
        ["predict", "--model", "{m}", "--input", "{m}", "--out", "{d}"],
        ["pca", "--model", "{m}", "--out", "{d}"],
        ["predict", "--model", "{m}", "--input", "{m}", "--out", "{m}/"],
    ], ids=["train-out", "train-history", "featurize", "predict", "pca",
            "predict-new-directory"])
    def test_file_output_is_a_directory(self, tmp_path, capsys, argv):
        # refused before any input is read: the missing one goes unnamed
        argv = [a.format(d=tmp_path, m=tmp_path / "missing") for a in argv]
        capsys.readouterr()
        assert run(*argv) == 4
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
            f"{argv[-1]!r}\n")

    def test_history_directory_keeps_the_last_run(self, tiny_corpus, tmp_path):
        # the checkpoint and its manifest stay those of the last good run
        ckpt = tmp_path / "a.ckpt"
        argv = ["train", "--model", "attn-medium", "--epochs", "1", "--train",
                str(tiny_corpus / "corpus" / "features.jsonl"), "--out", str(ckpt)]
        assert run(*argv, "--seed", "1") == 0
        files = [ckpt, Path(f"{ckpt}.manifest.json")]
        before = [f.read_bytes() for f in files]
        (tmp_path / "h").mkdir()
        code, err = run_quietly(*argv, "--seed", "2", "--history",
                                str(tmp_path / "h"))
        assert code == 4 and "Is a directory" in err
        assert [f.read_bytes() for f in files] == before


ENOSPC = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


class _FullDisk:
    """An open file whose every write fails as on a full disk, with an
    OSError that names no file."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    writelines = write


@pytest.fixture(scope="module")
def tiny_or(tiny_corpus):
    """An ordinal checkpoint trained on the tiny corpus."""
    path = tiny_corpus / "tiny_or.ckpt"
    assert run("train", "--model", "or", "--feature-mode", "syllable_numerical",
               "--train", str(tiny_corpus / "corpus" / "features.jsonl"),
               "--out", str(path)) == 0
    return path


class TestFailedWrites:
    """A write that fails for want of space, whichever output it is
    writing, is exit 4 with that output's path named."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["predict", "pca"])
    def test_out_on_a_full_device(self, pipeline, command, capsys):
        # both write exactly --out, and no manifest beside it
        _, out, attn, rf = pipeline
        argv = (["predict", "--model", rf, "--input",
                 str(out / "splits" / "test.jsonl")] if command == "predict"
                else ["pca", "--model", attn])
        capsys.readouterr()
        assert run(*argv, "--out", "/dev/full") == 4
        assert capsys.readouterr().err == f"{ENOSPC}: '/dev/full'\n"

    @pytest.mark.parametrize("argv,output", [
        (["synth", "--n", "2", "--out", "{t}/s"], "s/features.jsonl"),
        (["synth", "--n", "2", "--out", "{t}/s"], "s/manifest.json"),
        (["split", "--features", "{r}/corpus/features.jsonl", "--out", "{t}/s"],
         "s/test.jsonl"),
        (["split", "--features", "{r}/corpus/features.jsonl", "--out", "{t}/s"],
         "s/manifest.json"),
        (["label", "--alignments", "{r}/corpus/alignments", "--out", "{t}/l"],
         "l/labels.jsonl"),
        (["label", "--alignments", "{r}/corpus/alignments", "--out", "{t}/l"],
         "l/exclusions.jsonl"),
        (["featurize", "--alignments", "{a}", "--out", "{t}/f.jsonl"],
         "f.jsonl"),
        (["featurize", "--alignments", "{a}", "--out", "{t}/f.jsonl"],
         "f.jsonl.manifest.json"),
        (["train", "--model", "or", "--feature-mode", "syllable_numerical",
          "--train", "{r}/corpus/features.jsonl", "--out", "{t}/or.ckpt"],
         "or.ckpt"),
        (["train", "--model", "or", "--feature-mode", "syllable_numerical",
          "--train", "{r}/corpus/features.jsonl", "--out", "{t}/or.ckpt"],
         "or.ckpt.manifest.json"),
        (["train", "--model", "attn-medium", "--epochs", "1", "--train",
          "{r}/corpus/features.jsonl", "--out", "{t}/m.ckpt",
          "--history", "{t}/h.json"], "h.json"),
        (["eval", "--model", "{or}", "--data", "{r}/corpus/features.jsonl",
          "--out", "{t}/r"], "r.json"),
        (["eval", "--model", "{or}", "--data", "{r}/corpus/features.jsonl",
          "--out", "{t}/r"], "r.txt"),
        (["eval", "--model", "{or}", "--data", "{r}/corpus/features.jsonl",
          "--out", "{t}/r"], "r.manifest.json"),
    ])
    def test_failing_write(self, tiny_corpus, tiny_or, pool_runs, tmp_path,
                           monkeypatch, capsys, argv, output):
        target = str(tmp_path / output)
        real_open = open

        def open_full_at_target(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _FullDisk(fh) if "w" in mode and str(file) == target else fh

        monkeypatch.setattr("builtins.open", open_full_at_target)
        capsys.readouterr()
        paths = {"r": tiny_corpus, "t": tmp_path, "or": tiny_or,
                 "a": pool_runs[0]}
        code = run(*[a.format(**paths) for a in argv])
        assert code == 4
        assert capsys.readouterr().err == f"{ENOSPC}: {target!r}\n"

    @pytest.mark.parametrize("argv", [
        ["lexicon", "lookup", "overcome"],
        ["lexicon", "lookup", "zzzznotaword"],
        ["synth", "--n", "2", "--out", "{t}/s"],
        ["split", "--features", "{r}/corpus/features.jsonl", "--out", "{t}/s"],
        ["label", "--alignments", "{r}/corpus/alignments", "--out", "{t}/l"],
        ["featurize", "--alignments", "{a}", "--out", "{t}/f.jsonl"],
        ["train", "--model", "or", "--feature-mode", "syllable_numerical",
         "--train", "{r}/corpus/features.jsonl", "--out", "{t}/or.ckpt"],
        ["train", "--model", "attn-medium", "--epochs", "1", "--train",
         "{r}/corpus/features.jsonl", "--out", "{t}/m.ckpt"],
        ["predict", "--model", "{or}", "--input", "{r}/corpus/features.jsonl",
         "--out", "{t}/p.jsonl"],
        ["eval", "--model", "{or}", "--data", "{r}/corpus/features.jsonl",
         "--out", "{t}/r"],
        ["pca", "--model", "{m}", "--out", "{t}/pca.json"],
    ], ids=["lexicon", "lexicon-missing", "synth", "split", "label",
            "featurize", "train-or", "train-attn", "predict", "eval", "pca"])
    def test_failing_stdout(self, tiny_corpus, tiny_or, pool_runs, pipeline,
                            tmp_path, monkeypatch, capsys, argv):
        paths = {"r": tiny_corpus, "t": tmp_path, "or": tiny_or,
                 "a": pool_runs[0], "m": pipeline[2]}
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", _FullDisk(None))
        code = run(*[a.format(**paths) for a in argv])
        assert code == 4
        assert capsys.readouterr().err == f"{ENOSPC}: '<stdout>'\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv,unbuffered", [
        (["synth", "--n", "2", "--out", "{t}/s"], False),
        (["synth", "--n", "2", "--out", "{t}/s"], True),
        (["--help"], False),
        (["--help"], True),
        (["split", "--help"], True),
    ], ids=["synth", "synth-unbuffered", "help", "help-unbuffered",
            "split-help-unbuffered"])
    def test_console_stdout_on_a_full_device(self, tmp_path, argv, unbuffered):
        # main() as the console script runs it: a buffered stdout keeps the
        # line it could not write, and the flush at exit must not fail on it
        # again
        src = str(Path(stressnet.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-c", "from stressnet.cli import main; main()",
                 *[a.format(t=tmp_path) for a in argv]],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                timeout=300)
        assert (done.returncode, done.stderr) == (4, f"{ENOSPC}: '<stdout>'\n")


class TestOutputsInMissingDirectories:
    """An output path whose directory does not exist yet gets it made,
    before the work is done."""

    def test_train_out(self, tiny_corpus, tmp_path):
        out = tmp_path / "new" / "dir" / "or.ckpt"
        assert run("train", "--model", "or", "--feature-mode",
                   "syllable_numerical", "--train",
                   str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(out)) == 0
        assert out.is_file() and Path(f"{out}.manifest.json").is_file()

    def test_train_history(self, tiny_corpus, tmp_path):
        history = tmp_path / "new" / "history.json"
        assert run("train", "--model", "attn-medium", "--epochs", "1",
                   "--train", str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(tmp_path / "m.ckpt"),
                   "--history", str(history)) == 0
        assert len(json.loads(history.read_text())) == 1

    def test_predict_out(self, pipeline, tmp_path):
        _, out, _, rf = pipeline
        preds = tmp_path / "new" / "preds.jsonl"
        assert run("predict", "--model", rf, "--input",
                   str(out / "splits" / "test.jsonl"), "--out", str(preds)) == 0
        assert preds.read_text()

    def test_pca_out(self, pipeline, tmp_path):
        _, _, attn, _ = pipeline
        pca = tmp_path / "new" / "pca.json"
        assert run("pca", "--model", attn, "--out", str(pca)) == 0
        assert len(json.loads(pca.read_text())["points"]) == 16


class TestMalformedFeatureTables:
    """Every malformed feature-table line is a FormatError, exit 4, with no
    traceback; read_feature_table names the file and line."""

    @pytest.mark.parametrize("kind", ["rf", "or"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
    def test_predict_exits_4(self, pipeline, baseline_ckpts, tmp_path,
                             capsys, case, kind):
        _, out, _, _ = pipeline
        good = (out / "splits" / "test.jsonl").read_text().splitlines()[0]
        bad = MALFORMED_LINES[case]
        if callable(bad):
            doc = json.loads(good)
            bad(doc)
            bad = json.dumps(doc)
        table = tmp_path / "bad.jsonl"
        table.write_text(good + "\n" + bad + "\n")
        capsys.readouterr()
        code = run("predict", "--model", baseline_ckpts[kind], "--input",
                   str(table), "--out", str(tmp_path / "preds.jsonl"))
        err = capsys.readouterr().err
        assert code == 4
        assert "FormatError" in err and "Traceback" not in err
        assert f"{table}:2" in err

    # a feature beyond the float range in the first syllable, then a
    # stress of 5 in the second: the line's first fault is named
    @pytest.mark.parametrize("argv", [
        ["split", "--features", "{t}", "--out", "{o}"],
        ["train", "--model", "rf", "--feature-mode", "syllable_numerical",
         "--train", "{t}", "--out", "{o}"],
    ], ids=["split", "train-rf"])
    def test_first_of_two_faults(self, pipeline, tmp_path, capsys, argv):
        _, out, _, _ = pipeline
        good = (out / "splits" / "test.jsonl").read_text().splitlines()[0]
        zeros = ", ".join(["0.0"] * 11)
        bad = ('{"syllables": ['
               f'{{"features": [1e400, {zeros}], "nucleus": "ah", "position": 0, '
               '"stress": 0}, '
               f'{{"features": [0.0, {zeros}], "nucleus": "ah", "position": 1, '
               '"stress": 5}], "utterance_id": "u", "word": "w"}')
        table = tmp_path / "bad.jsonl"
        table.write_text(good + "\n" + bad + "\n")
        capsys.readouterr()
        code = run(*[a.format(t=table, o=tmp_path / "out") for a in argv])
        assert (code, capsys.readouterr().err) == (
            4, f"error (FormatError): {table}:2: 'features' must be 12 finite "
               "numbers\n")


class TestUnlabeledSyllables:
    """A syllable whose stress is null can be predicted, but a model cannot
    train on it or be scored against it."""

    @pytest.fixture
    def table(self, pipeline, tmp_path):
        """The test table with every stress of its fourth word nulled."""
        _, out, _, _ = pipeline
        lines = (out / "splits" / "test.jsonl").read_text().splitlines()
        doc = json.loads(lines[3])
        for syl in doc["syllables"]:
            syl["stress"] = None
        lines[3] = json.dumps(doc)
        path = tmp_path / "nulled.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path, doc["word"]

    @pytest.mark.parametrize("command", [
        ["eval", "--model", "{attn}", "--data", "{table}", "--out", "{tmp}/r"],
        ["eval", "--model", "{rf}", "--data", "{table}", "--out", "{tmp}/r"],
        ["train", "--model", "rf", "--feature-mode", "syllable_numerical",
         "--n-trees", "2", "--train", "{table}", "--out", "{tmp}/m.ckpt"],
        ["train", "--model", "or", "--feature-mode", "syllable_numerical",
         "--train", "{table}", "--out", "{tmp}/m.ckpt"],
        ["train", "--model", "attn-medium", "--epochs", "1",
         "--train", "{table}", "--out", "{tmp}/m.ckpt"],
    ], ids=["eval-attn", "eval-rf", "train-rf", "train-or", "train-attn"])
    def test_gold_label_required(self, pipeline, table, tmp_path, capsys,
                                 command):
        _, _, attn, rf = pipeline
        path, word = table
        argv = [a.format(attn=attn, rf=rf, table=path, tmp=tmp_path)
                for a in command]
        capsys.readouterr()
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 4
        assert "LabelError" in err and repr(word) in err
        assert "Traceback" not in err

    def test_predict_accepts_null_stress(self, pipeline, table, tmp_path):
        _, _, attn, _ = pipeline
        path, _ = table
        preds = tmp_path / "preds.jsonl"
        assert run("predict", "--model", attn, "--input", str(path),
                   "--out", str(preds)) == 0
        assert len(preds.read_text().splitlines()) == len(
            path.read_text().splitlines())


class TestTrainConfigErrors:
    """Out-of-range training settings are configuration errors, exit 3."""

    @pytest.mark.parametrize("flags", [
        ["--epochs", "-1"], ["--batch-size", "0"], ["--dropout", "1.5"],
        ["--val-fraction", "1.0"], ["--learning-rate", "0"],
        ["--learning-rate", "nan"],
    ])
    def test_out_of_range_flag(self, pipeline, tmp_path, capsys, flags):
        _, out, _, _ = pipeline
        code = run("train", "--model", "attn-medium", "--train",
                   str(out / "splits" / "train.jsonl"),
                   "--out", str(tmp_path / "m.ckpt"), *flags)
        assert code == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        {"d_model": 0, "n_heads": 1, "n_layers": 1},
        {"d_model": 4, "n_heads": 2, "n_layers": 1, "dropout": -0.5},
        {"d_model": 4, "n_heads": 2, "n_layers": 1, "dropout": False},
    ])
    def test_bad_custom_model(self, pipeline, tmp_path, capsys, model):
        _, out, _, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        code = run("--config", str(cfg), "train", "--model", "attn-custom",
                   "--train", str(out / "splits" / "train.jsonl"),
                   "--out", str(tmp_path / "m.ckpt"))
        assert code == 3
        assert "model config" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        {"max_positions": -1}, {"max_positions": 0}, {"max_positions": 18},
        {"max_positions": 10**9}, {"ffn_hidden": -3}],
        ids=["max_positions-negative", "max_positions-zero",
             "max_positions-past-17", "max_positions-huge", "ffn_hidden"])
    def test_model_count_out_of_range(self, pipeline, tmp_path, capsys, model):
        # -1 crashed in a reshape, 10**9 asked for 37 GiB, and a negative
        # ffn_hidden trained as 4 * d_model
        _, out, _, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        code = run("--config", str(cfg), "train", "--model", "attn-medium",
                   "--train", str(out / "splits" / "train.jsonl"),
                   "--out", str(tmp_path / "m.ckpt"), "--epochs", "1")
        err = capsys.readouterr().err
        assert code == 3
        assert next(iter(model)) in err and "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("doc,model", [
        ({"train": {"epochs": 2.5}}, "attn-medium"),
        ({"train": {"batch_size": 2.5}}, "attn-medium"),
        ({"model": {"d_model": 2.5, "n_heads": 1, "n_layers": 1}}, "attn-custom"),
    ], ids=["epochs", "batch_size", "d_model"])
    def test_count_field_not_an_int(self, pipeline, tmp_path, capsys, doc,
                                    model):
        _, out, _, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run("--config", str(cfg), "train", "--model", model,
                   "--train", str(out / "splits" / "train.jsonl"),
                   "--out", str(tmp_path / "m.ckpt"))
        err = capsys.readouterr().err
        assert code == 3
        assert "must be an integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("train", [
        {"learning_rate": True}, {"validation_fraction": False},
        {"validation_fraction": "0.1"},
    ], ids=["learning_rate-true", "validation_fraction-false",
            "validation_fraction-str"])
    def test_bool_or_text_where_a_number_is_meant(self, pipeline, tmp_path,
                                                  capsys, train):
        _, out, _, _ = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": train}))
        code = run("--config", str(cfg), "train", "--model", "attn-medium",
                   "--train", str(out / "splits" / "train.jsonl"),
                   "--out", str(tmp_path / "m.ckpt"), "--epochs", "1")
        err = capsys.readouterr().err
        assert code == 3
        assert next(iter(train)) in err and "Traceback" not in err

    def test_custom_model_trains(self, pipeline, tmp_path):
        from stressnet.checkpoint import load_any
        from stressnet.model import ModelConfig

        _, out, _, _ = pipeline
        model = {"d_model": 4, "n_heads": 2, "n_layers": 1, "ffn_hidden": 8,
                 "dropout": 0.0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        ckpt = tmp_path / "m.ckpt"
        assert run("--config", str(cfg), "train", "--model", "attn-custom",
                   "--train", str(out / "splits" / "train.jsonl"),
                   "--out", str(ckpt), "--epochs", "1") == 0
        (_, config), _, _ = load_any(str(ckpt))
        assert isinstance(config, ModelConfig)
        assert model.items() <= dataclasses.asdict(config).items()


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """A four-utterance synth corpus and a scratch directory for outputs."""
    root = tmp_path_factory.mktemp("tiny")
    assert run("synth", "--n", "4", "--seed", "3", "--out",
               str(root / "corpus")) == 0
    (root / "empty").mkdir()
    return root


# per scalar config key: a subcommand that reads it, and values that work
SCALAR_KEY_RUNS = {
    "seed": (["split", "--features", "{r}/corpus/features.jsonl",
              "--out", "{r}/split"], st.integers(0, 2**70)),
    "dict_path": (["lexicon", "lookup", "overcome"],
                  st.just(bundled_dictionary_path())),
    "feature_mode": (["train", "--model", "or", "--train",
                      "{r}/corpus/features.jsonl", "--out", "{r}/or.ckpt"],
                     st.sampled_from(FEATURE_MODES)),
    "exclusion_scope": (["label", "--alignments", "{r}/corpus/alignments",
                         "--out", "{r}/labels"],
                        st.sampled_from(["word", "utterance"])),
    "normalization_pool": (["featurize", "--alignments", "{r}/empty",
                            "--out", "{r}/features.jsonl"],
                           st.sampled_from(["sentence", "multisyllabic_only"])),
}


class TestConfigScalars:
    """Each scalar run-config key works or is a configuration error, exit 3."""

    @pytest.mark.parametrize("doc,argv", [
        ({"seed": "abc"}, ["synth", "--n", "1", "--out", "{r}/o"]),
        ({"seed": True}, ["split", "--features", "{r}/corpus/features.jsonl",
                          "--out", "{r}/o"]),
        ({"seed": -1}, ["split", "--features", "{r}/corpus/features.jsonl",
                        "--out", "{r}/o"]),
        ({"dict_path": 5}, ["synth", "--n", "1", "--out", "{r}/o"]),
        ({"dict_path": "absent.txt"}, ["lexicon", "lookup", "overcome"]),
        ({"exclusion_scope": "bogus"}, ["label", "--alignments",
                                        "{r}/corpus/alignments", "--out", "{r}/o"]),
        ({"feature_mode": 3}, ["synth", "--n", "1", "--out", "{r}/o"]),
        ({"normalization_pool": ["sentence"]}, ["lexicon", "lookup", "overcome"]),
    ], ids=["seed-str", "seed-bool", "seed-negative", "dict-int", "dict-absent",
            "scope-unknown", "mode-int", "pool-list"])
    def test_ill_typed_or_unknown_value(self, tiny_corpus, tmp_path, capsys,
                                        doc, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run("--config", str(cfg),
                   *[a.format(r=tiny_corpus) for a in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{next(iter(doc))}" in err and "Traceback" not in err

    def test_negative_seed_flag(self, tiny_corpus, capsys):
        code = run("split", "--features", str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--seed", "-1", "--out", str(tiny_corpus / "o"))
        assert code == 3

    @pytest.mark.parametrize("key", sorted(SCALAR_KEY_RUNS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_json_value(self, tiny_corpus, key, data):
        argv, good = SCALAR_KEY_RUNS[key]
        value = data.draw(good | json_values, label=key)
        cfg = tiny_corpus / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run("--config", str(cfg),
                   *[a.format(r=tiny_corpus) for a in argv])
        assert code in (0, 3)


# per gen field, values that work; the rest of the section keeps its defaults
GEN_FIELD_VALUES = {
    "n_words_range": st.tuples(st.integers(1, 4), st.integers(4, 9)).map(list),
    "duration_base_s": st.floats(0.01, 1.0),
    "duration_class_mult": st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
    "pitch_base_hz": st.floats(60.0, 400.0),
    "pitch_class_offset_hz": st.lists(st.floats(-50.0, 50.0), min_size=3,
                                      max_size=3),
    "intensity_base_db": st.floats(-60.0, 0.0),
    "intensity_class_offset_db": st.lists(st.floats(-10.0, 10.0), min_size=3,
                                          max_size=3),
    "noise": st.floats(0.0, 3.0),
    "type_offset_scale": st.floats(0.0, 0.9),
    "nucleus_duration_fraction": st.floats(0.1, 1.0),
    "nucleus_pitch_shift_hz": st.floats(-20.0, 20.0),
    "nucleus_intensity_shift_db": st.floats(-5.0, 5.0),
    "voiced_fraction": st.floats(0.0, 1.0),
    "labeling": st.sampled_from(["dictionary", "relative_duration"]),
    "word_gap_s": st.floats(0.0, 0.5),
}

# gen fields that became corpus constants; GEN_FIELD_VALUES still fuzzes
# them, and each must now be refused as an unknown key
REMOVED_GEN_FIELDS = [
    "n_words_range", "duration_base_s", "duration_class_mult",
    "pitch_base_hz", "pitch_class_offset_hz", "intensity_base_db",
    "intensity_class_offset_db", "type_offset_scale",
    "nucleus_duration_fraction", "nucleus_pitch_shift_hz",
    "nucleus_intensity_shift_db", "voiced_fraction", "word_gap_s",
]

# per train field fuzzed through train --epochs 1, values that work; the
# epoch count and the learning rate are left out: a huge count runs for
# ever, and a huge rate diverges, a training outcome that exits 4
TRAIN_FIELD_VALUES = {
    "use_class_weights": st.sampled_from([True, False, None]),
    "batch_size": st.integers(1, 2**40),
    # no value works: the top-level seed sets it, so the key is refused
    "seed": st.integers(0, 2**40),
}


class TestConfigSections:
    """Each field of the gen and train sections works or is a
    configuration error, exit 3."""

    def test_every_gen_field_is_fuzzed(self):
        assert set(GEN_FIELD_VALUES) == {
            f.name for f in dataclasses.fields(GenConfig)} | set(REMOVED_GEN_FIELDS)

    @pytest.mark.parametrize("field", REMOVED_GEN_FIELDS)
    def test_removed_gen_field_is_unknown(self, tiny_corpus, capsys, field):
        # set to its old default, which synth now reads as a constant
        cfg = tiny_corpus / "cfg.json"
        cfg.write_text(json.dumps({"gen": {field: getattr(corpus, field.upper())}}))
        code = run("--config", str(cfg), "synth", "--n", "1",
                   "--out", str(tiny_corpus / "gen"))
        err = capsys.readouterr().err
        assert code == 3
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("gen", [
        {"noise": "x"}, {"n_words_range": [14, 8]},
        {"n_words_range": ["a", "b"]}, {"voiced_fraction": "x"},
        {"duration_base_s": "x"}, {"pitch_class_offset_hz": [1]},
        {"type_offset_scale": None}, {"noise": -1}, {"labeling": "bogus"},
        {"labeling": 3}, {"noise": float("nan")}, {"voiced_fraction": 2},
        {"word_gap_s": -1},
    ], ids=["noise-str", "words-reversed", "words-str", "voiced-str",
            "duration-str", "pitch-offsets-short", "type-scale-null",
            "noise-negative", "labeling-unknown", "labeling-int", "noise-nan",
            "voiced-above-one", "gap-negative"])
    def test_bad_gen_field(self, tiny_corpus, capsys, gen):
        cfg = tiny_corpus / "cfg.json"
        cfg.write_text(json.dumps({"gen": gen}))
        code = run("--config", str(cfg), "synth", "--n", "1",
                   "--out", str(tiny_corpus / "gen"))
        err = capsys.readouterr().err
        assert code == 3
        assert next(iter(gen)) in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["x", 1, 0, [True]])
    def test_class_weight_switch_must_be_a_bool(self, tiny_corpus, capsys,
                                                value):
        cfg = tiny_corpus / "cfg.json"
        cfg.write_text(json.dumps({"train": {"use_class_weights": value}}))
        code = run("--config", str(cfg), "train", "--model", "attn-medium",
                   "--train", str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(tiny_corpus / "m.ckpt"), "--epochs", "1")
        err = capsys.readouterr().err
        assert code == 3
        assert "use_class_weights" in err and "Traceback" not in err

    @pytest.mark.parametrize("d_model", [5, 6])
    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_divisible_heads_switch_must_be_a_bool(self, tiny_corpus, capsys,
                                                   d_model, value):
        # with d_model 6 the run passed and recorded "no"; with 5, "no"
        # turned the head check on
        cfg = tiny_corpus / "cfg.json"
        cfg.write_text(json.dumps({"model": {
            "d_model": d_model, "n_heads": 3, "n_layers": 1,
            "require_divisible_heads": value}}))
        out = tiny_corpus / "heads.ckpt"
        code = run("--config", str(cfg), "train", "--model", "attn-custom",
                   "--train", str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(out), "--epochs", "1")
        err = capsys.readouterr().err
        assert code == 3
        assert "require_divisible_heads" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field", sorted(GEN_FIELD_VALUES))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_any_gen_field_value(self, tiny_corpus, field, data):
        value = data.draw(GEN_FIELD_VALUES[field] | json_values, label=field)
        cfg = tiny_corpus / "cfg.json"
        cfg.write_text(json.dumps({"gen": {field: value}}))
        out = tiny_corpus / "gen"
        code = run("--config", str(cfg), "synth", "--n", "1", "--out", str(out))
        assert code in (0, 3)
        if code == 0:  # the table reader checks every feature is finite
            assert read_feature_table(str(out / "features.jsonl"))

    @pytest.mark.parametrize("key,doc,model", [
        ("train.seed", {"train": {"seed": 7}}, "attn-medium"),
        ("model.feature_mode",
         {"model": {"d_model": 4, "n_heads": 2, "n_layers": 1,
                    "feature_mode": "syllable_numerical"}}, "attn-custom"),
        # a preset fixes the sizes
        ("model.d_model", {"model": {"d_model": 64, "n_heads": 8,
                                     "n_layers": 2}}, "attn-medium"),
        ("model.n_heads", {"model": {"n_heads": 8, "dropout": 0.5}},
         "attn-large"),
        ("model.n_layers", {"model": {"n_layers": 2}}, "attn-medium"),
    ])
    def test_field_set_at_top_level_is_refused(self, tiny_corpus, capsys, key,
                                               doc, model):
        # either would be overwritten by the top-level key or its default
        cfg = tiny_corpus / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tiny_corpus / "refused.ckpt"
        code = run("--config", str(cfg), "train", "--model", model,
                   "--train", str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(out), "--epochs", "1")
        err = capsys.readouterr().err
        assert code == 3
        assert key in err and "Traceback" not in err
        assert not out.exists()

    def test_model_section_applies_under_a_preset(self, tiny_corpus, tmp_path):
        def train(*flags):
            out = tmp_path / f"{len(list(tmp_path.iterdir()))}.ckpt"
            assert run("train", "--model", "attn-medium", "--train",
                       str(tiny_corpus / "corpus" / "features.jsonl"),
                       "--out", str(out), "--epochs", "1", *flags) == 0
            return out.read_bytes()

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"dropout": 0.3}}))
        by_file = train("--config", str(cfg))
        assert by_file == train("--dropout", "0.3")
        assert by_file != train()
        # the flag wins over the file
        assert train("--config", str(cfg), "--dropout", "0.1") == train()

    @pytest.mark.parametrize("model,flag,value", [
        *[("rf", f, v) for f, v in [
            ("--epochs", "9"), ("--batch-size", "8"), ("--learning-rate", "5"),
            ("--val-fraction", "0.5"), ("--dropout", "0.3"),
            ("--history", "{r}/h.json")]],
        ("or", "--epochs", "9"), ("or", "--n-trees", "3"),
        ("or", "--max-depth", "2"),
        ("attn-medium", "--n-trees", "3"), ("attn-medium", "--max-depth", "2"),
    ])
    def test_flag_the_model_does_not_read(self, tiny_corpus, capsys, model,
                                          flag, value):
        out = tiny_corpus / "unread.ckpt"
        code = run("train", "--model", model, "--feature-mode",
                   "syllable_numerical", "--train",
                   str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(out), flag, value.format(r=tiny_corpus))
        err = capsys.readouterr().err
        assert code == 3
        assert f"{flag} is not read by --model {model}" in err
        assert not out.exists()

    @pytest.mark.parametrize("field", sorted(TRAIN_FIELD_VALUES))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_any_train_field_value(self, tiny_corpus, field, data):
        value = data.draw(TRAIN_FIELD_VALUES[field] | json_values, label=field)
        cfg = tiny_corpus / "cfg.json"
        cfg.write_text(json.dumps({"train": {field: value}}))
        code = run("--config", str(cfg), "train", "--model", "attn-medium",
                   "--train", str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(tiny_corpus / "m.ckpt"), "--epochs", "1")
        assert code in (0, 3)


class TestSettingsExitCodes:
    """Every bad setting, from a flag or the config file, is a
    configuration error, exit 3; a table with nothing to fit is exit 4."""

    @pytest.mark.parametrize("argv", [
        ["split", "--features", "{r}/corpus/features.jsonl",
         "--train-fraction", "2", "--out", "{r}/o"],
        ["split", "--features", "{r}/corpus/features.jsonl",
         "--train-fraction", "nan", "--out", "{r}/o"],
        ["train", "--model", "rf", "--n-trees", "0", "--feature-mode",
         "syllable_numerical", "--train", "{r}/corpus/features.jsonl",
         "--out", "{r}/rf.ckpt"],
        ["train", "--model", "rf", "--n-trees", "100000000000000000000",
         "--feature-mode", "syllable_numerical", "--train",
         "{r}/corpus/features.jsonl", "--out", "{r}/rf.ckpt"],
        ["train", "--model", "rf", "--max-depth", "-3", "--feature-mode",
         "syllable_numerical", "--train", "{r}/corpus/features.jsonl",
         "--out", "{r}/rf.ckpt"],
        ["synth", "--n", "0", "--out", "{r}/o"],
        ["synth", "--n", "-1", "--out", "{r}/o"],
    ], ids=["fraction-2", "fraction-nan", "n-trees-0", "n-trees-1e20",
            "max-depth-negative", "n-0", "n-negative"])
    def test_out_of_range_flag(self, tiny_corpus, capsys, argv):
        code = run(*[a.format(r=tiny_corpus) for a in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert "config error" in err and "Traceback" not in err

    def test_validation_fraction_leaving_no_training_utterance(
            self, tiny_corpus, capsys):
        cfg = tiny_corpus / "cfg.json"
        cfg.write_text(json.dumps({"train": {"validation_fraction": 0.9}}))
        code = run("--config", str(cfg), "train", "--model", "attn-medium",
                   "--train", str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(tiny_corpus / "m.ckpt"))
        err = capsys.readouterr().err
        assert code == 3
        assert "validation_fraction" in err and "no training utterance" in err

    # the default fraction, 0.1, draws none of four utterances
    @pytest.mark.parametrize("flags,said", [
        ([], "train instances (no validation utterance drawn: val acc is "
             "on the training words)"),
        (["--val-fraction", "0"], "no validation utterance drawn"),
        (["--val-fraction", "0.5"], " val instances,"),
    ], ids=["default", "zero", "half"])
    def test_summary_says_whether_validation_was_drawn(
            self, tiny_corpus, capsys, flags, said):
        code = run("train", "--model", "attn-medium", "--epochs", "1", *flags,
                   "--train", str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(tiny_corpus / "m.ckpt"))
        out = capsys.readouterr().out
        assert code == 0
        assert said in out
        assert ("no validation" in out) == (flags != ["--val-fraction", "0.5"])

    @pytest.mark.parametrize("model", ["or", "rf", "attn-medium"])
    def test_empty_table_is_a_data_error(self, tiny_corpus, capsys, model):
        empty = tiny_corpus / "empty.jsonl"
        empty.write_text("")
        code = run("train", "--model", model,
                   "--train", str(empty), "--out", str(tiny_corpus / "m.ckpt"))
        err = capsys.readouterr().err
        assert code == 4
        assert "DegenerateData" in err and "empty training set" in err
        assert "Traceback" not in err

    def test_one_utterance_table_validates_on_its_training_words(
            self, tiny_corpus, capsys):
        table = tiny_corpus / "corpus" / "features.jsonl"
        lines = table.read_text().splitlines()
        first = json.loads(lines[0])["utterance_id"]
        one = tiny_corpus / "one.jsonl"
        one.write_text("".join(line + "\n" for line in lines
                               if json.loads(line)["utterance_id"] == first))
        code = run("train", "--model", "attn-medium", "--epochs", "1",
                   "--train", str(one), "--out", str(tiny_corpus / "m.ckpt"))
        out = capsys.readouterr().out
        assert code == 0
        assert ("train instances (no validation utterance drawn: val acc is "
                "on the training words)") in out

    @pytest.mark.parametrize("section,argv", [
        ("dsp", ["featurize", "--alignments", "{r}/empty",
                 "--out", "{r}/features.jsonl"]),
        ("train", ["train", "--model", "attn-medium", "--train",
                   "{r}/corpus/features.jsonl", "--out", "{r}/m.ckpt"]),
        ("model", ["train", "--model", "attn-custom", "--train",
                   "{r}/corpus/features.jsonl", "--out", "{r}/m.ckpt"]),
    ])
    def test_unknown_section_key(self, tiny_corpus, capsys, section, argv):
        cfg = tiny_corpus / "cfg.json"
        doc = {"d_model": 4, "n_heads": 2, "n_layers": 1} if section == "model" else {}
        cfg.write_text(json.dumps({section: {**doc, "surprise_key": 1}}))
        code = run("--config", str(cfg),
                   *[a.format(r=tiny_corpus) for a in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert "surprise_key" in err and f"{section} config" in err

    def test_divergence_in_the_validation_pass(self, tiny_corpus, capsys):
        # one minibatch: the first step overflows the weights, so the
        # epoch's validation forward pass is the first to see non-finite
        # logits
        code = run("train", "--model", "attn-medium", "--learning-rate",
                   "1e300", "--epochs", "1", "--train",
                   str(tiny_corpus / "corpus" / "features.jsonl"),
                   "--out", str(tiny_corpus / "m.ckpt"))
        err = capsys.readouterr().err
        assert code == 4
        assert "DivergedAtEpoch" in err and "epoch 0" in err


# per command, a run that writes its manifest into {d}; {r} is the tiny
# corpus and {pool} the pool fixture's alignments
MANIFEST_BASE = {
    "synth": ["synth", "--n", "2", "--seed", "3", "--out", "{d}"],
    "split": ["split", "--features", "{r}/corpus/features.jsonl", "--out", "{d}"],
    "label": ["label", "--alignments", "{r}/corpus/alignments", "--out", "{d}"],
    "featurize": ["featurize", "--alignments", "{pool}", "--out",
                  "{d}/features.jsonl"],
    "attn": ["train", "--model", "attn-medium", "--train",
             "{r}/corpus/features.jsonl", "--out", "{d}/m.ckpt", "--epochs", "1"],
    "rf": ["train", "--model", "rf", "--feature-mode", "syllable_numerical",
           "--n-trees", "2", "--train", "{r}/corpus/features.jsonl",
           "--out", "{d}/m.ckpt"],
}
# per command, changes of one setting each: flags added to its base run,
# or a run-config document
MANIFEST_VARIANTS = {
    "synth": [["--noise", "0.5"], ["--seed", "4"],
              {"gen": {"labeling": "relative_duration"}}],
    "split": [["--train-fraction", "0.5"], ["--seed", "2"], {"seed": 2}],
    "label": [["--exclusion-scope", "utterance"],
              {"exclusion_scope": "utterance"}],
    "featurize": [["--normalization-pool", "multisyllabic_only"],
                  ["--exclusion-scope", "utterance"],
                  {"dsp": {"voicing_threshold": 0.5}}],
    "attn": [["--epochs", "2"], ["--batch-size", "8"],
             ["--learning-rate", "0.01"], ["--val-fraction", "0.3"],
             ["--dropout", "0"], ["--seed", "1"],
             ["--feature-mode", "syllable_numerical"],
             ["--history", "{d}/history.json"],
             {"train": {"use_class_weights": False}},
             {"model": {"ffn_hidden": 8}}, {"feature_mode": "syllable_numerical"}],
    "rf": [["--n-trees", "3"], ["--max-depth", "2"], ["--seed", "1"]],
}

# per top-level key: the command of the property test that reads it, its
# flag, the values it may take and its default (dict_path's is resolved at
# run time); "copy" stands for a copy of the bundled dictionary
TOP_LEVEL_KEYS = {
    "seed": ("train", "--seed", st.integers(0, 2**31), 0),
    "feature_mode": ("train", "--feature-mode", st.sampled_from(FEATURE_MODES),
                     "all_features"),
    "dict_path": ("featurize", "--dict",
                  st.sampled_from([bundled_dictionary_path(), "copy"]), None),
    "exclusion_scope": ("featurize", "--exclusion-scope",
                        st.sampled_from(["word", "utterance"]), "word"),
    "normalization_pool": ("featurize", "--normalization-pool",
                           st.sampled_from(["sentence", "multisyllabic_only"]),
                           "sentence"),
}


@st.composite
def edge_tables(draw):
    """A valid feature table of 0 to 3 utterances of 0 to 4 words, each of
    1 to 17 syllables with any tags, whose stresses are of one class or
    several, and maybe null."""
    classes = sorted(draw(st.sets(st.sampled_from([0, 1, 2]), min_size=1),
                          label="classes"))
    if draw(st.booleans(), label="nulls"):
        classes.append(None)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    records = []
    for u in range(draw(st.integers(0, 3), label="utterances")):
        for w in range(draw(st.integers(0, 4), label="words")):
            n = draw(st.integers(1, MAX_SYLLABLES), label="syllables")
            records.append(Record(
                f"u{u}", f"w{w}", rng.normal(size=(n, 12)),
                draw(st.lists(st.sampled_from(NUCLEUS_TAGS), min_size=n, max_size=n)),
                draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))))
    return records


# per model kind, the train flags that keep a fuzz run quick
EDGE_RUNS = {"rf": ["--n-trees", "1", "--feature-mode", "syllable_numerical"],
             "or": ["--feature-mode", "syllable_nucleus_numerical"],
             "attn-medium": ["--epochs", "1"]}
ONE_UTTERANCE = [
    Record("u0", "w0", np.zeros((2, 12)), ["iy", "ah"], [1, 0]),
    Record("u0", "w1", np.ones((3, 12)), ["ah", "iy", "er"], [0, 1, 2])]


def run_quietly(*argv) -> tuple[int, str]:
    """The exit code and what went to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue()


class TestEdgeTables:
    """train, eval and predict on any valid table, however small or
    one-sided, either work or stop with a config or data error."""

    @given(records=edge_tables(), model=st.sampled_from(sorted(EDGE_RUNS)))
    @example(records=[], model="or")
    @example(records=[], model="rf")
    @example(records=[], model="attn-medium")
    @example(records=ONE_UTTERANCE, model="attn-medium")
    @settings(max_examples=25, deadline=None)
    def test_train_eval_predict(self, records, model):
        with tempfile.TemporaryDirectory() as tmp:
            table, ckpt = os.path.join(tmp, "t.jsonl"), os.path.join(tmp, "m.ckpt")
            write_feature_table(pack_records(records), table)
            code, err = run_quietly("train", "--model", model, *EDGE_RUNS[model],
                                    "--train", table, "--out", ckpt)
            assert code in (0, 3, 4) and "Traceback" not in err, err
            if not records:
                assert code == 4, err
            elif model == "attn-medium" and None not in {
                    s for r in records for s in r.stresses}:
                # any labeled table trains, one utterance or several
                assert code == 0, err
            if code != 0:
                return
            code, err = run_quietly("eval", "--model", ckpt, "--data", table,
                                    "--out", os.path.join(tmp, "report"))
            assert code in (0, 3, 4) and "Traceback" not in err, err
            if code == 0:
                with open(os.path.join(tmp, "report.json")) as fh:
                    assert json.load(fh)["n_syllables"] == sum(
                        len(r.stresses) for r in records)
            preds = os.path.join(tmp, "preds.jsonl")
            code, err = run_quietly("predict", "--model", ckpt, "--input", table,
                                    "--out", preds)
            assert code in (0, 3, 4) and "Traceback" not in err, err
            if code == 0:
                with open(preds) as fh:
                    assert len(fh.readlines()) == len(records)


@pytest.fixture(scope="module")
def fuzz_ckpts(tiny_corpus):
    """One checkpoint of each kind, trained on the tiny corpus."""
    table = str(tiny_corpus / "corpus" / "features.jsonl")
    ckpts = {}
    for model in ("or", "rf", "attn-medium"):
        ckpts[model] = str(tiny_corpus / f"fuzz-{model}.ckpt")
        assert run("train", "--model", model, *EDGE_RUNS[model], "--train",
                   table, "--out", ckpts[model]) == 0
    return ckpts


CHECKPOINT_FORMATS = [checkpoint.FORMAT_ATTENTION, checkpoint.FORMAT_ORDINAL,
                      checkpoint.FORMAT_FOREST]
EXTREME_FLOATS = [1e300, -1e300, float("nan"), float("inf"), float("-inf")]
# one change to a checkpoint: its format tag moved on by 1 or 2 in
# CHECKPOINT_FORMATS, to another kind's; meta key i (mod their count)
# set to any JSON value; value j of <f8 array i (each mod its count) set
# to an extreme; or the array bytes cut or extended by n
CHECKPOINT_MUTATIONS = (
    st.tuples(st.just("format"), st.integers(1, 2))
    | st.tuples(st.just("meta"), st.integers(0, 99), json_values)
    | st.tuples(st.just("float"), st.integers(0, 99), st.integers(0, 999),
                st.sampled_from(EXTREME_FLOATS))
    | st.tuples(st.just("length"), st.integers(-16, 16).filter(bool)))


# per case: a checkpoint kind, a meta mutation that records another type,
# slot or feature-mode order than the checkpoint's own (meta keys count
# in sorted order: or has feature_mode, feature_slots, nucleus_tags;
# attn-medium adds has_class_weights and model_config, and its
# model_config trains all_features), and the key its refusal names
ORDER_MISMATCHES = {
    "or_tags_reversed": ("or", ("meta", 2, list(NUCLEUS_TAGS)[::-1]),
                         "nucleus_tags"),
    "or_slots_null": ("or", ("meta", 1, None), "feature_slots"),
    "attn_tags_number": ("attn-medium", ("meta", 4, 7), "nucleus_tags"),
    "attn_slots_rotated": ("attn-medium", ("meta", 1, list(
        FEATURE_SLOTS[6:] + FEATURE_SLOTS[:6])), "feature_slots"),
    "attn_mode_not_the_configs": ("attn-medium",
                                  ("meta", 0, "syllable_numerical"),
                                  "feature_mode"),
}


def mutate_checkpoint(blob: bytes, mutation) -> bytes:
    header_line, arrays = blob.split(b"\n", 1)
    header = json.loads(header_line)
    kind, *args = mutation
    if kind == "format":
        at = CHECKPOINT_FORMATS.index(header["format"]) + args[0]
        header["format"] = CHECKPOINT_FORMATS[at % len(CHECKPOINT_FORMATS)]
    elif kind == "meta":
        keys = sorted(header["meta"])
        header["meta"][keys[args[0] % len(keys)]] = args[1]
    elif kind == "float":
        # each array's values follow the arrays before it; both dtypes
        # take 8 bytes a value
        sizes = [math.prod(e["shape"]) for e in header["arrays"]]
        starts = np.cumsum([0] + sizes).tolist()
        floats = [(start, size) for e, start, size
                  in zip(header["arrays"], starts, sizes)
                  if e["dtype"] == "<f8" and size]
        start, size = floats[args[0] % len(floats)]
        at = 8 * (start + args[1] % size)
        arrays = arrays[:at] + struct.pack("<d", args[2]) + arrays[at + 8:]
    else:
        arrays = arrays[:args[0]] if args[0] < 0 else arrays + bytes(args[0])
    return json.dumps(header, sort_keys=True).encode() + b"\n" + arrays


class TestCheckpointFuzz:
    """eval, predict and pca of a checkpoint one mutation away from a
    trained one work, or exit 3 or 4, with no traceback and no warning."""

    # an attention checkpoint's <f8 arrays in name order: C, E_pos, E_type...
    # C of 1e300 overflowed in forward with warnings, and eval exited 0
    @example(kind="attn-medium", mutation=("float", 0, 0, 1e300),
             command="eval")
    # an E_type row of 1e300 overflowed the covariance with a warning;
    # a NaN made eigh raise LinAlgError, a traceback
    @example(kind="attn-medium", mutation=("float", 2, 0, 1e300),
             command="pca")
    @example(kind="attn-medium", mutation=("float", 2, 7, float("nan")),
             command="pca")
    # another type, slot or feature-mode order: each scored, exit 0
    @example(kind="or", mutation=ORDER_MISMATCHES["or_tags_reversed"][1],
             command="eval")
    @example(kind="or", mutation=ORDER_MISMATCHES["or_slots_null"][1],
             command="predict")
    @example(kind="attn-medium",
             mutation=ORDER_MISMATCHES["attn_tags_number"][1], command="eval")
    @example(kind="attn-medium",
             mutation=ORDER_MISMATCHES["attn_slots_rotated"][1],
             command="predict")
    @example(kind="attn-medium",
             mutation=ORDER_MISMATCHES["attn_mode_not_the_configs"][1],
             command="eval")
    @given(kind=st.sampled_from(["or", "rf", "attn-medium"]),
           mutation=CHECKPOINT_MUTATIONS,
           command=st.sampled_from(["eval", "predict", "pca"]))
    @settings(max_examples=50, deadline=None)
    def test_mutated_checkpoint(self, tiny_corpus, fuzz_ckpts, kind, mutation,
                                command):
        table = str(tiny_corpus / "corpus" / "features.jsonl")
        with tempfile.TemporaryDirectory() as tmp:
            ckpt, out = os.path.join(tmp, "m.ckpt"), os.path.join(tmp, "out")
            Path(ckpt).write_bytes(
                mutate_checkpoint(Path(fuzz_ckpts[kind]).read_bytes(), mutation))
            table_flags = {"eval": ["--data", table],
                           "predict": ["--input", table], "pca": []}[command]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, err = run_quietly(command, "--model", ckpt,
                                        *table_flags, "--out", out)
            assert code in (0, 3, 4) and "Traceback" not in err, err
            assert not caught, [str(w.message) for w in caught]
            records = read_feature_table(table)
            if code == 0 and command == "predict":
                assert len(Path(out).read_text().splitlines()) == len(records)
            if code == 0 and command == "eval":
                report = json.loads(Path(out + ".json").read_text())
                assert report["n_syllables"] == len(records.labels)


    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("case", sorted(ORDER_MISMATCHES))
    def test_other_order_is_refused(self, tiny_corpus, fuzz_ckpts, tmp_path,
                                    case, command):
        """A checkpoint's type order, slot order and feature mode must be
        the ones this program scores with: a data error naming the key."""
        kind, mutation, key = ORDER_MISMATCHES[case]
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(
            mutate_checkpoint(Path(fuzz_ckpts[kind]).read_bytes(), mutation))
        table = str(tiny_corpus / "corpus" / "features.jsonl")
        flag = {"eval": "--data", "predict": "--input"}[command]
        code, err = run_quietly(command, "--model", str(ckpt), flag, table,
                                "--out", str(tmp_path / "out"))
        assert code == 4 and "CheckpointError" in err and key in err, err


@pytest.fixture(scope="module")
def fuzz_alignment(tmp_path_factory):
    """A valid two-word alignment document whose audio_path names a 0.5 s
    WAV, the WAV written once."""
    from scipy.io import wavfile
    root = tmp_path_factory.mktemp("alignment-fuzz")
    sr = 16000
    t = np.arange(sr // 2) / sr
    wav = root / "utt.wav"
    wavfile.write(str(wav), sr, (0.5 * np.sin(2 * np.pi * 180.0 * t)
                                 * 32767).astype(np.int16))
    spans = {"maybe": [(0.02, 0.12), (0.12, 0.22)],
             "overcome": [(0.25, 0.32), (0.32, 0.40), (0.40, 0.48)]}
    return {"schema": 1, "utterance_id": "utt", "audio_path": str(wav),
            "words": [{"text": text, "syllables": [
                {"start_s": a, "end_s": b, "nucleus": {
                    "start_s": a + 0.01, "end_s": b - 0.01, "tag": None}}
                for a, b in pairs]} for text, pairs in spans.items()]}


def json_paths(doc, at=()):
    """The path of every value inside a JSON document, depth first, a
    container's path before those of its items."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield at + (key,)
        yield from json_paths(value, at + (key,))


# one change to an alignment document: the key at path i (mod the number
# of keys) dropped; the value at path i set to any JSON value; a NUL
# byte put at place j of string value i; or the file's bytes cut to n
ALIGNMENT_MUTATIONS = (
    st.tuples(st.just("drop"), st.integers(0, 99))
    | st.tuples(st.just("set"), st.integers(0, 99), json_values)
    | st.tuples(st.just("nul"), st.integers(0, 99), st.integers(0, 9))
    | st.tuples(st.just("cut"), st.integers(0, 999)))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate_alignment(doc, mutation) -> bytes:
    doc = json.loads(json.dumps(doc))
    kind, *args = mutation
    paths = list(json_paths(doc))
    if kind == "cut":
        blob = json.dumps(doc).encode()
        return blob[:args[0] % len(blob)]
    if kind == "drop":
        paths = [p for p in paths if isinstance(_at(doc, p[:-1]), dict)]
    elif kind == "nul":
        paths = [p for p in paths if isinstance(_at(doc, p), str)]
    path = paths[args[0] % len(paths)]
    container = _at(doc, path[:-1])
    if kind == "drop":
        del container[path[-1]]
    elif kind == "set":
        container[path[-1]] = args[1]
    else:
        text = container[path[-1]]
        j = args[1] % (len(text) + 1)
        container[path[-1]] = text[:j] + "\0" + text[j:]
    return json.dumps(doc).encode()


class TestAlignmentFuzz:
    """label and featurize of an alignment one mutation away from a valid
    one work, or exit 3 or 4, with no traceback and no warning."""

    # the audio_path (path 2) with a NUL byte: open() raised ValueError,
    # a traceback from featurize
    @example(mutation=("set", 2, "x\0.wav"), command="featurize")
    # fields coerced to another type and accepted with exit 0: schema
    # (path 0) true, utterance_id (1) null, the first word's text (5) true,
    # its first syllable's start_s (8) a string and end_s (9) true
    @example(mutation=("set", 0, True), command="label")
    @example(mutation=("set", 1, None), command="label")
    @example(mutation=("set", 5, True), command="label")
    @example(mutation=("set", 8, "0.1"), command="featurize")
    @example(mutation=("set", 9, True), command="featurize")
    @given(mutation=ALIGNMENT_MUTATIONS,
           command=st.sampled_from(["label", "featurize"]))
    @settings(max_examples=50, deadline=None)
    def test_mutated_alignment(self, fuzz_alignment, mutation, command):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "utt.json"), os.path.join(tmp, "out")
            Path(path).write_bytes(mutate_alignment(fuzz_alignment, mutation))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, err = run_quietly(command, "--alignments", path,
                                        "--out", out)
            assert code in (0, 3, 4) and "Traceback" not in err, err
            assert not caught, [str(w.message) for w in caught]
            if code == 0 and command == "featurize":
                read_feature_table(out)
            if code == 0 and command == "label":
                for name in ("labels.jsonl", "exclusions.jsonl"):
                    for line in Path(out, name).read_text().splitlines():
                        json.loads(line)

    @pytest.mark.parametrize("command", ["label", "featurize"])
    def test_nul_audio_path_is_a_format_error(self, fuzz_alignment, tmp_path,
                                              command):
        path = tmp_path / "utt.json"
        path.write_bytes(mutate_alignment(fuzz_alignment,
                                          ("set", 2, "x\0.wav")))
        code, err = run_quietly(command, "--alignments", str(path),
                                "--out", str(tmp_path / "out"))
        assert code == 4 and "FormatError" in err and str(path) in err, err
        assert "NUL" in err


    @pytest.mark.parametrize("command", ["label", "featurize"])
    @pytest.mark.parametrize("mutation,where", [
        (("set", 0, True), ""),
        (("set", 1, None), ""),
        (("set", 5, True), ": word[0]: 'text'"),
        (("set", 8, "0.1"), ": word[0].syllable[0]: start_s/end_s"),
        (("set", 9, True), ": word[0].syllable[0]: start_s/end_s"),
    ], ids=["schema_true", "utterance_id_null", "text_true", "start_string",
            "end_true"])
    def test_wrong_json_type_is_a_format_error(self, fuzz_alignment, tmp_path,
                                               mutation, where, command):
        path = tmp_path / "utt.json"
        path.write_bytes(mutate_alignment(fuzz_alignment, mutation))
        code, err = run_quietly(command, "--alignments", str(path),
                                "--out", str(tmp_path / "out"))
        assert code == 4 and "FormatError" in err, err
        assert f"{path}{where}" in err, err


# one change to a feature table: one of ALIGNMENT_MUTATIONS to the
# document of line i (mod the number of lines); any line put in before
# line i; feature slot j of every syllable of line i set to a large or
# tiny finite number; or the table's bytes cut to n
TABLE_MUTATIONS = (
    st.tuples(st.just("line"), st.integers(0, 99), ALIGNMENT_MUTATIONS)
    | st.tuples(st.just("insert"), st.integers(0, 99),
                st.binary(max_size=40) | json_values.map(
                    lambda doc: json.dumps(doc).encode()))
    | st.tuples(st.just("feature"), st.integers(0, 99), st.integers(0, 11),
                st.sampled_from([1e308, -1.7976931348623157e308, 1e154, -1e200,
                                 5e-324, 2 ** 70]))
    | st.tuples(st.just("cut"), st.integers(0, 99999)))


def mutate_table(data: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind == "cut":
        return data[:args[0] % (len(data) + 1)]
    lines = data.splitlines(keepends=True)
    i = args[0] % len(lines)
    if kind == "insert":
        lines.insert(i, args[1] + b"\n")
    elif kind == "feature":
        doc = json.loads(lines[i])
        for syl in doc["syllables"]:
            syl["features"][args[1]] = args[2]
        lines[i] = json.dumps(doc).encode() + b"\n"
    else:
        lines[i] = mutate_alignment(json.loads(lines[i]), args[1]) + b"\n"
    return b"".join(lines)


# per table command: its arguments up to the flag that names the table
TABLE_COMMANDS = {
    "split": ["split", "--features"],
    "train-rf": ["train", "--model", "rf", *EDGE_RUNS["rf"], "--train"],
    "train-or": ["train", "--model", "or", *EDGE_RUNS["or"], "--train"],
    "train-attn": ["train", "--model", "attn-medium", *EDGE_RUNS["attn-medium"],
                   "--train"],
    "eval": ["eval", "--data"],
    "predict": ["predict", "--input"],
}


# a rendered 0.25 s tone as mono int16 samples at 16 kHz, and a one-word
# alignment over it naming it utt.wav
WAV_FUZZ_PCM = (0.5 * np.sin(2 * np.pi * 180.0 * np.arange(4000) / 16000)
                * 32767).astype("<i2").tobytes()
WAV_FUZZ_ALIGNMENT = {
    "schema": 1, "utterance_id": "utt", "audio_path": "utt.wav",
    "words": [{"text": "maybe", "syllables": [
        {"start_s": a, "end_s": b,
         "nucleus": {"start_s": a + 0.01, "end_s": b - 0.01, "tag": None}}
        for a, b in [(0.02, 0.12), (0.12, 0.22)]]}]}


class TestWavFuzz:
    """featurize of an alignment whose WAV is damaged works, or exits 3 or
    4, with no traceback and no warning; an exit-0 table reads back."""

    @given(raw=damaged_wavs(WAV_FUZZ_PCM))
    @settings(max_examples=100, deadline=None)
    def test_damaged_wav(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            alignment, out = os.path.join(tmp, "utt.json"), os.path.join(tmp, "out")
            Path(alignment).write_text(json.dumps(WAV_FUZZ_ALIGNMENT))
            Path(tmp, "utt.wav").write_bytes(raw)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, err = run_quietly("featurize", "--alignments", alignment,
                                        "--out", out)
            assert code in (0, 3, 4) and "Traceback" not in err, err
            assert not caught, [str(w.message) for w in caught]
            if code == 0:
                read_feature_table(out)


class TestTableFuzz:
    """split, train (rf, or, attn-medium), eval and predict of a feature
    table one mutation away from a valid one work, or exit 3 or 4, with no
    traceback and no warning; what an exit-0 run writes reads back."""

    # a feature of 1e308 overflowed the ordinal model's x @ beta with a
    # warning, and eval exited 0
    @example(mutation=("feature", 0, 3, 1e308), command="eval", kind="or")
    # and in train_ordinal, with warnings too, though the fit came out finite
    @example(mutation=("feature", 0, 0, -1.7976931348623157e308),
             command="train-or", kind="or")
    # an encoder trained on features near the float range, or subnormal
    @example(mutation=("feature", 0, 3, 1e308), command="train-attn", kind="or")
    @example(mutation=("feature", 1, 0, -1e308), command="train-attn", kind="or")
    @example(mutation=("feature", 2, 7, 1e154), command="train-attn", kind="or")
    @example(mutation=("feature", 3, 5, 1e300), command="train-attn", kind="or")
    @example(mutation=("feature", 0, 11, 1e-310), command="train-attn", kind="or")
    @given(mutation=TABLE_MUTATIONS, command=st.sampled_from(sorted(TABLE_COMMANDS)),
           kind=st.sampled_from(["or", "rf", "attn-medium"]))
    @settings(max_examples=60, deadline=None)
    def test_mutated_table(self, tiny_corpus, fuzz_ckpts, mutation, command, kind):
        data = (tiny_corpus / "corpus" / "features.jsonl").read_bytes()
        with tempfile.TemporaryDirectory() as tmp:
            table, out = os.path.join(tmp, "t.jsonl"), os.path.join(tmp, "out")
            Path(table).write_bytes(mutate_table(data, mutation))
            argv = TABLE_COMMANDS[command] + [table, "--out", out]
            if command in ("eval", "predict"):
                argv[1:1] = ["--model", fuzz_ckpts[kind]]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, err = run_quietly(*argv)
            assert code in (0, 3, 4) and "Traceback" not in err, err
            assert not caught, [str(w.message) for w in caught]
            if code != 0:
                return
            words = read_feature_table(table)
            if command == "split":
                parts = [read_feature_table(os.path.join(out, name))
                         for name in ("train.jsonl", "test.jsonl")]
                assert sum(map(len, parts)) == len(words)
            elif command.startswith("train"):
                checkpoint.load_any(out)
            elif command == "eval":
                report = json.loads(Path(out + ".json").read_text())
                assert report["n_syllables"] == len(words.labels)
            else:
                lines = Path(out).read_text().splitlines()
                assert len(lines) == len(words)
                for line in lines:
                    json.loads(line)

    @pytest.mark.parametrize("command,flag", [("eval", "--data"),
                                              ("predict", "--input")])
    def test_ordinal_scores_of_inf_minus_inf(self, tmp_path, command, flag):
        """Finite features whose x @ beta adds an overflow to +inf and one
        to -inf score NaN: a data error, exit 4, with no warning. (Which
        pairs of slots give NaN depends on the BLAS kernel's order of
        summation, so every pair is tried.)"""
        from stressnet.baselines import OrdinalModel
        ckpt, table = str(tmp_path / "or.ckpt"), str(tmp_path / "t.jsonl")
        beta = 3.0 * (-1.0) ** np.arange(12)
        checkpoint.save_ordinal(ckpt, OrdinalModel(beta, np.array([-1.0, 1.0])),
                                "syllable_nucleus_numerical")
        records = []
        for i, j in itertools.permutations(range(12), 2):
            features = np.zeros((1, 12))
            features[0, [i, j]] = 1e308 * np.sign(beta[i]), -1e308 * np.sign(beta[j])
            records.append(Record("u", f"w{i}-{j}", features, ["ah"], [0]))
        write_feature_table(pack_records(records), table)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run_quietly(command, "--model", ckpt, flag, table,
                                    "--out", str(tmp_path / "out"))
        assert code == 4 and "NumericalInstability" in err, err
        assert not caught, [str(w.message) for w in caught]


# one dictionary line: a headword of lower-case letters, punctuation,
# non-ASCII letters, NBSP and NEL (Latin-1, as dictionaries are read),
# maybe a variant mark, and mostly valid phonemes
DICT_PHONEMES = sorted(v + d for v in VOWELS for d in "012") + [
    "B", "CH", "D", "DH", "F", "G", "HH", "K", "L", "M", "N", "NG", "P", "R",
    "S", "SH", "T", "V", "W", "Z", "AH", "AH3", "K1", "k", "X!"]
DICT_LINES = st.builds(
    lambda head, variant, phonemes: f"{head}{variant}  {' '.join(phonemes)}",
    st.text("abcdefghijklmnopqrstuvwxyz\"#%&(),'.-\xe9\xdf\xa0\x85",
            min_size=1, max_size=6),
    st.sampled_from(["", "", "(1)", "(2)"]),
    st.lists(st.sampled_from(DICT_PHONEMES), max_size=6))
BUNDLED_LINES = (Path(bundled_dictionary_path()).read_text("latin-1")
                 .splitlines())


class TestDictionaryFuzz:
    """lexicon lookup and synth --n 2 with a drawn dictionary exit 0, 2, 3
    or 4, with no traceback and no warning. label with that dictionary
    keeps every word an exit-0 synth drew, and under dictionary labeling
    gives the stresses synth's table holds."""

    # headwords stored as written but looked up normalized: synth raised
    # IndexError on a headword with a character lookup strips, and on
    # lower-case headwords as cmudict.dict writes them
    @example(lines=[*BUNDLED_LINES, '"CLOSE-QUOTE  K L OW1 Z K W OW1 T'],
             pick=-1, labeling="dictionary")
    @example(lines=[line.lower() for line in BUNDLED_LINES],
             pick=BUNDLED_LINES.index("OVERCOME  OW2 V ER0 K AH1 M"),
             labeling="dictionary")
    @given(lines=st.lists(DICT_LINES, min_size=1, max_size=6),
           pick=st.integers(0, 5),
           labeling=st.sampled_from(["dictionary", "relative_duration"]))
    @settings(max_examples=100, deadline=None)
    def test_drawn_dictionary(self, lines, pick, labeling):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "dict.txt"), os.path.join(tmp, "c")
            labels = os.path.join(tmp, "labels")
            Path(path).write_text("".join(f"{l}\n" for l in lines), "latin-1")
            head = lines[pick % len(lines)].split("  ")[0]
            runs = [("lexicon", "lookup", head),
                    ("synth", "--n", "2", "--labeling", labeling, "--out", out)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                codes = [run_quietly(*argv, "--dict", path) for argv in runs]
            for code, err in codes:
                assert code in (0, 2, 3, 4) and "Traceback" not in err, err
            assert not caught, [str(w.message) for w in caught]
            if codes[1][0] != 0:
                return
            assert run_quietly("label", "--alignments", f"{out}/alignments",
                               "--dict", path, "--out", labels)[0] == 0
            assert Path(labels, "exclusions.jsonl").read_bytes() == b""
            table = read_feature_table(os.path.join(out, "features.jsonl"))
            labeled = Path(labels, "labels.jsonl").read_text().splitlines()
            stresses = [s for line in labeled
                        for s in json.loads(line)["stresses"]]
            assert len(stresses) == len(table.labels)
            if labeling == "dictionary":
                assert stresses == table.labels.tolist()


# per case, a command with one wrong path: a directory {d} where a file
# is meant, a regular file {f} where a directory is meant (itself or as
# the parent of an output), or a missing input {m}. The other paths work:
# {r} is the tiny corpus, {a} the pool fixture's alignments (with WAVs),
# {ck} an attention checkpoint and {o} a fresh output path.
PATH_CASES = {
    "config-dir": ["--config", "{d}", "lexicon", "lookup", "overcome"],
    "config-missing": ["--config", "{m}", "lexicon", "lookup", "overcome"],
    "lexicon-dict-dir": ["lexicon", "lookup", "overcome", "--dict", "{d}"],
    "lexicon-dict-missing": ["lexicon", "lookup", "overcome", "--dict", "{m}"],
    "synth-dict-dir": ["synth", "--n", "2", "--dict", "{d}", "--out", "{o}"],
    "synth-dict-missing": ["synth", "--n", "2", "--dict", "{m}", "--out", "{o}"],
    "synth-out-file": ["synth", "--n", "2", "--out", "{f}"],
    "synth-out-under-file": ["synth", "--n", "2", "--out", "{f}/c"],
    "label-dict-dir": ["label", "--alignments", "{r}/corpus/alignments",
                       "--dict", "{d}", "--out", "{o}"],
    "label-alignments-missing": ["label", "--alignments", "{m}", "--out", "{o}"],
    "label-out-file": ["label", "--alignments", "{r}/corpus/alignments",
                       "--out", "{f}"],
    "label-out-under-file": ["label", "--alignments", "{r}/corpus/alignments",
                             "--out", "{f}/l"],
    "featurize-dict-dir": ["featurize", "--alignments", "{a}", "--dict", "{d}",
                           "--out", "{o}"],
    "featurize-alignments-missing": ["featurize", "--alignments", "{m}",
                                     "--out", "{o}"],
    "featurize-audio-dir-file": ["featurize", "--alignments", "{a}",
                                 "--audio-dir", "{f}", "--out", "{o}"],
    "featurize-audio-dir-missing": ["featurize", "--alignments", "{a}",
                                    "--audio-dir", "{m}", "--out", "{o}"],
    "featurize-out-dir": ["featurize", "--alignments", "{a}", "--out", "{d}"],
    "featurize-out-under-file": ["featurize", "--alignments", "{a}",
                                 "--out", "{f}/t.jsonl"],
    "split-features-dir": ["split", "--features", "{d}", "--out", "{o}"],
    "split-features-missing": ["split", "--features", "{m}", "--out", "{o}"],
    "split-out-file": ["split", "--features", "{r}/corpus/features.jsonl",
                       "--out", "{f}"],
    "split-out-under-file": ["split", "--features", "{r}/corpus/features.jsonl",
                             "--out", "{f}/s"],
    **{f"train-{model}-{case}": ["train", "--model", model, *EDGE_RUNS[model],
                                 "--train", train, "--out", out]
       for model in ("or", "attn-medium")
       for case, train, out in (
           ("train-dir", "{d}", "{o}"), ("train-missing", "{m}", "{o}"),
           ("out-dir", "{r}/corpus/features.jsonl", "{d}"),
           ("out-under-file", "{r}/corpus/features.jsonl", "{f}/m.ckpt"))},
    **{f"train-history-{case}": [
        "train", "--model", "attn-medium", "--epochs", "1", "--train",
        "{r}/corpus/features.jsonl", "--out", "{o}", "--history", history]
       for case, history in (("dir", "{d}"), ("under-file", "{f}/h.json"))},
    **{f"{command}-{case}": [command, "--model", model, flag, data, "--out", out]
       for command, flag in (("predict", "--input"), ("eval", "--data"))
       for case, model, data, out in (
           ("model-dir", "{d}", "{r}/corpus/features.jsonl", "{o}"),
           ("model-missing", "{m}", "{r}/corpus/features.jsonl", "{o}"),
           ("data-dir", "{ck}", "{d}", "{o}"),
           ("data-missing", "{ck}", "{m}", "{o}"),
           ("out-under-file", "{ck}", "{r}/corpus/features.jsonl", "{f}/p"))},
    "predict-out-dir": ["predict", "--model", "{ck}", "--input",
                        "{r}/corpus/features.jsonl", "--out", "{d}"],
    "pca-model-dir": ["pca", "--model", "{d}", "--out", "{o}"],
    "pca-model-missing": ["pca", "--model", "{m}", "--out", "{o}"],
    "pca-out-dir": ["pca", "--model", "{ck}", "--out", "{d}"],
    "pca-out-under-file": ["pca", "--model", "{ck}", "--out", "{f}/p.json"],
}


class TestPathFuzz:
    """Every subcommand given a directory for a file, a file for a
    directory or a missing input exits 3 or 4 with a message naming the
    path, and no traceback."""

    @pytest.mark.parametrize("case", sorted(PATH_CASES))
    def test_wrong_path(self, tiny_corpus, fuzz_ckpts, pool_runs, tmp_path,
                        case):
        places = {"d": tmp_path / "a_dir", "f": tmp_path / "a_file",
                  "m": tmp_path / "missing"}
        places["d"].mkdir()
        places["f"].write_text("x")
        argv = [arg.format(d=places["d"], f=places["f"], m=places["m"],
                           r=tiny_corpus, a=pool_runs[0], o=tmp_path / "out",
                           ck=fuzz_ckpts["attn-medium"])
                for arg in PATH_CASES[case]]
        bad = next(str(places[key]) for key in "dfm"
                   if any(f"{{{key}}}" in arg for arg in PATH_CASES[case]))
        code, err = run_quietly(*argv)
        assert code in (3, 4) and "Traceback" not in err, err
        assert bad in err, err


class TestManifests:
    """A manifest records every setting a run used, so it tells runs with
    different settings apart and reruns of one run give the same bytes."""

    @pytest.mark.parametrize("command,variant", [
        pytest.param(command, variant, id=f"{command}-{i}")
        for command, variants in MANIFEST_VARIANTS.items()
        for i, variant in enumerate(variants)])
    def test_each_setting_changes_the_manifest(self, tiny_corpus, pool_runs,
                                               tmp_path, command, variant):
        out = tmp_path / "out"

        def manifest(extra=(), doc=None):
            argv = [a.format(r=tiny_corpus, pool=pool_runs[0], d=out)
                    for a in (*MANIFEST_BASE[command], *extra)]
            if doc is not None:
                (tmp_path / "cfg.json").write_text(json.dumps(doc))
                argv = ["--config", str(tmp_path / "cfg.json"), *argv]
            assert run(*argv) == 0
            (path,) = out.glob("*manifest.json")  # the one this run wrote
            return path.read_bytes()

        base = manifest()
        varied = (manifest(doc=variant) if isinstance(variant, dict)
                  else manifest(variant))
        assert varied != base
        assert manifest() == base

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_flag_then_file_then_default(self, tiny_corpus, data):
        copy = tiny_corpus / "dict_copy.txt"
        copy.write_bytes(Path(bundled_dictionary_path()).read_bytes())
        argv = {
            "train": ["train", "--model", "attn-medium", "--epochs", "0",
                      "--train", str(tiny_corpus / "corpus" / "features.jsonl"),
                      "--out", str(tiny_corpus / "prop-train" / "m.ckpt")],
            "featurize": ["featurize", "--alignments", str(tiny_corpus / "empty"),
                          "--out", str(tiny_corpus / "prop-featurize" / "f.jsonl")],
        }
        doc, want = {}, {}
        for key, (command, flag, values, default) in TOP_LEVEL_KEYS.items():
            values = values.map(lambda v: str(copy) if v == "copy" else v)
            given_flag = data.draw(st.none() | values, label=f"{key} flag")
            in_file = data.draw(st.none() | values, label=f"{key} in file")
            if given_flag is not None:
                argv[command] += [flag, str(given_flag)]
            if in_file is not None:
                doc[key] = in_file
            if default is None:
                default = os.environ.get("STRESSNET_DICT", bundled_dictionary_path())
            want[key] = next(v for v in (given_flag, in_file, default)
                             if v is not None)
        if want["dict_path"] == bundled_dictionary_path():
            want["dict_path"] = "<bundled>"  # wherever the package is installed
        cfg = tiny_corpus / "prop.json"
        cfg.write_text(json.dumps(doc))
        got = {}
        for command, command_argv in argv.items():
            assert run("--config", str(cfg), *command_argv) == 0
            manifest = Path(command_argv[command_argv.index("--out") + 1]
                            + ".manifest.json")
            got.update(json.loads(manifest.read_text())["arguments"])
        assert {key: got[key] for key in want} == want

    def test_checkpoints_side_by_side_keep_a_manifest_each(self, tiny_corpus,
                                                           tmp_path):
        for kind in ("rf", "or"):
            assert run("train", "--model", kind, "--feature-mode",
                       "syllable_numerical", "--train",
                       str(tiny_corpus / "corpus" / "features.jsonl"),
                       "--out", str(tmp_path / f"{kind}.ckpt")) == 0
        manifests = {path.name: json.loads(path.read_text())
                     for path in tmp_path.glob("*manifest.json")}
        assert sorted(manifests) == ["or.ckpt.manifest.json",
                                     "rf.ckpt.manifest.json"]
        assert manifests["rf.ckpt.manifest.json"]["arguments"]["model"] == "rf"
        assert manifests["or.ckpt.manifest.json"]["arguments"]["model"] == "or"

    def test_bundled_dictionary_is_named_so(self, tiny_corpus):
        out = tiny_corpus / "named"
        assert run("synth", "--n", "2", "--dict", bundled_dictionary_path(),
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256(Path(bundled_dictionary_path()).read_bytes())
        assert manifest["arguments"]["dict_path"] == "<bundled>"
        assert manifest["inputs"] == {"<bundled>": digest.hexdigest()}

    def test_two_installed_copies_write_the_same_manifests(self, tmp_path):
        # each run uses its own copy of the package and relative paths
        stages = [
            ["synth", "--n", "6", "--seed", "2", "--out", "corpus"],
            ["split", "--features", "corpus/features.jsonl", "--seed", "2",
             "--out", "corpus/split"],
            ["train", "--model", "or", "--feature-mode", "syllable_numerical",
             "--train", "corpus/split/train.jsonl", "--out", "or/m.ckpt"],
            ["eval", "--model", "or/m.ckpt", "--data", "corpus/split/test.jsonl",
             "--out", "report/or"],
        ]
        script = ("import json, sys, stressnet\n"
                  "from stressnet.cli import run_subcommand\n"
                  "print(stressnet.__file__)\n"
                  "sys.exit(max(run_subcommand(a) for a in json.loads(sys.argv[1])))")
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "STRESSNET_DICT")}
        manifests = []
        for name in ("a", "b"):
            package = tmp_path / name / "site" / "stressnet"
            shutil.copytree(Path(stressnet.__file__).parent, package,
                            ignore=shutil.ignore_patterns("__pycache__"))
            work = tmp_path / name / "work"
            work.mkdir()
            done = subprocess.run(
                [sys.executable, "-c", script, json.dumps(stages)], cwd=work,
                env=dict(env, PYTHONPATH=str(package.parent)),
                capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[0] == str(package / "__init__.py")
            manifests.append({str(p.relative_to(work)): p.read_bytes()
                              for p in sorted(work.rglob("*manifest.json"))})
        assert sorted(manifests[0]) == [
            "corpus/manifest.json", "corpus/split/manifest.json",
            "or/m.ckpt.manifest.json", "report/or.manifest.json"]
        assert manifests[0] == manifests[1]
        assert b'"<bundled>"' in manifests[0]["corpus/manifest.json"]


def split_files(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ("train.jsonl", "test.jsonl")}


@st.composite
def canonical_tables(draw):
    """Valid records, a few words to each of 2 to 5 utterances."""
    n_utterances = draw(st.integers(2, 5))
    ids = [draw(st.text(max_size=4)) + f"#{i}" for i in range(n_utterances)]
    owners = ids + draw(st.lists(st.sampled_from(ids), max_size=6))
    records = []
    for utterance_id in draw(st.permutations(owners)):
        n = draw(st.integers(1, 4))
        records.append(Record(
            utterance_id, draw(st.text(max_size=6)),
            np.array(draw(st.lists(st.lists(float_values, min_size=12, max_size=12),
                                   min_size=n, max_size=n))),
            draw(st.lists(st.sampled_from(NUCLEUS_TAGS), min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from([None, 0, 1, 2]), min_size=n, max_size=n))))
    return records


# a valid table that this program did not write: key order, spacing,
# integer features, CRLF line ends and blank lines of its own
NON_CANONICAL_TABLE = (
    b'{"word":"a","utterance_id":"u1","syllables":[{"stress":1,"position":0,'
    b'"nucleus":"aa","features":[1,2,3,4,5,6,7,8,9,10,11,12]}]}\r\n'
    b'\r\n'
    b'   {  "utterance_id" : "u2" , "word" : "b\\u00e9" , "syllables" : [ '
    b'{"position": 1, "features": [0, 0.5, -1, 1e3, 2E-3, 0.0, -0.0, 7, 8, 9, 10, 11],'
    b' "nucleus": "iy", "stress": null}, {"nucleus": "ah", "stress": 0, "position": 0,'
    b' "features": [12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1.25]}]}  \t\r\n'
    b'\n'
    b'{"syllables": [{"features": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, '
    b'11.0, 12.0], "nucleus": "ow", "position": 0, "stress": 2}], '
    b'"utterance_id": "u3", "word": "c"}\n'
    b'\t{"utterance_id":"u1","word":"d","syllables":[{"position":0,"stress":0,'
    b'"nucleus":"er","features":[3,3,3,3,3,3,3,3,3,3,3,3]}]}'
)


def same_record(a, b) -> bool:
    return ((a.utterance_id, a.word, a.nucleus_tags, a.stresses)
            == (b.utterance_id, b.word, b.nucleus_tags, b.stresses)
            and a.features.tobytes() == b.features.tobytes())


class TestSplitCopiesLines:
    """split parses each line once and copies the lines it keeps; on a
    table this program wrote, it writes what reading the table and writing
    both parts with write_feature_table wrote."""

    @given(records=canonical_tables(), fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
           seed=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_canonical_tables_as_the_oracle(self, records, fraction, seed):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_feature_table(pack_records(records), str(root / "table.jsonl"))
            oracle_split(root / "table.jsonl", root / "want", fraction, seed)
            assert run("split", "--features", str(root / "table.jsonl"),
                       "--train-fraction", str(fraction), "--seed", str(seed),
                       "--out", str(root / "got")) == 0
            assert split_files(root / "got") == split_files(root / "want")

    def test_pinned_digests(self, tmp_path):
        # digests of the parts that read-then-write_feature_table wrote
        assert run("synth", "--n", "30", "--seed", "5", "--noise", "0.75",
                   "--out", str(tmp_path / "c")) == 0
        assert run("split", "--features", str(tmp_path / "c" / "features.jsonl"),
                   "--seed", "5", "--out", str(tmp_path / "s")) == 0
        got = {name: hashlib.sha256(data).hexdigest()
               for name, data in split_files(tmp_path / "s").items()}
        assert got == {
            "train.jsonl": "65fa165d3e472c8a415e73c3f75377e2c7576807ef39bf3cea7ea20583665189",
            "test.jsonl": "f073be968eaf2fe88a461823ec8e4c01bdc1cbf5199cc6c41972d6c7e12cfda5",
        }

    def test_non_canonical_lines_keep_their_spelling(self, tmp_path):
        table = tmp_path / "table.jsonl"
        table.write_bytes(NON_CANONICAL_TABLE)
        assert run("split", "--features", str(table), "--seed", "0",
                   "--train-fraction", "0.5", "--out", str(tmp_path / "s")) == 0
        want = {line.strip(): rec for line, rec in zip(
            filter(bytes.strip, NON_CANONICAL_TABLE.split(b"\n")),
            table_records(read_feature_table(str(table))))}
        got_lines = []
        for name, data in split_files(tmp_path / "s").items():
            assert data.endswith(b"\n")
            lines = data[:-1].split(b"\n")
            records = table_records(read_feature_table(str(tmp_path / "s" / name)))
            assert len(lines) == len(records)
            for line, rec in zip(lines, records):
                assert same_record(rec, want[line])  # parses as its input line
            got_lines += lines
        assert sorted(got_lines) == sorted(want)  # each line once, as it was

    @pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
    def test_malformed_line_writes_no_part(self, pipeline, tmp_path, capsys, case):
        _, out, _, _ = pipeline
        good = (out / "features.jsonl").read_text().splitlines()
        bad = MALFORMED_LINES[case]
        if callable(bad):
            doc = json.loads(good[0])
            bad(doc)
            bad = json.dumps(doc)
        table = tmp_path / "bad.jsonl"
        table.write_text("\n".join([*good[:40], bad, *good[40:]]) + "\n")
        capsys.readouterr()
        assert run("split", "--features", str(table), "--out",
                   str(tmp_path / "s")) == 4
        err = capsys.readouterr().err
        assert "FormatError" in err and f"{table}:41: " in err
        assert not (tmp_path / "s").exists()


# printable and control characters, quotes, backslashes and lone surrogates
json_text = st.text(st.characters() | st.sampled_from(
    '"\\/\x00\x1f\x7f\n\té雪\U0001f600\ud800\udfff'), max_size=8)
probabilities = st.floats() | st.sampled_from([0.0, 1.0, 5e-324, 1e-05])


class TestPredictionWriter:
    """predict lays out each line as json.dumps(doc, sort_keys=True) does."""

    @given(words=st.lists(st.tuples(json_text, json_text, st.integers(1, 4)),
                          max_size=4),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_as_json_dumps_writes(self, words, data):
        n = sum(size for _, _, size in words)
        probs = np.array(data.draw(st.lists(st.lists(probabilities, min_size=3,
                                                     max_size=3),
                                            min_size=n, max_size=n)),
                         dtype=np.float64).reshape(n, 3)
        records = [Record(uid, word, np.zeros((size, 12)), ["ah"] * size,
                          [0] * size) for uid, word, size in words]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "preds.jsonl")
            _write_predictions(path, pack_records(records), probs)
            with open(path, "rb") as fh:
                assert fh.read() == oracle_predictions(
                    oracle_instances(records), probs).encode()

    def test_non_finite_probabilities(self, tmp_path):
        inst = pack_records(
            [Record("u", "w", np.zeros((2, 12)), ["ah", "ah"], [0, 0])])
        path = tmp_path / "preds.jsonl"
        _write_predictions(str(path), inst, np.array([[np.nan, np.inf, -np.inf],
                                                      [1e-05, 5e-324, 1.0]]))
        assert path.read_text() == (
            '{"syllables": [{"position": 0, "probs": [NaN, Infinity, -Infinity], '
            '"stress_pred": 0}, {"position": 1, "probs": [1e-05, 5e-324, 1.0], '
            '"stress_pred": 2}], "utterance_id": "u", "word": "w"}\n')
