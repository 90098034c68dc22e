import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import json_values
from stressnet import bundled_dictionary_path
from stressnet.cli import run_subcommand
from stressnet import corpus
from stressnet.corpus import GenConfig
from stressnet.dsp import DspConfig
from stressnet.features import read_feature_table
from stressnet.model import FEATURE_MODES
from test_dsp import MALFORMED_WAVS


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
}


class TestMalformedCheckpoints:
    """A checkpoint that does not parse or fit is a data error, exit 4."""

    @pytest.fixture
    def ckpt(self, tmp_path):
        from stressnet.checkpoint import save_model
        from stressnet.model import init_params, medium_config

        cfg = medium_config()
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
        assert manifest["settings"]["seed"] == 7

    def test_split_partition(self, pipeline):
        _, out, _, _ = pipeline
        train = read_feature_table(str(out / "splits" / "train.jsonl"))
        test = read_feature_table(str(out / "splits" / "test.jsonl"))
        all_records = read_feature_table(str(out / "features.jsonl"))
        assert len(train) + len(test) == len(all_records)
        assert not ({r.utterance_id for r in train}
                    & {r.utterance_id for r in test})

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
        lines = [json.loads(l) for l in open(preds_path)]
        assert len(lines) == len(records)
        for line, rec in zip(lines, records):
            assert len(line["syllables"]) == len(rec.stresses)
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
        lines = [json.loads(l) for l in open(lab_out / "labels.jsonl")]
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
        (rec,) = read_feature_table(out)
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
        (rec,) = read_feature_table(str(out))
        assert rec.word == "maybe"
        assert (out.parent / "manifest.json").is_file()

    @pytest.mark.parametrize("name", sorted(MALFORMED_WAVS))
    @pytest.mark.filterwarnings("ignore::UserWarning")  # SciPy's WavFileWarning
    def test_malformed_wav_is_format_error(self, tmp_path, capsys, name):
        apath = self.make_audio_and_alignment(tmp_path)
        (tmp_path / "utt.wav").write_bytes(MALFORMED_WAVS[name])
        code = run("featurize", "--alignments", str(apath),
                   "--out", str(tmp_path / "features.jsonl"))
        err = capsys.readouterr().err
        assert code == 4
        assert "FormatError" in err and "utt.wav" in err
        assert "Traceback" not in err

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


@pytest.fixture(scope="module")
def baseline_ckpts(pipeline):
    """The pipeline's rf checkpoint plus an or one on the 6 syllable features."""
    root, out, _, rf = pipeline
    ordinal = str(root / "or.ckpt")
    assert run("train", "--model", "or", "--train",
               str(out / "splits" / "train.jsonl"), "--out", ordinal,
               "--feature-mode", "syllable_numerical", "--seed", "5") == 0
    return {"rf": rf, "or": ordinal}


def per_word_reference(ckpt, table):
    """predict's output lines, scoring one word per call as a reference."""
    from stressnet.checkpoint import load_any
    from stressnet.corpus import instances_from_table
    from stressnet.model import feature_dim

    kind, model, feature_mode, _ = load_any(ckpt)
    score = model.vote_shares if kind == "forest" else model.class_probs
    lines = []
    for inst in instances_from_table(read_feature_table(table)):
        probs = score(inst.features[:inst.valid_count, :feature_dim(feature_mode)])
        lines.append(json.dumps({
            "utterance_id": inst.utterance_id,
            "word": inst.word,
            "syllables": [{"position": i, "stress_pred": int(p.argmax()),
                           "probs": [float(x) for x in p]}
                          for i, p in enumerate(probs)],
        }, sort_keys=True) + "\n")
    return "".join(lines)


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


def _edit(path, *value):
    """A mutation that sets the field at path (keys into the record) to
    value, or deletes it when no value is given."""
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        if value:
            doc[last] = value[0]
        else:
            del doc[last]
    return mutate


SYL = ("syllables", 0)
MALFORMED_LINES = {
    "bad_json": '{"utterance_id": "u", "word": ',
    "non_object": "[1, 2, 3]",
    "missing_utterance_id": _edit(("utterance_id",)),
    "utterance_id_not_string": _edit(("utterance_id",), 7),
    "missing_word": _edit(("word",)),
    "word_not_string": _edit(("word",), ["a"]),
    "missing_syllables": _edit(("syllables",)),
    "syllables_not_list": _edit(("syllables",), {"position": 0}),
    "syllable_not_object": _edit(SYL, 3),
    "missing_features": _edit(SYL + ("features",)),
    "features_not_list": _edit(SYL + ("features",), "1.0"),
    "eleven_features": lambda doc: doc["syllables"][0]["features"].pop(),
    "feature_not_number": _edit(SYL + ("features", 4), "x"),
    "nan_feature": _edit(SYL + ("features", 0), float("nan")),
    "infinite_feature": _edit(SYL + ("features", 2), float("-inf")),
    "missing_nucleus": _edit(SYL + ("nucleus",)),
    "nucleus_not_string": _edit(SYL + ("nucleus",), 1),
    "unknown_nucleus": _edit(SYL + ("nucleus",), "zz"),
    "missing_position": _edit(SYL + ("position",)),
    "position_not_int": _edit(SYL + ("position",), "0"),
    "missing_stress": _edit(SYL + ("stress",)),
    "stress_not_int": _edit(SYL + ("stress",), "1"),
    "stress_out_of_range": _edit(SYL + ("stress",), 3),
    "no_syllables": _edit(("syllables",), []),
    "eighteen_syllables": lambda doc: doc.update(syllables=[
        dict(doc["syllables"][0], position=i) for i in range(18)]),
    "repeated_position": _edit(("syllables", 1, "position"), 0),
    "position_gap": lambda doc: doc["syllables"][-1].update(
        position=len(doc["syllables"])),
}


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

        _, out, _, _ = pipeline
        model = {"d_model": 4, "n_heads": 2, "n_layers": 1, "ffn_hidden": 8,
                 "dropout": 0.0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        ckpt = tmp_path / "m.ckpt"
        assert run("--config", str(cfg), "train", "--model", "attn-custom",
                   "--train", str(out / "splits" / "train.jsonl"),
                   "--out", str(ckpt), "--epochs", "1") == 0
        kind, (_, config), _, _ = load_any(str(ckpt))
        assert kind == "attention"
        assert model.items() <= config.to_dict().items()


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
    "seed": st.integers(0, 2**40),  # the --seed flag or config seed wins
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
        ["train", "--model", "rf", "--max-depth", "-3", "--feature-mode",
         "syllable_numerical", "--train", "{r}/corpus/features.jsonl",
         "--out", "{r}/rf.ckpt"],
        ["synth", "--n", "0", "--out", "{r}/o"],
        ["synth", "--n", "-1", "--out", "{r}/o"],
    ], ids=["fraction-2", "fraction-nan", "n-trees-0", "max-depth-negative",
            "n-0", "n-negative"])
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

    def test_empty_table_is_a_data_error(self, tiny_corpus, capsys):
        empty = tiny_corpus / "empty.jsonl"
        empty.write_text("")
        code = run("train", "--model", "attn-medium", "--val-fraction", "0",
                   "--train", str(empty), "--out", str(tiny_corpus / "m.ckpt"))
        err = capsys.readouterr().err
        assert code == 4
        assert "DegenerateData" in err

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
