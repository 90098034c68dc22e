"""The benchmark's tracer patches stressnet functions by name; a rename or
removal of a probed name, or a hook that reads an argument or attribute
the code no longer has, must fail here rather than in a traced run."""

import collections
import importlib.util
import json
import sys
from pathlib import Path

from stressnet.cli import run_subcommand

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    return tracing


def test_every_probe_finds_its_target(monkeypatch):
    tracing = load_tracing(monkeypatch)
    undo = tracing.patch(tracing.Tracer("t"))
    tracing.unpatch(undo)


def run_pipeline(root: Path) -> dict[str, float]:
    """synth and split a tiny corpus, then train, eval and predict each
    model kind; the eval accuracy per model."""
    def run(*argv):
        assert run_subcommand([str(a) for a in argv]) == 0, argv

    run("synth", "--n", 8, "--seed", 3, "--noise", 0.5, "--out", root / "corpus")
    run("split", "--features", root / "corpus" / "features.jsonl",
        "--seed", 3, "--out", root / "splits")
    accuracy = {}
    for model, flags in (
            ("rf", ["--n-trees", 2, "--feature-mode", "syllable_nucleus_numerical"]),
            ("or", ["--feature-mode", "syllable_numerical"]),
            ("attn-medium", ["--epochs", 1])):
        ckpt = root / f"{model}.ckpt"
        run("train", "--model", model, "--train", root / "splits" / "train.jsonl",
            "--out", ckpt, *flags)
        run("eval", "--model", ckpt, "--data", root / "splits" / "test.jsonl",
            "--out", root / model)
        run("predict", "--model", ckpt, "--input", root / "splits" / "test.jsonl",
            "--out", root / f"{model}.jsonl")
        accuracy[model] = json.loads((root / f"{model}.json").read_text())["accuracy"]
    run("pca", "--model", root / "attn-medium.ckpt", "--out", root / "pca.json")
    return accuracy


def test_hooks_run_on_a_traced_pipeline(monkeypatch, tmp_path):
    tracing = load_tracing(monkeypatch)
    untraced = run_pipeline(tmp_path / "untraced")
    tracer = tracing.Tracer("t")
    undo = tracing.patch(tracer)
    try:
        traced = run_pipeline(tmp_path / "traced")
    finally:
        tracing.unpatch(undo)
    assert traced == untraced
    calls = collections.Counter(span.name for span in tracer.spans)
    for name in ("network.forward", "training.train", "baselines.vote_shares",
                 "baselines.class_probs", "evaluation.evaluate"):
        assert calls[name] > 0, name
    metrics = tracing.layer_metrics(tracer)
    for name in ("network.slots_computed", "training.words_per_s",
                 "baselines.forest_nodes", "baselines.rows_per_score_call",
                 "checkpoint.bytes_written", "features.records_read"):
        assert metrics[name] > 0, name
