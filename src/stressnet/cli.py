"""Command-line entry point: reproducible pipelines over all modules.

Subcommands: lexicon, featurize, synth, label, split, train, predict,
eval, pca. A JSON run-config file (--config) supplies defaults; explicit
flags override file values. Every artifact-producing run writes a
manifest (command, arguments, config digest, input digests) sufficient to
reproduce it byte-identically.

Exit codes: 0 success, 2 usage, 3 configuration error, 4 data error (also
any file system error, such as a missing input or a directory where a
file is needed).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import baselines, bundled_dictionary_path, checkpoint
from .corpus import (
    GenConfig,
    WordInstance,
    instances_from_table,
    label_utterance,
    load_alignment,
    require_gold,
    save_alignment,
    split as split_utterances,
    synth_corpus,
)
from .dsp import DspConfig, compute_intensity, estimate_pitch, read_wav
from .errors import ConfigError, StressnetError
from .evaluation import evaluate, pca_type_embeddings, render_report
from .features import (
    extract_features,
    normalize_sentence,
    read_feature_table,
    write_feature_table,
)
from .lexicon import StressLevel, load_dictionary, syllabify
from .model import (
    ALL_FEATURES,
    FEATURE_MODES,
    PRESETS,
    ModelConfig,
    TrainConfig,
    feature_dim,
    predict_instances,
    train as train_model,
)

_CONFIG_KEYS = {
    "dict_path", "feature_mode", "exclusion_scope", "normalization_pool",
    "dsp", "gen", "train", "model", "seed",
}
# keys whose values are settings objects of their own
_CONFIG_SECTIONS = {"dsp", "gen", "train", "model"}
# scalar keys: the type each must have, and the values of enumerated ones
_CONFIG_TYPES = {"seed": int, "dict_path": str, "feature_mode": str,
                 "exclusion_scope": str, "normalization_pool": str}
_CONFIG_CHOICES = {
    "feature_mode": FEATURE_MODES,
    "exclusion_scope": ("word", "utterance"),
    "normalization_pool": ("sentence", "multisyllabic_only"),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"config file {path} has unknown keys: {sorted(unknown)}")
    for key in sorted(_CONFIG_SECTIONS & set(doc)):
        if not isinstance(doc[key], dict):
            raise ConfigError(
                f"config file {path}: section {key!r} must be a JSON object, "
                f"got {doc[key]!r:.40}")
    for key, kind in _CONFIG_TYPES.items():
        # the exact type, so a bool is no seed
        if key in doc and type(doc[key]) is not kind:
            raise ConfigError(
                f"config file {path}: {key!r} must be of type {kind.__name__}, "
                f"got {doc[key]!r:.40}")
    for key, choices in _CONFIG_CHOICES.items():
        if key in doc and doc[key] not in choices:
            raise ConfigError(
                f"config file {path}: unknown {key} {doc[key]!r:.40}")
    if "dict_path" in doc and not os.path.isfile(doc["dict_path"]):
        raise ConfigError(
            f"config file {path}: dict_path {doc['dict_path']!r:.80} is not a file")
    return doc


def _settings(cls, section: str, doc: dict, **flags):
    """(settings, merged document): cls built from doc, one section of the
    config file, with the flags that were given (not None) laid over it.
    An unknown key, a missing field or a bad value is a ConfigError
    naming the section."""
    doc = {**doc, **{k: v for k, v in flags.items() if v is not None}}
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"bad {section} config: unknown keys {unknown}")
    try:
        return cls(**doc), doc
    except (TypeError, ConfigError) as exc:  # TypeError: a missing field
        raise ConfigError(f"bad {section} config: {exc}")


def _seed(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _dict_path(args, config: dict) -> str:
    if getattr(args, "dict", None):
        return args.dict
    if "dict_path" in config:
        return config["dict_path"]
    return os.environ.get("STRESSNET_DICT", bundled_dictionary_path())


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, settings: dict,
                    inputs: list[str]) -> None:
    manifest = {
        "command": command,
        "settings": settings,
        "inputs": {p: _sha256(p) for p in sorted(inputs) if os.path.exists(p)},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


# --- subcommands ---------------------------------------------------------------

def _cmd_lexicon(args, config) -> int:
    lex = load_dictionary(_dict_path(args, config))
    variants = lex.lookup(args.word)
    if not variants:
        print(f"{args.word!r} not found in dictionary")
        return 4
    for entry in variants:
        syl = syllabify(entry)
        pieces = [" ".join(s.onset + (s.nucleus_phoneme,) + s.coda)
                  for s in syl.syllables]
        print(f"{entry.word} (variant {entry.variant_index}): "
              + " . ".join(pieces))
        print("  stresses: " + " ".join(str(int(s)) for s in syl.stresses())
              + "  (" + " ".join(s.name.lower() for s in syl.stresses()) + ")")
        print("  nuclei:   " + " ".join(syl.nucleus_tags()))
    print(f"{len(variants)} pronunciation(s), "
          f"{len(syllabify(variants[0]).syllables)} syllable(s) in variant 0")
    return 0


def _cmd_synth(args, config) -> int:
    lex = load_dictionary(_dict_path(args, config))
    gen, gen_doc = _settings(GenConfig, "gen", config.get("gen", {}),
                             noise=args.noise, labeling=args.labeling)
    seed = _seed(args, config)
    alignments, records = synth_corpus(lex, args.n, gen, seed=seed)
    out = Path(args.out)
    (out / "alignments").mkdir(parents=True, exist_ok=True)
    for al in alignments:
        save_alignment(al, str(out / "alignments" / f"{al.utterance_id}.json"))
    write_feature_table(records, str(out / "features.jsonl"))
    _write_manifest(out, "synth", {
        "n": args.n, "seed": seed, "gen": gen_doc,
        "dict": _dict_path(args, config),
    }, [_dict_path(args, config)])
    print(f"synth: {len(alignments)} utterances, {len(records)} word instances "
          f"-> {out}")
    return 0


def _alignment_files(path: str) -> list[str]:
    p = Path(path)
    if p.is_dir():
        return sorted(str(f) for f in p.glob("*.json"))
    return [str(p)]


def _cmd_label(args, config) -> int:
    lex = load_dictionary(_dict_path(args, config))
    scope = args.exclusion_scope or config.get("exclusion_scope", "word")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = _alignment_files(args.alignments)
    n_words = 0
    with open(out / "labels.jsonl", "w", encoding="utf-8") as lab_fh, \
            open(out / "exclusions.jsonl", "w", encoding="utf-8") as exc_fh:
        for f in files:
            alignment = load_alignment(f)
            records, exclusions = label_utterance(
                alignment, lex, exclusion_scope=scope)
            for rec in records:
                lab_fh.write(json.dumps({
                    "utterance_id": rec.utterance_id,
                    "word": rec.word,
                    "stresses": rec.stresses,
                    "nuclei": rec.nucleus_tags,
                }, sort_keys=True) + "\n")
            for exc in exclusions:
                exc_fh.write(json.dumps({
                    "utterance_id": exc.utterance_id,
                    "word": exc.word,
                    "reason": exc.reason,
                }, sort_keys=True) + "\n")
            n_words += len(records)
    _write_manifest(out, "label", {
        "alignments": args.alignments, "exclusion_scope": scope,
        "dict": _dict_path(args, config),
    }, files + [_dict_path(args, config)])
    print(f"label: {n_words} labeled word instances -> {out}")
    return 0


def _featurize_one(f: str, audio_dir: str | None, lex, dsp_cfg: DspConfig,
                   pool: str, scope: str):
    alignment = load_alignment(f)
    if alignment.audio_path is None:
        raise ConfigError(f"{f}: alignment has no audio_path")
    audio = alignment.audio_path
    if not os.path.isabs(audio):
        base = audio_dir or str(Path(f).parent)
        audio = str(Path(base) / audio)
    samples, rate = read_wav(audio)
    try:
        pitch = estimate_pitch(samples, rate, dsp_cfg)
        intensity = compute_intensity(samples, rate, dsp_cfg)
    except ConfigError as exc:
        raise ConfigError(f"bad dsp config for {audio}: {exc}")

    raw_by_word = []
    for word in alignment.words:
        raw_by_word.append([
            extract_features(pitch, intensity,
                             (s.start_s, s.end_s),
                             (s.nucleus.start_s, s.nucleus.end_s))
            for s in word.syllables
        ])
    pooled_idx = [wi for wi, word in enumerate(alignment.words)
                  if pool == "sentence" or len(word.syllables) >= 2]
    pooled = [r for wi in pooled_idx for r in raw_by_word[wi]]
    normalized = normalize_sentence(pooled) if pooled else []
    word_features = [None] * len(alignment.words)
    cursor = 0
    for wi in pooled_idx:
        k = len(raw_by_word[wi])
        word_features[wi] = normalized[cursor:cursor + k]
        cursor += k
    for wi in range(len(alignment.words)):
        if word_features[wi] is None:  # excluded from the pool
            word_features[wi] = [np.zeros(12)] * len(raw_by_word[wi])
    return label_utterance(alignment, lex, word_features,
                           exclusion_scope=scope)


def _cmd_featurize(args, config) -> int:
    lex = load_dictionary(_dict_path(args, config))
    scope = args.exclusion_scope or config.get("exclusion_scope", "word")
    pool = args.normalization_pool or config.get("normalization_pool", "sentence")
    dsp_cfg, _ = _settings(DspConfig, "dsp", config.get("dsp", {}))
    files = _alignment_files(args.alignments)
    records = []
    n_excluded = 0
    for f in files:
        labeled, exclusions = _featurize_one(f, args.audio_dir, lex,
                                             dsp_cfg, pool, scope)
        records.extend(labeled)
        n_excluded += len(exclusions)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_feature_table(records, args.out)
    _write_manifest(Path(args.out).parent, "featurize", {
        "alignments": args.alignments, "out": args.out,
        "normalization_pool": pool, "exclusion_scope": scope,
        "dsp": config.get("dsp", {}),
    }, files)
    print(f"featurize: {len(records)} word instances "
          f"({n_excluded} exclusions) -> {args.out}")
    return 0


def _cmd_split(args, config) -> int:
    records = read_feature_table(args.features)
    seed = _seed(args, config)
    train_set, test_set = split_utterances(records, args.train_fraction, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_feature_table(train_set, str(out / "train.jsonl"))
    write_feature_table(test_set, str(out / "test.jsonl"))
    _write_manifest(out, "split", {
        "features": args.features, "train_fraction": args.train_fraction,
        "seed": seed,
    }, [args.features])
    print(f"split: {len(train_set)} train / {len(test_set)} test instances -> {out}")
    return 0


def _cmd_train(args, config) -> int:
    instances = instances_from_table(read_feature_table(args.train))
    require_gold(instances)
    feature_mode = args.feature_mode or config.get("feature_mode", ALL_FEATURES)
    seed = _seed(args, config)

    if args.model in ("or", "rf"):
        if feature_mode == ALL_FEATURES:
            raise ConfigError(
                "baselines take numerical features only; "
                "use syllable_numerical or syllable_nucleus_numerical")
        X, y = baselines.flatten(instances, feature_dim(feature_mode))
        if args.model == "or":
            model = baselines.train_ordinal(X, y, seed=seed)
            checkpoint.save_ordinal(args.out, model, feature_mode)
        else:
            model = baselines.train_forest(
                X, y, n_trees=args.n_trees, max_depth=args.max_depth, seed=seed)
            checkpoint.save_forest(args.out, model, feature_mode)
        print(f"train[{args.model}]: {len(y)} syllables -> {args.out}")
    else:
        train_cfg, _ = _settings(
            TrainConfig, "train", config.get("train", {}), epochs=args.epochs,
            batch_size=args.batch_size, learning_rate=args.learning_rate,
            validation_fraction=args.val_fraction, seed=seed)
        model_doc = (dataclasses.asdict(PRESETS[args.model](feature_mode))
                     if args.model in PRESETS else config.get("model", {}))
        model_cfg, _ = _settings(ModelConfig, "model", model_doc,
                                 feature_mode=feature_mode, dropout=args.dropout)

        vf = train_cfg.validation_fraction
        if vf > 0:
            tr, val = split_utterances(instances, 1.0 - vf, seed)
            if not tr:
                raise ConfigError(
                    f"validation_fraction {vf} leaves no training utterance")
        else:
            tr, val = instances, []
        if not val:
            val = tr
        params, weights, history = train_model(tr, val, model_cfg, train_cfg)
        checkpoint.save_model(args.out, params, model_cfg, weights)
        if args.history:
            with open(args.history, "w", encoding="utf-8") as fh:
                json.dump(history, fh, sort_keys=True, indent=2)
                fh.write("\n")
        print(f"train[{args.model}]: {len(tr)} train / {len(val)} val instances, "
              f"{len(history)} epochs, best val acc "
              f"{max((h['val_acc'] for h in history), default=float('nan')):.4f} "
              f"-> {args.out}")
    _write_manifest(Path(args.out).parent, "train", {
        "model": args.model, "train": args.train, "seed": seed,
        "feature_mode": feature_mode,
    }, [args.train])
    return 0


def _predict_all(path: str, instances: list[WordInstance]):
    """Per instance, the argmax stress levels and the (valid_count, 3)
    class scores of its syllables, for any checkpoint kind; each kind
    scores the whole file in one batched call."""
    kind, payload, feature_mode, weights = checkpoint.load_any(path)
    if kind == "attention":
        params, cfg = payload
        probs = predict_instances(params, cfg, instances)
    else:
        X, _ = baselines.flatten(instances, feature_dim(feature_mode))
        ends = np.cumsum([inst.valid_count for inst in instances], dtype=np.int64)
        # the last piece, past the final word's end, is always empty
        probs = np.split(baselines.scores(payload, X), ends)[:-1]
    preds = [[StressLevel(int(c)) for c in p.argmax(axis=1)] for p in probs]
    return preds, probs, weights


def _cmd_predict(args, config) -> int:
    instances = instances_from_table(read_feature_table(args.input))
    preds, probs, _ = _predict_all(args.model, instances)
    with open(args.out, "w", encoding="utf-8") as fh:
        for inst, p, pr in zip(instances, preds, probs):
            fh.write(json.dumps({
                "utterance_id": inst.utterance_id,
                "word": inst.word,
                "syllables": [{"position": i, "stress_pred": int(level),
                               "probs": row.tolist()}
                              for i, (level, row) in enumerate(zip(p, pr))],
            }, sort_keys=True) + "\n")
    print(f"predict: {len(instances)} word instances -> {args.out}")
    return 0


def _cmd_eval(args, config) -> int:
    instances = instances_from_table(read_feature_table(args.data))
    preds, _, weights = _predict_all(args.model, instances)
    table = weights.table if weights is not None else None
    report = evaluate(preds, instances, table)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(str(out) + ".json", "w", encoding="utf-8") as fh:
        fh.write(render_report(report, "json"))
    with open(str(out) + ".txt", "w", encoding="utf-8") as fh:
        fh.write(render_report(report, "text"))
    _write_manifest(out.parent, "eval", {
        "model": args.model, "data": args.data,
    }, [args.model, args.data])
    wa = ("" if report.weighted_accuracy is None
          else f", weighted {report.weighted_accuracy:.4f}")
    print(f"eval: accuracy {report.accuracy:.4f}{wa} "
          f"on {report.n_syllables} syllables -> {out}.json/.txt")
    return 0


def _cmd_pca(args, config) -> int:
    kind, payload, _, _ = checkpoint.load_any(args.model)
    if kind != "attention":
        raise ConfigError("pca needs an attention checkpoint with type embeddings")
    params, _ = payload
    proj = pca_type_embeddings(params)
    doc = {
        "points": {tag: [float(
            x) for x in vec] for tag, vec in sorted(proj.points.items())},
        "explained_variance": [float(v) for v in proj.explained_variance],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"pca: {len(proj.points)} type-embedding points -> {args.out}")
    return 0


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stressnet",
        description="Syllable-level stress detection pipelines.")
    parser.add_argument("--config", help="JSON run-config file; flags override it")
    # accepted before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON run-config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("lexicon", help="dictionary lookup")
    lex_sub = p.add_subparsers(dest="lexicon_command", required=True)
    q = lex_sub.add_parser("lookup", help="print syllabification and stresses")
    q.add_argument("word")
    q.add_argument("--dict", help="dictionary path (default: $STRESSNET_DICT "
                                  "or the bundled sample)")
    q.set_defaults(func=_cmd_lexicon)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True, help="number of utterances")
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--labeling", choices=["dictionary", "relative_duration"])
    p.add_argument("--out", required=True)
    p.add_argument("--dict")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("label", help="attach gold labels to alignments")
    p.add_argument("--alignments", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dict")
    p.add_argument("--exclusion-scope", dest="exclusion_scope",
                   choices=["word", "utterance"])
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("featurize", help="alignments + audio -> feature table")
    p.add_argument("--alignments", required=True)
    p.add_argument("--audio-dir", dest="audio_dir")
    p.add_argument("--out", required=True)
    p.add_argument("--dict")
    p.add_argument("--exclusion-scope", dest="exclusion_scope",
                   choices=["word", "utterance"])
    p.add_argument("--normalization-pool", dest="normalization_pool",
                   choices=["sentence", "multisyllabic_only"])
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("split", help="utterance-level train/test split")
    p.add_argument("--features", required=True)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="fit a model")
    p.add_argument("--model", required=True,
                   choices=["or", "rf", "attn-medium", "attn-large", "attn-custom"])
    p.add_argument("--train", required=True, help="training feature table")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--feature-mode", dest="feature_mode", choices=FEATURE_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--n-trees", dest="n_trees", type=int, default=100)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=12)
    p.add_argument("--history", help="write per-epoch history JSON here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="per-syllable predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report path prefix")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pca", help="project learned type embeddings")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pca)
    return parser


def run_subcommand(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except StressnetError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # a missing file, a directory for a file, ...
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_subcommand())


if __name__ == "__main__":
    main()
