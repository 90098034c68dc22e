"""Command-line entry point: reproducible pipelines over all modules.

Subcommands: lexicon, featurize, synth, label, split, train, predict,
eval, pca. Each setting is resolved once, before the subcommand runs:
its flag, else the JSON run-config file's (--config) value, else the
default. synth, label and split write a manifest.json into their output
directory; featurize, train and eval write one named after --out, with
.manifest.json appended (rf.ckpt.manifest.json, report.manifest.json),
so checkpoints trained side by side keep one manifest each; lexicon,
predict and pca write none. A manifest holds the command, its arguments
after resolution, every settings object it built (all fields, defaults
too) and the SHA-256 of each input file: enough to rerun it
byte-identically. Paths are recorded as given, except that the bundled
dictionary is "<bundled>", so the manifest does not depend on where the
package is installed.

split parses and checks every line of --features, then copies each kept
word's line as it was, surrounding whitespace stripped, with a newline.
So a table this program wrote splits into the bytes write_feature_table
would write for each part, and a valid table from elsewhere keeps its
own key order, spacing and number spelling. predict writes, per word,
the bytes json.dumps(doc, sort_keys=True) writes for {"syllables":
[{"position", "probs", "stress_pred"}], "utterance_id", "word"}, and a
newline.

Exit codes: 0 success, 2 usage, 3 configuration error, 4 data error (also
any file system error, such as a missing input or a directory where a
file is needed).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import os
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import baselines, bundled_dictionary_path, checkpoint
from .corpus import (
    EXCLUSION_SCOPES,
    LABELINGS,
    GenConfig,
    label_utterance,
    load_alignment,
    require_gold,
    save_alignment,
    split as split_utterances,
    synth_corpus,
    train_utterances,
)
from .dsp import DspConfig, compute_intensity, estimate_pitch, read_wav
from .errors import (
    ConfigError,
    DegenerateData,
    NumericalInstability,
    StressnetError,
    open_output,
)
from .evaluation import evaluate, pca_type_embeddings, render_report
from .features import (
    Instances,
    extract_features,
    instances_from_table,
    normalize_sentence,
    read_feature_table,
    read_table_lines,
    write_feature_table,
    write_table_lines,
)
from .lexicon import NUCLEUS_TAGS, load_dictionary, syllabify
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


# a top-level run-config key: its flag, its exact type (so a bool is no
# seed), its allowed values (None: any) and its default
_Key = namedtuple("_Key", "flag type choices default")
_TOP_LEVEL = {
    "seed": _Key("--seed", int, None, 0),
    # no default here: $STRESSNET_DICT, else the bundled sample
    "dict_path": _Key("--dict", str, None, None),
    "feature_mode": _Key("--feature-mode", str, FEATURE_MODES, ALL_FEATURES),
    "exclusion_scope": _Key("--exclusion-scope", str, EXCLUSION_SCOPES, "word"),
    "normalization_pool": _Key("--normalization-pool", str,
                               ("sentence", "multisyllabic_only"), "sentence"),
}
# keys whose values are settings objects of their own
_CONFIG_SECTIONS = {"dsp", "gen", "train", "model"}
_CONFIG_KEYS = _CONFIG_SECTIONS | set(_TOP_LEVEL)
# section fields that a top-level key sets: a value in the section would
# be overwritten, so it is refused
_CONFIG_SHADOWED = {"train": "seed", "model": "feature_mode"}
_ATTENTION_MODELS = (*PRESETS, "attn-custom")
# train flags that only some models read: given for another, one is refused
_MODEL_FLAGS = dict.fromkeys(("epochs", "batch_size", "learning_rate", "val_fraction",
                              "dropout", "history"), _ATTENTION_MODELS)
_MODEL_FLAGS.update(n_trees=("rf",), max_depth=("rf",))
# each subcommand's file outputs (synth, label and split write into a
# directory, eval next to a path prefix)
_FILE_OUTPUTS = {"train": ("out", "history"), "featurize": ("out",),
                 "predict": ("out",), "pca": ("out",)}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.isfile(path):
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
    for section, key in _CONFIG_SHADOWED.items():
        if key in doc.get(section, {}):
            raise ConfigError(
                f"config file {path}: {section}.{key} is not read; set the "
                f"top-level {key!r} key or its flag instead")
    for key, spec in _TOP_LEVEL.items():
        if key not in doc:
            continue
        if type(doc[key]) is not spec.type:
            raise ConfigError(
                f"config file {path}: {key!r} must be of type "
                f"{spec.type.__name__}, got {doc[key]!r:.40}")
        if spec.choices is not None and doc[key] not in spec.choices:
            raise ConfigError(
                f"config file {path}: unknown {key} {doc[key]!r:.40}")
    if "dict_path" in doc and not os.path.isfile(doc["dict_path"]):
        raise ConfigError(
            f"config file {path}: dict_path {doc['dict_path']!r:.80} is not a file")
    return doc


def _resolve(args, config: dict) -> None:
    """Settle args before the subcommand runs: each top-level key that it
    takes and no flag gave becomes the config file's value, else the
    default; a file output that names a directory (one that exists, or a
    path ending in a separator) is refused before any input is read; and
    the parent directory of each output path is made."""
    for key in _TOP_LEVEL.keys() & vars(args).keys():
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, _TOP_LEVEL[key].default))
    if "dict_path" in vars(args) and args.dict_path is None:
        args.dict_path = os.environ.get("STRESSNET_DICT", bundled_dictionary_path())
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    for key in _FILE_OUTPUTS.get(args.command, ()):
        path = getattr(args, key)
        if path and (os.path.isdir(path) or path.endswith(os.sep)):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    for key in ("out", "history"):
        if getattr(args, key, None):
            Path(getattr(args, key)).parent.mkdir(parents=True, exist_ok=True)


def _settings(cls, section: str, doc: dict, **flags):
    """cls built from doc, one section of the config file, with the flags
    that were given (not None) laid over it. An unknown key, a missing
    field or a bad value is a ConfigError naming the section."""
    doc = {**doc, **{k: v for k, v in flags.items() if v is not None}}
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"bad {section} config: unknown keys {unknown}")
    try:
        return cls(**doc)
    except (TypeError, ConfigError) as exc:  # TypeError: a missing field
        raise ConfigError(f"bad {section} config: {exc}")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _echo(text: str, end: str = "\n") -> None:
    """Print text and flush, so that a failed write raises here, naming <stdout>."""
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        exc.filename = "<stdout>"
        raise


def _write_json(path, doc) -> None:
    """Write doc as indented JSON with sorted keys, NumPy arrays as lists."""
    with open_output(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=np.ndarray.tolist)
        fh.write("\n")


def _write_manifest(path, args, inputs: list[str], **settings) -> None:
    """Write the manifest at path, as the module docstring describes. The
    bundled dictionary is named "<bundled>", wherever the package is
    installed, as an argument and as an input."""
    bundled = os.path.realpath(bundled_dictionary_path())

    def shown(path: str) -> str:
        return "<bundled>" if os.path.realpath(path) == bundled else path

    arguments = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "func")}
    if "dict_path" in arguments:
        arguments["dict_path"] = shown(arguments["dict_path"])
    _write_json(path, {
        "command": args.command,
        "arguments": arguments,
        "settings": {name: dataclasses.asdict(value)
                     for name, value in settings.items()},
        "inputs": {shown(p): _sha256(p) for p in inputs},
    })


# --- subcommands ---------------------------------------------------------------

def _cmd_lexicon(args, config) -> int:
    lex = load_dictionary(args.dict_path)
    variants = lex.lookup(args.word)
    if not variants:
        _echo(f"{args.word!r} not found in dictionary")
        return 4
    for entry in variants:
        syl = syllabify(entry)
        pieces = [" ".join(s.onset + (s.nucleus_phoneme,) + s.coda)
                  for s in syl.syllables]
        _echo(f"{entry.word} (variant {entry.variant_index}): "
              + " . ".join(pieces))
        _echo("  stresses: " + " ".join(str(int(s)) for s in syl.stresses())
              + "  (" + " ".join(s.name.lower() for s in syl.stresses()) + ")")
        _echo("  nuclei:   " + " ".join(syl.nucleus_tags()))
    _echo(f"{len(variants)} pronunciation(s), "
          f"{len(syllabify(variants[0]).syllables)} syllable(s) in variant 0")
    return 0


def _cmd_synth(args, config) -> int:
    lex = load_dictionary(args.dict_path)
    gen = _settings(GenConfig, "gen", config.get("gen", {}),
                    noise=args.noise, labeling=args.labeling)
    alignments, table = synth_corpus(lex, args.n, gen, seed=args.seed)
    out = Path(args.out)
    (out / "alignments").mkdir(parents=True, exist_ok=True)
    for al in alignments:
        save_alignment(al, str(out / "alignments" / f"{al.utterance_id}.json"))
    write_feature_table(table, str(out / "features.jsonl"))
    _write_manifest(out / "manifest.json", args, [args.dict_path], gen=gen)
    _echo(f"synth: {len(alignments)} utterances, {len(table)} word instances "
          f"-> {out}")
    return 0


def _alignment_files(path: str) -> list[str]:
    p = Path(path)
    if p.is_dir():
        return sorted(str(f) for f in p.glob("*.json"))
    return [str(p)]


def _cmd_label(args, config) -> int:
    lex = load_dictionary(args.dict_path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = _alignment_files(args.alignments)
    n_words = 0
    # every input is read before an output is opened, so that a failed
    # write names its own file (see open_output)
    label_lines, exclusion_lines = [], []
    for f in files:
        alignment = load_alignment(f)
        table, exclusions = label_utterance(
            alignment, lex, exclusion_scope=args.exclusion_scope)
        offsets = table.offsets.tolist()
        label_lines += (json.dumps({
            "utterance_id": alignment.utterance_id,
            "word": word,
            "stresses": table.labels[start:stop].tolist(),
            "nuclei": [NUCLEUS_TAGS[t] for t in table.types[start:stop]],
        }, sort_keys=True) + "\n"
            for word, start, stop in zip(table.words, offsets, offsets[1:]))
        exclusion_lines += (json.dumps({
            "utterance_id": exc.utterance_id,
            "word": exc.word,
            "reason": exc.reason,
        }, sort_keys=True) + "\n" for exc in exclusions)
        n_words += len(table)
    with open_output(out / "labels.jsonl") as fh:
        fh.writelines(label_lines)
    with open_output(out / "exclusions.jsonl") as fh:
        fh.writelines(exclusion_lines)
    _write_manifest(out / "manifest.json", args, files + [args.dict_path])
    _echo(f"label: {n_words} labeled word instances -> {out}")
    return 0


def _featurize_one(f: str, args, lex, dsp_cfg: DspConfig):
    alignment = load_alignment(f)
    if alignment.audio_path is None:
        raise ConfigError(f"{f}: alignment has no audio_path")
    audio = alignment.audio_path
    if not os.path.isabs(audio):
        base = args.audio_dir or str(Path(f).parent)
        audio = str(Path(base) / audio)
    samples, rate = read_wav(audio)
    # the pool: every syllable, or under multisyllabic_only those of words
    # of 2 or more syllables; the others stay 0
    sizes = np.diff(alignment.offsets)
    pooled = np.repeat((sizes >= 2) | (args.normalization_pool == "sentence"), sizes)
    # A finite sample can still overflow once squared; such an utterance
    # is refused below, without NumPy warnings on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            pitch = estimate_pitch(samples, rate, dsp_cfg)
            intensity = compute_intensity(samples, rate, dsp_cfg)
        except ConfigError as exc:
            raise ConfigError(f"bad dsp config for {audio}: {exc}")
        raw = extract_features(pitch, intensity, alignment.spans)
        features = np.zeros(raw.shape)
        if pooled.any():
            features[pooled] = normalize_sentence(raw[pooled])
    if not np.isfinite(features).all():
        raise NumericalInstability(f"{audio}: non-finite feature values")
    return label_utterance(alignment, lex, features,
                           exclusion_scope=args.exclusion_scope)


def _cmd_featurize(args, config) -> int:
    lex = load_dictionary(args.dict_path)
    dsp_cfg = _settings(DspConfig, "dsp", config.get("dsp", {}))
    files = _alignment_files(args.alignments)
    tables = []
    n_excluded = 0
    for f in files:
        labeled, exclusions = _featurize_one(f, args, lex, dsp_cfg)
        tables.append(labeled)
        n_excluded += len(exclusions)
    table = instances_from_table(tables)
    write_feature_table(table, args.out)
    _write_manifest(args.out + ".manifest.json", args, files + [args.dict_path],
                    dsp=dsp_cfg)
    _echo(f"featurize: {len(table)} word instances "
          f"({n_excluded} exclusions) -> {args.out}")
    return 0


def _cmd_split(args, config) -> int:
    lines = read_table_lines(args.features)
    train_set, test_set = split_utterances(lines, args.train_fraction, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table_lines(train_set, str(out / "train.jsonl"))
    write_table_lines(test_set, str(out / "test.jsonl"))
    _write_manifest(out / "manifest.json", args, [args.features])
    _echo(f"split: {len(train_set)} train / {len(test_set)} test instances -> {out}")
    return 0


def _cmd_train(args, config) -> int:
    for dest, models in _MODEL_FLAGS.items():
        if getattr(args, dest) is not None and args.model not in models:
            raise ConfigError(f"--{dest.replace('_', '-')} is not read by "
                              f"--model {args.model}")
    instances = read_feature_table(args.train)
    if not len(instances):
        raise DegenerateData("empty training set")
    require_gold(instances)
    settings = {}
    if args.model in ("or", "rf"):
        if args.feature_mode == ALL_FEATURES:
            raise ConfigError(
                "baselines take numerical features only; "
                "use syllable_numerical or syllable_nucleus_numerical")
        X = instances.features[:, :feature_dim(args.feature_mode)]
        y = instances.labels
        if args.model == "or":
            # a finite feature can overflow x @ beta: judged by finiteness
            with np.errstate(over="ignore", invalid="ignore"):
                model = baselines.train_ordinal(X, y, seed=args.seed)
            checkpoint.save_ordinal(args.out, model, args.feature_mode)
        else:
            given = {k: getattr(args, k) for k in ("n_trees", "max_depth")
                     if getattr(args, k) is not None}
            model = baselines.train_forest(X, y, seed=args.seed, **given)
            checkpoint.save_forest(args.out, model, args.feature_mode)
        _echo(f"train[{args.model}]: {len(y)} syllables -> {args.out}")
    else:
        train_cfg = _settings(
            TrainConfig, "train", config.get("train", {}), epochs=args.epochs,
            batch_size=args.batch_size, learning_rate=args.learning_rate,
            validation_fraction=args.val_fraction, seed=args.seed)
        model_doc = config.get("model", {})
        preset = PRESETS.get(args.model, {})
        fixed = sorted(preset.keys() & model_doc.keys())
        if fixed:
            raise ConfigError(f"model.{fixed[0]} is fixed by the {args.model} "
                              "preset; use --model attn-custom to set it")
        model_cfg = _settings(ModelConfig, "model", {**model_doc, **preset},
                              feature_mode=args.feature_mode, dropout=args.dropout)
        settings = {"train": train_cfg, "model": model_cfg}

        vf = train_cfg.validation_fraction
        tr, val = instances, None
        # a split needs two utterances; with one, none is drawn
        if vf > 0 and len(set(instances.utterance_ids)) > 1:
            in_train = train_utterances(instances.utterance_ids, 1.0 - vf, args.seed)
            if not in_train.any():
                raise ConfigError(
                    f"validation_fraction {vf} leaves no training utterance")
            if not in_train.all():
                tr, val = instances[in_train], instances[~in_train]
        # an overflow is judged by finiteness: DivergedAtEpoch
        with np.errstate(over="ignore", invalid="ignore"):
            params, weights, history = train_model(tr, val or tr, model_cfg,
                                                   train_cfg)
        checkpoint.save_model(args.out, params, model_cfg, weights)
        if args.history:
            _write_json(args.history, history)
        split = (f"{len(tr)} train / {len(val)} val instances" if val else
                 f"{len(tr)} train instances (no validation utterance drawn: "
                 "val acc is on the training words)")
        _echo(f"train[{args.model}]: {split}, {len(history)} epochs, best val acc "
              f"{max((h['val_acc'] for h in history), default=float('nan')):.4f} "
              f"-> {args.out}")
    _write_manifest(args.out + ".manifest.json", args, [args.train], **settings)
    return 0


def _predict_all(path: str, instances: Instances):
    """The (n_syllables, 3) class scores of the instances' syllables, in
    row order, and the checkpoint's class-weight table or None; each kind
    scores the whole table in one batched call. Their argmax breaks ties
    toward the lowest class."""
    model, feature_mode, weights = checkpoint.load_any(path)
    X = instances.features[:, :feature_dim(feature_mode)]
    if isinstance(model, baselines.OrdinalModel):
        # a finite feature can overflow x @ beta: judged by finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            probs = model.class_probs(X)
        if not np.isfinite(probs).all():
            raise NumericalInstability("non-finite ordinal class probabilities")
        return probs, weights
    if isinstance(model, baselines.ForestModel):
        return model.vote_shares(X), weights
    # an overflow is judged by finiteness: forward's NumericalInstability
    with np.errstate(over="ignore", invalid="ignore"):
        return predict_instances(*model, instances), weights


def _write_predictions(path: str, instances: Instances,
                       probs: np.ndarray) -> None:
    """Write one line per word, the bytes json.dumps(doc, sort_keys=True)
    and a newline would write for its document {"utterance_id", "word",
    "syllables": [{"position", "stress_pred", "probs"}]}, word i's
    syllables being rows offsets[i]:offsets[i + 1] of probs. The fixed
    schema is laid out here instead: a probability as json.dumps writes a
    float (its repr, or NaN, Infinity, -Infinity), text as JSON's ASCII
    string."""
    rows = [", ".join(map(float.__repr__, row)) for row in probs.tolist()]
    if not np.isfinite(probs).all():
        rows = [row.replace("nan", "NaN").replace("inf", "Infinity") for row in rows]
    levels = probs.argmax(axis=1).tolist()
    offsets = instances.offsets.tolist()
    with open_output(path) as fh:
        for uid, word, start, stop in zip(instances.utterance_ids, instances.words,
                                          offsets, offsets[1:]):
            sylls = ", ".join(
                f'{{"position": {i}, "probs": [{row}], "stress_pred": {level}}}'
                for i, (level, row) in enumerate(
                    zip(levels[start:stop], rows[start:stop])))
            fh.write(f'{{"syllables": [{sylls}], '
                     f'"utterance_id": {encode_basestring_ascii(uid)}, '
                     f'"word": {encode_basestring_ascii(word)}}}\n')


def _cmd_predict(args, config) -> int:
    instances = read_feature_table(args.input)
    probs, _ = _predict_all(args.model, instances)
    _write_predictions(args.out, instances, probs)
    _echo(f"predict: {len(instances)} word instances -> {args.out}")
    return 0


def _cmd_eval(args, config) -> int:
    instances = read_feature_table(args.data)
    probs, weights = _predict_all(args.model, instances)
    report = evaluate(probs.argmax(axis=1), instances, weights)
    out = Path(args.out)
    _write_json(str(out) + ".json", dataclasses.asdict(report))
    with open_output(str(out) + ".txt") as fh:
        fh.write(render_report(report))
    _write_manifest(str(out) + ".manifest.json", args, [args.model, args.data])
    wa = ("" if report.weighted_accuracy is None
          else f", weighted {report.weighted_accuracy:.4f}")
    _echo(f"eval: accuracy {report.accuracy:.4f}{wa} "
          f"on {report.n_syllables} syllables -> {out}.json/.txt")
    return 0


def _cmd_pca(args, config) -> int:
    model, _, _ = checkpoint.load_any(args.model)
    if isinstance(model, (baselines.OrdinalModel, baselines.ForestModel)):
        raise ConfigError("pca needs an attention checkpoint with type embeddings")
    # an overflow is judged by finiteness: NumericalInstability
    with np.errstate(over="ignore", invalid="ignore"):
        proj = pca_type_embeddings(model[0])
    _write_json(args.out, {"points": proj.points,
                           "explained_variance": proj.explained_variance})
    _echo(f"pca: {len(proj.points)} type-embedding points -> {args.out}")
    return 0


# --- parser ----------------------------------------------------------------------

def _add_key_flags(p: argparse.ArgumentParser, *keys: str) -> None:
    """Give p the flags of these top-level keys, each stored under its key."""
    for key in keys:
        spec = _TOP_LEVEL[key]
        p.add_argument(spec.flag, dest=key, type=spec.type, choices=spec.choices)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # through _echo: argparse's own print ignores a failed write
        _echo(self.format_help(), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stressnet",
        description="Syllable-level stress detection pipelines.")
    parser.add_argument("--config", help="JSON run-config file; flags override it")
    # accepted before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON run-config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _Parser(
                                    parents=[common], **kw))

    p = sub.add_parser("lexicon", help="dictionary lookup")
    lex_sub = p.add_subparsers(dest="lexicon_command", required=True)
    q = lex_sub.add_parser("lookup", help="print syllabification and stresses")
    q.add_argument("word")
    _add_key_flags(q, "dict_path")
    q.set_defaults(func=_cmd_lexicon)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True, help="number of utterances")
    p.add_argument("--noise", type=float)
    p.add_argument("--labeling", choices=LABELINGS)
    p.add_argument("--out", required=True)
    _add_key_flags(p, "seed", "dict_path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("label", help="attach gold labels to alignments")
    p.add_argument("--alignments", required=True)
    p.add_argument("--out", required=True)
    _add_key_flags(p, "dict_path", "exclusion_scope")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("featurize", help="alignments + audio -> feature table")
    p.add_argument("--alignments", required=True)
    p.add_argument("--audio-dir", dest="audio_dir")
    p.add_argument("--out", required=True)
    _add_key_flags(p, "dict_path", "exclusion_scope", "normalization_pool")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("split", help="utterance-level train/test split")
    p.add_argument("--features", required=True)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--out", required=True)
    _add_key_flags(p, "seed")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="fit a model")
    p.add_argument("--model", required=True,
                   choices=["or", "rf", *_ATTENTION_MODELS])
    p.add_argument("--train", required=True, help="training feature table")
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_key_flags(p, "feature_mode", "seed")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--n-trees", dest="n_trees", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)
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
        config = _load_config(args.config)
        _resolve(args, config)
        return args.func(args, config)
    except SystemExit as exc:  # --help, or a usage error
        return int(exc.code or 0)
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
    code = run_subcommand()
    try:
        sys.stdout.flush()
    except OSError:  # stdout keeps what _echo failed to write, to retry at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)

if __name__ == "__main__":
    main()
