"""Command-line entry point: reproducible pipelines over all modules.

Subcommands: lexicon, featurize, synth, label, split, train, predict,
eval, pca. Each setting is resolved once, before the subcommand runs:
its flag, else the JSON run-config file's (--config) value, else the
default. _OUTPUTS declares the files each subcommand writes, its
manifest last (none for lexicon, predict and pca), and run_subcommand
writes the manifest, then prints the subcommand's summary line. A
manifest holds the command, its arguments after resolution, every
settings object it built (all fields, defaults too) and the SHA-256 of
each input file, taken before the subcommand opens its first output, so
an output written over an input does not stand in for it (featurize's
WAVs too, each hashed from the bytes it decoded, so no WAV is read
twice): enough to rerun it byte-identically.
Paths are recorded as given, the bundled dictionary as "<bundled>"
wherever it is installed.

split parses and checks every line of --features, then copies each kept
word's line as it was, surrounding whitespace stripped, with a newline.
So a table this program wrote splits into the bytes write_feature_table
would write for each part, and a valid table from elsewhere keeps its
own key order, spacing and number spelling. Tables, predict's output
and labels.jsonl have one writer, features.write_word_lines: per word
what json.dumps(doc, sort_keys=True) and a newline write, for predict
{"syllables": [{"position", "probs", "stress_pred"}], "utterance_id", "word"}.
Each caller hands it functions that spell the texts of a range of rows,
and it asks for them a chunk of words at a time.

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
from pathlib import Path

import numpy as np

from . import baselines, bundled_dictionary_path, checkpoint
from ._workers import map_jobs
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
    UnknownWord,
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
    write_word_lines,
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
# featurize runs fewer files in this process; with 2 workers, 2 rendered
# 7-second utterances took 55 ms serial and 58 ms forked, 3 took 69 and 59 ms
FORK_MIN_FILES = 3
# the files each subcommand writes, its manifest (or None) last: "out/name"
# is a file in the --out directory, "out.suffix" --out with .suffix appended
_OUTPUTS = {"lexicon": (None,), "predict": ("out", None), "pca": ("out", None),
            "synth": ("out/features.jsonl", "out/manifest.json"),
            "label": ("out/labels.jsonl", "out/exclusions.jsonl", "out/manifest.json"),
            "featurize": ("out", "out.manifest.json"),
            "split": ("out/train.jsonl", "out/test.jsonl", "out/manifest.json"),
            "train": ("out", "history", "out.manifest.json"),
            "eval": ("out.json", "out.txt", "out.manifest.json")}


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


def _output_path(args, spec: str) -> str | None:
    """The path that spec, an entry of _OUTPUTS, names (None: not asked for)."""
    key, into, name = spec.partition("/")
    key, dot, suffix = key.partition(".")
    value = getattr(args, key)
    if value is None or not into and value.endswith(os.sep):
        return value  # a prefix ending in a separator: refused as a directory
    return str(Path(value) / name) if into else value + dot + suffix


def _resolve(args, config: dict) -> list[str | None]:
    """Settle args before the subcommand runs, and return the paths that
    _OUTPUTS declares for it. Each top-level key that it takes and no flag
    gave becomes the config file's value, else the default; a path naming a
    directory (one that exists, or ending in a separator) is refused before
    any input is read; and each output argument's parent directory is made."""
    for key in _TOP_LEVEL.keys() & vars(args).keys():
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, _TOP_LEVEL[key].default))
    if "dict_path" in vars(args) and args.dict_path is None:
        args.dict_path = os.environ.get("STRESSNET_DICT", bundled_dictionary_path())
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    paths = [spec and _output_path(args, spec) for spec in _OUTPUTS[args.command]]
    for path in filter(None, paths):
        if os.path.isdir(path) or path.endswith(os.sep):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    for key in ("out", "history"):
        if getattr(args, key, None):
            Path(getattr(args, key)).parent.mkdir(parents=True, exist_ok=True)
    return paths


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


def _hashed(paths: list[str]) -> list[tuple[str, str]]:
    """The (path, SHA-256) of each input file. A subcommand hashes its
    inputs before it opens its first output, so an output that overwrites
    an input cannot put its own digest in the manifest."""
    return [(path, _sha256(path)) for path in paths]


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


def _write_manifest(path, args, inputs: list[tuple[str, str]],
                    **settings) -> None:
    """Write the manifest at path, as the module docstring describes, the
    bundled dictionary named "<bundled>" as an argument and as an input.
    Each input is the (path, SHA-256) of a file that the subcommand hashed
    before it opened its first output."""
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
        "inputs": {shown(p): digest for p, digest in inputs},
    })


# --- subcommands ---------------------------------------------------------------

def _cmd_lexicon(args, config):
    variants = load_dictionary(args.dict_path).lookup(args.word)
    if not variants:
        raise UnknownWord(f"{args.word!r} not found in dictionary")
    lines = []
    for entry in variants:
        syl = syllabify(entry)
        pieces = [" ".join(s.onset + (s.nucleus_phoneme,) + s.coda)
                  for s in syl.syllables]
        lines += [f"{entry.word} (variant {entry.variant_index}): {' . '.join(pieces)}",
                  "  stresses: " + " ".join(str(int(s)) for s in syl.stresses())
                  + "  (" + " ".join(s.name.lower() for s in syl.stresses()) + ")",
                  "  nuclei:   " + " ".join(syl.nucleus_tags())]
    lines.append(f"{len(variants)} pronunciation(s), "
                 f"{len(syllabify(variants[0]).syllables)} syllable(s) in variant 0")
    return "\n".join(lines), [], {}


def _cmd_synth(args, config, features_path):
    lex = load_dictionary(args.dict_path)
    gen = _settings(GenConfig, "gen", config.get("gen", {}),
                    noise=args.noise, labeling=args.labeling)
    alignments, table = synth_corpus(lex, args.n, gen, seed=args.seed)
    inputs = _hashed([args.dict_path])
    out = Path(args.out)
    (out / "alignments").mkdir(parents=True, exist_ok=True)
    for al in alignments:
        save_alignment(al, str(out / "alignments" / f"{al.utterance_id}.json"))
    write_feature_table(table, features_path)
    return (f"synth: {len(alignments)} utterances, {len(table)} word instances "
            f"-> {out}"), inputs, {"gen": gen}


def _alignment_files(path: str) -> list[str]:
    """[path], or a directory's *.json files but manifest.json and *.manifest.json."""
    p = Path(path)
    if p.is_dir():
        return sorted(str(f) for f in p.glob("*.json") if not (
            f.name == "manifest.json" or f.name.endswith(".manifest.json")))
    return [str(p)]


def _write_labels(path: str, table: Instances) -> None:
    """Write label's labels.jsonl with write_word_lines: per word its
    "nuclei" tags and gold "stresses"."""
    tag_json = [json.dumps(tag) for tag in NUCLEUS_TAGS]
    types, labels = table.types, table.labels
    write_word_lines(table, path,
                     nuclei=lambda rows: [tag_json[t] for t in types[rows].tolist()],
                     stresses=lambda rows: list(map(str, labels[rows].tolist())))


def _cmd_label(args, config, labels_path, exclusions_path):
    lex = load_dictionary(args.dict_path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = _alignment_files(args.alignments)
    # every input is read before an output is opened, so that a failed
    # write names its own file (see open_output)
    runs = [label_utterance(load_alignment(f), lex,
                            exclusion_scope=args.exclusion_scope) for f in files]
    table = instances_from_table([labeled for labeled, _ in runs])
    exclusion_lines = [json.dumps(dataclasses.asdict(exc), sort_keys=True) + "\n"
                       for _, exclusions in runs for exc in exclusions]
    inputs = _hashed(files + [args.dict_path])
    _write_labels(labels_path, table)
    with open_output(exclusions_path) as fh:
        fh.writelines(exclusion_lines)
    return f"label: {len(table)} labeled word instances -> {out}", inputs, {}


def _featurize_one(f: str, args, lex, dsp_cfg: DspConfig):
    """The (path, SHA-256) of the WAV that alignment file f names, read
    once, and f's labeled table and exclusions."""
    alignment = load_alignment(f)
    if alignment.audio_path is None:
        raise ConfigError(f"{f}: alignment has no audio_path")
    audio = alignment.audio_path
    if not os.path.isabs(audio):
        base = args.audio_dir or str(Path(f).parent)
        audio = str(Path(base) / audio)
    buf = Path(audio).read_bytes()
    samples, rate = read_wav(audio, buf)
    wav = audio, hashlib.sha256(buf).hexdigest()
    # freed before the trackers run: held, it made each featurize pass of
    # the benchmark's 209 s of audio take about 1,100 more page faults
    del buf
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
    return wav, *label_utterance(alignment, lex, features,
                                 exclusion_scope=args.exclusion_scope)


def _cmd_featurize(args, config, out):
    lex = load_dictionary(args.dict_path)
    dsp_cfg = _settings(DspConfig, "dsp", config.get("dsp", {}))
    files = _alignment_files(args.alignments)
    runs = map_jobs(_featurize_one, files, (args, lex, dsp_cfg),
                    serial=len(files) < FORK_MIN_FILES)
    table = instances_from_table([labeled for _, labeled, _ in runs])
    inputs = _hashed(files + [args.dict_path]) + [wav for wav, _, _ in runs]
    write_feature_table(table, out)
    n_excluded = sum(len(exclusions) for _, _, exclusions in runs)
    return (f"featurize: {len(table)} word instances ({n_excluded} exclusions) "
            f"-> {out}"), inputs, {"dsp": dsp_cfg}


def _cmd_split(args, config, train_path, test_path):
    lines = read_table_lines(args.features)
    train_set, test_set = split_utterances(lines, args.train_fraction, args.seed)
    inputs = _hashed([args.features])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table_lines(train_set, train_path)
    write_table_lines(test_set, test_path)
    return (f"split: {len(train_set)} train / {len(test_set)} test instances "
            f"-> {out}"), inputs, {}


def _cmd_train(args, config, out, history_path):
    for dest, models in _MODEL_FLAGS.items():
        if getattr(args, dest) is not None and args.model not in models:
            raise ConfigError(f"--{dest.replace('_', '-')} is not read by "
                              f"--model {args.model}")
    instances = read_feature_table(args.train)
    inputs = _hashed([args.train])
    if not len(instances):
        raise DegenerateData("empty training set")
    require_gold(instances)
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
            checkpoint.save_ordinal(out, model, args.feature_mode)
        else:
            given = {k: getattr(args, k) for k in ("n_trees", "max_depth")
                     if getattr(args, k) is not None}
            model = baselines.train_forest(X, y, seed=args.seed, **given)
            checkpoint.save_forest(out, model, args.feature_mode)
        return f"train[{args.model}]: {len(y)} syllables -> {out}", inputs, {}
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
        checkpoint.save_model(out, params, model_cfg, weights)
        if history_path:
            _write_json(history_path, history)
        split = (f"{len(tr)} train / {len(val)} val instances" if val else
                 f"{len(tr)} train instances (no validation utterance drawn: "
                 "val acc is on the training words)")
        return (f"train[{args.model}]: {split}, {len(history)} epochs, best val acc "
                f"{max((h['val_acc'] for h in history), default=float('nan')):.4f} "
                f"-> {out}"), inputs, {"train": train_cfg, "model": model_cfg}


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
    """Write predict's output with write_word_lines: a syllable per row
    of probs, {"position", "probs", "stress_pred"}, a probability spelled
    as json.dumps spells a float."""
    def syllables(rows: slice) -> list[str]:
        chunk = probs[rows]
        texts = [", ".join(map(float.__repr__, row)) for row in chunk.tolist()]
        if not np.isfinite(chunk).all():
            texts = [t.replace("nan", "NaN").replace("inf", "Infinity") for t in texts]
        return [f'{{"position": {i}, "probs": [{text}], "stress_pred": {level}}}'
                for i, text, level in zip(instances.positions(rows).tolist(), texts,
                                          chunk.argmax(axis=1).tolist())]

    write_word_lines(instances, path, syllables=syllables)


def _cmd_predict(args, config, out):
    instances = read_feature_table(args.input)
    probs, _ = _predict_all(args.model, instances)
    _write_predictions(out, instances, probs)
    return f"predict: {len(instances)} word instances -> {out}", [], {}


def _cmd_eval(args, config, json_path, txt_path):
    instances = read_feature_table(args.data)
    probs, weights = _predict_all(args.model, instances)
    report = evaluate(probs.argmax(axis=1), instances, weights)
    inputs = _hashed([args.model, args.data])
    _write_json(json_path, dataclasses.asdict(report))
    with open_output(txt_path) as fh:
        fh.write(render_report(report))
    wa = ("" if report.weighted_accuracy is None
          else f", weighted {report.weighted_accuracy:.4f}")
    return (f"eval: accuracy {report.accuracy:.4f}{wa} on {report.n_syllables} "
            f"syllables -> {Path(json_path)}/{Path(txt_path).suffix}",
            inputs, {})


def _cmd_pca(args, config, out):
    model, _, _ = checkpoint.load_any(args.model)
    if isinstance(model, (baselines.OrdinalModel, baselines.ForestModel)):
        raise ConfigError("pca needs an attention checkpoint with type embeddings")
    # an overflow is judged by finiteness: NumericalInstability
    with np.errstate(over="ignore", invalid="ignore"):
        proj = pca_type_embeddings(model[0])
    _write_json(out, {"points": proj.points,
                      "explained_variance": proj.explained_variance})
    return f"pca: {len(proj.points)} type-embedding points -> {out}", [], {}


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
        *paths, manifest = _resolve(args, config)
        line, inputs, settings = args.func(args, config, *paths)
        if manifest:
            _write_manifest(manifest, args, inputs, **settings)
        _echo(line)
        return 0
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
