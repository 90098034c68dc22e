"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from outside the package: every probed stressnet
function is replaced by a wrapper under *every* name it is bound to, in
every loaded ``stressnet`` module (``cli`` imports ``estimate_pitch`` and
``predict_instance`` by name, ``training`` imports ``forward``), so no
call escapes the trace. Methods are patched on their class. ``unpatch``
restores every original binding.

A span holds its name, start, end, parent span and run id. Spans are kept
in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one run id.

    The open-span stack is per thread. A span opened in a thread with an
    empty stack (``featurize`` runs utterances on an executor thread) is
    parented to the open stage span.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.latencies_s: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self._stage
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int | None, name: str,
               start: float, end: float) -> None:
        self._stack().pop()
        self.spans.append(Span(span_id, parent, name, start, end, self.run_id))

    @contextmanager
    def stage(self, name: str):
        """A root span around one CLI stage."""
        span_id, parent = self._open()
        self._stage = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stage = None
            self._close(span_id, parent, name, start, end)

    def wrap(self, name: str, fn, hook=None):
        """fn wrapped in a span; hook(tracer, args, kwargs, result) adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(span_id, parent, name, start, end)
            if hook is not None:
                hook(tracer, args, kwargs, result, end - start)
            return result

        return traced

    def counted(self, name: str, fn):
        """fn wrapped to count calls without opening a span."""
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# --- arithmetic over spans ---------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {span.span_id: span.duration - covered_length(
                children.get(span.span_id, ()), span.start, span.end)
            for span in spans}


PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def phi_percentile(samples, min_above: int = 10) -> tuple[float, float]:
    """(p, value) for the highest ladder percentile with >= min_above
    samples strictly above its nearest-rank value.

    With too few samples for any rung, p50 is returned. Empty input gives
    (0.0, 0.0).
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    best = None
    for p in PERCENTILE_LADDER:
        value = xs[max(0, math.ceil(p * n / 100.0 - 1e-9) - 1)]
        if sum(1 for x in xs if x > value) >= min_above:
            best = (p, value)
    if best is None:
        return 50.0, xs[max(0, math.ceil(0.5 * n) - 1)]
    return best


def slot_counts(mask) -> tuple[int, int]:
    """(computed slots B*P, valid slots) of one padded batch mask."""
    mask = np.asarray(mask)
    batch, positions = mask.shape
    return batch * positions, int(mask.sum())


# --- probes ------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _records_read(tracer, args, kwargs, result, _dt):
    tracer.counts["features.records_read"] += len(result)


def _records_written(tracer, args, kwargs, result, _dt):
    tracer.counts["features.records_written"] += len(_arg(args, kwargs, 0, "records"))


def _pitch_frames(tracer, args, kwargs, result, _dt):
    samples = np.asarray(_arg(args, kwargs, 0, "samples"))
    rate = float(_arg(args, kwargs, 1, "sample_rate"))
    tracer.counts["dsp.frames"] += len(result)
    tracer.counts["dsp.audio_s"] += samples.shape[0] / rate


def _forward_slots(tracer, args, kwargs, result, _dt):
    computed, valid = slot_counts(_arg(args, kwargs, 3, "mask"))
    tracer.counts["network.slots_computed"] += computed
    tracer.counts["network.slots_valid"] += valid


def _train_words(tracer, args, kwargs, result, _dt):
    train_set = _arg(args, kwargs, 0, "train_set")
    train_config = _arg(args, kwargs, 3, "train_config")
    tracer.counts["training.train_words"] += len(train_set) * train_config.epochs


def _predict_latency(tracer, args, kwargs, result, dt):
    tracer.latencies_s["training.predict_instance"].append(dt)


def _score_rows(tracer, args, kwargs, result, _dt):
    tracer.counts["baselines.rows_scored"] += len(result)


def _forest_nodes(tracer, args, kwargs, result, _dt):
    tracer.counts["baselines.forest_nodes"] += sum(len(t.feature) for t in result.trees)


def _bytes_written(tracer, args, kwargs, result, _dt):
    tracer.counts["checkpoint.bytes_written"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


# (module, attribute, span name, hook); "Class.method" patches the class.
PROBES = [
    ("stressnet.lexicon", "load_dictionary", "lexicon.load_dictionary", None),
    ("stressnet.corpus", "synth_corpus", "corpus.synth_corpus", None),
    ("stressnet.corpus", "split", "corpus.split", None),
    ("stressnet.corpus", "instances_from_table", "corpus.instances_from_table", None),
    ("stressnet.corpus", "compute_class_weights", "corpus.compute_class_weights", None),
    ("stressnet.corpus", "load_alignment", "corpus.load_alignment", None),
    ("stressnet.corpus", "label_utterance", "corpus.label_utterance", None),
    ("stressnet.features", "read_feature_table", "features.read_feature_table",
     _records_read),
    ("stressnet.features", "write_feature_table", "features.write_feature_table",
     _records_written),
    ("stressnet.features", "extract_features", "features.extract_features", None),
    ("stressnet.features", "normalize_sentence", "features.normalize_sentence", None),
    ("stressnet.dsp", "read_wav", "dsp.read_wav", None),
    ("stressnet.dsp", "estimate_pitch", "dsp.estimate_pitch", _pitch_frames),
    ("stressnet.dsp", "compute_intensity", "dsp.compute_intensity", None),
    ("stressnet.model.network", "forward", "network.forward", _forward_slots),
    ("stressnet.model.network", "backward", "network.backward", None),
    ("stressnet.model.network", "loss_from_logits", "network.loss_from_logits", None),
    ("stressnet.model.network", "loss_and_grads", "training.loss_and_grads", None),
    ("stressnet.model.training", "train", "training.train", _train_words),
    ("stressnet.model.training", "make_batch", "training.make_batch", None),
    ("stressnet.model.training", "evaluate_batch", "training.evaluate_batch", None),
    ("stressnet.model.training", "predict_instance", "training.predict_instance",
     _predict_latency),
    ("stressnet.model.training", "Adam.step", "training.adam_step", None),
    ("stressnet.baselines", "train_forest", "baselines.train_forest", _forest_nodes),
    ("stressnet.baselines", "train_ordinal", "baselines.train_ordinal", None),
    ("stressnet.baselines", "ForestModel.vote_shares", "baselines.vote_shares",
     _score_rows),
    ("stressnet.baselines", "OrdinalModel.class_probs", "baselines.class_probs",
     _score_rows),
    ("stressnet.checkpoint", "save_model", "checkpoint.save", _bytes_written),
    ("stressnet.checkpoint", "save_ordinal", "checkpoint.save", _bytes_written),
    ("stressnet.checkpoint", "save_forest", "checkpoint.save", _bytes_written),
    ("stressnet.checkpoint", "load_any", "checkpoint.load_any", None),
    ("stressnet.evaluation", "evaluate", "evaluation.evaluate", None),
    ("stressnet.evaluation", "render_report", "evaluation.render_report", None),
    ("stressnet.evaluation", "pca_type_embeddings", "evaluation.pca_type_embeddings",
     None),
]
# counted, not spanned: a span here would move its time out of load_any
COUNTERS = [
    ("stressnet.checkpoint", "load_container", "checkpoint.load_container"),
]


def _rebind(original, replacement, undo: list) -> int:
    """Point every stressnet module attribute bound to original at replacement."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "stressnet"
                                  or mod_name.startswith("stressnet.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)
                hits += 1
    return hits


def patch(tracer: Tracer) -> list:
    """Install the probes; returns the undo list for ``unpatch``."""
    undo: list = []
    wrappers = [(m, a, lambda fn, n=n, h=h: tracer.wrap(n, fn, h))
                for m, a, n, h in PROBES]
    wrappers += [(m, a, lambda fn, n=n: tracer.counted(n, fn))
                 for m, a, n in COUNTERS]
    for mod_name, attr, make in wrappers:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
        elif _rebind(getattr(module, attr), make(getattr(module, attr)), undo) == 0:
            raise RuntimeError(f"probe {mod_name}.{attr} found no binding")
    return undo


def unpatch(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# --- per-layer metrics -------------------------------------------------------

CLI_STAGES = ("synth", "split", "train", "eval", "predict", "pca",
              "featurize", "label")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; zero for layers not exercised."""
    selfs = self_times(tracer.spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        self_s[span.name] += selfs[span.span_id]
        total_s[span.name] += span.duration
        calls[span.name] += 1
    c = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = total_s[f"cli.{stage}"]
    m["cli.self_s"] = sum(self_s[f"cli.{s}"] for s in CLI_STAGES)
    for name in {span_name for _, _, span_name, _ in PROBES}:
        m[f"{name}_s"] = self_s[name]
    m["lexicon.load_dictionary_calls"] = calls["lexicon.load_dictionary"]
    m["corpus.label_utterance_calls"] = calls["corpus.label_utterance"]
    m["features.records_read"] = c["features.records_read"]
    m["features.records_written"] = c["features.records_written"]
    m["dsp.frames"] = c["dsp.frames"]
    m["dsp.pitch_rtf"] = ratio(c["dsp.audio_s"], total_s["dsp.estimate_pitch"])
    m["network.forward_calls"] = calls["network.forward"]
    m["network.slots_computed"] = c["network.slots_computed"]
    m["network.valid_slot_ratio"] = ratio(c["network.slots_valid"],
                                          c["network.slots_computed"])
    m["training.steps"] = calls["training.adam_step"]
    m["training.words_per_s"] = ratio(c["training.train_words"],
                                      total_s["training.train"])
    latencies = tracer.latencies_s["training.predict_instance"]
    phi_p, phi = phi_percentile(latencies)
    m["training.predict_instance_p50_us"] = (
        1e6 * float(np.median(latencies)) if latencies else 0.0)
    m["training.predict_instance_phi_us"] = 1e6 * phi
    m["training.predict_instance_phi_pct"] = phi_p
    m["training.predict_instance_samples"] = len(latencies)
    m["baselines.forest_nodes"] = c["baselines.forest_nodes"]
    m["baselines.vote_shares_calls"] = calls["baselines.vote_shares"]
    m["baselines.class_probs_calls"] = calls["baselines.class_probs"]
    m["baselines.rows_per_score_call"] = ratio(
        c["baselines.rows_scored"],
        calls["baselines.vote_shares"] + calls["baselines.class_probs"])
    m["checkpoint.bytes_written"] = c["checkpoint.bytes_written"]
    m["checkpoint.load_container_per_load"] = ratio(
        c["checkpoint.load_container"], calls["checkpoint.load_any"])
    m["tracing.spans"] = len(tracer.spans)
    return m
