"""The three workloads: inputs from a seed, timed CLI stages, output checks.

Every input the program sees is generated here from the workload seed:
the ``synth`` arguments, the split/train seeds and, for
``audio-featurize``, WAV files rendered from the synthetic alignments.
The program is driven only through ``stressnet.cli.run_subcommand``.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# criterion-8 corpus of the acceptance tests
CORPUS_UTTERANCES = 250
NOISE = 0.75
ATTN_EPOCHS = 3
LEARNING_RATE = 3e-3
N_TREES = 4
BASELINE_MODE = "syllable_nucleus_numerical"

AUDIO_UTTERANCES = 80  # synthesized; the checkpoint trains on all of them
AUDIO_SECONDS = 200.0  # rendered and featurized: the first utterances that reach it
AUDIO_CKPT_LR = 1e-2
AUDIO_CKPT_BATCH = 32
AUDIO_CKPT_EPOCHS = 4
SAMPLE_RATE = 16000
# Each syllable is voiced by a tone whose pitch and level follow its lexicon
# stress (non-stress, primary, secondary), with seeded jitter, raised over
# the nucleus as in the synthetic feature generator.
STRESS_PITCH_HZ = (120.0, 160.0, 135.0)
STRESS_LEVEL_DB = (-20.0, -14.0, -17.0)  # RMS re full scale
NUCLEUS_SHIFT_HZ = 5.0
NUCLEUS_SHIFT_DB = 1.0
PITCH_JITTER_HZ = 8.0
LEVEL_JITTER_DB = 1.5
NOISE_RMS = 1e-3
FADE_S = 0.01  # raised-cosine on- and offset of each voiced stretch
TAIL_S = 0.1

SETUP_REPEATS = 3


class StageFailed(Exception):
    pass


@dataclass
class Stage:
    name: str
    seconds: float
    words: int = 0  # word instances scored, for eval and predict


@dataclass
class Pass:
    """One run of a workload's CLI sequence, with its output checks."""

    run_subcommand: object
    tracer: object = None
    probe: object = None  # reference kernel, run and timed before each stage
    probes: list[float] = field(default_factory=list)
    stages: list[Stage] = field(default_factory=list)
    operations: int = 0
    failures: list[str] = field(default_factory=list)
    accuracies: dict[str, float] = field(default_factory=dict)

    def stage(self, *argv, words: int = 0) -> None:
        argv = [str(a) for a in argv]
        if self.probe is not None:
            self.probes.append(self.probe())
        self.operations += 1
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.stage(f"cli.{argv[0]}") if self.tracer is not None
                else nullcontext())
        start = time.perf_counter()
        try:
            with span, redirect_stdout(out), redirect_stderr(err):
                rc = self.run_subcommand(argv)
        except Exception:  # an uncaught CLI error is a failed stage, not a crash
            rc, err = "traceback", io.StringIO(traceback.format_exc())
        self.stages.append(Stage(argv[0], time.perf_counter() - start, words))
        if rc != 0:
            self.failures.append(f"{' '.join(argv)}: exit {rc}: "
                                 f"{err.getvalue().strip()}")
            raise StageFailed(argv[0])

    def close(self) -> None:
        """Run the probe once more, so that every stage has one on each side."""
        if self.probe is not None:
            self.probes.append(self.probe())

    def relative_seconds(self) -> float:
        """The pass's stage time over the median probe time around its stages."""
        return self.seconds() / statistics.median(self.probes)

    def check(self, ok: bool, message: str) -> None:
        self.operations += 1
        if not ok:
            self.failures.append(message)

    def seconds(self, *names: str) -> float:
        return sum(s.seconds for s in self.stages if not names or s.name in names)

    def words_per_s(self) -> float:
        scored = [s for s in self.stages if s.words]
        return sum(s.words for s in scored) / sum(s.seconds for s in scored)


# --- table reading, independent of the package ---------------------------------

def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_accuracy(p: Pass, model: str, table: Path, pred: Path,
                   report: Path) -> None:
    """eval's accuracy must equal one recomputed from predict's output."""
    gold = read_jsonl(table)
    preds = read_jsonl(pred)
    correct = total = 0
    aligned = len(gold) == len(preds)
    for g, q in zip(gold, preds):
        aligned &= (g["utterance_id"], g["word"]) == (q["utterance_id"], q["word"])
        labels = [s["stress"] for s in sorted(g["syllables"],
                                             key=lambda s: s["position"])]
        guesses = [s["stress_pred"] for s in sorted(q["syllables"],
                                                    key=lambda s: s["position"])]
        aligned &= len(labels) == len(guesses)
        correct += sum(int(a == b) for a, b in zip(labels, guesses))
        total += len(labels)
    reported = json.loads(report.read_text(encoding="utf-8"))["accuracy"]
    p.check(aligned, f"{model}: predict output does not line up with {table.name}")
    p.check(total > 0 and abs(reported - correct / total) <= 1e-12,
            f"{model}: eval accuracy {reported} != recomputed "
            f"{correct}/{total} from predict output")
    p.accuracies[model] = reported


def table_size(path: Path) -> tuple[int, int]:
    """(words, syllables) of a feature table."""
    rows = read_jsonl(path)
    return len(rows), sum(len(r["syllables"]) for r in rows)


# --- attn-train ----------------------------------------------------------------

def _synth_split(p: Pass, work: Path, seed: int, n: int) -> tuple[Path, Path]:
    corpus = work / "corpus"
    p.stage("synth", "--n", n, "--seed", seed, "--noise", NOISE, "--out", corpus)
    p.stage("split", "--features", corpus / "features.jsonl", "--seed", seed,
            "--out", corpus / "split")
    return corpus / "split" / "train.jsonl", corpus / "split" / "test.jsonl"


def _score(p: Pass, model: str, ckpt: Path, table: Path, work: Path,
           words: int) -> tuple[Path, Path]:
    report = work / "reports" / model
    pred = work / f"{model}.pred.jsonl"
    p.stage("eval", "--model", ckpt, "--data", table, "--out", report, words=words)
    p.stage("predict", "--model", ckpt, "--input", table, "--out", pred, words=words)
    return pred, Path(str(report) + ".json")


def attn_train(p: Pass, work: Path, seed: int, train: Path, test: Path,
               epochs: int = ATTN_EPOCHS) -> None:
    words = table_size(test)[0]
    ckpt = work / "attn.ckpt"
    p.stage("train", "--model", "attn-medium", "--feature-mode", "all_features",
            "--train", train, "--out", ckpt, "--epochs", epochs,
            "--learning-rate", LEARNING_RATE, "--dropout", 0, "--seed", seed)
    pred, report = _score(p, "attn", ckpt, test, work, words)
    p.stage("pca", "--model", ckpt, "--out", work / "pca.json")
    check_accuracy(p, "attn", test, pred, report)
    pca = json.loads((work / "pca.json").read_text(encoding="utf-8"))
    p.check(len(pca["points"]) == 16 and all(
        math.isfinite(x) for pt in pca["points"].values() for x in pt),
        "pca: expected 16 finite type-embedding points")


def baselines(p: Pass, work: Path, seed: int, n: int = CORPUS_UTTERANCES,
              n_trees: int = N_TREES) -> None:
    train, test = _synth_split(p, work, seed, n)
    words = table_size(test)[0]
    ckpts = {"rf": work / "rf.ckpt", "or": work / "or.ckpt"}
    p.stage("train", "--model", "rf", "--n-trees", n_trees, "--feature-mode",
            BASELINE_MODE, "--train", train, "--out", ckpts["rf"], "--seed", seed)
    p.stage("train", "--model", "or", "--feature-mode", BASELINE_MODE,
            "--train", train, "--out", ckpts["or"], "--seed", seed)
    for model, ckpt in ckpts.items():
        pred, report = _score(p, model, ckpt, test, work, words)
        check_accuracy(p, model, test, pred, report)


# --- audio-featurize -----------------------------------------------------------

def render_audio(corpus: Path, out: Path, seed: int,
                 seconds: float = AUDIO_SECONDS) -> tuple[int, int, float]:
    """One 16 kHz int16 WAV, plus its alignment, per synthetic utterance.

    Utterances are rendered in file-name order until ``seconds`` of audio
    are written, so the amount of audio hardly depends on the seed.

    Each syllable span is voiced by a tone whose pitch and level follow
    the syllable's lexicon stress (read from the synth feature table),
    with seeded jitter, rising over the nucleus. Seeded low-level noise
    runs under the whole file, so word gaps hold noise only. Returns
    (words, syllables, audio seconds) rendered.
    """
    from scipy.io import wavfile

    stresses: dict[str, list[list[int]]] = {}
    for rec in read_jsonl(corpus / "features.jsonl"):
        syl = sorted(rec["syllables"], key=lambda s: s["position"])
        stresses.setdefault(rec["utterance_id"], []).append(
            [s["stress"] for s in syl])
    rng = np.random.default_rng([seed, 1])
    (out / "wav").mkdir(parents=True, exist_ok=True)
    (out / "alignments").mkdir(parents=True, exist_ok=True)
    n_words = n_syllables = 0
    audio_s = 0.0
    fade_n = FADE_S * SAMPLE_RATE

    def sample(t: float) -> int:
        return int(round(t * SAMPLE_RATE))

    for path in sorted((corpus / "alignments").glob("*.json")):
        if audio_s >= seconds:
            break
        doc = json.loads(path.read_text(encoding="utf-8"))
        utt = doc["utterance_id"]
        end_s = max(s["end_s"] for w in doc["words"] for s in w["syllables"])
        signal = rng.normal(0.0, NOISE_RMS, sample(end_s + TAIL_S))
        for word, levels in zip(doc["words"], stresses[utt], strict=True):
            for syl, level in zip(word["syllables"], levels, strict=True):
                i0, i1 = sample(syl["start_s"]), sample(syl["end_s"])
                t = np.arange(i0, i1) / SAMPLE_RATE
                in_nucleus = ((t >= syl["nucleus"]["start_s"])
                              & (t < syl["nucleus"]["end_s"]))
                hz = (STRESS_PITCH_HZ[level] + rng.normal(0.0, PITCH_JITTER_HZ)
                      + NUCLEUS_SHIFT_HZ * in_nucleus)
                db = (STRESS_LEVEL_DB[level] + rng.normal(0.0, LEVEL_JITTER_DB)
                      + NUCLEUS_SHIFT_DB * in_nucleus)
                phase = 2.0 * math.pi * np.cumsum(hz) / SAMPLE_RATE
                edge = np.minimum(np.arange(i1 - i0), np.arange(i1 - i0)[::-1])
                fade = 0.5 - 0.5 * np.cos(np.pi * np.minimum(1.0, edge / fade_n))
                signal[i0:i1] += (math.sqrt(2.0) * 10.0 ** (db / 20.0) * fade
                                  * np.sin(phase))
                n_syllables += 1
            n_words += 1
        pcm = np.clip(np.round(signal * 32767.0), -32768, 32767).astype(np.int16)
        wavfile.write(str(out / "wav" / f"{utt}.wav"), SAMPLE_RATE, pcm)
        audio_s += len(pcm) / SAMPLE_RATE
        doc["audio_path"] = f"{utt}.wav"
        (out / "alignments" / path.name).write_text(json.dumps(doc),
                                                    encoding="utf-8")
    return n_words, n_syllables, audio_s


def audio_setup(p: Pass, work: Path, seed: int) -> dict:
    """synth -> render WAVs -> train the small checkpoint used for scoring."""
    corpus = work / "corpus"
    p.stage("synth", "--n", AUDIO_UTTERANCES, "--seed", seed, "--noise", NOISE,
            "--out", corpus)
    words, syllables, audio_s = render_audio(corpus, work / "audio", seed)
    p.stage("train", "--model", "attn-medium", "--feature-mode", "all_features",
            "--train", corpus / "features.jsonl", "--out", work / "attn.ckpt",
            "--epochs", AUDIO_CKPT_EPOCHS, "--learning-rate", AUDIO_CKPT_LR,
            "--batch-size", AUDIO_CKPT_BATCH, "--dropout", 0, "--seed", seed)
    return {"words": words, "syllables": syllables, "audio_s": audio_s}


def audio_featurize(p: Pass, work: Path, seed: int, inputs: dict) -> None:
    audio = work / "audio"
    table = work / "featurized" / "features.jsonl"
    table.parent.mkdir(parents=True, exist_ok=True)
    words = inputs["words"]
    p.stage("featurize", "--alignments", audio / "alignments",
            "--audio-dir", audio / "wav", "--out", table)
    p.stage("label", "--alignments", audio / "alignments",
            "--out", work / "labels")
    pred, report = _score(p, "attn", work / "attn.ckpt", table, work, words)
    rows = read_jsonl(table)
    p.check(len(rows) == words,
            f"featurize wrote {len(rows)} rows for {words} rendered words")
    p.check(all(math.isfinite(x) for r in rows for s in r["syllables"]
                for x in s["features"]), "featurize wrote a non-finite feature")
    labels = read_jsonl(work / "labels" / "labels.jsonl")
    p.check(len(labels) == words,
            f"label wrote {len(labels)} rows for {words} rendered words")
    check_accuracy(p, "attn", table, pred, report)


# --- workload table --------------------------------------------------------------

# attn-train and baselines set up by running their own stages on a small
# corpus, so lazy imports and first-call costs are paid before timing; about
# a second each, as a much shorter set-up is timed too noisily to compare
WARMUP_UTTERANCES = 40


def _sizes(train: Path, test: Path) -> dict:
    (tw, ts), (rw, rs) = table_size(test), table_size(train)
    return {"words": tw + rw, "syllables": ts + rs, "audio_s": 0.0}


def attn_setup(p: Pass, work: Path, seed: int) -> dict:
    """Warm up on a small corpus, then synth and split the main one."""
    warmup = work / "warmup"
    attn_train(p, warmup, seed, *_synth_split(p, warmup, seed, WARMUP_UTTERANCES),
               epochs=1)
    return _sizes(*_synth_split(p, work / "main", seed, CORPUS_UTTERANCES))


def attn_timed(p: Pass, work: Path, seed: int, inputs: dict) -> None:
    split = work / "main" / "corpus" / "split"
    attn_train(p, work / "main", seed, split / "train.jsonl", split / "test.jsonl")


def baselines_warmup(p: Pass, work: Path, seed: int) -> dict:
    baselines(p, work / "warmup", seed, n=WARMUP_UTTERANCES, n_trees=2)
    return {}


def baselines_timed(p: Pass, work: Path, seed: int, inputs: dict) -> None:
    baselines(p, work / "main", seed)
    split = work / "main" / "corpus" / "split"
    inputs.update(_sizes(split / "train.jsonl", split / "test.jsonl"))


WORKLOADS = {
    "attn-train": (attn_setup, attn_timed),
    "baselines": (baselines_warmup, baselines_timed),
    "audio-featurize": (audio_setup, audio_featurize),
}
