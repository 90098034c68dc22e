"""Benchmark of the stressnet CLI pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload attn-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in its own process

A run sets up its workload (median over several set-ups), then repeats the
timed CLI sequence, in-process through ``stressnet.cli.run_subcommand``, in
whole passes until ``--seconds`` would be exceeded (at least one pass).
With ``--trace 0`` it reports the end-to-end metrics (medians over
passes); the pipeline time is given in units of a fixed reference kernel
(``reference.py``) timed around each pass's stages, so that the speed of
a shared host mostly cancels out. With ``--trace 1`` it makes one
untraced and one traced pass and reports per-layer metrics from the
trace, plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A run record
(machine facts, input sizes, stage and kernel times) goes to
``.perfbench_runs/records/`` and, for traced runs, the spans to
``.perfbench_runs/spans/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before NumPy loads. The benchmark gets a few cores
# of a shared host; with a BLAS thread per core every matrix product waits
# for the busiest core, and identical passes spread far more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import metrics  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import SETUP_REPEATS, WORKLOADS, Pass, StageFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = tuple(WORKLOADS)
# the checkpoint whose test accuracy is the end-to-end `accuracy`
PRIMARY_MODEL = {"attn-train": "attn", "baselines": "rf", "audio-featurize": "attn"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --- machine facts -----------------------------------------------------------------

def _blas_threads() -> str:
    """OpenBLAS thread count from the library NumPy loaded, if it says."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS",
                          os.environ.get("OMP_NUM_THREADS", "unknown"))


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


# --- one workload --------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def _attempt(fn, p, *args):
    try:
        return fn(p, *args)
    except StageFailed:
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from stressnet.cli import run_subcommand

    setup, timed = WORKLOADS[name]
    work = RUNS / f"work-{name}-seed{seed}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        setup_passes, setup_times = [], []
        inputs = None
        for _ in range(1 if trace else SETUP_REPEATS):
            p = Pass(run_subcommand)
            start = time.perf_counter()
            inputs = _attempt(setup, p, work, seed)
            setup_times.append(time.perf_counter() - start)
            setup_passes.append(p)
            if p.failures:
                break
        passes: list = []
        tracer = None
        if not any(p.failures for p in setup_passes):
            if trace:
                untraced = Pass(run_subcommand)
                _attempt(timed, untraced, work, seed, inputs)
                passes.append(untraced)
                tracer = tracing.Tracer(f"{name}-seed{seed}-pid{os.getpid()}")
                traced = Pass(run_subcommand, tracer)
                undo = tracing.patch(tracer)
                try:
                    _attempt(timed, traced, work, seed, inputs)
                finally:
                    tracing.unpatch(undo)
                passes.append(traced)
                traced.check(traced.accuracies == untraced.accuracies,
                             "tracing changed the accuracies eval reports")
            else:
                start = time.perf_counter()
                while True:
                    p = Pass(run_subcommand, probe=reference.kernel)
                    _attempt(timed, p, work, seed, inputs)
                    p.close()
                    passes.append(p)
                    spent = time.perf_counter() - start
                    if p.failures or spent + spent / len(passes) > seconds:
                        break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = setup_passes + passes
    failures = [f for p in everything for f in p.failures]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "passes": len(passes), "machine": machine_facts(), "inputs": inputs or {},
        "attempted": sum(p.operations for p in everything),
        "failed": len(failures), "failures": failures,
        "stages": [[(s.name, s.seconds) for s in p.stages] for p in everything],
        "probes": [p.probes for p in everything],
        "metrics": {}, "named": {},
    }
    if failures:
        return result

    first = passes[0]
    timed_passes = passes[:1] if trace else passes  # the untraced ones
    audio_s = inputs.get("audio_s", 0.0)
    featurize_x = (audio_s / _median([p.seconds("featurize") for p in timed_passes])
                   if audio_s else None)
    if trace:
        traced_s, untraced_s = passes[1].seconds(), passes[0].seconds()
        values = tracing.layer_metrics(tracer)
        values.update({f"evaluation.{m}_accuracy": passes[1].accuracies.get(m, 0.0)
                       for m in ("attn", "rf", "or")})
        values.update({
            "cli.featurize_audio_x": featurize_x or 0.0,
            "cli.predict_words_per_s": first.words_per_s(),
            "tracing.pipeline_untraced_s": untraced_s,
            "tracing.pipeline_traced_s": traced_s,
            "tracing.overhead_s": traced_s - untraced_s,
        })
        (RUNS / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(str(RUNS / "spans" / f"{name}-seed{seed}.jsonl"))
        table = metrics.PER_LAYER
    else:
        values = {
            "pipeline_rel": _median([p.relative_seconds() for p in passes]),
            "accuracy": first.accuracies[PRIMARY_MODEL[name]],
            "setup_s": _median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        table = metrics.END_TO_END
    missing = set(table) ^ set(values)
    if missing:
        result["failed"] += 1
        result["failures"].append(f"metric set mismatch: {sorted(missing)}")
    result["attempted"] += 1
    result["metrics"] = {k: {"value": values[k], "unit": table[k][0]}
                         for k in table if k in values}
    # metrics that exist only on some workloads, for the human-readable block
    named = {f"{m}_accuracy": acc for m, acc in first.accuracies.items()}
    named["pipeline_s"] = _median([p.seconds() for p in timed_passes])
    if not trace:
        named["reference_kernel_s"] = _median([t for p in passes for t in p.probes])
    named["predict_words_per_s"] = _median([p.words_per_s() for p in timed_passes])
    if first.seconds("train"):
        named["train_s"] = _median([p.seconds("train") for p in timed_passes])
    if featurize_x is not None:
        named["featurize_audio_x"] = featurize_x
    named["error_rate"] = result["failed"] / result["attempted"]
    result["named"] = named
    return result


def print_result(result: dict) -> None:
    m = result["machine"]
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} passes={result['passes']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']!r} "
          f"blas_threads={m['blas_threads']}")
    print("inputs: " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                for k, v in result["inputs"].items()))
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:14.6g} {metric['unit']}")
    units = {"featurize_audio_x": "audio_s/s", "predict_words_per_s": "words/s",
             "train_s": "s", "pipeline_s": "s", "reference_kernel_s": "s"}
    for key, value in result["named"].items():
        print(f"  {key:40s} {value:14.6g} {units.get(key, 'fraction')}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        ok &= proc.returncode == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "stressnet" / "__init__.py").is_file():
        print(f"perfbench: no stressnet sources under {src}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    os.environ.pop("STRESSNET_DICT", None)  # always the bundled dictionary
    import stressnet

    if Path(stressnet.__file__).resolve().parent != (src / "stressnet").resolve():
        print(f"perfbench: imported stressnet from {stressnet.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    (RUNS / "records").mkdir(parents=True, exist_ok=True)
    record = RUNS / "records" / (f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    record.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_result(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
