"""Run the benchmark over several seeds and summarize it in Markdown.

    python3 perfbench/summarize.py --seeds 1-10 [--workloads attn-train,baselines]
        [--trace-seed 1] [--out .perfbench_runs/summary.md]

Each (seed, workload) pair is one ``run.py --trace 0`` process; seeds are
the outer loop, so slow drift of the machine spreads over all workloads.
Per workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. With --trace-seed it then
makes one traced run per workload and breaks its traced pipeline time
down by layer (self time summed over each module's probed functions).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    record = json.loads((ROOT / ".perfbench_runs" / "records" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["result"] = json.loads(lines[-1])
    return record


def spread_table(workload: str, records: list[dict], bounds: dict) -> list[str]:
    out = [f"### {workload} ({len(records)} seeds)", "",
           "| metric | unit | median | q1 | q3 | spread | bound |",
           "|---|---|---|---|---|---|---|"]
    values = defaultdict(list)
    units = {}
    for rec in records:
        for key, metric in rec["result"]["metrics"].items():
            values[key].append(metric["value"])
            units[key] = metric["unit"]
        for key, value in rec["named"].items():
            values[key].append(value)
    for key, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(key)
        out.append(f"| {key} | {units.get(key, '')} | {med:.6g} | {q1:.6g} | "
                   f"{q3:.6g} | {spread:.4f} | {'' if bound is None else bound} |")
    inputs = records[0]["inputs"]
    failed = sum(r["result"]["failed"] for r in records)
    attempted = sum(r["result"]["attempted"] for r in records)
    out += ["", f"Inputs (seed {records[0]['seed']}): "
            + ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                        for k, v in inputs.items())
            + f". Operations: {attempted} attempted, {failed} failed.", ""]
    return out


def trace_table(workload: str, record: dict) -> list[str]:
    metrics = record["result"]["metrics"]
    m = {k: v["value"] for k, v in metrics.items()}
    traced = m["tracing.pipeline_traced_s"]
    layers = defaultdict(float)
    for key, metric in metrics.items():
        layer = key.partition(".")[0]
        if metric["unit"] != "s" or layer == "tracing":
            continue
        if layer == "cli" and key != "cli.self_s":
            continue  # stage totals are inclusive; cli.self_s is cli's own time
        layers[layer] += metric["value"]
    out = [f"### {workload}: traced pass, seed {record['seed']}", "",
           f"Traced pipeline {traced:.3f} s, untraced "
           f"{m['tracing.pipeline_untraced_s']:.3f} s, overhead "
           f"{m['tracing.overhead_s']:.3f} s over {int(m['tracing.spans'])} spans.", "",
           "| layer | self time (s) | share of traced pipeline |", "|---|---|---|"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        out.append(f"| {layer} | {seconds:.3f} | {seconds / traced:.1%} |")
    stages = ", ".join(f"{k[4:-2]} {v['value']:.3f} s" for k, v in metrics.items()
                       if k.startswith("cli.") and v["unit"] == "s"
                       and k != "cli.self_s" and v["value"])
    out += ["", f"Stage wall times (traced): {stages}.", ""]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="attn-train,baselines,audio-featurize")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=str(ROOT / ".perfbench_runs" / "summary.md"))
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    records = defaultdict(list)
    for seed in _seeds(args.seeds):
        for workload in workloads:
            records[workload].append(
                run_once(workload, seed, 0, bench["run_seconds"]))
            print(f"done {workload} seed {seed}", file=sys.stderr, flush=True)

    first = next(iter(records.values()))[0]["machine"]
    lines = ["## Benchmark summary", "",
             "Machine: " + ", ".join(f"{k} {v}" for k, v in first.items()) + ".",
             f"run_seconds {bench['run_seconds']}.", ""]
    for workload in workloads:
        lines += spread_table(workload, records[workload], bounds)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.trace_seed is not None:
        for workload in workloads:
            lines += trace_table(workload, run_once(workload, args.trace_seed, 1,
                                                    bench["run_seconds"]))
            out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
