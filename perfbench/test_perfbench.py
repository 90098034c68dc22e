"""Tests of the benchmark's own arithmetic and of its metric tables."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import metrics
import tracing
from tracing import Span, Tracer


def _span(i, parent, start, end, name="x"):
    return Span(i, parent, name, start, end, "run")


def test_self_time_subtracts_child_coverage():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 5.0, 6.0),
        _span(4, 2, 1.5, 2.5),  # grandchild: counts against 2, not 1
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # children on two threads may overlap; covered time is their union,
    # clipped to the parent
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 2.0, 6.0),
        _span(3, 1, 4.0, 8.0),
        _span(4, 1, 9.0, 12.0),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_times_sum_to_root_duration():
    rng = np.random.default_rng(0)
    spans, next_id = [_span(1, None, 0.0, 100.0)], 2
    frontier = [spans[0]]
    while frontier and next_id < 60:
        parent = frontier.pop(0)
        cuts = np.sort(rng.uniform(parent.start, parent.end, 4))
        for a, b in ((cuts[0], cuts[1]), (cuts[2], cuts[3])):
            child = _span(next_id, parent.span_id, float(a), float(b))
            spans.append(child)
            frontier.append(child)
            next_id += 1
    assert sum(tracing.self_times(spans).values()) == pytest.approx(100.0)


def test_phi_is_highest_percentile_with_ten_samples_above():
    samples = list(range(1, 1001))  # 1..1000
    # p99 -> value 990, 10 above; p99.9 -> value 999, 1 above
    assert tracing.phi_percentile(samples) == (99.0, 990)
    # 100 samples: p90 -> value 90, 10 above; p99 -> 1 above
    assert tracing.phi_percentile(list(range(1, 101))) == (90.0, 90)
    # 99 samples: p90 -> value 90, 9 above, so only p50 qualifies
    assert tracing.phi_percentile(list(range(1, 100))) == (50.0, 50)


def test_phi_falls_back_to_median_and_handles_empty():
    assert tracing.phi_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tracing.phi_percentile([]) == (0.0, 0.0)


def test_valid_slot_ratio_on_hand_built_batch():
    mask = np.zeros((3, 17), dtype=bool)
    mask[0, :2] = True
    mask[1, :3] = True
    mask[2, :5] = True
    assert tracing.slot_counts(mask) == (51, 10)

    tracer = Tracer("run")
    fwd = tracer.wrap("network.forward", lambda params, feats, types, mask, cfg: None,
                      tracing._forward_slots)
    fwd(None, None, None, mask, None)
    fwd(None, None, None, mask[:1], None)
    m = tracing.layer_metrics(tracer)
    assert m["network.slots_computed"] == 51 + 17
    assert m["network.valid_slot_ratio"] == pytest.approx((10 + 2) / (51 + 17))
    assert m["network.forward_calls"] == 2


def test_wrapped_calls_nest_and_record_parents():
    tracer = Tracer("run-7")
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    with tracer.stage("cli.eval"):
        outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id == by_name["cli.eval"].span_id
    assert by_name["cli.eval"].parent_id is None
    assert {s.run_id for s in tracer.spans} == {"run-7"}


def test_layer_metrics_cover_every_per_layer_metric():
    computed = set(tracing.layer_metrics(Tracer("run")))
    added_by_runner = {"cli.featurize_audio_x", "cli.predict_words_per_s",
                       "tracing.pipeline_untraced_s",
                       "tracing.pipeline_traced_s", "tracing.overhead_s",
                       "evaluation.attn_accuracy", "evaluation.rf_accuracy",
                       "evaluation.or_accuracy"}
    assert computed | added_by_runner == set(metrics.PER_LAYER)


def test_benchmark_json_matches_metric_tables():
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == {k: v[:2] for k, v in metrics.END_TO_END.items()}
    assert layer == {k: v[:2] for k, v in metrics.PER_LAYER.items()}
    assert [w["name"] for w in bench["workloads"]] == [
        "attn-train", "baselines", "audio-featurize"]


def test_probe_runs_before_each_stage_outside_its_time():
    from workloads import Pass

    calls = []

    def run_subcommand(argv):
        calls.append(argv[0])
        return 0

    def probe():
        calls.append("probe")
        time.sleep(0.05)
        return 0.05

    p = Pass(run_subcommand, probe=probe)
    p.stage("synth")
    p.stage("split")
    assert calls == ["probe", "synth", "probe", "split"]
    assert p.probes == [0.05, 0.05]
    assert p.seconds() < 0.05  # the probe is timed apart from the stages


def test_reference_kernel_returns_its_duration():
    import reference

    assert 0.0 < reference.kernel() < 10.0


def test_relative_seconds_divides_by_the_median_probe():
    from workloads import Pass, Stage

    p = Pass(None)
    p.stages = [Stage("train", 3.0), Stage("eval", 1.0)]
    p.probes = [0.1, 0.5, 0.2]  # before train, between, after eval
    assert p.relative_seconds() == pytest.approx(4.0 / 0.2)
