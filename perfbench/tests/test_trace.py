"""Tests for the benchmark's traced run, on a small model so they take seconds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from davit import autodiff as ad  # noqa: E402
from davit import model as md  # noqa: E402
from davit import train as tr  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def small_config():
    # Windows of 3 pad both stages (8 -> 9, 4 -> 6); head width 4 gives
    # two and four channel groups, so every masked path runs.
    stages = [md.StageConfig(7, 4, 3, 8, 1, 3, 4), md.StageConfig(2, 2, 0, 16, 1, 3, 4)]
    return md.ModelConfig(input_size=32, num_classes=10, stages=stages)


def wrapped_attributes():
    return {(owner, attr): getattr(owner, attr)
            for owner, attr, _, _ in workloads.trace_targets()}


@pytest.fixture(scope="module", params=NAMES)
def traced(request, tmp_path_factory):
    before = wrapped_attributes()
    result = workloads.run_workload(request.param, seed=0, seconds=0.0, trace=True,
                                    workdir=tmp_path_factory.mktemp(request.param),
                                    cfg=small_config())
    return request.param, before, result


def test_traced_run_passes_its_checks(traced):
    name, _, result = traced
    assert result.correct, result.failures
    assert result.attempted >= workloads.MIN_TRACED_UNITS and result.failed == 0
    metrics = {n: v for n, (v, _) in result.metrics.items()}
    assert list(metrics) == list(workloads.per_layer_units(small_config()))
    assert metrics["autodiff.fwd_calls"] > 0 and metrics["model.forward_s"] > 0
    assert (metrics["autodiff.tape_nodes"] > 0) == (name == "train_b2")
    assert (metrics["autodiff.bwd_s.matmul"] > 0) == (name == "train_b2")
    assert (metrics["checkpoint.load_mb"] > 0) == (name == "eval_b16")


def test_traced_run_restores_every_wrapped_attribute(traced):
    _, before, _ = traced
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} left wrapped"


def test_self_times_cover_traced_wall_time(traced):
    _, _, result = traced
    coverage, _ = result.metrics["trace.coverage_ratio"]
    assert 1.0 - workloads.COVERAGE_MARGIN <= coverage <= 1.0 + 1e-9


def test_span_labels_are_parameter_prefixes(traced):
    _, _, result = traced
    keys = list(md.build_model(small_config(), seed=0).named_parameters())
    labels = {s.label for s in result.spans if s.label}
    assert labels
    for label in labels:
        assert any(k.startswith(label + ".") for k in keys), label


def test_metric_stage_labels_are_parameter_prefixes():
    cfg = md.default_config()
    keys = list(md.build_model(cfg, seed=0).named_parameters())
    labels = set()
    for name in workloads.per_layer_units(cfg):
        labels.update(m.group(0) for m in re.finditer(r"stages\.\d+\.(blocks\.\d+|embed)", name))
    assert {"stages.0.embed", "stages.3.blocks.0"} <= labels
    for label in labels:
        assert any(k.startswith(label + ".") for k in keys), label


def test_wrappers_restored_when_a_traced_call_raises():
    before = wrapped_attributes()
    model = md.build_model(small_config(), seed=0)
    t = tracer.Tracer(workloads.trace_targets())
    with pytest.raises(ValueError):
        with t.unit_of_work(0):
            md.forward(model, ad.zeros((1, 3, 16, 16)))  # wrong input size
    assert wrapped_attributes() == before
    assert [s.name for s in t.spans] == ["model.forward"]
    assert t.spans[0].end >= t.spans[0].start


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_installs_no_wrappers(name, tmp_path, monkeypatch):
    before = wrapped_attributes()

    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run reached the tracer")

    monkeypatch.setattr(workloads, "Tracer", refuse)
    monkeypatch.setattr(workloads, "patched", refuse)
    cls = workloads.WORKLOADS[name]
    original_check = cls.check
    seen = []

    def check(self, k, payload):
        # Runs right after every unit: nothing may be wrapped at that point.
        seen.append(all(getattr(o, a) is f for (o, a), f in before.items()))
        return original_check(self, k, payload)

    monkeypatch.setattr(cls, "check", check)
    result = workloads.run_workload(name, seed=0, seconds=0.0, trace=False,
                                    workdir=tmp_path, cfg=small_config())
    assert result.correct, result.failures
    assert seen and all(seen)
    assert not result.spans


def test_self_time_subtracts_children_of_the_same_view():
    spans = []
    for name, start, end, parent in [("train.epoch", 0.0, 10.0, None),
                                     ("model.forward", 1.0, 4.0, 0),
                                     ("fwd.matmul", 1.5, 2.5, 1),
                                     ("fwd.add", 3.0, 3.5, 1),
                                     ("autodiff.backward", 5.0, 9.0, 0)]:
        span = tracer.Span(name, None, start, parent, 0)
        span.end = end
        spans.append(span)
    everything = tracer.self_times(spans, lambda s: True)
    assert everything == [3.0, 1.5, 1.0, 0.5, 4.0]
    assert sum(everything) == 10.0  # self times partition the root span
    ops = tracer.self_times(spans, lambda s: s.name.startswith("fwd."))
    assert ops == [0.0, 0.0, 1.0, 0.5, 0.0]
    top = tracer.self_times(spans, lambda s: not s.name.startswith("fwd."))
    assert top == [3.0, 3.0, 0.0, 0.0, 4.0]
    assert tracer.view_parents(spans, lambda s: s.name == "train.epoch") == [None, 0, 0, 0, 0]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == workloads.per_layer_units(md.default_config()))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tr.evaluate.__defaults__ == (16,)  # eval_b16 relies on the default batch size
