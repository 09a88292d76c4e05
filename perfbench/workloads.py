"""The benchmark's three workloads, their output checks and their metrics.

infer_b1  closed loop, one client, batch 1: each request is a fresh
          seeded image wrapped in ad.Tensor and passed to model.forward
          with no tape.
eval_b16  the `davit eval` path: load_dataset, build_model and
          load_checkpoint in set-up, then train.evaluate at its default
          batch size of 16 over a 16-image PPM set.
train_b2  the `davit train` path: train_epoch at B=2 with the packaged
          default.policy and mixup 0.2, then save_checkpoint with the
          AdamW moments after every epoch.

A run generates its inputs from the seed, sets up SETUP_REPEATS times
(setup_s is the median), runs warm-up units, then runs timed units for
the given seconds. A traced run alternates traced and untraced units,
so the overhead ratio compares units of the same run, and ends with one
unit under tracemalloc, kept apart so that tracemalloc does not distort
the timing spans. Only public davit functions are called.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from davit import attention as at
from davit import autodiff as ad
from davit import checkpoint as ck
from davit import dataset as ds
from davit import model as md
from davit import synth
from davit import train as tr
from davit.augment import parse_policy

from tracer import PeakMeter, Tracer, patched, self_times, view_parents

clock = time.perf_counter

SETUP_REPEATS = 3
MIN_UNITS = 3  # a median of at least three, and all infer check images
# Traced runs alternate traced and untraced units; four gives two of each.
MIN_TRACED_UNITS = 4
# Self times of a traced unit must cover at least this share of its wall time.
COVERAGE_MARGIN = 0.02
# float32 against float64 logits: 2**10 float32 epsilons (2**-13), relative
# to max(1, |logit|). Rounding grows about with sqrt(inner length) per
# matmul (up to ~55 at 3072) times the ~20 layers of the default model.
F32_TOLERANCE = 2.0 ** -13
INFER_WARMUP_REQUESTS = 2  # the first B=1 forward takes about 4x a steady one
INFER_CHECK_IMAGES = 3
INFER_P90_MIN_REQUESTS = 100
EVAL_CLASSES, EVAL_PER_CLASS = 8, 2  # 16 images: one default-size batch
EVAL_THRESHOLD = 0.0
TRAIN_SAMPLES = 2  # one B=2 step per epoch, so a unit is one step
MB = 1e6

END_TO_END = {
    "setup_s": "s",
    "images_per_s": "img/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

OPS = ("matmul", "conv2d", "gelu", "layer_norm", "softmax", "log_softmax", "add",
       "mul", "scale", "reshape", "transpose", "pad", "slice", "sum")


def per_layer_units(cfg):
    """Every per-layer metric name with its unit, in report order."""
    names = {f"autodiff.{d}_s.{op}": "s" for d in ("fwd", "bwd") for op in OPS}
    names.update({"autodiff.fwd_calls": "count", "autodiff.fwd_out_mb": "MB",
                  "autodiff.matmul_gflop": "GFLOP", "autodiff.tape_nodes": "count",
                  "autodiff.tape_out_mb": "MB", "autodiff.backward_s": "s"})
    blocks = [(i, j) for i, s in enumerate(cfg.stages) for j in range(s.depth)]
    for i, j in blocks:
        names[f"attention.stages.{i}.blocks.{j}.spatial_s"] = "s"
        names[f"attention.stages.{i}.blocks.{j}.channel_s"] = "s"
    names.update({"attention.channel_useful_flop_ratio": "ratio",
                  "attention.spatial_real_token_ratio": "ratio",
                  "model.build_s": "s", "model.forward_s": "s"})
    for i in range(len(cfg.stages)):
        names[f"model.stages.{i}.embed_s"] = "s"
    for i, j in blocks:
        names[f"model.stages.{i}.blocks.{j}.self_s"] = "s"
    names.update({
        "model.head_s": "s", "model.forward_peak_traced_mb": "MB",
        "train.batch_prep_s": "s", "train.forward_s": "s", "train.backward_s": "s",
        "train.adamw_s": "s", "train.evaluate_s": "s", "train.step_peak_traced_mb": "MB",
        "augment.apply_policy_s": "s", "augment.mixup_s": "s", "augment.sampler_s": "s",
        "checkpoint.save_s": "s", "checkpoint.save_mb": "MB",
        "checkpoint.load_s": "s", "checkpoint.load_mb": "MB",
        "dataset.load_s": "s", "dataset.images": "count",
        "trace.overhead_ratio": "ratio", "trace.coverage_ratio": "ratio",
    })
    return names


# Per-layer metrics of set-up, taken as the median over set-up units;
# every other per-unit metric is the median over traced timed units.
SETUP_SCOPED = {"model.build_s", "dataset.load_s", "dataset.images",
                "checkpoint.load_s", "checkpoint.load_mb"}


# ---------------------------------------------------------------------------
# trace targets: attributes davit looks up at call time


def _op_info(args, result):
    return {"out_bytes": result.data.nbytes}


def _matmul_info(args, result):
    return {"out_bytes": result.data.nbytes, "flop": 2 * result.size * args[0].shape[-1]}


def _shape_info(args, result):
    return {"shape": tuple(args[0].shape)}


def _file_info(position):
    def describe(args, result):
        return {"bytes": os.path.getsize(args[position])}

    return describe


def _dataset_info(args, result):
    return {"images": len(result)}


def trace_targets():
    op_attrs = dict(zip(OPS, OPS), sum="tensor_sum")
    targets = []
    for op in OPS:
        describe = _matmul_info if op == "matmul" else _op_info
        if op == "slice":
            targets.append((ad.Tensor, "__getitem__", "fwd.slice", describe))
        else:
            targets.append((ad, op_attrs[op], f"fwd.{op}", describe))
    targets += [
        (ad, "backward", "autodiff.backward", None),
        (at, "spatial_window_attention", "attention.spatial", _shape_info),
        (at, "channel_group_attention", "attention.channel", _shape_info),
        (md, "build_model", "model.build", None),
        (md, "forward", "model.forward", None),
        (md, "patch_embed", "model.patch_embed", None),
        (md, "dual_attention_block", "model.block", None),
        (tr, "soft_cross_entropy", "train.loss", None),
        (tr, "adamw_step", "train.adamw", None),
        (tr, "train_epoch", "train.epoch", None),
        (tr, "evaluate", "train.evaluate", None),
        (tr, "apply_policy", "augment.apply_policy", None),
        (tr, "mixup", "augment.mixup", None),
        (tr, "weighted_sampler", "augment.sampler", None),
        (ck, "save_checkpoint", "checkpoint.save", _file_info(1)),
        (ck, "load_checkpoint", "checkpoint.load", _file_info(0)),
        (ds, "load_dataset", "dataset.load", _dataset_info),
    ]
    return targets


# ---------------------------------------------------------------------------
# workloads


def _bitwise_equal(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def param_digest(model):
    h = hashlib.sha256()
    for name, t in model.named_parameters().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()[:32]


class Workload:
    """Inputs from the seed, set-up, units of work and their checks.

    work(k) returns (latency_s, wall_s, payload); wall_s is what the
    unit adds to the timed wall time. check(k, payload) and finish()
    return lists of failure messages. images_per_unit is the number of
    images one unit completes.
    """

    name = ""

    def __init__(self, cfg, seed, workdir):
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.model = None
        self.digests = {}

    def generate(self):
        pass

    def release(self):
        self.model = None

    def setup(self):
        raise NotImplementedError

    def warm_up(self):
        return []

    def work(self, k):
        raise NotImplementedError

    def check(self, k, payload):
        return []

    def finish(self):
        return []


class Infer(Workload):
    name = "infer_b1"
    images_per_unit = 1

    def generate(self):
        self.requests = np.random.default_rng((self.seed, 0))
        self.check_images = []

    def setup(self):
        self.model = md.build_model(self.cfg, seed=self.seed)

    def _request(self):
        s = self.cfg.input_size
        x = self.requests.uniform(0.0, 1.0, (1, self.cfg.input_channels, s, s))
        return x.astype(np.float32)

    def warm_up(self):
        fails = []
        for k in range(INFER_WARMUP_REQUESTS):
            _, _, payload = self.work(-1 - k)
            fails += self.check(-1 - k, payload)
        return fails

    def work(self, k):
        x = self._request()
        t0 = clock()
        logits = md.forward(self.model, ad.Tensor(x))
        dt = clock() - t0
        return dt, dt, (x, logits)

    def check(self, k, payload):
        x, logits = payload
        want = (1, self.cfg.num_classes)
        if tuple(logits.shape) != want or not np.isfinite(logits.data).all():
            return [f"request {k}: logits of shape {tuple(logits.shape)} (want {want}) "
                    f"or non-finite"]
        if 0 <= k < INFER_CHECK_IMAGES:
            self.check_images.append((x, logits.data.copy()))
        return []

    def finish(self):
        """Compare the check images with a float64 forward of the same model."""
        m64 = copy.deepcopy(self.model)
        for t in m64.named_parameters().values():
            t.data = t.data.astype(np.float64)
        fails = []
        for k, (x, l32) in enumerate(self.check_images):
            l64 = md.forward(m64, ad.Tensor(x.astype(np.float64))).data
            err = float(np.abs(l32.astype(np.float64) - l64).max())
            limit = F32_TOLERANCE * max(1.0, float(np.abs(l64).max()))
            if not err <= limit:
                fails.append(f"check image {k}: float32 logits differ from float64 by "
                             f"{err:.3g} > {limit:.3g}")
        if len(self.check_images) < INFER_CHECK_IMAGES:
            fails.append(f"only {len(self.check_images)} check images completed")
        return fails


class Eval(Workload):
    name = "eval_b16"

    def generate(self):
        cfg = self.cfg
        self.manifest = synth.generate_dataset(
            self.workdir / "eval_set", num_classes=EVAL_CLASSES,
            per_class=EVAL_PER_CLASS, size=cfg.input_size, seed=self.seed)
        self.classes = synth.class_names(cfg.num_classes)
        self.ckpt = self.workdir / "eval.ckpt"
        writer = md.build_model(cfg, seed=self.seed)
        # The writer's own evaluation is the reference and warms the process.
        self.expected = tr.evaluate(writer, ds.load_dataset(self.manifest, self.classes),
                                    EVAL_THRESHOLD)
        rng = np.random.default_rng((self.seed, 1))
        params = writer.named_parameters()
        moments = [{n: rng.standard_normal(p.shape, dtype=np.float32) * np.float32(1e-3)
                    for n, p in params.items()} for _ in range(2)]
        state = tr.OptimizerState(m=moments[0], v={n: m * m for n, m in moments[1].items()}, t=1)
        meta = ck.CheckpointMeta(epoch=0, val_correct=self.expected.correct,
                                 val_total=self.expected.total,
                                 config_hash=ck.model_config_hash(cfg))
        ck.save_checkpoint(writer, self.ckpt, state=state, meta=meta)
        self.digests["eval_confusion"] = hashlib.sha256(
            self.expected.confusion.astype("<i8").tobytes()).hexdigest()[:32]

    def release(self):
        self.model = self.val = None

    def setup(self):
        self.val = ds.load_dataset(self.manifest, self.classes)
        # A different seed than the writer, so loading must change every tensor.
        self.model = md.build_model(self.cfg, seed=self.seed + 1)
        _, self.meta = ck.load_checkpoint(self.ckpt, self.model)

    @property
    def images_per_unit(self):
        return len(self.val)

    def warm_up(self):
        if (self.meta.val_correct, self.meta.val_total) != (self.expected.correct,
                                                             self.expected.total):
            return ["checkpoint metadata does not carry the writer's validation counts"]
        return []

    def work(self, k):
        t0 = clock()
        report = tr.evaluate(self.model, self.val, EVAL_THRESHOLD)
        dt = clock() - t0
        return dt, dt, report

    def check(self, k, report):
        fails = []
        n = len(self.val)
        if report.total != n or int(report.confusion.sum()) != n:
            fails.append(f"batch {k}: total {report.total} and confusion sum "
                         f"{int(report.confusion.sum())} must both be {n}")
        if (report.accuracy != self.expected.accuracy
                or not np.array_equal(report.confusion, self.expected.confusion)):
            fails.append(f"batch {k}: accuracy {report.accuracy!r} or confusion differs from "
                         f"the in-memory model that wrote the checkpoint "
                         f"({self.expected.accuracy!r})")
        return fails


class Train(Workload):
    name = "train_b2"
    images_per_unit = 2

    def generate(self):
        cfg = self.cfg
        rng = np.random.default_rng((self.seed, 0))
        s = cfg.input_size
        samples = [ds.Sample(ad.Tensor(rng.uniform(0.0, 1.0, (cfg.input_channels, s, s))
                                       .astype(np.float32)),
                             ds.one_hot(int(rng.integers(cfg.num_classes)), cfg.num_classes))
                   for _ in range(TRAIN_SAMPLES)]
        self.train_set = ds.Dataset(samples, synth.class_names(cfg.num_classes))
        self.policy = parse_policy(resources.files("davit") / "policies" / "default.policy")
        self.config = tr.TrainConfig(batch_size=2, mixup_alpha=0.2, seed=self.seed)
        self.ckpt = self.workdir / "last.ckpt"
        self.config_hash = ck.model_config_hash(cfg)
        self.epoch_digests = {}
        self.digests["train_params_by_epoch"] = self.epoch_digests

    def release(self):
        self.model = self.state = None

    def setup(self):
        self.model = md.build_model(self.cfg, seed=self.seed)
        self.state = tr.OptimizerState()

    def _epoch(self, epoch):
        t0 = clock()
        loss, _ = tr.train_epoch(self.model, self.train_set, self.config, epoch, self.state,
                                 policy=self.policy)
        t1 = clock()
        meta = ck.CheckpointMeta(epoch=epoch, config_hash=self.config_hash)
        ck.save_checkpoint(self.model, self.ckpt, state=self.state, meta=meta)
        return t1 - t0, clock() - t0, (epoch, loss)

    def warm_up(self):
        _, _, payload = self._epoch(0)
        return self.check(-1, payload)

    def work(self, k):
        return self._epoch(k + 1)  # epoch 0 is the warm-up

    def check(self, k, payload):
        epoch, loss = payload
        fails = [] if math.isfinite(loss) else [f"epoch {epoch}: loss {loss} is not finite"]
        fails += self._read_back(epoch)
        self.epoch_digests[epoch] = param_digest(self.model)
        return fails

    def _read_back(self, epoch):
        """The checkpoint must read back bitwise equal to the in-memory state."""
        params = self.model.named_parameters()
        before = {name: t.data for name, t in params.items()}
        try:
            state, meta = ck.load_checkpoint(self.ckpt, self.model)
            same = all(_bitwise_equal(params[n].data, before[n]) for n in before)
        finally:
            for name, t in params.items():
                t.data = before[name]
        own = self.state
        same = (same and meta.epoch == epoch and state is not None and state.t == own.t
                and state.m.keys() == own.m.keys() and state.v.keys() == own.v.keys()
                and all(_bitwise_equal(state.m[n], own.m[n]) for n in own.m)
                and all(_bitwise_equal(state.v[n], own.v[n]) for n in own.v))
        return [] if same else [f"epoch {epoch}: checkpoint does not read back bitwise equal"]

    def finish(self):
        """Replay epoch 0 on a fresh seeded model: training is bitwise reproducible."""
        self.release()
        model = md.build_model(self.cfg, seed=self.seed)
        tr.train_epoch(model, self.train_set, self.config, 0, tr.OptimizerState(),
                       policy=self.policy)
        if param_digest(model) != self.epoch_digests.get(0):
            return ["replaying epoch 0 on a fresh model gave different parameters"]
        return []


WORKLOADS = {w.name: w for w in (Infer, Eval, Train)}


# ---------------------------------------------------------------------------
# running


@dataclass
class Unit:
    index: int
    traced: bool
    latency: float | None = None
    wall: float | None = None
    failures: list = field(default_factory=list)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list  # human-readable lines: sample counts, dropped metrics
    failures: list
    digests: dict
    latencies: list  # per timed unit, in run order; None where the unit raised
    spans: list = field(default_factory=list)


def _timed_units(wl, seconds, tracer):
    units = []
    start = clock()
    min_units = MIN_UNITS if tracer is None else MIN_TRACED_UNITS
    k = 0
    while k < min_units or clock() - start < seconds:
        unit = Unit(k, traced=tracer is not None and k % 2 == 0)
        try:
            with tracer.unit_of_work(k) if unit.traced else nullcontext():
                unit.latency, unit.wall, payload = wl.work(k)
            unit.failures = wl.check(k, payload)
        except Exception as exc:  # a failed unit is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            unit.failures = [f"unit {k} raised {exc!r}"]
        units.append(unit)
        k += 1
    return units


def _memory_pass(wl, k):
    """One more unit under tracemalloc: peak bytes above entry level."""
    meter = PeakMeter()
    with patched([(md, "forward", meter.wrap("forward", md.forward)),
                  (tr, "train_epoch", meter.wrap("step", tr.train_epoch))]):
        tracemalloc.start()
        try:
            wl.work(k)
        finally:
            tracemalloc.stop()
    return meter.peaks


def run_workload(name, seed, seconds, trace, workdir, cfg=None):
    cfg = cfg or md.default_config()
    wl = WORKLOADS[name](cfg, seed, workdir)
    tracer = Tracer(trace_targets()) if trace else None
    failures = []
    wl.generate()
    setup_times = []
    for i in range(SETUP_REPEATS):
        wl.release()
        with tracer.unit_of_work(f"setup{i}") if tracer else nullcontext():
            t0 = clock()
            wl.setup()
            setup_times.append(clock() - t0)
    failures += wl.warm_up()
    units = _timed_units(wl, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    peaks = _memory_pass(wl, len(units)) if trace else {}
    failures += wl.finish()

    done = [u for u in units if u.wall is not None]
    failed = sum(1 for u in units if u.failures)
    for u in units:
        failures += u.failures
    notes = [f"failed_ratio {failed / len(units):.4g} ({failed} of {len(units)} units)"]
    if trace:
        metrics = layer_metrics(tracer.spans, done, cfg, peaks)
        coverage = metrics.get("trace.coverage_ratio", 0.0)
        if not 1.0 - COVERAGE_MARGIN <= coverage <= 1.0 + 1e-9:
            failures.append(f"trace.coverage_ratio {coverage:.4f} outside "
                            f"[{1 - COVERAGE_MARGIN}, 1]")
        units_of = per_layer_units(cfg)
        metrics = {n: (metrics.get(n, 0.0), units_of[n]) for n in units_of}
        notes.append(f"traced units {sum(u.traced for u in done)}, untraced "
                     f"{sum(not u.traced for u in done)}, spans {len(tracer.spans)}")
    else:
        latencies = [u.latency for u in done]
        images = wl.images_per_unit * len(done)
        wall = math.fsum(u.wall for u in done)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "images_per_s": (images / wall, "img/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes.append(f"setup_s median of {len(setup_times)}: "
                     + ", ".join(f"{t:.4f}" for t in setup_times))
        notes.append(f"images_per_s {images} images in {wall:.3f} s; "
                     f"latency_p50_ms over n={len(latencies)} units")
        if isinstance(wl, Infer):
            if len(latencies) >= INFER_P90_MIN_REQUESTS:
                p90 = float(np.percentile(latencies, 90)) * 1e3
                notes.append(f"latency_p90_ms {p90:.4f} ms (n={len(latencies)})")
            else:
                notes.append(f"latency_p90_ms dropped: n={len(latencies)} < "
                             f"{INFER_P90_MIN_REQUESTS} requests")
    return Result(not failures and failed == 0, len(units), failed, metrics, notes,
                  failures, wl.digests, [u.latency for u in units],
                  tracer.spans if tracer else [])


# ---------------------------------------------------------------------------
# per-layer metrics from spans

MODEL_VIEW = {"model.forward", "model.patch_embed", "model.block",
              "attention.spatial", "attention.channel"}
TOP_VIEW = {"model.build", "model.forward", "dataset.load", "checkpoint.save",
            "checkpoint.load", "train.epoch", "train.evaluate", "train.loss",
            "train.adamw", "autodiff.backward", "augment.apply_policy",
            "augment.mixup", "augment.sampler"}
# Top-view self time of these spans is the metric.
TOP_METRICS = {
    "model.build": "model.build_s", "model.forward": "model.forward_s",
    "dataset.load": "dataset.load_s", "checkpoint.save": "checkpoint.save_s",
    "checkpoint.load": "checkpoint.load_s", "train.evaluate": "train.evaluate_s",
    "train.adamw": "train.adamw_s", "autodiff.backward": "train.backward_s",
    "augment.apply_policy": "augment.apply_policy_s", "augment.mixup": "augment.mixup_s",
    "augment.sampler": "augment.sampler_s",
}
# The model and optimizer part of a training step; the rest is batch preparation.
STEP_COMPUTE = {"model.forward", "train.loss", "autodiff.backward", "train.adamw"}


def channel_useful_flop(b, n, c, cg):
    """FLOPs of block-diagonal channel attention on a (b, n tokens, c) map:
    qkv (3c outputs) and proj (c outputs) mix cg inputs each, and the
    two attention matmuls cost 2*n*cg per entry of c/cg (cg x cg) maps."""
    return 2 * b * n * cg * (3 * c + c) + 2 * 2 * b * n * c * cg


def _in_ops(span):
    return span.name.startswith(("fwd.", "bwd.")) or span.name == "autodiff.backward"


def _in_model(span):
    return span.name in MODEL_VIEW


def _in_top(span):
    return span.name in TOP_VIEW


def layer_sums(spans, cfg):
    """Per-unit sums of every per-layer quantity, plus run-wide ratio sums."""
    op_self = self_times(spans, _in_ops)
    model_self = self_times(spans, _in_model)
    model_parent = view_parents(spans, _in_model)
    top_self = self_times(spans, _in_top)
    top_parent = view_parents(spans, _in_top)
    all_self = self_times(spans, lambda s: True)
    sums = defaultdict(lambda: defaultdict(float))
    ratios = defaultdict(float)
    last_child_end = {}
    step_compute = defaultdict(float)
    for i, s in enumerate(spans):
        u = sums[s.unit]
        u["covered_s"] += all_self[i]
        kind, _, op = s.name.partition(".")
        if kind == "fwd":
            u[f"autodiff.fwd_s.{op}"] += op_self[i]
            u["autodiff.fwd_calls"] += 1
            u["autodiff.fwd_out_mb"] += s.info["out_bytes"] / MB
            if op == "matmul":
                u["autodiff.matmul_gflop"] += s.info["flop"] / 1e9
                p = model_parent[i]
                if p is not None and spans[p].name == "attention.channel":
                    ratios["channel_actual"] += s.info["flop"]
        elif kind == "bwd":
            u[f"autodiff.bwd_s.{op}"] += op_self[i]
        elif s.name == "autodiff.backward":
            u["autodiff.backward_s"] += op_self[i]
            if s.info:
                u["autodiff.tape_nodes"] += s.info["nodes"]
                u["autodiff.tape_out_mb"] += s.info["out_bytes"] / MB
        elif kind == "attention":
            u[f"attention.{s.label}_s"] += model_self[i]
            b, h, w, c = s.info["shape"]
            stage = cfg.stages[int(s.label.split(".")[1])]
            if op == "spatial":
                ws = stage.window_size
                ratios["spatial_real"] += b * h * w
                ratios["spatial_padded"] += b * (-(-h // ws) * ws) * (-(-w // ws) * ws)
            else:
                ratios["channel_useful"] += channel_useful_flop(b, h * w, c, stage.head_width)
        elif s.name == "model.patch_embed":
            u[f"model.{s.label}_s"] += model_self[i]
        elif s.name == "model.block":
            u[f"model.{s.label}.self_s"] += model_self[i]
        elif s.name in ("checkpoint.save", "checkpoint.load"):
            u[f"{s.name}_mb"] += s.info["bytes"] / MB
        elif s.name == "dataset.load":
            u["dataset.images"] += s.info["images"]
        if s.name in TOP_METRICS:
            u[TOP_METRICS[s.name]] += top_self[i]
        p = model_parent[i]
        if _in_model(s) and p is not None and spans[p].name == "model.forward":
            last_child_end[p] = max(last_child_end.get(p, s.end), s.end)
        p = top_parent[i]
        if s.name in STEP_COMPUTE and p is not None and spans[p].name == "train.epoch":
            step_compute[p] += s.duration
            if s.name in ("model.forward", "train.loss"):
                u["train.forward_s"] += s.duration
    for i, s in enumerate(spans):
        if s.name == "model.forward":
            # The head: everything after the last block of the last stage.
            sums[s.unit]["model.head_s"] += s.end - last_child_end.get(i, s.start)
        elif s.name == "train.epoch":
            sums[s.unit]["train.batch_prep_s"] += s.duration - step_compute[i]
    return sums, ratios


def layer_metrics(spans, units, cfg, peaks):
    sums, ratios = layer_sums(spans, cfg)
    traced = [u for u in units if u.traced]
    untraced = [u for u in units if not u.traced]
    setup = [k for k in sums if isinstance(k, str) and k.startswith("setup")]
    names = [n for n in per_layer_units(cfg) if not n.startswith("trace.")]
    out = {}
    for name in names:
        keys = setup if name in SETUP_SCOPED else [u.index for u in traced]
        values = [sums[k].get(name, 0.0) for k in keys]
        out[name] = statistics.median(values) if values else 0.0
    out["attention.channel_useful_flop_ratio"] = (
        ratios["channel_useful"] / ratios["channel_actual"] if ratios["channel_actual"] else 0.0)
    out["attention.spatial_real_token_ratio"] = (
        ratios["spatial_real"] / ratios["spatial_padded"] if ratios["spatial_padded"] else 0.0)
    out["model.forward_peak_traced_mb"] = peaks.get("forward", 0) / MB
    out["train.step_peak_traced_mb"] = peaks.get("step", 0) / MB
    if traced and untraced:
        out["trace.overhead_ratio"] = (statistics.median(u.wall for u in traced)
                                       / statistics.median(u.wall for u in untraced))
    if traced:
        out["trace.coverage_ratio"] = statistics.median(
            sums[u.index]["covered_s"] / u.wall for u in traced)
    return out
