"""Inference throughput measurement.

Times repeated forward passes on fixed random input and reports frames per
second plus a latency distribution.  Warmup passes run before the timed loop
and never touch the timer.  Absolute numbers are machine-specific; only the
definitional identity (fps == batch * iters / elapsed) and relative ordering
between configurations are meaningful.
"""

import csv
import io
import math
import platform
import time
import typing
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as md

# columns of the interchange format, in order
CSV_COLUMNS = ("model_name", "param_count", "batch_size", "fps",
               "lat_mean_ms", "lat_p50_ms", "lat_p95_ms", "environment")


def default_environment(model=None, batch=1) -> str:
    """Python, machine, and the processes a forward of `batch` images runs on."""
    _, w = md.offtape_plan(model.config, batch) if isinstance(model, md.Model) else (1, 0)
    procs = f"{w} process{'es' * (w > 1)} at 1 BLAS thread each" if w else "single-process"
    return f"python {platform.python_version()} {platform.machine()} {procs}"


@dataclass
class BenchReport:
    model_name: str
    param_count: int
    batch_size: int
    warmup_iters: int
    timed_iters: int
    fps: float
    lat_mean_ms: float
    lat_p50_ms: float
    lat_p95_ms: float
    elapsed_s: float
    environment: str

    def validate(self):
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        if self.lat_p50_ms > self.lat_p95_ms:
            raise ValueError("latency p50 exceeds p95")

    def csv_row(self) -> dict:
        """The report restricted to the interchange columns."""
        return {name: getattr(self, name) for name in CSV_COLUMNS}


def measure_fps(model, input_shape=None, warmup_iters: int = 20,
                timed_iters: int = 100, seed: int = 0,
                model_name: str = "model", environment=None,
                _clock=time.perf_counter) -> BenchReport:
    """Run warmup then timed forward passes and report throughput.

    The input is drawn once from `seed` and reused every pass.  Each timed
    iteration is bracketed individually with a monotonic clock; elapsed time
    is the sum of per-iteration latencies, so warmup can never leak into it.
    """
    if timed_iters < 1:
        raise ValueError("timed_iters must be at least 1")
    if warmup_iters < 0:
        raise ValueError("warmup_iters must not be negative")
    if input_shape is None:
        cfg = model.config
        input_shape = (1, cfg.input_channels, cfg.input_size, cfg.input_size)
    if len(input_shape) != 4 or any(s < 1 for s in input_shape):
        raise ValueError(f"input_shape must be a positive NCHW 4-tuple, got {input_shape}")
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.uniform(0.0, 1.0, size=input_shape).astype(np.float32))

    for _ in range(warmup_iters):
        model.forward(x)

    latencies = []
    for _ in range(timed_iters):
        t0 = _clock()
        model.forward(x)
        t1 = _clock()
        latencies.append(t1 - t0)

    elapsed = math.fsum(latencies)
    if elapsed <= 0:
        raise ValueError("elapsed time is not positive; timer resolution too coarse")
    batch = input_shape[0]
    lat_ms = np.asarray(latencies, dtype=np.float64) * 1e3
    report = BenchReport(
        model_name=model_name,
        param_count=md.count_params(model),
        batch_size=batch,
        warmup_iters=warmup_iters,
        timed_iters=timed_iters,
        fps=batch * timed_iters / elapsed,
        lat_mean_ms=float(lat_ms.mean()),
        lat_p50_ms=float(np.percentile(lat_ms, 50)),
        lat_p95_ms=float(np.percentile(lat_ms, 95)),
        elapsed_s=elapsed,
        environment=environment if environment is not None else default_environment(model, batch),
    )
    report.validate()
    return report


def to_csv(reports) -> str:
    """Serialize reports to CSV; floats use repr so parsing is lossless."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        row = r.csv_row() if isinstance(r, BenchReport) else dict(r)
        writer.writerow({k: repr(v) if isinstance(v, float) else v
                         for k, v in row.items()})
    return buf.getvalue()


def from_csv(text: str):
    """Parse to_csv output back into typed rows (dicts in CSV_COLUMNS order)."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
    types = typing.get_type_hints(BenchReport)
    return [{name: types[name](row[name]) for name in CSV_COLUMNS} for row in reader]


def format_table(reports) -> str:
    """Fixed-width human-readable table, one line per report."""
    header = f"{'model':<16} {'params':>12} {'batch':>5} {'fps':>12} {'p50 ms':>10} {'p95 ms':>10}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(f"{r.model_name:<16} {r.param_count:>12} {r.batch_size:>5} "
                     f"{r.fps:>12.3f} {r.lat_p50_ms:>10.3f} {r.lat_p95_ms:>10.3f}")
    return "\n".join(lines)
