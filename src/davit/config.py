"""Run configuration.

Commands read a flat UTF-8 `key = value` file with one section per module
([model], [data], [train], [bench], [out]).  Every key has a default, unknown
sections or keys are rejected, and all values are validated up front so a bad
config fails before any long-running work starts.  `#` starts a comment, and
a key left empty takes its default.  Relative paths inside the
file resolve against the config file's own directory.
"""

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from . import model as md
from .train import TrainConfig

_KNOWN_KEYS = {
    "model": {"input_size", "num_classes", "input_channels", "ffn_expansion",
              "channels", "depths", "windows", "head_widths",
              "embed_kernels", "embed_strides", "embed_pads"},
    "data": {"manifest", "train_fraction", "split_seed", "holdout_tags",
             "upweight_tag", "upweight_factor", "policy"},
    "train": {"base_lr", "warmup_epochs", "total_epochs", "batch_size",
              "weight_decay", "beta1", "beta2", "eps", "mixup_alpha",
              "seed", "threshold", "cosine_decay"},
    "bench": {"batch_size", "warmup_iters", "timed_iters", "environment"},
    "out": {"dir"},
}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


@dataclass
class RunConfig:
    model: md.ModelConfig
    train: TrainConfig
    threshold: float
    manifest: str        # resolved path, or None when the file names none
    train_fraction: float
    split_seed: int
    holdout_tags: frozenset
    upweight_tag: str
    upweight_factor: float
    policy_path: str
    bench_batch_size: int
    bench_warmup_iters: int
    bench_timed_iters: int
    bench_environment: str
    out_dir: str


def _parse_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"not a boolean: {raw!r}")
    return _BOOL_WORDS[word]


def _parse_list(raw, conv):
    items = [tok.strip() for tok in raw.split(",")]
    if any(not tok for tok in items):
        raise ValueError(f"empty element in list: {raw!r}")
    return [conv(tok) for tok in items]


def _broadcast(values, n, what):
    """A one-element list applies to every stage."""
    if len(values) == 1:
        return values * n
    if len(values) != n:
        raise ValueError(f"{what} has {len(values)} entries for {n} stages")
    return list(values)


class _Section:
    def __init__(self, parser, name):
        self.parser = parser
        self.name = name

    def get(self, key, conv, default):
        raw = self.parser.get(self.name, key, fallback=None)
        if not raw:
            return default
        try:
            value = conv(raw)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"not a finite number: {raw!r}")
            return value
        except ValueError as exc:
            raise ValueError(f"[{self.name}] {key}: {exc}") from None


def _build_model_config(sec: _Section) -> md.ModelConfig:
    channels = sec.get("channels", lambda r: _parse_list(r, int), [96, 192, 384, 768])
    n = len(channels)
    depths = _broadcast(sec.get("depths", lambda r: _parse_list(r, int), [1]), n, "depths")
    windows = _broadcast(sec.get("windows", lambda r: _parse_list(r, int), [7]), n, "windows")
    head_widths = _broadcast(sec.get("head_widths", lambda r: _parse_list(r, int), [32]), n, "head_widths")
    # first stage downsamples 4x with a 7x7 patch kernel, later stages 2x
    kernels = _broadcast(sec.get("embed_kernels", lambda r: _parse_list(r, int),
                                 [7] + [2] * (n - 1)), n, "embed_kernels")
    strides = _broadcast(sec.get("embed_strides", lambda r: _parse_list(r, int),
                                 [4] + [2] * (n - 1)), n, "embed_strides")
    pads = _broadcast(sec.get("embed_pads", lambda r: _parse_list(r, int),
                              [3] + [0] * (n - 1)), n, "embed_pads")
    stages = [md.StageConfig(kernels[i], strides[i], pads[i], channels[i],
                             depths[i], windows[i], head_widths[i])
              for i in range(n)]
    return md.ModelConfig(
        input_size=sec.get("input_size", int, 300),
        num_classes=sec.get("num_classes", int, 10),
        stages=stages,
        input_channels=sec.get("input_channels", int, 3),
        ffn_expansion=sec.get("ffn_expansion", float, 4.0),
    )


def load_run_config(path, seed=None, threshold=None) -> RunConfig:
    """Parse and validate a config file; `seed`/`threshold` override it."""
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ValueError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    with open(cfg_path, encoding="utf-8") as fh:
        parser.read_file(fh)
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ValueError(f"unknown key '{key}' in [{section}]")

    def resolve(p):
        return None if p is None else str((cfg_path.parent / p))

    model_cfg = _build_model_config(_Section(parser, "model"))
    model_cfg.validate()

    tr = _Section(parser, "train")
    train_cfg = TrainConfig(
        base_lr=tr.get("base_lr", float, 1e-3),
        warmup_epochs=tr.get("warmup_epochs", int, 5),
        total_epochs=tr.get("total_epochs", int, 30),
        batch_size=tr.get("batch_size", int, 8),
        weight_decay=tr.get("weight_decay", float, 0.05),
        beta1=tr.get("beta1", float, 0.9),
        beta2=tr.get("beta2", float, 0.999),
        eps=tr.get("eps", float, 1e-8),
        mixup_alpha=tr.get("mixup_alpha", float, 0.2),
        seed=tr.get("seed", int, 0),
        cosine_decay=tr.get("cosine_decay", _parse_bool, False),
    )
    if seed is not None:
        train_cfg.seed = int(seed)
    train_cfg.validate()
    thr = tr.get("threshold", float, 0.5)
    if threshold is not None:
        thr = float(threshold)
    if not 0.0 <= thr < 1.0:
        raise ValueError(f"[train] threshold must be in [0, 1), got {thr}")

    da = _Section(parser, "data")
    fraction = da.get("train_fraction", float, 0.8)
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"[data] train_fraction must be in (0, 1), got {fraction}")
    factor = da.get("upweight_factor", float, 4.0)
    if factor <= 0:
        raise ValueError(f"[data] upweight_factor must be positive, got {factor}")
    tags = da.get("holdout_tags", lambda r: _parse_list(r, str), [])

    be = _Section(parser, "bench")
    bench_batch = be.get("batch_size", int, 1)
    bench_warmup = be.get("warmup_iters", int, 20)
    bench_timed = be.get("timed_iters", int, 100)
    if bench_batch < 1:
        raise ValueError(f"[bench] batch_size must be at least 1, got {bench_batch}")
    if bench_warmup < 0:
        raise ValueError(f"[bench] warmup_iters must not be negative, got {bench_warmup}")
    if bench_timed < 1:
        raise ValueError(f"[bench] timed_iters must be at least 1, got {bench_timed}")

    return RunConfig(
        model=model_cfg,
        train=train_cfg,
        threshold=thr,
        manifest=resolve(da.get("manifest", str, None)),
        train_fraction=fraction,
        split_seed=da.get("split_seed", int, 0),
        holdout_tags=frozenset(tags),
        upweight_tag=da.get("upweight_tag", str, None),
        upweight_factor=factor,
        policy_path=resolve(da.get("policy", str, None)),
        bench_batch_size=bench_batch,
        bench_warmup_iters=bench_warmup,
        bench_timed_iters=bench_timed,
        bench_environment=be.get("environment", str, None),
        out_dir=resolve(_Section(parser, "out").get("dir", str, "runs")),
    )
