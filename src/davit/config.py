"""Run configuration.

Commands read a flat UTF-8 `key = value` file with one section per module
([model], [data], [train], [bench], [out]).  Every key has a default, unknown
sections or keys are rejected, and all values are validated up front so a bad
config fails before any long-running work starts, with an error naming the
file.  `#` starts a comment, and a key left empty takes its default.  Relative
paths inside the file resolve against the config file's own directory.

The dataclasses own their sections' keys and defaults.  Every `TrainConfig`
field is a [train] key with that field's type and default.  [model] reads
the scalar `ModelConfig` fields and one list per `StageConfig` field, all
defaulting to `model.default_config()`.  The [bench] iteration counts default
to `bench.measure_fps`'s parameter defaults.  Only [train] threshold and the
[data], [bench] and [out] keys are declared here.  A key is known when the
loader reads it; any other key is rejected before values are range-checked.
"""

import configparser
import inspect
import math
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from . import model as md
from .bench import measure_fps
from .dataset import read_text
from .train import TrainConfig

# [model] per-stage list keys besides `channels` (whose length sets the
# stage count), each with the StageConfig field it sets
_STAGE_KEYS = {"depths": "depth", "windows": "window_size",
               "head_widths": "head_width", "embed_kernels": "embed_kernel",
               "embed_strides": "embed_stride", "embed_pads": "embed_pad"}

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
        self.served = set()

    def get(self, key, conv, default):
        self.served.add(key)
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

    def get_fields(self, defaults, skip=()):
        """One key per field of the dataclass instance `defaults`, read with
        the field's type and defaulting to the field's value there."""
        convs = {name: _parse_bool if t is bool else t
                 for name, t in typing.get_type_hints(type(defaults)).items()}
        return {f.name: self.get(f.name, convs[f.name], getattr(defaults, f.name))
                for f in fields(defaults) if f.name not in skip}


def _build_model_config(sec: _Section) -> md.ModelConfig:
    default = md.default_config()
    ints = lambda raw: _parse_list(raw, int)
    channels = sec.get("channels", ints, [s.channels for s in default.stages])
    n = len(channels)
    # stage 0 defaults to the first default stage, every later stage to the second
    first, later = default.stages[:2]
    per_stage = {"channels": channels}
    for key, name in _STAGE_KEYS.items():
        values = sec.get(key, ints, [getattr(first, name)] + [getattr(later, name)] * (n - 1))
        per_stage[name] = _broadcast(values, n, f"[model] {key}")
    stages = [md.StageConfig(**{name: v[i] for name, v in per_stage.items()})
              for i in range(n)]
    return md.ModelConfig(stages=stages, **sec.get_fields(default, skip={"stages"}))


def load_run_config(path, seed=None, threshold=None) -> RunConfig:
    """Parse and validate a config file; `seed`/`threshold` override it."""
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ValueError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(read_text(cfg_path), source=str(path))
    except configparser.Error as exc:  # not a ValueError; its message spans lines
        raise ValueError(f"malformed config file {path}: {' '.join(str(exc).split())}") from None
    try:
        return _run_config(parser, cfg_path, seed, threshold)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _run_config(parser, cfg_path, seed, threshold) -> RunConfig:
    sections = {name: _Section(parser, name) for name in ("model", "data", "train", "bench", "out")}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")

    def resolve(p):
        return None if p is None else str((cfg_path.parent / p))

    tr, da, be = sections["train"], sections["data"], sections["bench"]
    fps_defaults = inspect.signature(measure_fps).parameters
    train_cfg = TrainConfig(**tr.get_fields(TrainConfig()))
    if seed is not None:
        train_cfg.seed = int(seed)
    thr = tr.get("threshold", float, 0.5)
    rc = RunConfig(
        model=_build_model_config(sections["model"]),
        train=train_cfg,
        threshold=thr if threshold is None else float(threshold),
        manifest=resolve(da.get("manifest", str, None)),
        train_fraction=da.get("train_fraction", float, 0.8),
        split_seed=da.get("split_seed", int, 0),
        holdout_tags=frozenset(da.get("holdout_tags", lambda r: _parse_list(r, str), [])),
        upweight_tag=da.get("upweight_tag", str, None),
        upweight_factor=da.get("upweight_factor", float, 4.0),
        policy_path=resolve(da.get("policy", str, None)),
        bench_batch_size=be.get("batch_size", int, 1),
        bench_warmup_iters=be.get("warmup_iters", int, fps_defaults["warmup_iters"].default),
        bench_timed_iters=be.get("timed_iters", int, fps_defaults["timed_iters"].default),
        bench_environment=be.get("environment", str, None),
        out_dir=resolve(sections["out"].get("dir", str, "runs")),
    )
    for section in parser.sections():
        for key in parser[section]:
            if key not in sections[section].served:
                raise ValueError(f"unknown key '{key}' in [{section}]")

    for section, dataclass_config in (("model", rc.model), ("train", rc.train)):
        try:
            dataclass_config.validate()
        except ValueError as exc:
            raise ValueError(f"[{section}] {exc}") from None
    if not 0.0 <= rc.threshold < 1.0:
        raise ValueError(f"[train] threshold must be in [0, 1), got {rc.threshold}")
    if not 0.0 < rc.train_fraction < 1.0:
        raise ValueError(f"[data] train_fraction must be in (0, 1), got {rc.train_fraction}")
    if rc.upweight_factor <= 0:
        raise ValueError(f"[data] upweight_factor must be positive, got {rc.upweight_factor}")
    if rc.bench_batch_size < 1:
        raise ValueError(f"[bench] batch_size must be at least 1, got {rc.bench_batch_size}")
    if rc.bench_warmup_iters < 0:
        raise ValueError(f"[bench] warmup_iters must not be negative, got {rc.bench_warmup_iters}")
    if rc.bench_timed_iters < 1:
        raise ValueError(f"[bench] timed_iters must be at least 1, got {rc.bench_timed_iters}")
    return rc
