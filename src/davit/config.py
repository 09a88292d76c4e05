"""Run configuration.

Commands read a flat UTF-8 `key = value` file with one section per module
([model], [data], [train], [bench], [out]).  Every key has a default, unknown
sections or keys are rejected, and all values are validated up front so a bad
config fails before any long-running work starts, with an error naming the
file.  `#` starts a comment, and a key left empty takes its default.  Relative
paths inside the file resolve against the config file's own directory.

Every section but [out] is read from its dataclass.  Each field of
`TrainConfig`, `DataConfig` and `bench.BenchConfig` is a [train], [data] or
[bench] key with that field's type and default.  [model] reads the scalar
`ModelConfig` fields and one list per `StageConfig` field, all defaulting to
`model.default_config()`.  A key is known when the loader reads it; any other
key is rejected before values are range-checked.
"""

import configparser
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from . import model as md
from .bench import BenchConfig
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
class DataConfig:
    manifest: str = None
    train_fraction: float = 0.8
    split_seed: int = 0
    holdout_tags: frozenset = frozenset()
    upweight_tag: str = None
    upweight_factor: float = 4.0
    policy: str = None


@dataclass
class RunConfig:
    model: md.ModelConfig
    train: TrainConfig
    data: DataConfig
    bench: BenchConfig
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


# field types read by a parser other than the type itself
_CONVS = {bool: _parse_bool, frozenset: lambda raw: frozenset(_parse_list(raw, str))}


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

    def get_fields(self, defaults, **given):
        """A copy of the dataclass instance `defaults`, with `given` set and one key
        per other field, read with the field's type and defaulting to its value."""
        return type(defaults)(**given, **{
            name: self.get(name, _CONVS.get(t, t), getattr(defaults, name))
            for name, t in typing.get_type_hints(type(defaults)).items() if name not in given})


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
    return sec.get_fields(default, stages=stages)


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

    rc = RunConfig(model=_build_model_config(sections["model"]),
                   train=sections["train"].get_fields(TrainConfig()),
                   data=sections["data"].get_fields(DataConfig()),
                   bench=sections["bench"].get_fields(BenchConfig()),
                   out_dir=sections["out"].get("dir", str, "runs"))
    for section in parser.sections():
        for key in parser[section]:
            if key not in sections[section].served:
                raise ValueError(f"unknown key '{key}' in [{section}]")
    if seed is not None:
        rc.train.seed = int(seed)
    if threshold is not None:
        rc.train.threshold = float(threshold)
    rc.data.manifest, rc.data.policy, rc.out_dir = (
        None if p is None else str(cfg_path.parent / p)
        for p in (rc.data.manifest, rc.data.policy, rc.out_dir))

    for section in ("model", "train"):
        try:
            getattr(rc, section).validate()
        except ValueError as exc:
            raise ValueError(f"[{section}] {exc}") from None
    for section, key, ok, want in (
            ("data", "train_fraction", 0 < rc.data.train_fraction < 1, "in (0, 1)"),
            ("data", "split_seed", rc.data.split_seed >= 0, ">= 0"),
            ("data", "upweight_factor", rc.data.upweight_factor > 0, "> 0"),
            ("bench", "batch_size", rc.bench.batch_size >= 1, ">= 1"),
            ("bench", "warmup_iters", rc.bench.warmup_iters >= 0, ">= 0"),
            ("bench", "timed_iters", rc.bench.timed_iters >= 1, ">= 1")):
        if not ok:
            raise ValueError(f"[{section}] {key} must be {want}, got {getattr(getattr(rc, section), key)}")
    return rc
