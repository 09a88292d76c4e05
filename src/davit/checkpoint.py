"""Binary checkpoint serialization.

Wire format, all integers little-endian u32:

    magic "DVTF" | version | tensor count |
    per tensor: name length, UTF-8 name, rank, extents..., f32 data

Model parameters are stored under their registry names. Run metadata
and optimizer state travel in the same container under reserved
"__meta__." / "__opt__." names so the format stays one flat tensor
list. Validation counts are stored instead of the accuracy ratio so a
resumed run can reproduce the recorded accuracy exactly (correct/total
in 64-bit division, the same arithmetic evaluate uses). The counts
(epoch, val_correct, val_total, the AdamW step t) are stored as f32
values, so save_checkpoint raises ValueError naming the field when one
lies outside [0, 2**24].

Round-trips are bitwise exact for f32 tensors. A malformed container
(bad magic, bad version, truncation) raises CorruptCheckpointError; a
well-formed file whose tensors do not fit the receiving model raises
CheckpointMismatchError naming the first offending tensor.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"DVTF"
FORMAT_VERSION = 1

_META_EPOCH = "__meta__.epoch"
_META_CORRECT = "__meta__.val_correct"
_META_TOTAL = "__meta__.val_total"
_META_HASH = "__meta__.config_hash"
_OPT_STEP = "__opt__.t"
_OPT_M = "__opt__.m."
_OPT_V = "__opt__.v."
_MAX_COUNT = 2**24  # float32 holds every integer in [0, 2**24] exactly


class CorruptCheckpointError(ValueError):
    """The file is not a well-formed checkpoint container."""


class CheckpointMismatchError(ValueError):
    """A well-formed checkpoint does not fit the receiving model."""


@dataclass
class CheckpointMeta:
    epoch: int = 0
    val_correct: int = 0
    val_total: int = 0
    config_hash: bytes = b"\x00" * 16

    @property
    def val_accuracy(self):
        return self.val_correct / self.val_total if self.val_total else 0.0


def model_config_hash(cfg) -> bytes:
    """16-byte digest of the architecture-defining fields."""
    stages = ";".join(
        f"{s.embed_kernel},{s.embed_stride},{s.embed_pad},{s.channels},"
        f"{s.depth},{s.window_size},{s.head_width}"
        for s in cfg.stages
    )
    canon = (f"input_size={cfg.input_size}|input_channels={cfg.input_channels}"
             f"|num_classes={cfg.num_classes}|ffn_expansion={cfg.ffn_expansion!r}"
             f"|stages={stages}")
    return hashlib.sha256(canon.encode()).digest()[:16]


def write_tensors(path, tensors: dict):
    """Serialize named float arrays; values are stored as f32."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f4")
            name_b = name.encode("utf-8")
            f.write(struct.pack("<I", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def read_tensors(path) -> dict:
    """Parse a checkpoint container back into named f32 arrays the caller owns."""
    with open(path, "rb") as f:
        data = f.read()

    def bad(msg):
        return CorruptCheckpointError(f"corrupt checkpoint {path}: {msg}")

    if data[:4] != MAGIC:
        raise bad(f"bad magic {data[:4]!r}")
    if len(data) < 12:
        raise bad("truncated header")
    version, count = struct.unpack_from("<II", data, 4)
    if version != FORMAT_VERSION:
        raise bad(f"unsupported format version {version}")
    tensors = {}
    off = 12
    for _ in range(count):
        if off + 4 > len(data):
            raise bad("truncated tensor name length")
        (name_len,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + name_len > len(data):
            raise bad("truncated tensor name")
        try:
            name = data[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise bad(f"tensor name at byte {off} is not UTF-8") from None
        off += name_len
        if off + 4 > len(data):
            raise bad(f"truncated rank for {name!r}")
        (rank,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + 4 * rank > len(data):
            raise bad(f"truncated extents for {name!r}")
        shape = struct.unpack_from(f"<{rank}I", data, off)
        off += 4 * rank
        n = math.prod(shape)
        if off + 4 * n > len(data):
            raise bad(f"truncated data for {name!r}")
        arr = np.frombuffer(data, dtype="<f4", count=n, offset=off).reshape(shape)
        off += 4 * n
        tensors[name] = arr.copy()
    if off != len(data):
        raise bad(f"{len(data) - off} trailing bytes")
    return tensors


def save_checkpoint(model, path, state=None, meta: CheckpointMeta | None = None):
    tensors = {name: t.data for name, t in model.named_parameters().items()}
    meta = meta or CheckpointMeta(config_hash=model_config_hash(model.config))
    tensors[_META_EPOCH] = _count("epoch", meta.epoch)
    tensors[_META_CORRECT] = _count("val_correct", meta.val_correct)
    tensors[_META_TOTAL] = _count("val_total", meta.val_total)
    tensors[_META_HASH] = np.frombuffer(meta.config_hash, dtype=np.uint8).astype(np.float32)
    if state is not None:
        tensors[_OPT_STEP] = _count("t", state.t)
        for name, m in state.m.items():
            tensors[_OPT_M + name] = m
        for name, v in state.v.items():
            tensors[_OPT_V + name] = v
    write_tensors(path, tensors)


def _count(field, value):
    if not 0 <= value <= _MAX_COUNT:
        raise ValueError(f"checkpoint field {field} = {value} lies outside [0, 2**24], "
                         "the integers a float32 holds exactly")
    return np.array([value], dtype=np.float32)


def read_meta(path) -> CheckpointMeta:
    tensors = read_tensors(path)
    return _meta_from(tensors, path)


def _meta_from(tensors, path) -> CheckpointMeta:
    try:
        digest = tensors[_META_HASH].astype(np.uint8).tobytes()
        return CheckpointMeta(
            epoch=int(tensors[_META_EPOCH][0]),
            val_correct=int(tensors[_META_CORRECT][0]),
            val_total=int(tensors[_META_TOTAL][0]),
            config_hash=digest,
        )
    except KeyError as e:
        raise CorruptCheckpointError(f"corrupt checkpoint {path}: missing metadata entry {e}") from None


def load_checkpoint(path, model):
    """Copy parameters from the file into the model.

    Returns (state, meta) where state is an OptimizerState when the
    checkpoint carries one, else None. Config-hash policy is the
    caller's concern; this function only enforces names and shapes.
    """
    from davit.train import OptimizerState

    tensors = read_tensors(path)
    meta = _meta_from(tensors, path)

    params = model.named_parameters()
    stored = {k: v for k, v in tensors.items() if not k.startswith(("__meta__.", "__opt__."))}
    for name, t in params.items():
        if name not in stored:
            raise CheckpointMismatchError(f"checkpoint {path} is missing tensor {name!r}")
        if stored[name].shape != t.shape:
            raise CheckpointMismatchError(
                f"checkpoint {path} tensor {name!r} has shape {stored[name].shape}, "
                f"model expects {t.shape}")
    for name in stored:
        if name not in params:
            raise CheckpointMismatchError(f"checkpoint {path} holds unexpected tensor {name!r}")
    for name, t in params.items():
        t.data = stored[name].astype(t.data.dtype, copy=False)

    state = None
    if _OPT_STEP in tensors:
        m = {k[len(_OPT_M):]: tensors[k] for k in tensors if k.startswith(_OPT_M)}
        v = {k[len(_OPT_V):]: tensors[k] for k in tensors if k.startswith(_OPT_V)}
        state = OptimizerState(m=m, v=v, t=int(tensors[_OPT_STEP][0]))
    return state, meta
