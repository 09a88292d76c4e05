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

Records are read in file order, each tensor once into a buffer the
returned array owns, so a load holds about the file size. Round-trips
are bitwise exact for f32 tensors. A malformed container (bad magic,
bad version, truncation, trailing bytes, a repeated tensor name) or a
metadata entry that is not the whole numbers save_checkpoint writes
raises CorruptCheckpointError naming the file; a well-formed file whose
parameters or optimizer moments do not fit the receiving model raises
CheckpointMismatchError naming the first offending tensor.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading
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
_WRITEBACK_MIN = 1 << 20  # bytes of a record whose writeback a save starts early


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
    """Serialize named float arrays; values are stored as f32.

    The bytes go to a temporary file beside path, which is flushed and
    fsync'd before it replaces path. So a write that fails partway, or a
    crashed or killed process, leaves the previous file as it was, and after
    a power loss path holds either the previous file or the new one, never
    unwritten blocks. The directory is not fsync'd, so a rename made just
    before a power loss may be lost, leaving the previous file.

    Two steps keep the save near the disk's speed without changing a byte.
    Each record of at least 1 MiB is flushed and advised POSIX_FADV_DONTNEED,
    which on Linux starts its writeback while later records are copied; its
    pages are dirty when advised, so they stay cached. And on POSIX the file
    being replaced is held open across the rename and closed by a
    "checkpoint-release" thread, so the filesystem frees its blocks off the
    save's path.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", FORMAT_VERSION, len(tensors)))
            for name, arr in tensors.items():
                arr = np.asarray(arr, dtype="<f4")
                name_b = name.encode("utf-8")
                f.write(struct.pack("<I", len(name_b)))
                f.write(name_b)
                f.write(struct.pack("<I", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(np.ascontiguousarray(arr))
                if arr.nbytes >= _WRITEBACK_MIN and hasattr(os, "posix_fadvise"):
                    f.flush()
                    os.posix_fadvise(f.fileno(), f.tell() - arr.nbytes, arr.nbytes,
                                     os.POSIX_FADV_DONTNEED)
            f.flush()
            os.fsync(f.fileno())
        try:  # off POSIX an open target would block the replace
            replaced = os.open(path, os.O_RDONLY) if os.name == "posix" else None
        except OSError:  # nothing to replace, or unreadable: the rename frees it in line
            replaced = None
        try:
            os.replace(tmp, path)
        finally:
            if replaced is not None:
                threading.Thread(target=os.close, args=(replaced,), name="checkpoint-release").start()
    finally:
        if os.path.exists(tmp):  # the write failed
            os.unlink(tmp)


def read_tensors(path) -> dict:
    """Parse a checkpoint container back into named f32 arrays the caller owns."""
    def bad(msg):
        return CorruptCheckpointError(f"corrupt checkpoint {path}: {msg}")

    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def take(n, what, empty=bytearray):
            # checked against the file size before anything is allocated
            nonlocal left
            if n > left:
                raise bad(f"truncated {what}")
            buf = empty(n)
            if f.readinto(buf) != n:
                raise bad(f"truncated {what}")
            left -= n
            return buf

        def u32(k, what):
            return struct.unpack(f"<{k}I", take(4 * k, what))

        magic = take(4, "magic")
        if magic != MAGIC:
            raise bad(f"bad magic {bytes(magic)!r}")
        version, count = u32(2, "header")
        if version != FORMAT_VERSION:
            raise bad(f"unsupported format version {version}")
        tensors = {}
        for _ in range(count):
            (name_len,) = u32(1, "tensor name length")
            raw = take(name_len, "tensor name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise bad(f"tensor name at byte {f.tell() - name_len} is not UTF-8") from None
            if name in tensors:
                raise bad(f"duplicate tensor {name!r}")
            (rank,) = u32(1, f"rank for {name!r}")
            shape = u32(rank, f"extents for {name!r}")
            tensors[name] = take(4 * math.prod(shape), f"data for {name!r}",
                                 lambda n: np.empty(shape, dtype="<f4"))
    if left:
        raise bad(f"{left} trailing bytes")
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


def load_checkpoint(path, model):
    """Copy parameters from the file into the model.

    Returns (state, meta) where state is an OptimizerState when the
    checkpoint carries one, else None. Config-hash policy is the
    caller's concern; this function checks the metadata entries, and
    the names and shapes of the parameters and moments, before it
    changes the model.
    """
    from davit.train import OptimizerState

    tensors = read_tensors(path)

    def whole(key, size=1, top=_MAX_COUNT):
        if key not in tensors:
            raise CorruptCheckpointError(f"corrupt checkpoint {path}: missing metadata entry {key!r}")
        vals = tensors[key]
        # NaN fails every comparison, so it is rejected with the rest
        if vals.shape != (size,) or not ((vals >= 0) & (vals <= top) & (vals == np.floor(vals))).all():
            raise CorruptCheckpointError(
                f"corrupt checkpoint {path}: metadata entry {key!r} is not {size} whole number(s) in [0, {top}]")
        return [int(x) for x in vals]

    (epoch,), (correct,), (total,) = (whole(k) for k in (_META_EPOCH, _META_CORRECT, _META_TOTAL))
    meta = CheckpointMeta(epoch=epoch, val_correct=correct, val_total=total,
                          config_hash=bytes(whole(_META_HASH, 16, 255)))
    t = whole(_OPT_STEP)[0] if _OPT_STEP in tensors else None

    params = model.named_parameters()
    stored = {k: a for k, a in tensors.items() if not k.startswith(("__meta__.", "__opt__."))}
    m = {k[len(_OPT_M):]: a for k, a in tensors.items() if k.startswith(_OPT_M)}
    v = {k[len(_OPT_V):]: a for k, a in tensors.items() if k.startswith(_OPT_V)}
    for name in params:
        if name not in stored:
            raise CheckpointMismatchError(f"checkpoint {path} is missing tensor {name!r}")
    for prefix, group in (("", stored), (_OPT_M, m), (_OPT_V, v)):
        for name, a in group.items():
            if name not in params:
                raise CheckpointMismatchError(f"checkpoint {path} holds unexpected tensor {prefix + name!r}")
            if a.shape != params[name].shape:
                raise CheckpointMismatchError(
                    f"checkpoint {path} tensor {prefix + name!r} has shape {a.shape}, "
                    f"model expects {params[name].shape}")
    if m.keys() != v.keys():  # adamw_step indexes both
        name = min(m.keys() ^ v.keys())
        raise CheckpointMismatchError(
            f"checkpoint {path} holds one of {_OPT_M + name!r} and {_OPT_V + name!r} without the other")

    for name, p in params.items():
        p.data = stored[name].astype(p.data.dtype, copy=False)
    state = None if t is None else OptimizerState(m=m, v=v, t=t)
    return state, meta
