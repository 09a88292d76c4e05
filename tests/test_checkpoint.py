import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from davit import checkpoint as ck
from davit import model as md
from davit.train import OptimizerState


def toy_model(seed=0, channels=4):
    cfg = md.ModelConfig(input_size=16, num_classes=3,
                         stages=[md.StageConfig(7, 4, 3, channels, 1, 2, 2)])
    return md.build_model(cfg, seed=seed)


def randomize(model, seed):
    rng = np.random.default_rng(seed)
    for t in model.named_parameters().values():
        t.data = rng.normal(size=t.shape).astype(np.float32)


# ---------------------------------------------------------------------------
# wire format


def test_wire_format_hand_parse(tmp_path):
    path = tmp_path / "t.ckpt"
    ck.write_tensors(path, {"ab": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == b"DVTF"
    version, count = struct.unpack_from("<II", raw, 4)
    assert version == 1 and count == 1
    (name_len,) = struct.unpack_from("<I", raw, 12)
    assert name_len == 2 and raw[16:18] == b"ab"
    rank, d0, d1 = struct.unpack_from("<III", raw, 18)
    assert (rank, d0, d1) == (2, 2, 2)
    vals = struct.unpack_from("<4f", raw, 30)
    assert vals == (1.0, 2.0, 3.0, 4.0)
    assert len(raw) == 30 + 16


def test_tensor_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "w": rng.normal(size=(3, 5)).astype(np.float32),
        "nested.name.b": rng.normal(size=(7,)).astype(np.float32),
    }
    path = tmp_path / "t.ckpt"
    ck.write_tensors(path, tensors)
    back = ck.read_tensors(path)
    assert set(back) == set(tensors)
    for name in tensors:
        assert back[name].shape == tensors[name].shape
        assert (back[name] == tensors[name]).all()


def test_corrupt_files_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(ck.CorruptCheckpointError, match="magic"):
        ck.read_tensors(path)
    path.write_bytes(b"DVTF" + struct.pack("<II", 99, 0))
    with pytest.raises(ck.CorruptCheckpointError, match="version"):
        ck.read_tensors(path)
    # truncate a valid file mid-tensor
    good = tmp_path / "good.ckpt"
    ck.write_tensors(good, {"w": np.ones((4, 4), dtype=np.float32)})
    raw = good.read_bytes()
    path.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(ck.CorruptCheckpointError, match="truncated"):
        ck.read_tensors(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ck.CorruptCheckpointError, match="trailing"):
        ck.read_tensors(path)
    # a two-tensor container cut at every byte, and with the name length,
    # rank and first extent of its first record set to 0xFFFFFFFF
    ck.write_tensors(good, {"w": np.ones((2, 3), dtype=np.float32),
                            "b": np.ones((3,), dtype=np.float32)})
    raw = good.read_bytes()
    damaged = [raw[:cut] for cut in range(len(raw))]
    for field in (12, 17, 21):  # after the 12-byte header and the 1-byte name "w"
        damaged.append(raw[:field] + b"\xff" * 4 + raw[field + 4:])
    for case in damaged:
        path.write_bytes(case)
        with pytest.raises(ck.CorruptCheckpointError, match=re.escape(str(path))):
            ck.read_tensors(path)


def test_non_utf8_tensor_name_rejected(tmp_path):
    path = tmp_path / "name.ckpt"
    ck.write_tensors(path, {"w": np.ones((2,), dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[16] = 0xFF  # first byte of the first name, after the 12-byte header and its length
    path.write_bytes(bytes(raw))
    with pytest.raises(ck.CorruptCheckpointError, match=f"{re.escape(str(path))}.*UTF-8"):
        ck.read_tensors(path)


@pytest.mark.parametrize("extents", [(65536,) * 4, (2**32 - 1, 2**32 - 1, 2)])
def test_extent_product_overflow_rejected(tmp_path, extents):
    # the int64 product of these extents wraps to 0 and to a negative count
    path = tmp_path / "huge.ckpt"
    path.write_bytes(b"DVTF" + struct.pack("<III", 1, 1, 1) + b"w"
                     + struct.pack(f"<I{len(extents)}I", len(extents), *extents) + bytes(16))
    with pytest.raises(ck.CorruptCheckpointError, match=f"{re.escape(str(path))}.*truncated data"):
        ck.read_tensors(path)


def test_duplicate_tensor_name_rejected(tmp_path):
    def record(value):
        return struct.pack("<I", 1) + b"w" + struct.pack("<IIf", 1, 1, value)

    path = tmp_path / "dup.ckpt"
    path.write_bytes(b"DVTF" + struct.pack("<II", 1, 2) + record(1.0) + record(2.0))
    with pytest.raises(ck.CorruptCheckpointError, match=f"{re.escape(str(path))}.*duplicate tensor 'w'"):
        ck.read_tensors(path)


def test_read_holds_the_file_once(tmp_path):
    path = tmp_path / "big.ckpt"
    ck.write_tensors(path, {"w": np.ones((1024, 1024), dtype=np.float32),
                            "b": np.ones((1024,), dtype=np.float32)})
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = ck.read_tensors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * size, peak / size
    assert all(a.flags.writeable for a in back.values())


# ---------------------------------------------------------------------------
# model round-trip


def test_model_round_trip_bitwise(tmp_path):
    src = toy_model(seed=2)
    randomize(src, 3)
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(src, path)
    dst = toy_model(seed=9)  # different init, same architecture
    state, meta = ck.load_checkpoint(path, dst)
    assert state is None
    for name, t in src.named_parameters().items():
        assert (t.data == dst.named_parameters()[name].data).all(), name
    assert meta.config_hash == ck.model_config_hash(src.config)


def test_failed_write_keeps_the_previous_file(tmp_path):
    src = toy_model(seed=2)
    randomize(src, 3)
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(src, path)
    before = path.read_bytes()
    # the first record is written before the second fails to convert
    with pytest.raises(TypeError):
        ck.write_tensors(path, {"w": np.ones((256, 256), dtype=np.float32), "bad": object()})
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    assert path.read_bytes() == before
    dst = toy_model(seed=9)
    ck.load_checkpoint(path, dst)
    for name, t in src.named_parameters().items():
        assert t.data.tobytes() == dst.named_parameters()[name].data.tobytes(), name


def test_write_fsyncs_the_temp_file_before_the_replace(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    tmp = tmp_path / "m.ckpt.tmp"
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        real_fsync(fd)
        events.append(("fsync", os.fstat(fd).st_ino == os.stat(tmp).st_ino,
                       os.fstat(fd).st_size, path.exists()))

    def replace(src, dst):
        events.append(("replace", os.fspath(src), os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    ck.write_tensors(path, {"w": np.ones((64, 64), dtype=np.float32)})
    assert events == [("fsync", True, path.stat().st_size, False),
                      ("replace", os.fspath(tmp), os.fspath(path))]


def test_failed_fsync_keeps_the_previous_file(tmp_path, monkeypatch):
    src = toy_model(seed=2)
    randomize(src, 4)
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(src, path)
    before = path.read_bytes()

    def fsync(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="Input/output error"):
        ck.save_checkpoint(toy_model(seed=3), path)
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    assert path.read_bytes() == before
    dst = toy_model(seed=9)
    ck.load_checkpoint(path, dst)
    for name, t in src.named_parameters().items():
        assert t.data.tobytes() == dst.named_parameters()[name].data.tobytes(), name


def join_release_threads():
    for t in threading.enumerate():
        if t.name == "checkpoint-release":
            t.join(timeout=10)
            assert not t.is_alive()


def open_descriptors():
    """This process's descriptors and what each points at (Linux /proc)."""
    fds = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the descriptor listdir itself held
            pass
    return fds


linux_only = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc/self/fd")


def test_write_without_posix_fadvise_writes_the_same_bytes(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    # a 2 MiB record between two small ones
    tensors = {"a": rng.normal(size=(3,)), "big": rng.normal(size=(512, 1024)), "b": rng.normal(size=(2, 2))}
    advised = []
    if hasattr(os, "posix_fadvise"):
        real_fadvise = os.posix_fadvise

        def fadvise(fd, offset, length, advice):
            advised.append((offset, length, advice))
            real_fadvise(fd, offset, length, advice)

        monkeypatch.setattr(os, "posix_fadvise", fadvise)
    ck.write_tensors(tmp_path / "with.ckpt", tensors)
    if advised:  # only the big record's data, byte for byte
        start = 12 + (4 + 1 + 4 + 4 + 12) + (4 + 3 + 4 + 8)
        assert advised == [(start, 512 * 1024 * 4, os.POSIX_FADV_DONTNEED)]
    monkeypatch.delattr(os, "posix_fadvise", raising=False)
    ck.write_tensors(tmp_path / "without.ckpt", tensors)
    assert (tmp_path / "with.ckpt").read_bytes() == (tmp_path / "without.ckpt").read_bytes()
    back = ck.read_tensors(tmp_path / "without.ckpt")
    for name, a in tensors.items():
        assert back[name].tobytes() == a.astype("<f4").tobytes(), name


@linux_only
def test_saves_over_one_path_leave_no_deleted_descriptor(tmp_path):
    path = tmp_path / "m.ckpt"
    for seed in (1, 2):
        model = toy_model(seed=seed)
        ck.save_checkpoint(model, path)
    join_release_threads()
    held = [target for target in open_descriptors().values()
            if target.startswith(os.fspath(tmp_path)) and target.endswith(" (deleted)")]
    assert held == []
    dst = toy_model(seed=9)
    ck.load_checkpoint(path, dst)
    for name, t in model.named_parameters().items():
        assert t.data.tobytes() == dst.named_parameters()[name].data.tobytes(), name


@linux_only
@pytest.mark.parametrize("fails", ["record", "replace"])
def test_failed_write_leaves_no_open_descriptor(tmp_path, monkeypatch, fails):
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(toy_model(seed=2), path)
    before = path.read_bytes()
    join_release_threads()
    fds = open_descriptors()
    tensors = {"w": np.ones((512, 1024), dtype=np.float32)}
    if fails == "record":  # the first record is written before the second fails to convert
        tensors["bad"] = object()
    else:
        def replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", replace)
    with pytest.raises((TypeError, OSError)):
        ck.write_tensors(path, tensors)
    join_release_threads()
    assert open_descriptors() == fds
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    assert path.read_bytes() == before


def test_mismatched_config_names_first_offender(tmp_path):
    src = toy_model(seed=4, channels=4)
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(src, path)
    wider = toy_model(seed=5, channels=8)
    with pytest.raises(ck.CheckpointMismatchError, match="stages.0.embed.weight"):
        ck.load_checkpoint(path, wider)


def test_missing_and_unexpected_tensors(tmp_path):
    src = toy_model(seed=6)
    tensors = {n: t.data for n, t in src.named_parameters().items()}
    tensors["__meta__.epoch"] = np.zeros(1, dtype=np.float32)
    tensors["__meta__.val_correct"] = np.zeros(1, dtype=np.float32)
    tensors["__meta__.val_total"] = np.zeros(1, dtype=np.float32)
    tensors["__meta__.config_hash"] = np.zeros(16, dtype=np.float32)
    dropped = dict(tensors)
    del dropped["head.bias"]
    path = tmp_path / "m.ckpt"
    ck.write_tensors(path, dropped)
    with pytest.raises(ck.CheckpointMismatchError, match="head.bias"):
        ck.load_checkpoint(path, toy_model(seed=7))
    extra = dict(tensors)
    extra["rogue"] = np.zeros(3, dtype=np.float32)
    ck.write_tensors(path, extra)
    with pytest.raises(ck.CheckpointMismatchError, match="rogue"):
        ck.load_checkpoint(path, toy_model(seed=8))


def test_error_kinds_are_distinct():
    assert not issubclass(ck.CorruptCheckpointError, ck.CheckpointMismatchError)
    assert not issubclass(ck.CheckpointMismatchError, ck.CorruptCheckpointError)


# ---------------------------------------------------------------------------
# metadata and optimizer state


def test_metadata_round_trip_exact_accuracy(tmp_path):
    src = toy_model(seed=10)
    meta = ck.CheckpointMeta(epoch=17, val_correct=757, val_total=760,
                             config_hash=ck.model_config_hash(src.config))
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(src, path, meta=meta)
    back = ck.load_checkpoint(path, src)[1]
    assert back.epoch == 17
    assert back.val_correct == 757 and back.val_total == 760
    assert back.val_accuracy == 757 / 760  # counts survive, ratio is exact
    assert back.config_hash == meta.config_hash


@pytest.mark.parametrize("field, meta, state", [
    ("epoch", ck.CheckpointMeta(epoch=2**24 + 1), None),
    ("val_correct", ck.CheckpointMeta(val_correct=-1), None),
    ("val_total", ck.CheckpointMeta(val_total=2**31), None),
    ("t", None, OptimizerState(t=2**24 + 1)),
])
def test_counts_outside_exact_f32_range_rejected(tmp_path, field, meta, state):
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=rf"\b{field} = "):
        ck.save_checkpoint(toy_model(seed=14), path, state=state, meta=meta)
    assert not path.exists()


def test_count_limit_round_trips(tmp_path):
    src = toy_model(seed=15)
    path = tmp_path / "m.ckpt"
    meta = ck.CheckpointMeta(epoch=2**24, val_correct=2**24 - 1, val_total=2**24,
                             config_hash=ck.model_config_hash(src.config))
    ck.save_checkpoint(src, path, state=OptimizerState(t=2**24), meta=meta)
    state, back = ck.load_checkpoint(path, toy_model(seed=16))
    assert (back.epoch, back.val_correct, back.val_total, state.t) == (2**24, 2**24 - 1, 2**24, 2**24)


def rewrite(path, entry, value):
    """Replace one entry of a saved container; None deletes it."""
    tensors = ck.read_tensors(path)
    if value is None:
        del tensors[entry]
    else:
        tensors[entry] = np.array(value, dtype=np.float32)
    ck.write_tensors(path, tensors)


@pytest.mark.parametrize("entry, value", [
    ("__meta__.epoch", []),
    ("__meta__.epoch", [np.nan]),
    ("__meta__.epoch", [-3.5]),
    ("__meta__.val_correct", [2.5]),
    ("__meta__.val_total", [np.inf]),
    ("__meta__.val_total", [2**24 + 2]),
    ("__meta__.config_hash", [300.0] * 3),
    ("__meta__.config_hash", [256.0] * 16),
    ("__opt__.t", [1.0, 2.0]),
    ("__opt__.t", [-1.0]),
])
def test_bad_metadata_entry_rejected(tmp_path, entry, value):
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(toy_model(seed=17), path, state=OptimizerState(t=3))
    rewrite(path, entry, value)
    with pytest.raises(ck.CorruptCheckpointError,
                       match=f"{re.escape(str(path))}.*{re.escape(repr(entry))}"):
        ck.load_checkpoint(path, toy_model(seed=18))


@pytest.mark.parametrize("entry, value", [
    ("__opt__.m.stages.0.embed.weight", [0.0]),  # wrong shape
    ("__opt__.v.not.a.param", [0.0]),  # names no parameter
    ("__opt__.v.head.bias", None),  # m without v
])
def test_moments_must_fit_the_parameters(tmp_path, entry, value):
    src = toy_model(seed=19)
    state = OptimizerState(t=1)
    for name, t in src.named_parameters().items():
        state.m[name] = np.zeros(t.shape, dtype=np.float32)
        state.v[name] = np.zeros(t.shape, dtype=np.float32)
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(src, path, state=state)
    rewrite(path, entry, value)
    dst = toy_model(seed=20)
    before = {n: t.data for n, t in dst.named_parameters().items()}
    with pytest.raises(ck.CheckpointMismatchError, match=f"{re.escape(str(path))}.*{re.escape(repr(entry))}"):
        ck.load_checkpoint(path, dst)
    assert all(t.data is before[n] for n, t in dst.named_parameters().items())


def test_optimizer_state_round_trip(tmp_path):
    src = toy_model(seed=11)
    rng = np.random.default_rng(12)
    state = OptimizerState(t=42)
    for name, t in src.named_parameters().items():
        state.m[name] = rng.normal(size=t.shape).astype(np.float32)
        state.v[name] = rng.uniform(0, 1, size=t.shape).astype(np.float32)
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(src, path, state=state)
    loaded, _ = ck.load_checkpoint(path, toy_model(seed=13))
    assert loaded.t == 42
    assert set(loaded.m) == set(state.m)
    for name in state.m:
        assert (loaded.m[name] == state.m[name]).all()
        assert (loaded.v[name] == state.v[name]).all()


def test_config_hash_sensitivity():
    a = toy_model(seed=0).config
    b = toy_model(seed=1).config
    assert ck.model_config_hash(a) == ck.model_config_hash(b)
    b.stages[0].window_size = 4
    assert ck.model_config_hash(a) != ck.model_config_hash(b)
    assert len(ck.model_config_hash(a)) == 16
