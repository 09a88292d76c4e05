import re
import struct

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


def test_non_utf8_tensor_name_rejected(tmp_path):
    path = tmp_path / "name.ckpt"
    ck.write_tensors(path, {"w": np.ones((2,), dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[16] = 0xFF  # first byte of the first name, after the 12-byte header and its length
    path.write_bytes(bytes(raw))
    with pytest.raises(ck.CorruptCheckpointError, match=f"{re.escape(str(path))}.*UTF-8"):
        ck.read_tensors(path)


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
    back = ck.read_meta(path)
    assert back.epoch == 17
    assert back.val_correct == 757 and back.val_total == 760
    assert back.val_accuracy == 757 / 760  # counts survive, ratio is exact
    assert back.config_hash == meta.config_hash


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
