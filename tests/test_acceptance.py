"""Contract-level acceptance checks for the whole pipeline.

One test per criterion, each printing a PASS or FAIL line (visible with
`pytest tests/test_acceptance.py -s`).  Tolerances are part of the contract
and stated inline.
"""

import copy
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from davit import autodiff as ad
from davit import bench
from davit import checkpoint as ck
from davit import cli
from davit import model as md
from davit import synth
from davit.attention import channel_group_attention, spatial_window_attention
from davit.augment import mixup, sample_lambda
from davit.dataset import Dataset, Sample, load_dataset, split_dataset
from davit.train import (OptimizerState, TrainConfig, adamw_step, evaluate,
                         soft_cross_entropy, train_epoch, zero_grads)
from conftest import check_grads, rel_err
from test_attention import channel_oracle, make_params, mhsa_oracle


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


@pytest.fixture(scope="module")
def shape_set(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    manifest = synth.generate_dataset(root / "data", num_classes=10,
                                      per_class=16, size=32, seed=0)
    return load_dataset(manifest)


def toy_config():
    return md.ModelConfig(input_size=32, num_classes=10,
                          stages=[md.StageConfig(7, 4, 3, 8, 1, 4, 4),
                                  md.StageConfig(2, 2, 0, 16, 1, 4, 4)])


def wrong_indices(model, ds):
    """Indices of samples the model misclassifies under plain argmax."""
    wrong = []
    for start in range(0, len(ds.samples), 16):
        batch = ds.samples[start : start + 16]
        images = ad.Tensor(np.stack([s.image.data for s in batch]))
        preds = md.forward(model, images).data.argmax(axis=1)
        for offset, (s, pred) in enumerate(zip(batch, preds)):
            if int(pred) != int(s.label.argmax()):
                wrong.append(start + offset)
    return wrong


# ---------------------------------------------------------------------------
# 1. shape pipeline


def test_shape_pipeline(tmp_path, capsys):
    with criterion("shape pipeline: 300 -> 75/38/19/10, logits 10, under 5 s"):
        cfg = tmp_path / "default.cfg"
        cfg.write_text("", encoding="utf-8")
        t0 = time.monotonic()
        assert cli.main(["inspect", "--config", str(cfg)]) == 0
        elapsed = time.monotonic() - t0
        lines = capsys.readouterr().out.splitlines()
        assert "stage1: size=75 channels=96" in lines
        assert "stage2: size=38 channels=192" in lines
        assert "stage3: size=19 channels=384" in lines
        assert "stage4: size=10 channels=768" in lines
        assert "logits: 10" in lines
        assert elapsed < 5.0, f"inspect took {elapsed:.2f}s"
        sizes = md.stage_output_sizes(md.default_config())
        assert sizes == [75, 38, 19, 10]


# ---------------------------------------------------------------------------
# 2. gradient suite


def test_gradient_suite():
    with criterion("gradients: every op plus a full block, rel err < 1e-4, under 60 s"):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)

        def arr(*shape):
            return rng.normal(size=shape)

        # every differentiable op, inputs capped at 64 elements
        check_grads(lambda ts: ad.tensor_sum(ad.add(ts[0], ts[1])),
                    [arr(3, 4), arr(1, 4)])
        check_grads(lambda ts: ad.tensor_sum(ad.mul(ts[0], ts[1])),
                    [arr(3, 4), arr(3, 4)])
        check_grads(lambda ts: ad.tensor_sum(ad.scale(ts[0], -1.7)), [arr(8)])
        check_grads(lambda ts: ad.tensor_sum(ad.matmul(ts[0], ts[1])),
                    [arr(4, 5), arr(5, 3)])
        check_grads(lambda ts: ad.tensor_sum(ad.reshape(ts[0], (2, 6))), [arr(3, 4)])
        check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.transpose(ts[0], (1, 0)),
                                                    ts[1])),
                    [arr(3, 4), arr(4, 3)])
        check_grads(lambda ts: ad.tensor_sum(ad.pad(ts[0], ((1, 2), (0, 1)))),
                    [arr(3, 4)])
        check_grads(lambda ts: ad.tensor_sum(ts[0][1:, :2]), [arr(4, 4)])
        check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.tensor_sum(ts[0], axis=0,
                                                                  keepdims=True),
                                                    ts[1])),
                    [arr(3, 4), arr(1, 4)])
        check_grads(lambda ts: ad.tensor_mean(ts[0]), [arr(5, 3)])
        mask = np.ones((2, 1, 6), dtype=bool)
        mask[..., 4:] = False
        check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.attention_weights(ts[0], 0.5,
                                                                         mask),
                                                    ts[1])),
                    [arr(3, 2, 6, 2), arr(2, 6, 6)])
        check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.softmax(ts[0]), ts[1])),
                    [arr(4, 6), arr(4, 6)])
        check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.log_softmax(ts[0]), ts[1])),
                    [arr(4, 6), arr(4, 6)])
        check_grads(lambda ts: ad.tensor_sum(ad.gelu(ts[0])), [arr(4, 4)])
        check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.layer_norm(ts[0], ts[1], ts[2]),
                                                    ts[3])),
                    [arr(3, 4), arr(4), arr(4), arr(3, 4)])
        check_grads(lambda ts: ad.tensor_sum(ad.conv2d(ts[0], ts[1], ts[2],
                                                       stride=2, pad=1)),
                    [arr(1, 4, 4, 2), arr(2, 2, 3, 3), arr(2)])

        # one full dual-attention block on a 64-element input
        cfg = md.ModelConfig(input_size=16, num_classes=2,
                             stages=[md.StageConfig(4, 4, 0, 4, 1, 2, 2)])
        m = md.build_model(cfg, seed=11, dtype=np.float64)
        bp = m.stages[0].blocks[0]
        check_grads(lambda ts: ad.tensor_mean(
            md.dual_attention_block(ts[0], bp, cfg.stages[0])),
            [rng.normal(size=(1, 4, 4, 4))])

        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. attention oracle equivalence


def test_attention_oracles():
    with criterion("attention kernels match dense oracles, rel err < 1e-5"):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 6, 6, 8))
        p = make_params(8, 4, seed=2, dtype=np.float64)
        out = spatial_window_attention(ad.Tensor(x.copy()), p, window_size=6)
        want = mhsa_oracle(x[0].reshape(36, 8), p, num_heads=2)
        assert rel_err(out.data[0].reshape(36, 8), want) < 1e-5

        pc = make_params(8, 8, seed=3, dtype=np.float64)  # one group of 8
        out = channel_group_attention(ad.Tensor(x.copy()), pc)
        want = channel_oracle(x[0].reshape(36, 8), pc, scale=1.0 / np.sqrt(8))
        assert rel_err(out.data[0].reshape(36, 8), want) < 1e-5


# ---------------------------------------------------------------------------
# 4. locality


def test_locality_exact():
    with criterion("perturbations stay inside their window / channel group, exactly"):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 4, 4, 8)).astype(np.float32)
        p = make_params(8, 4, seed=5)
        base = spatial_window_attention(ad.Tensor(x.copy()), p, window_size=2).data
        bumped = x.copy()
        bumped[0, 0, 1] += 1.0  # inside the top-left 2x2 window
        out = spatial_window_attention(ad.Tensor(bumped), p, window_size=2).data
        changed = (out != base).any(axis=-1)[0]
        assert changed[:2, :2].any()
        outside = np.ones((4, 4), dtype=bool)
        outside[:2, :2] = False
        assert (out[0][outside] == base[0][outside]).all()  # bitwise

        pc = make_params(8, 4, seed=6)  # groups of 4: channels 0-3 and 4-7
        base = channel_group_attention(ad.Tensor(x.copy()), pc).data
        bumped = x.copy()
        bumped[..., 2] += 1.0  # lives in the first group
        out = channel_group_attention(ad.Tensor(bumped), pc).data
        assert (out[..., :4] != base[..., :4]).any()
        assert (out[..., 4:] == base[..., 4:]).all()  # bitwise


# ---------------------------------------------------------------------------
# 5. mixup identities


def test_mixup_identities():
    with criterion("mixup: endpoint identity, symmetry, label sums, convex hull"):
        rng = np.random.default_rng(7)

        def soft_sample(seed):
            r = np.random.default_rng(seed)
            label = r.uniform(0.1, 1.0, size=10)
            return Sample(image=ad.Tensor(r.normal(size=(3, 4, 4))),
                          label=label / label.sum(), weight=1.0)

        a, b = soft_sample(1), soft_sample(2)
        full = mixup(a, b, 1.0)
        assert (full.image.data == a.image.data).all()
        assert (full.label == a.label).all()
        for lam in (0.25, 0.5, 0.75):  # dyadic, so 1-lam is exact
            ab = mixup(a, b, lam)
            ba = mixup(b, a, 1.0 - lam)
            assert (ab.image.data == ba.image.data).all()
            assert (ab.label == ba.label).all()
        for _ in range(20):
            lam = sample_lambda(0.2, rng)
            mixed = mixup(a, b, lam)
            assert abs(mixed.label.sum() - 1.0) < 1e-9
            lo = np.minimum(a.image.data, b.image.data)
            hi = np.maximum(a.image.data, b.image.data)
            assert (mixed.image.data >= lo - 1e-12).all()
            assert (mixed.image.data <= hi + 1e-12).all()


# ---------------------------------------------------------------------------
# 6. optimizer


def test_optimizer_contracts():
    with criterion("adamw: fixpoint, decoupled decay, first-step value (1e-6)"):
        cfg = TrainConfig(base_lr=0.1, weight_decay=0.0)
        p = ad.Tensor(np.full((3,), 0.7, dtype=np.float64), requires_grad=True)
        p.grad = np.zeros(3)
        adamw_step({"p": p}, OptimizerState(), cfg, lr=0.1)
        assert (p.data == 0.7).all()  # zero grad, zero decay: exact fixpoint

        cfg = TrainConfig(base_lr=0.1, weight_decay=0.05)
        p = ad.Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        p.grad = np.zeros(3)
        adamw_step({"p": p}, OptimizerState(), cfg, lr=0.1)
        want = np.array([1.0, -2.0, 0.5]) * (1 - 0.1 * 0.05)
        np.testing.assert_allclose(p.data, want, rtol=1e-12)

        cfg = TrainConfig(base_lr=0.1, weight_decay=0.0)
        p = ad.Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.ones(4)
        adamw_step({"p": p}, OptimizerState(), cfg, lr=0.1)
        assert (np.abs(p.data + 0.1) <= 0.1 * 1e-6).all()


# ---------------------------------------------------------------------------
# 7. loss


def test_loss_contracts():
    with criterion("loss: uniform logits give ln 10 (1e-6); shift invariant"):
        logits = ad.Tensor(np.zeros((1, 10)))
        target = ad.Tensor(np.eye(10)[[3]])
        loss = soft_cross_entropy(logits, target)
        assert abs(loss.item() - math.log(10)) < 1e-6
        assert abs(loss.item() - 2.302585) < 1e-6

        rng = np.random.default_rng(8)
        z = rng.normal(size=(4, 10))
        t = rng.uniform(0.1, 1.0, size=(4, 10))
        t /= t.sum(axis=1, keepdims=True)
        base = soft_cross_entropy(ad.Tensor(z), ad.Tensor(t)).item()
        moved = soft_cross_entropy(ad.Tensor(z + 123.0), ad.Tensor(t)).item()
        assert abs(base - moved) < 1e-9


# ---------------------------------------------------------------------------
# 8. end-to-end overfit


def overfit_run(ds, tmp_path, run_name):
    """Train until clean accuracy reaches 95%, at most 30 epochs.

    The stopping rule only looks at deterministic quantities, so two runs
    stop at the same epoch with identical parameters.
    """
    cfg = toy_config()
    model = md.build_model(cfg, seed=0)
    tc = TrainConfig(base_lr=0.01, warmup_epochs=0, total_epochs=30,
                     batch_size=8, mixup_alpha=0.0, seed=0)
    state = OptimizerState()
    report = None
    for epoch in range(tc.total_epochs):
        train_epoch(model, ds, tc, epoch, state)
        report = evaluate(model, ds, 0.0)
        if report.accuracy >= 0.95:
            break
    path = tmp_path / f"{run_name}.ckpt"
    ck.save_checkpoint(model, path, state=state,
                       meta=ck.CheckpointMeta(epoch=epoch,
                                              val_correct=report.correct,
                                              val_total=report.total,
                                              config_hash=ck.model_config_hash(cfg)))
    return report.accuracy, epoch + 1, path.read_bytes()


def test_toy_overfit_reproducible(shape_set, tmp_path):
    with criterion("toy model overfits 160 images to 95% within 30 epochs, "
                   "bitwise reproducibly, under 10 min"):
        assert md.count_params_formula(toy_config()) <= 50_000
        t0 = time.monotonic()
        acc_a, epochs_a, bytes_a = overfit_run(shape_set, tmp_path, "a")
        acc_b, epochs_b, bytes_b = overfit_run(shape_set, tmp_path, "b")
        elapsed = time.monotonic() - t0
        assert acc_a >= 0.95, f"train accuracy {acc_a:.3f}"
        assert epochs_a <= 30
        assert (acc_a, epochs_a) == (acc_b, epochs_b)
        assert bytes_a == bytes_b  # checkpoints identical byte for byte
        assert elapsed < 600.0, f"overfit runs took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 9. finetune workflow


def test_finetune_workflow(shape_set, tmp_path):
    with criterion("finetune: exact epoch-0 resume, hard-subset errors drop "
                   "in at least 4 of 5 seeds"):
        train_ds, val_ds = split_dataset(shape_set, 0.8, 0)
        cfg = toy_config()
        model = md.build_model(cfg, seed=0)
        tc = TrainConfig(base_lr=0.01, warmup_epochs=0, total_epochs=3,
                         batch_size=8, mixup_alpha=0.0, seed=0)
        state = OptimizerState()
        for epoch in range(tc.total_epochs):
            train_epoch(model, train_ds, tc, epoch, state)
        recorded = evaluate(model, val_ds, 0.5)
        best = tmp_path / "best.ckpt"
        ck.save_checkpoint(model, best, meta=ck.CheckpointMeta(
            epoch=tc.total_epochs - 1, val_correct=recorded.correct,
            val_total=recorded.total, config_hash=ck.model_config_hash(cfg)))

        hard = wrong_indices(model, train_ds)
        errors_before = len(hard)
        assert errors_before > 0  # otherwise there is nothing to finetune
        hard_ds = Dataset([train_ds.samples[i] for i in hard],
                          train_ds.class_names)

        wins = 0
        for seed in range(5):
            ft_model = md.build_model(cfg, seed=seed + 100)
            _, meta = ck.load_checkpoint(best, ft_model)
            report0 = evaluate(ft_model, val_ds, 0.5)
            assert report0.correct == meta.val_correct  # exact resume
            assert report0.total == meta.val_total
            assert report0.accuracy == meta.val_accuracy

            ft_train = Dataset([copy.copy(s) for s in train_ds.samples],
                               train_ds.class_names)
            for i in hard:
                ft_train.samples[i].weight = ft_train.samples[i].weight * 4.0
            ft_tc = TrainConfig(base_lr=0.01, warmup_epochs=0, total_epochs=3,
                                batch_size=8, mixup_alpha=0.0, seed=seed)
            ft_state = OptimizerState()  # finetuning restarts the optimizer
            for epoch in range(ft_tc.total_epochs):
                train_epoch(ft_model, ft_train, ft_tc, epoch, ft_state)
            after = evaluate(ft_model, hard_ds, 0.0)
            errors_after = after.total - after.correct
            wins += errors_after < errors_before
        assert wins >= 4, f"errors dropped in only {wins} of 5 seeds"


# ---------------------------------------------------------------------------
# 10. bench harness


def test_bench_contracts():
    with criterion("bench: fps identity, narrow beats 2x-wide, lossless CSV"):
        # batch 8 at input 32 makes the matmuls, not call overhead, dominate
        narrow = md.ModelConfig(input_size=32, num_classes=3,
                                stages=[md.StageConfig(7, 4, 3, 16, 1, 4, 4)])
        wide = md.ModelConfig(input_size=32, num_classes=3,
                              stages=[md.StageConfig(7, 4, 3, 32, 1, 4, 4)])
        r = bench.measure_fps(md.build_model(narrow, seed=0),
                              warmup_iters=2, timed_iters=10)
        assert r.fps == r.batch_size * r.timed_iters / r.elapsed_s

        # the two configs take turns, so the cold first measurement of the
        # process costs one run of one config, not a whole median
        models = [md.build_model(cfg, seed=0) for cfg in (narrow, wide)]
        shape = (8, 3, narrow.input_size, narrow.input_size)
        narrow_fps, wide_fps = [], []
        for _ in range(5):
            for model, runs in zip(models, (narrow_fps, wide_fps)):
                runs.append(bench.measure_fps(model, shape, warmup_iters=2,
                                              timed_iters=6).fps)

        assert statistics.median(narrow_fps) > statistics.median(wide_fps)

        text = bench.to_csv([r])
        rows = bench.from_csv(text)
        assert rows == [r.csv_row()]
        assert bench.to_csv(rows) == text


# ---------------------------------------------------------------------------
# 11. checkpoints


def test_checkpoint_contracts(tmp_path):
    with criterion("checkpoint: bitwise round-trip; corrupt and mismatch "
                   "errors distinct"):
        cfg = toy_config()
        src = md.build_model(cfg, seed=9)
        path = tmp_path / "m.ckpt"
        ck.save_checkpoint(src, path)
        dst = md.build_model(cfg, seed=10)
        ck.load_checkpoint(path, dst)
        for name, t in src.named_parameters().items():
            assert (t.data == dst.named_parameters()[name].data).all()

        raw = path.read_bytes()
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(ck.CorruptCheckpointError):
            ck.load_checkpoint(broken, md.build_model(cfg, seed=11))

        other = md.ModelConfig(input_size=32, num_classes=10,
                               stages=[md.StageConfig(7, 4, 3, 4, 1, 4, 4)])
        with pytest.raises(ck.CheckpointMismatchError):
            ck.load_checkpoint(path, md.build_model(other, seed=12))
        assert not issubclass(ck.CorruptCheckpointError, ck.CheckpointMismatchError)
        assert not issubclass(ck.CheckpointMismatchError, ck.CorruptCheckpointError)
