import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import davit
from davit import autodiff as ad
from davit import dataset as ds
from davit import model as md
from davit import train as tr
from davit.augment import mixup, parse_policy, sample_lambda, weighted_sampler
from davit.dataset import Dataset, Sample, one_hot
from conftest import check_grads


# ---------------------------------------------------------------------------
# soft cross-entropy


def test_uniform_logits_one_hot_is_ln_k():
    logits = ad.zeros((4, 10))
    targets = np.stack([one_hot(i % 10, 10) for i in range(4)])
    loss = tr.soft_cross_entropy(logits, targets)
    assert abs(loss.item() - math.log(10.0)) < 1e-6
    assert abs(loss.item() - 2.302585) < 1e-5


def test_confident_logits_near_zero_loss():
    logits = ad.from_values((1, 5), [50.0, 0.0, 0.0, 0.0, 0.0])
    loss = tr.soft_cross_entropy(logits, one_hot(0, 5).reshape(1, 5))
    assert loss.item() < 1e-3


def test_half_half_target_ln2():
    logits = ad.zeros((1, 2))
    loss = tr.soft_cross_entropy(logits, np.array([[0.5, 0.5]]))
    assert abs(loss.item() - math.log(2.0)) < 1e-6


def test_loss_shift_invariance():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(3, 6))
    targets = rng.uniform(0.1, 1.0, size=(3, 6))
    targets /= targets.sum(axis=1, keepdims=True)
    a = tr.soft_cross_entropy(ad.Tensor(raw.copy()), targets).item()
    b = tr.soft_cross_entropy(ad.Tensor(raw + 57.0), targets).item()
    assert abs(a - b) < 1e-6


def test_loss_one_hot_equals_negative_log_softmax():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(1, 7))
    k = 3
    loss = tr.soft_cross_entropy(ad.Tensor(raw.copy()), one_hot(k, 7).reshape(1, 7)).item()
    want = -ad.log_softmax(ad.Tensor(raw.copy()), axis=-1).data[0, k]
    assert abs(loss - want) < 1e-6


def test_loss_rejects_unnormalized_targets():
    with pytest.raises(ValueError, match="sums to"):
        tr.soft_cross_entropy(ad.zeros((1, 3)), np.array([[0.5, 0.2, 0.1]]))


def test_loss_gradient_fd():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(3, 5))
    targets = rng.uniform(0.1, 1.0, size=(3, 5))
    targets /= targets.sum(axis=1, keepdims=True)
    check_grads(lambda ts: tr.soft_cross_entropy(ts[0], targets), [logits])


# ---------------------------------------------------------------------------
# schedule


def test_warmup_values():
    cfg = tr.TrainConfig(base_lr=1e-3, warmup_epochs=5, total_epochs=100)
    assert abs(tr.lr_schedule(0, cfg) - 0.2e-3) < 1e-12
    assert abs(tr.lr_schedule(4, cfg) - 1e-3) < 1e-12
    assert abs(tr.lr_schedule(50, cfg) - 1e-3) < 1e-12


def test_schedule_monotone_then_constant():
    cfg = tr.TrainConfig(warmup_epochs=5, total_epochs=20)
    vals = [tr.lr_schedule(e, cfg) for e in range(20)]
    for i in range(4):
        assert vals[i] < vals[i + 1]
    assert all(v == vals[5] for v in vals[5:])


def test_cosine_knob_decays():
    cfg = tr.TrainConfig(warmup_epochs=2, total_epochs=10, cosine_decay=True)
    vals = [tr.lr_schedule(e, cfg) for e in range(2, 10)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] == cfg.base_lr and vals[-1] < 0.1 * cfg.base_lr


# ---------------------------------------------------------------------------
# AdamW


def single_param(value, dtype=np.float64):
    p = ad.Tensor(np.array([value], dtype=dtype), requires_grad=True)
    return {"w": p}


def test_zero_grad_zero_wd_fixpoint():
    cfg = tr.TrainConfig(weight_decay=0.0)
    params = single_param(1.5)
    params["w"].grad = np.array([0.0])
    state = tr.OptimizerState()
    tr.adamw_step(params, state, cfg, lr=0.1)
    assert params["w"].data[0] == 1.5
    assert state.t == 1


def test_decoupled_decay_closed_form():
    cfg = tr.TrainConfig(weight_decay=0.05)
    params = single_param(2.0)
    params["w"].grad = np.array([0.0])
    tr.adamw_step(params, tr.OptimizerState(), cfg, lr=0.1)
    assert np.allclose(params["w"].data[0], 2.0 * (1 - 0.1 * 0.05), rtol=1e-12)


def test_first_step_hand_value():
    cfg = tr.TrainConfig(weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8)
    params = single_param(0.0)
    params["w"].grad = np.array([1.0])
    state = tr.OptimizerState()
    tr.adamw_step(params, state, cfg, lr=0.1)
    assert abs(params["w"].data[0] - (-0.1)) < 1e-6
    assert state.t == 1


def test_update_opposes_gradient_sign():
    cfg = tr.TrainConfig(weight_decay=0.0)
    for g in (3.0, -0.25):
        params = single_param(1.0)
        params["w"].grad = np.array([g])
        tr.adamw_step(params, tr.OptimizerState(), cfg, lr=0.01)
        assert (params["w"].data[0] - 1.0) * g < 0


def test_missing_grad_skipped_and_shape_checked():
    cfg = tr.TrainConfig()
    a = ad.Tensor(np.array([1.0]), requires_grad=True)
    b = ad.Tensor(np.array([2.0]), requires_grad=True)
    a.grad = np.array([1.0])
    state = tr.OptimizerState()
    tr.adamw_step({"a": a, "b": b}, state, cfg, lr=0.1)
    assert b.data[0] == 2.0 and "b" not in state.m
    a.grad = np.zeros((2,))
    with pytest.raises(ValueError, match="shape"):
        tr.adamw_step({"a": a}, state, cfg, lr=0.1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_in_place_equals_expression_bitwise(dtype):
    # the update runs in blocks: "big" spans one whole block and ends inside
    # the second, "small" is less than one block
    cfg = tr.TrainConfig(weight_decay=0.05)
    rng = np.random.default_rng(40)
    shapes = {"big": (3, ad._BLOCK // 2 + 5), "small": (5, 7)}
    params = {n: ad.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for n, s in shapes.items()}
    want = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in params.items()}
    state = tr.OptimizerState()
    for t, lr in enumerate((1e-3, 3e-3, 2e-3), start=1):
        grads = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
        before = {}
        for n, p in params.items():
            p.grad = grads[n].copy()
            before[n] = p.data, p.data.copy()
        tr.adamw_step(params, state, cfg, lr)
        for n, p in params.items():
            assert before[n][0].tobytes() == before[n][1].tobytes()  # the old array is not written
            # reference: the plain expression, one temporary per operation
            w, m, v = want[n]
            g = grads[n]
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
            bc1, bc2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps) + cfg.weight_decay * w
            w = w - lr * update
            want[n] = w, m, v
            assert p.data.dtype == state.m[n].dtype == state.v[n].dtype == dtype
            assert p.data.tobytes() == w.tobytes()
            assert state.m[n].tobytes() == m.tobytes()
            assert state.v[n].tobytes() == v.tobytes()


def test_moments_accumulate_across_steps():
    cfg = tr.TrainConfig(weight_decay=0.0)
    params = single_param(0.0)
    state = tr.OptimizerState()
    for _ in range(3):
        params["w"].grad = np.array([1.0])
        tr.adamw_step(params, state, cfg, lr=0.1)
    assert state.t == 3
    # constant gradient keeps the bias-corrected step near -lr each time
    assert abs(params["w"].data[0] - (-0.3)) < 1e-4


# ---------------------------------------------------------------------------
# training loop


def toy_model_and_data(model_seed=0, n=16, num_classes=2, dtype=np.float32, stages=None,
                       size=16):
    cfg = md.ModelConfig(input_size=size, num_classes=num_classes,
                         stages=stages or [md.StageConfig(7, 4, 3, 4, 1, 2, 2)])
    model = md.build_model(cfg, seed=model_seed, dtype=dtype)
    rng = np.random.default_rng(42)
    samples = []
    for i in range(n):
        k = i % num_classes
        img = rng.uniform(0.0, 0.25, size=(3, size, size))
        img[k] += 0.6  # class decides the dominant color channel
        samples.append(Sample(ad.Tensor(np.clip(img, 0, 1).astype(dtype)),
                              one_hot(k, num_classes)))
    return model, Dataset(samples, [str(c) for c in range(num_classes)])


def full_set_loss(model, data):
    images = ad.Tensor(np.stack([s.image.data for s in data.samples]))
    targets = np.stack([s.label for s in data.samples])
    return tr.soft_cross_entropy(md.forward(model, images), targets).item()


def run_epochs(train_seed, epochs=5, policy=None):
    model, data = toy_model_and_data()
    cfg = tr.TrainConfig(base_lr=1e-2, warmup_epochs=0, total_epochs=epochs,
                         batch_size=4, mixup_alpha=0.0, seed=train_seed)
    state = tr.OptimizerState()
    losses = []
    for e in range(epochs):
        tr.train_epoch(model, data, cfg, e, state, policy=policy)
        losses.append(full_set_loss(model, data))
    return model, losses


def test_loss_decreases_in_most_seeds():
    wins = 0
    for seed in range(5):
        _, losses = run_epochs(seed)
        if all(a > b for a, b in zip(losses, losses[1:])):
            wins += 1
    assert wins >= 4, f"loss decreased monotonically in only {wins} of 5 seeds"


def test_training_bitwise_reproducible():
    m1, l1 = run_epochs(7, epochs=2)
    m2, l2 = run_epochs(7, epochs=2)
    assert l1 == l2
    for name, t in m1.named_parameters().items():
        assert (t.data == m2.named_parameters()[name].data).all(), name


def test_training_with_packaged_policy_reproducible():
    policy = parse_policy(Path(davit.__file__).parent / "policies" / "default.policy")
    m1, _ = run_epochs(7, epochs=2, policy=policy)
    m2, _ = run_epochs(7, epochs=2, policy=policy)
    plain, _ = run_epochs(7, epochs=2)
    p1, p2, p0 = (m.named_parameters() for m in (m1, m2, plain))
    for name, t in p1.items():
        assert t.data.tobytes() == p2[name].data.tobytes(), name
    assert any(t.data.tobytes() != p0[name].data.tobytes() for name, t in p1.items())


def test_mixup_alpha_zero_path_runs():
    model, data = toy_model_and_data()
    cfg = tr.TrainConfig(total_epochs=1, warmup_epochs=1, batch_size=4, mixup_alpha=0.0, seed=3)
    loss, acc = tr.train_epoch(model, data, cfg, 0, tr.OptimizerState())
    assert np.isfinite(loss) and 0.0 <= acc <= 1.0


def test_rebound_parameter_is_named_and_trained():
    model, data = toy_model_and_data()
    fresh = ad.Tensor(model.head.weight.data.copy(), requires_grad=True)
    model.head.weight = fresh
    assert model.named_parameters()["head.weight"] is fresh
    before = fresh.data.copy()
    cfg = tr.TrainConfig(base_lr=1e-2, warmup_epochs=0, total_epochs=1,
                         batch_size=len(data.samples), mixup_alpha=0.0, seed=0)
    tr.train_epoch(model, data, cfg, 0, tr.OptimizerState())  # one step
    assert (fresh.data != before).any()


def batched_step(model, data, cfg):
    """Epoch 0's first step with the whole mixed batch on one tape, then AdamW."""
    b = cfg.batch_size
    idx = weighted_sampler(data, b, seed=(cfg.seed, 0, 0))
    samples = [data.samples[int(i)] for i in idx]
    lam_rng = np.random.default_rng((cfg.seed, 0, 1))
    mixed = list(samples)
    for k in range(0, b - 1, 2):
        lam = sample_lambda(cfg.mixup_alpha, lam_rng)
        mixed[k] = mixup(samples[k], samples[k + 1], lam)
        mixed[k + 1] = mixup(samples[k + 1], samples[k], lam)
    params = model.named_parameters()
    with ad.Tape():
        logits = md.forward(model, ad.Tensor(np.stack([s.image.data for s in mixed])))
        loss = tr.soft_cross_entropy(logits, np.stack([s.label for s in mixed]))
        ad.backward(loss)
    tr.adamw_step(params, tr.OptimizerState(), cfg, tr.lr_schedule(0, cfg))
    return loss.item()


def record_step_gradients(monkeypatch):
    """The list of each step's gradients as adamw_step receives them.

    train_epoch releases the gradients after AdamW, so they are compared here.
    """
    seen = []
    adamw_step = tr.adamw_step

    def recording_step(params, *args):
        seen.append({name: p.grad for name, p in params.items()})
        return adamw_step(params, *args)

    monkeypatch.setattr(tr, "adamw_step", recording_step)
    return seen


@pytest.mark.parametrize("b", [1, 3])
def test_per_sample_step_equals_batched_step(b, monkeypatch):
    # one step of b samples, mixup on; at b=3 the last sample stays unmixed
    seen = record_step_gradients(monkeypatch)
    model, data = toy_model_and_data(n=b, num_classes=3, dtype=np.float64)
    ref, _ = toy_model_and_data(n=b, num_classes=3, dtype=np.float64)
    cfg = tr.TrainConfig(base_lr=1e-2, warmup_epochs=0, batch_size=b, mixup_alpha=0.2, seed=4)
    loss, _ = tr.train_epoch(model, data, cfg, 0, tr.OptimizerState())
    ref_loss = batched_step(ref, data, cfg)
    (grads, ref_grads), ours, theirs = seen, model.named_parameters(), ref.named_parameters()
    if b == 1:
        assert loss == ref_loss
        for name, p in ours.items():
            assert p.data.tobytes() == theirs[name].data.tobytes(), name
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
        return
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, p in ours.items():
        for got, want in ((p.data, theirs[name].data), (grads[name], ref_grads[name])):
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= 1e-12, f"{name}: rel err {err:.3e}"


def accum_out_of_place(t, g, fresh=False):
    # the reference accumulation: keep (or copy) the first gradient, sum the rest
    if t.requires_grad:
        if t.grad is None:
            t.grad = g if g.dtype == t.data.dtype and g.flags.c_contiguous else g.astype(t.data.dtype)
        else:
            t.grad = t.grad + g


def test_step_gradients_equal_out_of_place_sums_bitwise(monkeypatch):
    # Adding into owned gradients in place must keep every bit of summing each
    # sample's gradients out of place, in sample order.
    seen = record_step_gradients(monkeypatch)
    cfg = tr.TrainConfig(base_lr=1e-2, warmup_epochs=0, batch_size=3, mixup_alpha=0.2, seed=4)
    # a 4x4 last stage under a 7x7 window: here an in-place sum into a
    # gradient slot's copy keeps a layout that moves later GEMMs' bits
    stages = [md.StageConfig(7, 4, 3, 8, 1, 7, 4), md.StageConfig(2, 2, 0, 16, 1, 7, 4)]
    toy = dict(n=3, num_classes=3, stages=stages, size=32)
    tr.train_epoch(*toy_model_and_data(**toy), cfg, 0, tr.OptimizerState())
    monkeypatch.setattr(ad, "_accum", accum_out_of_place)
    tr.train_epoch(*toy_model_and_data(**toy), cfg, 0, tr.OptimizerState())
    got, want = seen
    assert got.keys() == want.keys()
    for name, g in got.items():
        assert g.tobytes() == want[name].tobytes(), name


def test_every_parameter_gradient_adds_in_place():
    # linear, conv2d and layer_norm hand every parameter a gradient it owns,
    # channel attention's biases included, so a second backward adds into it
    stages = [md.StageConfig(7, 4, 3, 8, 1, 4, 4), md.StageConfig(2, 2, 0, 16, 1, 4, 4)]
    model, data = toy_model_and_data(n=3, num_classes=3, stages=stages, size=32)
    params = model.named_parameters()
    images = ad.Tensor(np.stack([s.image.data for s in data.samples]))
    targets = np.stack([s.label for s in data.samples])

    def backward():
        with ad.Tape():
            ad.backward(tr.soft_cross_entropy(md.forward(model, images), targets))

    backward()
    firsts = {name: (p.grad, p.grad.copy()) for name, p in params.items()}
    backward()
    for name, p in params.items():
        first, once = firsts[name]
        assert p.grad is first, name
        assert p.grad.tobytes() == (once + once).tobytes(), name


def test_train_epoch_releases_gradients():
    model, data = toy_model_and_data()
    cfg = tr.TrainConfig(warmup_epochs=0, batch_size=4, mixup_alpha=0.2)
    params = model.named_parameters()
    for p in params.values():
        p.grad = np.zeros_like(p.data)  # as a caller's own backward would leave them
    tr.train_epoch(model, data, cfg, 0, tr.OptimizerState())
    assert [name for name, p in params.items() if p.grad is not None] == []


def test_default_forward_tape_holds_only_what_backward_reads():
    # A recorded B=1 forward of the default model keeps each op's backward
    # operands, not every activation: about 149 MB live, 265 MB when every
    # node held its output and every closure its inputs.
    cfg = md.default_config()
    model = md.build_model(cfg, seed=0)
    images = ad.Tensor(np.random.default_rng(0).uniform(
        0.0, 1.0, (1, cfg.input_channels, cfg.input_size, cfg.input_size)).astype(np.float32))
    tracemalloc.start()
    try:
        with ad.Tape():
            logits = md.forward(model, images)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert logits._tape.nodes
    assert held <= 200 * 2**20, f"the tape holds {held / 2**20:.1f} MB"


def test_step_memory_does_not_grow_with_batch():
    stages = [md.StageConfig(4, 4, 0, 16, 1, 4, 8), md.StageConfig(2, 2, 0, 32, 1, 4, 8)]
    peaks = {}
    for b in (1, 4):
        model, data = toy_model_and_data(n=4, size=64, stages=stages)
        cfg = tr.TrainConfig(warmup_epochs=0, batch_size=b, mixup_alpha=0.2)
        state = tr.OptimizerState()
        tr.train_epoch(model, data, cfg, 0, state)  # the AdamW moments exist from here on
        tracemalloc.start()
        try:
            tr.train_epoch(model, data, cfg, 1, state)
            peaks[b] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] <= 1.5 * peaks[1], f"B=4 step peak {peaks[4]} bytes, B=1 {peaks[1]}"


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_accounting_against_prob_oracle():
    model, data = toy_model_and_data(model_seed=5, n=12)
    # independent accounting from the raw probabilities
    probs = []
    for s in data.samples:
        logits = md.forward(model, ad.Tensor(s.image.data[None]))
        probs.append(ad.softmax(logits, axis=-1).data[0])
    probs = np.stack(probs)
    trues = np.array([s.label.argmax() for s in data.samples])

    prev_acc = 1.0
    for threshold in (0.0, 0.5, 0.9):
        report = tr.evaluate(model, data, threshold)
        preds = probs.argmax(axis=1)
        maxp = probs.max(axis=1)
        want_correct = int(((preds == trues) & (maxp >= threshold)).sum())
        want_rejected = int((maxp < threshold).sum())
        assert report.correct == want_correct
        assert report.rejected_count == want_rejected
        assert report.accuracy == want_correct / len(data.samples)
        assert report.accuracy <= prev_acc + 1e-12
        prev_acc = report.accuracy
        assert report.confusion.sum() == len(data.samples)
        for k in range(2):
            assert report.confusion[k].sum() == int((trues == k).sum())


def test_evaluate_threshold_zero_is_plain_argmax():
    model, data = toy_model_and_data(model_seed=6, n=8)
    report = tr.evaluate(model, data, 0.0)
    assert report.rejected_count == 0
    assert report.accuracy == report.correct / report.total


def test_evaluate_validation():
    model, data = toy_model_and_data(n=4)
    with pytest.raises(ValueError):
        tr.evaluate(model, Dataset([], data.class_names), 0.5)
    with pytest.raises(ValueError):
        tr.evaluate(model, data, 1.0)
    for batch_size in (0, -1):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            tr.evaluate(model, data, 0.5, batch_size)
    data.samples[3] = Sample(ad.zeros((3, 8, 8)), data.samples[3].label)
    with pytest.raises(ValueError, match=r"sample 3 has image shape \(3, 8, 8\)"):
        tr.evaluate(model, data, 0.5, batch_size=2)


@pytest.mark.parametrize("key, value, message", [
    ("warmup_epochs", -1, r"warmup_epochs must be in \[0, total_epochs = 30\], got -1"),
    ("warmup_epochs", 31, r"warmup_epochs must be in \[0, total_epochs = 30\], got 31"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("base_lr", 0.0, "base_lr must be > 0, got 0.0"),
    ("weight_decay", -0.5, "weight_decay must be >= 0, got -0.5"),
    ("mixup_alpha", -1.0, "mixup_alpha must be >= 0, got -1.0"),
    ("beta1", 1.0, r"beta1 must be in \(0, 1\), got 1.0"),
    ("beta2", 0.0, r"beta2 must be in \(0, 1\), got 0.0"),
    ("eps", 0.0, "eps must be > 0, got 0.0"),
])
def test_train_config_error_names_the_key_and_value(key, value, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        tr.TrainConfig(**{key: value}).validate()


def ppm_twins(tmp_path, data):
    """data written as P6 files and loaded as bytes, and the same images as float Tensors."""
    rows = []
    for k, s in enumerate(data.samples):
        ds.write_ppm(tmp_path / f"{k}.ppm", s.image.data)
        rows.append(f"{k}.ppm,{data.class_names[int(s.label.argmax())]}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("relative_path,label_name\n" + "\n".join(rows) + "\n", encoding="utf-8")
    loaded = ds.load_dataset(manifest, data.class_names)
    assert all(isinstance(s.image, ds.PixelImage) for s in loaded.samples)
    floats = [Sample(ad.Tensor(s.image.data), s.label.copy(), s.weight, s.tag)
              for s in loaded.samples]
    return loaded, Dataset(floats, data.class_names)


def recording_forward(monkeypatch):
    """Patch md.forward to record every (input, logits) pair it sees."""
    seen = []
    real = md.forward

    def forward(model, images):
        logits = real(model, images)
        seen.append((images.data.copy(), logits.data.copy()))
        return logits

    monkeypatch.setattr(md, "forward", forward)
    return seen


def test_evaluate_byte_images_equal_float_images_bitwise(tmp_path, monkeypatch):
    model, data = toy_model_and_data(model_seed=5, n=12)
    loaded, floats = ppm_twins(tmp_path, data)
    seen = recording_forward(monkeypatch)
    byte_report = tr.evaluate(model, loaded, 0.5, batch_size=5)
    byte_calls = seen[:]
    float_report = tr.evaluate(model, floats, 0.5, batch_size=5)
    float_calls = seen[len(byte_calls):]
    assert byte_report.to_dict() == float_report.to_dict()
    assert [x.shape[0] for x, _ in byte_calls] == [5, 5, 2]
    for (xb, lb), (xf, lf) in zip(byte_calls, float_calls, strict=True):
        assert xb.dtype == np.float32 and xb.tobytes() == xf.tobytes()
        assert lb.tobytes() == lf.tobytes()
        assert 0.0 <= xb.min() and xb.max() <= 1.0


@pytest.mark.parametrize("with_policy", [False, True])
def test_training_from_byte_images_equals_float_images_bitwise(tmp_path, monkeypatch,
                                                               with_policy):
    policy = (parse_policy(Path(davit.__file__).parent / "policies" / "default.policy")
              if with_policy else None)
    _, data = toy_model_and_data(n=7)
    loaded, floats = ppm_twins(tmp_path, data)
    cfg = tr.TrainConfig(base_lr=1e-2, warmup_epochs=0, total_epochs=2, batch_size=3,
                         mixup_alpha=0.2, seed=3)  # odd batch: its last sample is unmixed
    seen = recording_forward(monkeypatch)
    runs = []
    for d in (loaded, floats):
        model, _ = toy_model_and_data(n=0)
        state = tr.OptimizerState()
        results = [tr.train_epoch(model, d, cfg, e, state, policy=policy) for e in range(2)]
        runs.append((model, results))
    (mb, rb), (mf, rf) = runs
    assert rb == rf
    for name, p in mb.named_parameters().items():
        assert p.data.tobytes() == mf.named_parameters()[name].data.tobytes(), name
    half = len(seen) // 2
    assert half == 2 * 3 * 3  # two epochs of three steps of three per-sample passes
    for (xb, _), (xf, _) in zip(seen[:half], seen[half:], strict=True):
        assert xb.dtype == np.float32 and xb.tobytes() == xf.tobytes()
        assert 0.0 <= xb.min() and xb.max() <= 1.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(warmup_epochs=10, total_epochs=5).validate()
    with pytest.raises(ValueError):
        tr.TrainConfig(base_lr=0.0).validate()
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=0).validate()
    tr.TrainConfig().validate()
