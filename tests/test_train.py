import math

import numpy as np
import pytest

from davit import autodiff as ad
from davit import model as md
from davit import train as tr
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
    cfg = tr.TrainConfig(weight_decay=0.05)
    rng = np.random.default_rng(40)
    p = ad.Tensor(rng.normal(size=(5, 7)).astype(dtype), requires_grad=True)
    want, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
    state = tr.OptimizerState()
    for t, lr in enumerate((1e-3, 3e-3, 2e-3), start=1):
        g = rng.normal(size=(5, 7)).astype(dtype)
        p.grad = g.copy()
        before = p.data
        kept = before.copy()
        tr.adamw_step({"w": p}, state, cfg, lr)
        assert before.tobytes() == kept.tobytes()  # the old array is not written
        # reference: the plain expression, one temporary per operation
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
        bc1, bc2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps) + cfg.weight_decay * want
        want = want - lr * update
        assert p.data.dtype == state.m["w"].dtype == state.v["w"].dtype == dtype
        assert p.data.tobytes() == want.tobytes()
        assert state.m["w"].tobytes() == m.tobytes()
        assert state.v["w"].tobytes() == v.tobytes()


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


def toy_model_and_data(model_seed=0, n=16, num_classes=2):
    cfg = md.ModelConfig(input_size=16, num_classes=num_classes,
                         stages=[md.StageConfig(7, 4, 3, 4, 1, 2, 2)])
    model = md.build_model(cfg, seed=model_seed)
    rng = np.random.default_rng(42)
    samples = []
    for i in range(n):
        k = i % num_classes
        img = rng.uniform(0.0, 0.25, size=(3, 16, 16))
        img[k] += 0.6  # class decides the dominant color channel
        samples.append(Sample(ad.Tensor(np.clip(img, 0, 1).astype(np.float32)),
                              one_hot(k, num_classes)))
    return model, Dataset(samples, [str(c) for c in range(num_classes)])


def full_set_loss(model, data):
    images = ad.Tensor(np.stack([s.image.data for s in data.samples]))
    targets = np.stack([s.label for s in data.samples])
    return tr.soft_cross_entropy(md.forward(model, images), targets).item()


def run_epochs(train_seed, epochs=5):
    model, data = toy_model_and_data()
    cfg = tr.TrainConfig(base_lr=1e-2, warmup_epochs=0, total_epochs=epochs,
                         batch_size=4, mixup_alpha=0.0, seed=train_seed)
    state = tr.OptimizerState()
    losses = []
    for e in range(epochs):
        tr.train_epoch(model, data, cfg, e, state)
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


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(warmup_epochs=10, total_epochs=5).validate()
    with pytest.raises(ValueError):
        tr.TrainConfig(base_lr=0.0).validate()
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=0).validate()
    tr.TrainConfig().validate()
