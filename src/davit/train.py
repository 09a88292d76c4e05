"""Loss, AdamW, warmup schedule, training loop, thresholded evaluation.

One training step: draw a weighted batch, augment, mix consecutive
pairs, run forward/backward on a fresh tape, and apply one AdamW step
at the scheduled learning rate. All randomness derives from
(seed, epoch, stream) tuples, so a run is bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from davit import autodiff as ad
from davit import model as md
from davit.augment import apply_policy, mixup, sample_lambda, weighted_sampler
from davit.dataset import Dataset


@dataclass
class TrainConfig:
    base_lr: float = 1e-3
    warmup_epochs: int = 5
    total_epochs: int = 30
    batch_size: int = 8
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    mixup_alpha: float = 0.2
    seed: int = 0
    cosine_decay: bool = False

    def validate(self):
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ValueError("need 0 <= warmup_epochs <= total_epochs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be > 0")
        if self.weight_decay < 0 or self.mixup_alpha < 0:
            raise ValueError("weight_decay and mixup_alpha must be >= 0")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1 or self.eps <= 0:
            raise ValueError("invalid AdamW constants")


@dataclass
class OptimizerState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


@dataclass
class EvalReport:
    accuracy: float
    per_class_accuracy: list
    rejected_count: int
    confusion: np.ndarray  # confusion[true][predicted]
    threshold: float
    correct: int
    total: int

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": list(self.per_class_accuracy),
            "rejected_count": self.rejected_count,
            "confusion": self.confusion.tolist(),
            "threshold": self.threshold,
            "correct": self.correct,
            "total": self.total,
        }


def soft_cross_entropy(logits, targets):
    """Mean over the batch of -sum(targets * log softmax(logits))."""
    t = targets.data if isinstance(targets, ad.Tensor) else np.asarray(targets)
    if t.shape != tuple(logits.shape):
        raise ValueError(f"targets shape {t.shape} does not match logits {logits.shape}")
    sums = t.sum(axis=-1)
    if np.abs(sums - 1.0).max() > 1e-6:
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"target row {bad} sums to {sums[bad]}, expected 1")
    b = logits.shape[0]
    lsm = ad.log_softmax(logits, axis=-1)
    return ad.scale(ad.tensor_sum(ad.mul(lsm, ad.Tensor(t.astype(lsm.dtype)))), -1.0 / b)


def lr_schedule(epoch, cfg: TrainConfig):
    """Linear warmup to base_lr, then constant (or cosine when enabled)."""
    if epoch < cfg.warmup_epochs:
        return cfg.base_lr * (epoch + 1) / cfg.warmup_epochs
    if cfg.cosine_decay and cfg.total_epochs > cfg.warmup_epochs:
        progress = (epoch - cfg.warmup_epochs) / (cfg.total_epochs - cfg.warmup_epochs)
        return cfg.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
    return cfg.base_lr


def adamw_step(params: dict, state: OptimizerState, cfg: TrainConfig, lr):
    """One decoupled-weight-decay Adam update over named parameters.

    Parameters without a gradient are skipped (their moments stay put).
    Per parameter this is m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p = p - lr*((m/bc1) / (sqrt(v/bc2) + eps) + wd*p), run operation by
    operation in m, v and two scratch buffers, so the bits are those of
    the expression; the second buffer becomes the new parameter array.
    """
    if lr <= 0:
        raise ValueError("lr must be > 0")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name} {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        update = np.multiply(g, 1.0 - cfg.beta1)
        m *= cfg.beta1
        m += update
        np.multiply(g, g, out=update)
        update *= 1.0 - cfg.beta2
        v *= cfg.beta2
        v += update
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += cfg.eps
        np.divide(m, bc1, out=update)
        update /= denom
        np.multiply(p.data, cfg.weight_decay, out=denom)
        update += denom
        update *= lr
        p.data = np.subtract(p.data, update, out=denom)


def zero_grads(params: dict):
    for p in params.values():
        p.grad = None


def _epoch_rng(seed, epoch, stream):
    return np.random.default_rng((seed, epoch, stream))


def train_epoch(model: md.Model, train: Dataset, cfg: TrainConfig, epoch, state, policy=None):
    """One pass of ceil(n/batch) full batches; returns (mean loss, train accuracy).

    Train accuracy is argmax agreement against the mixed (soft) targets,
    measured on the augmented batches the optimizer actually saw.
    """
    if not train.samples:
        raise ValueError("training set is empty")
    n = len(train.samples)
    b = cfg.batch_size
    steps = -(-n // b)
    indices = weighted_sampler(train, steps * b, seed=(cfg.seed, epoch, 0))
    lam_rng = _epoch_rng(cfg.seed, epoch, 1)
    lr = lr_schedule(epoch, cfg)
    params = model.named_parameters()

    losses = []
    hits = 0
    for step in range(steps):
        batch_idx = indices[step * b : (step + 1) * b]
        samples = []
        for slot, i in enumerate(batch_idx):
            s = train.samples[int(i)]
            if policy:
                s = apply_policy(s, policy, seed=(cfg.seed, epoch, 2, step * b + slot))
            samples.append(s)
        mixed = list(samples)
        for k in range(0, b - 1, 2):
            lam = sample_lambda(cfg.mixup_alpha, lam_rng)
            mixed[k] = mixup(samples[k], samples[k + 1], lam)
            mixed[k + 1] = mixup(samples[k + 1], samples[k], lam)

        images = ad.Tensor(np.stack([s.image.data for s in mixed]))
        targets = np.stack([s.label for s in mixed])
        zero_grads(params)
        with ad.Tape():
            logits = md.forward(model, images)
            loss = soft_cross_entropy(logits, targets)
            ad.backward(loss)
        adamw_step(params, state, cfg, lr)
        losses.append(loss.item())
        hits += int((logits.data.argmax(axis=1) == targets.argmax(axis=1)).sum())

    return float(np.mean(losses)), hits / (steps * b)


def evaluate(model: md.Model, val: Dataset, threshold, batch_size=16) -> EvalReport:
    """Thresholded argmax accuracy; below-threshold predictions count as
    incorrect and are tallied in rejected_count."""
    if not val.samples:
        raise ValueError("validation set is empty")
    if not 0 <= threshold < 1:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    k = val.samples[0].label.size
    confusion = np.zeros((k, k), dtype=np.int64)
    class_correct = np.zeros(k, dtype=np.int64)
    rejected = 0
    for start in range(0, len(val.samples), batch_size):
        batch = val.samples[start : start + batch_size]
        images = ad.Tensor(np.stack([s.image.data for s in batch]))
        logits = md.forward(model, images)  # no tape: inference mode
        probs = ad.softmax(logits, axis=-1).data
        preds = probs.argmax(axis=1)
        maxp = probs.max(axis=1)
        for s, pred, p in zip(batch, preds, maxp):
            true = int(s.label.argmax())
            confusion[true][int(pred)] += 1
            if p < threshold:
                rejected += 1
            elif int(pred) == true:
                class_correct[true] += 1
    total = len(val.samples)
    correct = int(class_correct.sum())
    row_counts = confusion.sum(axis=1)
    per_class = [float(class_correct[i] / row_counts[i]) if row_counts[i] else 0.0 for i in range(k)]
    return EvalReport(
        accuracy=correct / total,
        per_class_accuracy=per_class,
        rejected_count=rejected,
        confusion=confusion,
        threshold=threshold,
        correct=correct,
        total=total,
    )
