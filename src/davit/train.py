"""Loss, AdamW, warmup schedule, training loop, thresholded evaluation.

One training step: draw a weighted batch, augment, mix consecutive
pairs, run each sample's forward/backward on its own tape, and apply one
AdamW step to the summed gradients at the scheduled learning rate. All
randomness derives from (seed, epoch, stream) tuples, so a run is
bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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
    threshold: float = 0.5  # evaluate rejects predictions below this confidence

    def validate(self):
        for key, ok, want in (
                ("total_epochs", self.total_epochs >= 1, ">= 1"),
                ("warmup_epochs", 0 <= self.warmup_epochs <= self.total_epochs,
                 f"in [0, total_epochs = {self.total_epochs}]"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("base_lr", self.base_lr > 0, "> 0"),
                ("weight_decay", self.weight_decay >= 0, ">= 0"),
                ("mixup_alpha", self.mixup_alpha >= 0, ">= 0"),
                ("beta1", 0 < self.beta1 < 1, "in (0, 1)"),
                ("beta2", 0 < self.beta2 < 1, "in (0, 1)"),
                ("eps", self.eps > 0, "> 0"),
                ("seed", self.seed >= 0, ">= 0"),
                ("threshold", 0 <= self.threshold < 1, "in [0, 1)")):
            if not ok:
                raise ValueError(f"{key} must be {want}, got {getattr(self, key)}")


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
        return dict(asdict(self), confusion=self.confusion.tolist())


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
    operation, so the bits are those of the expression. It runs over
    cache-sized blocks of the flattened p, g, m and v, in m, v and two
    block scratch buffers; the new parameter is written into a fresh array
    that replaces p.data, and the old array is left as it was.
    """
    if lr <= 0:
        raise ValueError(f"lr must be > 0, got {lr}")
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
        # the moments are updated through flat views, so they must be C-contiguous
        m = state.m[name] = np.ascontiguousarray(state.m[name])
        v = state.v[name] = np.ascontiguousarray(state.v[name])
        new = np.empty(p.data.shape, p.data.dtype)
        flat = [a.reshape(-1) for a in (p.data, g, m, v, new)]
        update, denom = (np.empty(min(ad._BLOCK, new.size), new.dtype) for _ in range(2))
        for i in range(0, new.size, ad._BLOCK):
            pb, gb, mb, vb, nb = (a[i : i + ad._BLOCK] for a in flat)
            ub, db = update[: pb.size], denom[: pb.size]
            np.multiply(gb, 1.0 - cfg.beta1, out=ub)
            mb *= cfg.beta1
            mb += ub
            np.multiply(gb, gb, out=ub)
            ub *= 1.0 - cfg.beta2
            vb *= cfg.beta2
            vb += ub
            np.divide(vb, bc2, out=db)
            np.sqrt(db, out=db)
            db += cfg.eps
            np.divide(mb, bc1, out=ub)
            ub /= db
            np.multiply(pb, cfg.weight_decay, out=db)
            ub += db
            ub *= lr
            np.subtract(pb, ub, out=nb)
        p.data = new


def zero_grads(params: dict):
    for p in params.values():
        p.grad = None


def _epoch_rng(seed, epoch, stream):
    return np.random.default_rng((seed, epoch, stream))


def train_epoch(model: md.Model, train: Dataset, cfg: TrainConfig, epoch, state, policy=None):
    """One pass of ceil(n/batch) full batches; returns (mean loss, train accuracy).

    Each batch is run as per-sample forward/backward passes (micro-batched
    gradient accumulation): sample k's loss is scaled by 1/batch and its
    gradients add onto the leaves' .grad in sample order, then one AdamW
    step runs and the gradients are released, so every parameter's .grad
    is None on return. A step's loss is the sum of those scaled parts.
    Train accuracy is argmax agreement against the mixed (soft) targets,
    measured on the augmented samples the optimizer actually saw.
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

        zero_grads(params)
        loss = 0.0
        for s in mixed:  # each sample's tape is freed by its backward
            with ad.Tape():
                logits = md.forward(model, ad.Tensor(s.image.data[None]))
                part = ad.scale(soft_cross_entropy(logits, s.label[None]), 1.0 / b)
                ad.backward(part)
            loss += part.item()
            hits += int(logits.data.argmax() == s.label.argmax())
        adamw_step(params, state, cfg, lr)
        zero_grads(params)
        losses.append(loss)

    return float(np.mean(losses)), hits / (steps * b)


def evaluate(model: md.Model, val: Dataset, threshold, batch_size=16) -> EvalReport:
    """Thresholded argmax accuracy; below-threshold predictions count as
    incorrect and are tallied in rejected_count.

    Each batch is written into one float buffer allocated per call, so at
    most one batch of float images is held at a time; each slot takes its
    sample's image.data, whatever the image's type.
    """
    if not val.samples:
        raise ValueError("validation set is empty")
    if not 0 <= threshold < 1:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    k = val.samples[0].label.size
    confusion = np.zeros((k, k), dtype=np.int64)
    class_correct = np.zeros(k, dtype=np.int64)
    rejected = 0
    shape = val.samples[0].image.shape
    buf = np.empty((min(batch_size, len(val.samples)), *shape),
                   np.result_type(*{s.image.dtype for s in val.samples}))
    for start in range(0, len(val.samples), batch_size):
        batch = val.samples[start : start + batch_size]
        images = buf[: len(batch)]
        for i, (s, slot) in enumerate(zip(batch, images), start):
            if s.image.shape != shape:
                raise ValueError(f"sample {i} has image shape {s.image.shape}, sample 0 has {shape}")
            slot[...] = s.image.data
        logits = md.forward(model, ad.Tensor(images))  # no tape: inference mode
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
