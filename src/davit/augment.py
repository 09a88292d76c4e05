"""Augmentation policies, mixup, and weighted oversampling.

A policy file is UTF-8 text, one `op probability magnitude` triple per
line (blank lines and # comments ignored). Each op fires independently
with its probability; the magnitude is applied exactly as written, so
the only randomness is whether an op fires (plus the crop origin of
scale_crop). Ops run in file order on pixel data in [0, 1]; the result
is clamped back into [0, 1] after every op.

Op vocabulary and magnitude ranges:
  scale_crop m in [0, 3]: upscale by 1+m (bilinear), random crop back
  hflip      m must be 0: horizontal mirror
  hue        m in [-180, 180]: additive hue rotation in degrees
  saturation m in [0, 4]: multiplicative saturation gain
  exposure   m in [0, 4]: multiplicative pixel gain
  brightness m in [-1, 1]: additive pixel offset
"""

from __future__ import annotations

import numpy as np

from davit import autodiff as ad
from davit.dataset import Dataset, Sample, read_text

_MAGNITUDE_RANGES = {
    "scale_crop": (0.0, 3.0),
    "hflip": (0.0, 0.0),
    "hue": (-180.0, 180.0),
    "saturation": (0.0, 4.0),
    "exposure": (0.0, 4.0),
    "brightness": (-1.0, 1.0),
}


def parse_policy(path):
    """Read an augmentation policy file into (op, probability, magnitude) triples."""
    triples = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'op probability magnitude', got {line!r}")
        op, prob_s, mag_s = parts
        if op not in _MAGNITUDE_RANGES:
            raise ValueError(f"{path}:{lineno}: unknown op {op!r}")
        try:
            prob, mag = float(prob_s), float(mag_s)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric probability or magnitude") from None
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"{path}:{lineno}: probability {prob} outside [0, 1]")
        lo, hi = _MAGNITUDE_RANGES[op]
        if not lo <= mag <= hi:
            raise ValueError(f"{path}:{lineno}: {op} magnitude {mag} outside [{lo}, {hi}]")
        triples.append((op, prob, mag))
    return triples


def rgb_to_hsv(rgb):
    """(3, ...) RGB in [0,1] -> hue degrees [0,360), saturation, value."""
    r, g, b = rgb
    v = rgb.max(axis=0)
    delta = v - rgb.min(axis=0)
    s = np.where(v > 0, delta / np.maximum(v, 1e-12), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(delta > 0, delta, 1.0)
        h = np.where(v == r, (g - b) / d,
                     np.where(v == g, 2.0 + (b - r) / d, 4.0 + (r - g) / d))
    h = np.where(delta > 0, (h * 60.0) % 360.0, 0.0)
    return np.stack([h, s, v])


def hsv_to_rgb(hsv):
    h, s, v = hsv
    h6 = (h % 360.0) / 60.0
    i = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])


def _bilinear_resize(img, new_size):
    """(3, S, S) -> (3, new, new) with half-pixel-centered sampling."""
    _, size, _ = img.shape
    if new_size == size:
        return img.copy()
    coords = (np.arange(new_size) + 0.5) * (size / new_size) - 0.5
    coords = np.clip(coords, 0.0, size - 1.0)
    lo = np.floor(coords).astype(int)
    hi = np.minimum(lo + 1, size - 1)
    frac = coords - lo
    rows = img[:, lo, :] * (1.0 - frac)[None, :, None] + img[:, hi, :] * frac[None, :, None]
    out = rows[:, :, lo] * (1.0 - frac)[None, None, :] + rows[:, :, hi] * frac[None, None, :]
    return out


def _apply_op(img, op, mag, rng):
    if op == "hflip":
        return img[:, :, ::-1]
    if op == "brightness":
        return img + mag
    if op == "exposure":
        return img * mag
    if op == "hue":
        hsv = rgb_to_hsv(img)
        hsv[0] = (hsv[0] + mag) % 360.0
        return hsv_to_rgb(hsv)
    if op == "saturation":
        hsv = rgb_to_hsv(img)
        hsv[1] = np.clip(hsv[1] * mag, 0.0, 1.0)
        return hsv_to_rgb(hsv)
    if op == "scale_crop":
        size = img.shape[1]
        new = int(round(size * (1.0 + mag)))
        up = _bilinear_resize(img, new)
        if new > size:
            y = int(rng.integers(0, new - size + 1))
            x = int(rng.integers(0, new - size + 1))
        else:
            y = x = 0
        return up[:, y : y + size, x : x + size]
    raise ValueError(f"unknown op {op!r}")


def apply_policy(sample: Sample, policy, seed) -> Sample:
    """Run the policy on one sample; label, weight, and tag pass through."""
    rng = np.random.default_rng(seed)
    img = sample.image.data.astype(np.float32, copy=True)
    for op, prob, mag in policy:
        fired = rng.random() < prob
        if fired:
            img = np.clip(_apply_op(img, op, mag, rng), 0.0, 1.0).astype(np.float32)
    return Sample(ad.Tensor(img), sample.label.copy(), sample.weight, sample.tag)


def mixup(a: Sample, b: Sample, lam) -> Sample:
    """Convex combination of two samples' pixels, labels, and weights."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixup coefficient must lie in [0, 1], got {lam}")
    if a.image.shape != b.image.shape or a.label.shape != b.label.shape:
        raise ValueError("mixup inputs must share image and label shapes")
    if lam == 1.0:
        return Sample(ad.Tensor(a.image.data.copy()), a.label.copy(), a.weight, a.tag)
    if lam == 0.0:
        return Sample(ad.Tensor(b.image.data.copy()), b.label.copy(), b.weight, b.tag)
    lam = float(lam)
    mu = 1.0 - lam
    return Sample(
        ad.Tensor(lam * a.image.data + mu * b.image.data),
        lam * a.label + mu * b.label,
        lam * a.weight + mu * b.weight,
        None,
    )


def sample_lambda(alpha, rng):
    """Mixup coefficient draw: Beta(alpha, alpha), degenerating to a
    fair coin on {0, 1} at alpha == 0 (the Beta limit)."""
    if alpha < 0:
        raise ValueError("mixup alpha must be >= 0")
    if alpha == 0:
        return float(rng.integers(0, 2))
    return float(rng.beta(alpha, alpha))


def weighted_sampler(ds: Dataset, epoch_length, seed):
    """Indices drawn with replacement, probability proportional to weight."""
    if epoch_length < 1:
        raise ValueError("epoch_length must be >= 1")
    weights = np.array([s.weight for s in ds.samples], dtype=np.float64)
    if (weights <= 0).any():
        bad = int(np.argmax(weights <= 0))
        raise ValueError(f"sample {bad} has non-positive weight {weights[bad]}")
    rng = np.random.default_rng(seed)
    return rng.choice(len(weights), size=epoch_length, replace=True, p=weights / weights.sum())
