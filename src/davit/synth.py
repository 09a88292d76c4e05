"""Synthetic shape/color dataset generator for desk-scale experiments.

Classes are (shape, color) pairs: five shapes (square, disk, triangle,
cross, ring) cycled over a ten-color palette, drawn on dark noisy
backgrounds with jittered position and size. Writes P6 images plus a
manifest CSV compatible with dataset.load_dataset.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from davit.dataset import write_ppm

_PALETTE = [
    ("red", (0.9, 0.1, 0.1)),
    ("green", (0.1, 0.8, 0.15)),
    ("blue", (0.15, 0.2, 0.9)),
    ("yellow", (0.9, 0.85, 0.1)),
    ("magenta", (0.85, 0.1, 0.8)),
    ("cyan", (0.1, 0.8, 0.85)),
    ("orange", (0.95, 0.55, 0.1)),
    ("purple", (0.5, 0.15, 0.8)),
    ("white", (0.92, 0.92, 0.92)),
    ("teal", (0.1, 0.5, 0.5)),
]

_SHAPES = ["square", "disk", "triangle", "cross", "ring"]


def _draw(shape, color, size, rng):
    img = rng.uniform(0.0, 0.12, size=(3, size, size)).astype(np.float32)
    c = size / 2 + rng.uniform(-size / 10, size / 10, size=2)
    r = size * rng.uniform(0.26, 0.38)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    dy, dx = yy - c[0], xx - c[1]
    if shape == "square":
        mask = (np.abs(dy) <= r) & (np.abs(dx) <= r)
    elif shape == "disk":
        mask = dy * dy + dx * dx <= r * r
    elif shape == "triangle":
        mask = (dy >= -r) & (np.abs(dx) <= (dy + r) * 0.6)
    elif shape == "cross":
        arm = r * 0.4
        mask = ((np.abs(dx) <= arm) & (np.abs(dy) <= r)) | ((np.abs(dy) <= arm) & (np.abs(dx) <= r))
    elif shape == "ring":
        d2 = dy * dy + dx * dx
        mask = (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    for ch in range(3):
        img[ch][mask] = color[ch]
    return np.clip(img, 0.0, 1.0)


def class_names(num_classes=10):
    names = []
    for k in range(num_classes):
        shape = _SHAPES[k % len(_SHAPES)]
        color = _PALETTE[k % len(_PALETTE)][0]
        names.append(f"{color}_{shape}")
    return names


def generate_dataset(out_dir, num_classes=10, per_class=16, size=32, seed=0):
    """Write per_class images for each class plus manifest.csv; returns the
    manifest path."""
    if num_classes > len(_PALETTE) * len(_SHAPES):
        raise ValueError(f"not enough shape/color combinations, got num_classes = {num_classes}")
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    names = class_names(num_classes)
    rows = []
    for k, name in enumerate(names):
        shape = _SHAPES[k % len(_SHAPES)]
        color = _PALETTE[k % len(_PALETTE)][1]
        for n in range(per_class):
            rel = f"images/{name}_{n:03d}.ppm"
            write_ppm(out_dir / rel, _draw(shape, color, size, rng))
            rows.append((rel, name))
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["relative_path", "label_name"])
        writer.writerows(rows)
    return manifest


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "synth_data"
    path = generate_dataset(target)
    print(f"wrote {path}")
