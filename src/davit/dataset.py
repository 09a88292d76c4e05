"""Dataset ingestion: binary P6 images, manifest CSV, train/val split.

A dataset is described by a UTF-8 manifest CSV with a header row of
`relative_path,label_name` plus optional `tag` and `weight` columns.
Paths are resolved relative to the manifest's directory. Images are
binary P6 portable pixmaps with maxval up to 255. A loaded image stays
as its file's bytes (a PixelImage, one byte per value), so a dataset
holds a quarter of the memory its float pixels would take. Its .data is
the one conversion: a divide by the maxval into a fresh 3 x S x S
float32 array in [0, 1] on each read.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from davit import autodiff as ad


class PixelImage:
    """A decoded P6 image kept as bytes: its (H, W, 3) uint8 pixels and maxval.

    Reads like an image Tensor through shape, (3, H, W), dtype and data,
    which divides the pixels by maxval into a fresh float32 array in
    [0, 1] in one pass on every read.
    """

    __slots__ = ("pixels", "maxval")
    dtype = np.dtype(np.float32)

    def __init__(self, pixels, maxval):
        self.pixels = pixels
        self.maxval = maxval

    @property
    def shape(self):
        h, w, c = self.pixels.shape
        return (c, h, w)

    @property
    def data(self):
        return np.divide(self.pixels.transpose(2, 0, 1), self.maxval, dtype=np.float32)


@dataclass
class Sample:
    image: ad.Tensor | PixelImage  # 3 x S x S; image.data is in [0, 1]
    label: np.ndarray  # length num_classes, entries >= 0 summing to 1
    weight: float = 1.0
    tag: str | None = None


@dataclass
class Dataset:
    samples: list
    class_names: list = field(default_factory=list)

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]


def one_hot(index, num_classes):
    v = np.zeros(num_classes, dtype=np.float32)
    v[index] = 1.0
    return v


def read_pixels(path) -> PixelImage:
    """Decode a binary P6 pixmap to a PixelImage viewing the file's bytes."""
    data = Path(path).read_bytes()
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise ValueError(f"{path}: truncated header")
        b = data[i : i + 1]
        if b == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif b.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    i += 1  # single whitespace after maxval
    magic, *dims = tokens
    if magic != b"P6":
        raise ValueError(f"{path}: unsupported image header {magic!r} (binary P6 expected)")
    try:
        width, height, maxval = (int(t) for t in dims)
    except ValueError:
        raise ValueError(f"{path}: malformed P6 header") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad image dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (wide pixels not supported)")
    need = width * height * 3
    if len(data) - i < need:
        raise ValueError(f"{path}: truncated pixel data ({max(len(data) - i, 0)} of {need} bytes)")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=i).reshape(height, width, 3)
    top = int(pixels.max())
    if top > maxval:
        raise ValueError(f"{path}: pixel value {top} exceeds maxval {maxval}")
    return PixelImage(pixels, maxval)


def read_ppm(path):
    """Decode a binary P6 pixmap to a (3, H, W) float32 array in [0, 1]."""
    return read_pixels(path).data


def write_ppm(path, image):
    """Encode a (3, H, W) float array in [0, 1] as a binary P6 pixmap."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"expected a (3, H, W) image, got {arr.shape}")
    pixels = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    _, h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pixels.transpose(1, 2, 0).tobytes())


def read_text(path) -> str:
    """A UTF-8 text input's contents, less a leading byte-order mark.

    Bytes that are not UTF-8 raise ValueError naming the file and offset.
    """
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None


def load_dataset(manifest_path, class_names=None) -> Dataset:
    """Read a manifest CSV and decode every referenced image, in order.

    Every image must have the first row's shape. When class_names is
    omitted the class list is the sorted set of label names found in the
    manifest; when given, a label outside the list or a class the list
    names twice is an error.
    """
    if class_names is not None:
        class_names = list(class_names)
        twice = [c for c in class_names if class_names.count(c) > 1]
        if twice:  # each label indexes the first, leaving a class no label reaches
            raise ValueError(f"class list names {twice[0]!r} twice")
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    root = manifest_path.parent
    reader = csv.DictReader(io.StringIO(read_text(manifest_path), newline=""))
    try:  # csv.Error, as for a field over csv's size limit, is not a ValueError
        if reader.fieldnames is None or not {"relative_path", "label_name"} <= set(reader.fieldnames):
            raise ValueError(f"{manifest_path}: header must include relative_path,label_name")
        extras = set(reader.fieldnames) - {"relative_path", "label_name", "tag", "weight"}
        if extras:
            raise ValueError(f"{manifest_path}: unknown manifest columns {sorted(extras)}")
        twice = [c for c in reader.fieldnames if reader.fieldnames.count(c) > 1]
        if twice:
            raise ValueError(f"{manifest_path}: header names column {twice[0]!r} twice")
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"{manifest_path} line {reader.reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{manifest_path}: manifest holds no samples")

    def row_error(idx, msg):
        return ValueError(f"{manifest_path} row {idx + 2}: {msg}")  # +2: header is line 1

    for idx, row in enumerate(rows):
        if None in row:  # DictReader files a row's fields past the header's under None
            raise row_error(idx, f"{len(reader.fieldnames) + len(row[None])} fields, "
                                 f"but the header has {len(reader.fieldnames)}")
        if not row.get("relative_path") or not row.get("label_name"):
            raise row_error(idx, "missing relative_path or label_name")

    if class_names is None:
        class_names = sorted({row["label_name"] for row in rows})
    index = {name: k for k, name in enumerate(class_names)}

    samples = []
    for idx, row in enumerate(rows):
        label_name = row["label_name"]
        if label_name not in index:
            raise row_error(idx, f"label {label_name!r} outside class list")
        path = root / row["relative_path"]
        if not path.is_file():
            raise row_error(idx, f"image file missing: {path}")
        try:
            image = read_pixels(path)
        except ValueError as exc:
            raise row_error(idx, str(exc)) from None
        if samples and image.shape != samples[0].image.shape:
            raise row_error(idx, f"image {path} has shape {image.shape}, "
                                 f"the first row's has {samples[0].image.shape}")
        weight = 1.0
        if row.get("weight"):
            try:
                weight = float(row["weight"])
            except ValueError:
                raise row_error(idx, f"bad weight {row['weight']!r}") from None
            if not 0 < weight < math.inf:
                raise row_error(idx, f"weight must be finite and > 0, got {weight}")
        samples.append(Sample(
            image=image,
            label=one_hot(index[label_name], len(class_names)),
            weight=weight,
            tag=row.get("tag") or None,
        ))
    return Dataset(samples, class_names)


def split_dataset(ds: Dataset, train_fraction, seed, holdout_tags=frozenset()):
    """Split into train/val; holdout-tagged samples always land in val.

    The untagged remainder is shuffled with the seed and split with
    train size floor(remaining * train_fraction).
    """
    if not ds.samples:
        raise ValueError("cannot split an empty dataset")
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must lie strictly between 0 and 1, got {train_fraction}")
    holdout_tags = set(holdout_tags)
    held = [s for s in ds.samples if s.tag in holdout_tags]
    rest = [s for s in ds.samples if s.tag not in holdout_tags]
    order = np.random.default_rng(seed).permutation(len(rest))
    n_train = int(len(rest) * train_fraction)
    train = [rest[i] for i in order[:n_train]]
    val = held + [rest[i] for i in order[n_train:]]
    return Dataset(train, ds.class_names), Dataset(val, ds.class_names)
