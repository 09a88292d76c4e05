import re
import tracemalloc

import numpy as np
import pytest

from davit import autodiff as ad
from davit import dataset as ds
from davit import synth


# ---------------------------------------------------------------------------
# PPM codec


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, size=(3, 5, 7)).astype(np.float32)
    path = tmp_path / "a.ppm"
    ds.write_ppm(path, img)
    back = ds.read_ppm(path)
    assert back.shape == (3, 5, 7)
    # quantized to 1/255 steps on write
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6


def test_ppm_scaling_pure_red(tmp_path):
    path = tmp_path / "red.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    img = ds.read_ppm(path)
    assert img[:, 0, 0].tolist() == [1.0, 0.0, 0.0]


def test_ppm_header_comments_and_maxval(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6 # comment\n# another\n2 1\n# more\n100\n" + bytes([100, 50, 0, 0, 100, 25]))
    img = ds.read_ppm(path)
    assert img.shape == (3, 1, 2)
    assert np.allclose(img[:, 0, 0], [1.0, 0.5, 0.0])


def test_ppm_bad_magic(tmp_path):
    path = tmp_path / "p5.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="unsupported image header"):
        ds.read_ppm(path)


def test_ppm_wide_maxval_rejected(tmp_path):
    path = tmp_path / "wide.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(ValueError, match="maxval"):
        ds.read_ppm(path)


def test_ppm_truncated(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(ValueError, match="truncated"):
        ds.read_ppm(path)


def test_ppm_byte_above_maxval_names_the_file(tmp_path):
    path = tmp_path / "hot.ppm"
    path.write_bytes(b"P6\n2 1\n100\n" + bytes([100, 0, 0, 0, 200, 0]))
    with pytest.raises(ValueError, match=r"hot\.ppm: pixel value 200 exceeds maxval 100"):
        ds.read_ppm(path)


@pytest.mark.parametrize("maxval", [255, 100])
def test_pixel_image_converts_bitwise_like_the_float_decode(tmp_path, maxval):
    rng = np.random.default_rng(maxval)
    pixels = rng.integers(0, maxval + 1, size=(5, 7, 3), dtype=np.uint8)
    pixels[0, 0] = [0, maxval, maxval]
    path = tmp_path / "a.ppm"
    path.write_bytes(f"P6\n7 5\n{maxval}\n".encode() + pixels.tobytes())
    # the float decode that load_dataset kept for every image before it kept bytes
    want = pixels.transpose(2, 0, 1).astype(np.float32) / maxval
    image = ds.read_pixels(path)
    assert image.pixels.dtype == np.uint8 and image.pixels.shape == (5, 7, 3)
    assert image.shape == (3, 5, 7)
    for got in (image.data, ds.read_ppm(path)):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert 0.0 <= got.min() and got.max() == 1.0
    assert image.data.strides == want.strides  # the same memory layout as before


def test_load_holds_about_the_pixel_bytes(tmp_path):
    n, size = 16, 300
    rng = np.random.default_rng(0)
    rows = []
    for k in range(n):
        pixels = rng.integers(0, 256, size=(size, size, 3), dtype=np.uint8).tobytes()
        (tmp_path / f"{k}.ppm").write_bytes(f"P6\n{size} {size}\n255\n".encode() + pixels)
        rows.append(f"{k}.ppm,c{k % 2}")
    manifest = write_manifest(tmp_path, rows)
    tracemalloc.start()
    try:
        data = ds.load_dataset(manifest)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    raw = n * size * size * 3
    assert len(data) == n and all(isinstance(s.image, ds.PixelImage) for s in data.samples)
    assert held <= 1.1 * raw, f"load_dataset holds {held} bytes for {raw} pixel bytes"


# ---------------------------------------------------------------------------
# manifest loading


def write_manifest(tmp_path, rows, header="relative_path,label_name"):
    lines = [header] + rows
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def put_image(tmp_path, name, value=128):
    (tmp_path / name).write_bytes(b"P6\n2 2\n255\n" + bytes([value] * 12))


def test_load_three_rows_in_order(tmp_path):
    for n in ("a.ppm", "b.ppm", "c.ppm"):
        put_image(tmp_path, n)
    manifest = write_manifest(tmp_path, ["b.ppm,dog", "a.ppm,cat", "c.ppm,dog"])
    data = ds.load_dataset(manifest)
    assert len(data) == 3
    assert data.class_names == ["cat", "dog"]
    assert data[0].label.tolist() == [0.0, 1.0]  # dog
    assert data[1].label.tolist() == [1.0, 0.0]  # cat
    assert data[0].image.shape == (3, 2, 2)
    assert data[0].weight == 1.0 and data[0].tag is None


def test_load_manifest_with_byte_order_mark(tmp_path):
    for n in ("a.ppm", "b.ppm"):
        put_image(tmp_path, n, value=60 if n == "a.ppm" else 200)
    plain = ds.load_dataset(write_manifest(tmp_path, ["b.ppm,dog", "a.ppm,cat"]))
    marked = tmp_path / "manifest.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
    data = ds.load_dataset(marked)
    assert data.class_names == plain.class_names == ["cat", "dog"]
    assert len(data) == len(plain) == 2
    for got, want in zip(data.samples, plain.samples):
        assert got.label.tolist() == want.label.tolist()
        assert got.image.data.tobytes() == want.image.data.tobytes()


def test_load_missing_file_names_row(tmp_path):
    put_image(tmp_path, "a.ppm")
    manifest = write_manifest(tmp_path, ["a.ppm,cat", "gone.ppm,dog"])
    with pytest.raises(ValueError, match="row 3"):
        ds.load_dataset(manifest)


def test_load_rejects_odd_image_shape_names_row(tmp_path):
    put_image(tmp_path, "a.ppm")
    put_image(tmp_path, "b.ppm")
    (tmp_path / "wide.ppm").write_bytes(b"P6\n3 2\n255\n" + bytes([128] * 18))
    manifest = write_manifest(tmp_path, ["a.ppm,cat", "b.ppm,dog", "wide.ppm,dog"])
    with pytest.raises(ValueError, match=r"row 4: image .*wide\.ppm has shape \(3, 2, 3\)"):
        ds.load_dataset(manifest)


def test_load_tag_and_weight_columns(tmp_path):
    put_image(tmp_path, "a.ppm")
    put_image(tmp_path, "b.ppm")
    manifest = write_manifest(tmp_path, ["a.ppm,cat,hard,4.0", "b.ppm,cat,,"],
                              header="relative_path,label_name,tag,weight")
    data = ds.load_dataset(manifest)
    assert data[0].tag == "hard" and data[0].weight == 4.0
    assert data[1].tag is None and data[1].weight == 1.0


def test_load_label_outside_class_list(tmp_path):
    put_image(tmp_path, "a.ppm")
    manifest = write_manifest(tmp_path, ["a.ppm,ferret"])
    with pytest.raises(ValueError, match="outside class list"):
        ds.load_dataset(manifest, class_names=["cat", "dog"])


def test_load_rejects_a_class_list_naming_a_class_twice(tmp_path):
    for n in ("a.ppm", "b.ppm", "c.ppm"):
        put_image(tmp_path, n)
    manifest = write_manifest(tmp_path, ["a.ppm,a", "b.ppm,b", "c.ppm,c"])
    with pytest.raises(ValueError, match="class list names 'a' twice"):
        ds.load_dataset(manifest, class_names=["a", "a", "b", "c"])


def test_load_rejects_unknown_columns_and_bad_weight(tmp_path):
    put_image(tmp_path, "a.ppm")
    manifest = write_manifest(tmp_path, ["a.ppm,cat,1.0"],
                              header="relative_path,label_name,wight")
    with pytest.raises(ValueError, match="unknown manifest columns"):
        ds.load_dataset(manifest)
    manifest = write_manifest(tmp_path, ["a.ppm,cat,-2"],
                              header="relative_path,label_name,weight")
    with pytest.raises(ValueError, match="weight"):
        ds.load_dataset(manifest)
    for bad in ("nan", "inf", "-inf"):
        manifest = write_manifest(tmp_path, ["a.ppm,cat,1.0", f"a.ppm,cat,{bad}"],
                                  header="relative_path,label_name,weight")
        with pytest.raises(ValueError, match=r"row 3: weight must be finite and > 0"):
            ds.load_dataset(manifest)


@pytest.mark.parametrize("header, rows, message", [
    ("relative_path,label_name,label_name", ["a.ppm,cat,dog"], ": header names column 'label_name' twice"),
    # a decimal comma splits the weight 2.5 into two fields
    ("relative_path,label_name,weight", ["a.ppm,cat,1", "a.ppm,cat,2,5"], " row 3: 4 fields, but the header has 3"),
], ids=["repeated_column", "extra_field"])
def test_load_rejects_a_header_or_row_csv_would_misread(tmp_path, header, rows, message):
    put_image(tmp_path, "a.ppm")
    manifest = write_manifest(tmp_path, rows, header=header)
    with pytest.raises(ValueError, match=f"^{re.escape(str(manifest) + message)}$"):
        ds.load_dataset(manifest)


def test_load_manifest_field_over_csv_limit_names_the_line(tmp_path):
    put_image(tmp_path, "a.ppm")
    manifest = write_manifest(tmp_path, ["a.ppm,cat", "a.ppm," + "x" * 131_073])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))} line 3: field larger than field limit"):
        ds.load_dataset(manifest)


def test_load_manifest_not_utf8_names_the_file(tmp_path):
    put_image(tmp_path, "a.ppm")
    manifest = write_manifest(tmp_path, ["a.ppm,cat"])
    manifest.write_bytes(manifest.read_bytes() + b"b\xff.ppm,dog\n")
    offset = manifest.read_bytes().index(b"\xff")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}: byte {offset} is not UTF-8"):
        ds.load_dataset(manifest)


def test_load_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.csv"):
        ds.load_dataset(tmp_path / "nope.csv")


# ---------------------------------------------------------------------------
# splitting


def fake_dataset(n, tags=()):
    samples = []
    for i in range(n):
        samples.append(ds.Sample(
            image=ad.zeros((3, 2, 2)),
            label=ds.one_hot(i % 2, 2),
            tag=tags[i] if i < len(tags) else None,
        ))
    return ds.Dataset(samples, ["a", "b"])


def test_split_80_20():
    train, val = ds.split_dataset(fake_dataset(10), 0.8, seed=0)
    assert len(train) == 8 and len(val) == 2


def test_split_holdout_tags():
    data = fake_dataset(10, tags=("hard", "hard", "hard"))
    train, val = ds.split_dataset(data, 0.8, seed=1, holdout_tags={"hard"})
    assert len(train) == 5 and len(val) == 5
    assert sum(1 for s in val.samples if s.tag == "hard") == 3
    assert all(s.tag != "hard" for s in train.samples)


def test_split_partitions_exactly():
    data = fake_dataset(23, tags=("hard",) * 4)
    train, val = ds.split_dataset(data, 0.7, seed=2, holdout_tags={"hard"})
    ids = [id(s) for s in train.samples + val.samples]
    assert len(ids) == 23 and len(set(ids)) == 23
    assert set(ids) == {id(s) for s in data.samples}


def test_split_deterministic():
    data = fake_dataset(12)
    a = ds.split_dataset(data, 0.5, seed=3)
    b = ds.split_dataset(data, 0.5, seed=3)
    assert [id(s) for s in a[0].samples] == [id(s) for s in b[0].samples]
    c = ds.split_dataset(data, 0.5, seed=4)
    assert [id(s) for s in a[0].samples] != [id(s) for s in c[0].samples]


def test_split_validation():
    with pytest.raises(ValueError):
        ds.split_dataset(ds.Dataset([], ["a"]), 0.8, 0)
    with pytest.raises(ValueError):
        ds.split_dataset(fake_dataset(4), 1.0, 0)


# ---------------------------------------------------------------------------
# synthetic data


def test_synth_generates_loadable_dataset(tmp_path):
    manifest = synth.generate_dataset(tmp_path, num_classes=4, per_class=3, size=16, seed=5)
    data = ds.load_dataset(manifest)
    assert len(data) == 12
    assert len(data.class_names) == 4
    for s in data.samples:
        assert s.image.shape == (3, 16, 16)
        assert 0.0 <= s.image.data.min() and s.image.data.max() <= 1.0
        assert s.label.sum() == 1.0
    # classes are visually distinct: per-class mean images differ
    means = {}
    for s in data.samples:
        k = int(np.argmax(s.label))
        means.setdefault(k, []).append(s.image.data)
    centers = [np.mean(v, axis=0) for _, v in sorted(means.items())]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            assert np.abs(centers[i] - centers[j]).mean() > 0.01


def test_synth_rejects_more_classes_than_shape_color_pairs(tmp_path):
    with pytest.raises(ValueError, match=r"^not enough shape/color combinations, got num_classes = 10000$"):
        synth.generate_dataset(tmp_path, num_classes=10_000)
    assert not list(tmp_path.iterdir())
