import colorsys
import re

import numpy as np
import pytest
from scipy import stats

from davit import autodiff as ad
from davit import augment as ag
from davit.dataset import Dataset, PixelImage, Sample, one_hot


def make_sample(seed=0, size=8, num_classes=4, klass=1, weight=1.0, tag=None):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 1, size=(3, size, size)).astype(np.float32)
    return Sample(ad.Tensor(img), one_hot(klass, num_classes), weight, tag)


# ---------------------------------------------------------------------------
# policy parsing


def test_parse_policy_file(tmp_path):
    path = tmp_path / "p.policy"
    path.write_text("# comment\n\nhflip 0.5 0\nbrightness 1.0 0.1\n")
    policy = ag.parse_policy(path)
    assert policy == [("hflip", 0.5, 0.0), ("brightness", 1.0, 0.1)]


def test_parse_policy_errors(tmp_path):
    cases = {
        "bad_op.policy": ("rotate 0.5 10", "unknown op"),
        "bad_prob.policy": ("hflip 1.5 0", "probability"),
        "bad_mag.policy": ("brightness 0.5 2.0", "magnitude"),
        "bad_shape.policy": ("hflip 0.5", "expected"),
        "bad_num.policy": ("hflip zero 0", "non-numeric"),
    }
    for name, (line, match) in cases.items():
        path = tmp_path / name
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=match):
            ag.parse_policy(path)


def test_parse_policy_with_byte_order_mark(tmp_path):
    path = tmp_path / "p.policy"
    path.write_text("# comment\nhflip 0.5 0\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert ag.parse_policy(path) == [("hflip", 0.5, 0.0)]


def test_parse_policy_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "p.policy"
    path.write_bytes(b"hflip 0.5 0\n# caf\xe9\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: byte 17 is not UTF-8"):
        ag.parse_policy(path)


def test_default_shipped_policy_parses():
    from pathlib import Path
    import davit

    path = Path(davit.__file__).parent / "policies" / "default.policy"
    policy = ag.parse_policy(path)
    assert {op for op, _, _ in policy} == set(ag._MAGNITUDE_RANGES)


# ---------------------------------------------------------------------------
# policy application


def test_zero_probability_identity():
    s = make_sample(1)
    policy = [(op, 0.0, mag) for op, (lo, mag) in
              [("hflip", (0, 0)), ("brightness", (0, 0.1)), ("hue", (0, 30.0))]]
    out = ag.apply_policy(s, policy, seed=2)
    assert (out.image.data == s.image.data).all()
    assert (out.label == s.label).all() and out.weight == s.weight


def test_hflip_involution():
    s = make_sample(3)
    once = ag.apply_policy(s, [("hflip", 1.0, 0.0)], seed=4)
    twice = ag.apply_policy(once, [("hflip", 1.0, 0.0)], seed=5)
    assert (once.image.data != s.image.data).any()
    assert (twice.image.data == s.image.data).all()


def test_brightness_exact_offset():
    img = np.full((3, 4, 4), 0.5, dtype=np.float32)
    s = Sample(ad.Tensor(img), one_hot(0, 2))
    out = ag.apply_policy(s, [("brightness", 1.0, 0.1)], seed=6)
    assert np.allclose(out.image.data, 0.6, atol=1e-7)


def test_brightness_clamps():
    img = np.full((3, 2, 2), 0.95, dtype=np.float32)
    s = Sample(ad.Tensor(img), one_hot(0, 2))
    out = ag.apply_policy(s, [("brightness", 1.0, 0.1)], seed=7)
    assert (out.image.data == 1.0).all()


def test_exposure_gain():
    img = np.full((3, 2, 2), 0.5, dtype=np.float32)
    s = Sample(ad.Tensor(img), one_hot(0, 2))
    out = ag.apply_policy(s, [("exposure", 1.0, 1.2)], seed=8)
    assert np.allclose(out.image.data, 0.6, atol=1e-7)


def test_hue_rotation_red_to_green():
    img = np.zeros((3, 1, 1), dtype=np.float32)
    img[0] = 1.0
    s = Sample(ad.Tensor(img), one_hot(0, 2))
    out = ag.apply_policy(s, [("hue", 1.0, 120.0)], seed=9)
    assert np.allclose(out.image.data[:, 0, 0], [0.0, 1.0, 0.0], atol=1e-5)


def test_saturation_zero_makes_gray():
    s = make_sample(10)
    out = ag.apply_policy(s, [("saturation", 1.0, 0.0)], seed=11)
    img = out.image.data
    assert np.abs(img[0] - img[1]).max() < 1e-5
    assert np.abs(img[1] - img[2]).max() < 1e-5


def test_scale_crop_zero_magnitude_identity():
    s = make_sample(12)
    out = ag.apply_policy(s, [("scale_crop", 1.0, 0.0)], seed=13)
    assert np.allclose(out.image.data, s.image.data, atol=1e-6)


def test_scale_crop_preserves_shape_and_range():
    s = make_sample(14, size=11)
    out = ag.apply_policy(s, [("scale_crop", 1.0, 0.3)], seed=15)
    assert out.image.shape == (3, 11, 11)
    assert out.image.data.min() >= 0.0 and out.image.data.max() <= 1.0
    assert (out.image.data != s.image.data).any()


def test_policy_deterministic_per_seed():
    s = make_sample(16)
    policy = [("scale_crop", 0.7, 0.4), ("hflip", 0.5, 0.0), ("hue", 0.5, 40.0)]
    a = ag.apply_policy(s, policy, seed=17)
    b = ag.apply_policy(s, policy, seed=17)
    c = ag.apply_policy(s, policy, seed=18)
    assert (a.image.data == b.image.data).all()
    assert (a.image.data != c.image.data).any()


def test_hsv_round_trip_matches_colorsys():
    rng = np.random.default_rng(19)
    rgb = rng.uniform(0, 1, size=(3, 40))
    hsv = ag.rgb_to_hsv(rgb)
    for i in range(40):
        h, s, v = colorsys.rgb_to_hsv(*rgb[:, i])
        assert abs(hsv[0, i] / 360.0 - h) < 1e-9 or abs(hsv[0, i] / 360.0 - h) > 0.999
        assert abs(hsv[1, i] - s) < 1e-9
        assert abs(hsv[2, i] - v) < 1e-9
    back = ag.hsv_to_rgb(hsv)
    assert np.abs(back - rgb).max() < 1e-9


# ---------------------------------------------------------------------------
# mixup


def test_mixup_lambda_one_exact_identity():
    a, b = make_sample(20, tag="hard"), make_sample(21)
    out = ag.mixup(a, b, 1.0)
    assert (out.image.data == a.image.data).all()
    assert (out.label == a.label).all()
    assert out.weight == a.weight and out.tag == "hard"


def test_mixup_lambda_zero_returns_other():
    a, b = make_sample(22), make_sample(23, tag="t")
    out = ag.mixup(a, b, 0.0)
    assert (out.image.data == b.image.data).all() and out.tag == "t"


def test_mixup_midpoint_label():
    a = make_sample(24, klass=0)
    b = make_sample(25, klass=1)
    out = ag.mixup(a, b, 0.5)
    assert out.label.tolist() == [0.5, 0.5, 0.0, 0.0]


def test_mixup_convexity_and_label_sum():
    a, b = make_sample(26), make_sample(27, klass=2)
    for lam in (0.1, 0.37, 0.8):
        out = ag.mixup(a, b, lam)
        lo = np.minimum(a.image.data, b.image.data)
        hi = np.maximum(a.image.data, b.image.data)
        assert (out.image.data >= lo - 1e-7).all() and (out.image.data <= hi + 1e-7).all()
        assert abs(out.label.sum() - 1.0) <= 1e-9


def test_mixup_symmetry():
    a, b = make_sample(28), make_sample(29, klass=3)
    for lam in (0.25, 0.5, 0.75):  # 1-lam exact in binary floating point
        x = ag.mixup(a, b, lam)
        y = ag.mixup(b, a, 1.0 - lam)
        assert (x.image.data == y.image.data).all()
        assert (x.label == y.label).all()
    x = ag.mixup(a, b, 0.37)
    y = ag.mixup(b, a, 1.0 - 0.37)
    assert np.abs(x.image.data - y.image.data).max() < 1e-6


def test_mixup_weight_blend_and_validation():
    a = make_sample(30, weight=4.0)
    b = make_sample(31, weight=1.0)
    assert ag.mixup(a, b, 0.5).weight == 2.5
    with pytest.raises(ValueError):
        ag.mixup(a, b, 1.5)
    small = make_sample(32, size=4)
    with pytest.raises(ValueError):
        ag.mixup(a, small, 0.5)


def test_byte_images_augment_and_mix_like_their_float_twins():
    rng = np.random.default_rng(35)
    byte_samples, float_samples = [], []
    for k, maxval in enumerate((255, 100)):
        image = PixelImage(rng.integers(0, maxval + 1, size=(9, 9, 3), dtype=np.uint8), maxval)
        byte_samples.append(Sample(image, one_hot(k, 4)))
        float_samples.append(Sample(ad.Tensor(image.data), one_hot(k, 4)))
    policy = [("hflip", 1.0, 0.0), ("exposure", 1.0, 1.5), ("scale_crop", 1.0, 0.5)]
    pairs = [(ag.apply_policy(byte_samples[1], policy, seed=36),
              ag.apply_policy(float_samples[1], policy, seed=36))]
    pairs += [(ag.mixup(*byte_samples, lam), ag.mixup(*float_samples, lam))
              for lam in (0.0, 0.3, 1.0)]
    for got, want in pairs:
        got, want = got.image.data, want.image.data
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert 0.0 <= got.min() and got.max() <= 1.0


def test_sample_lambda_alpha_zero_degenerate():
    rng = np.random.default_rng(33)
    draws = {ag.sample_lambda(0.0, rng) for _ in range(50)}
    assert draws == {0.0, 1.0}
    rng = np.random.default_rng(34)
    vals = [ag.sample_lambda(0.2, rng) for _ in range(50)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert any(0.0 < v < 1.0 for v in vals)


# ---------------------------------------------------------------------------
# weighted sampling


def weighted_dataset(weights):
    samples = [Sample(ad.zeros((3, 2, 2)), one_hot(0, 2), weight=w) for w in weights]
    return Dataset(samples, ["a", "b"])


def test_sampler_uniform_within_3_sigma():
    data = weighted_dataset([1.0] * 10)
    idx = ag.weighted_sampler(data, 10_000, seed=35)
    counts = np.bincount(idx, minlength=10)
    sigma = np.sqrt(10_000 * 0.1 * 0.9)
    assert (np.abs(counts - 1000) < 3 * sigma).all()


def test_sampler_3_to_1_weights():
    data = weighted_dataset([3.0, 1.0])
    idx = ag.weighted_sampler(data, 10_000, seed=36)
    first = (idx == 0).sum()
    sigma = np.sqrt(10_000 * 0.75 * 0.25)
    assert abs(first - 7500) < 3 * sigma


def test_sampler_chi_square_convergence():
    weights = [1.0, 2.0, 3.0, 4.0, 10.0]
    data = weighted_dataset(weights)
    idx = ag.weighted_sampler(data, 100_000, seed=37)
    counts = np.bincount(idx, minlength=5)
    expected = np.array(weights) / sum(weights) * 100_000
    assert stats.chisquare(counts, expected).pvalue > 0.001


def test_sampler_deterministic_and_validated():
    data = weighted_dataset([1.0, 2.0])
    a = ag.weighted_sampler(data, 100, seed=38)
    b = ag.weighted_sampler(data, 100, seed=38)
    assert (a == b).all()
    with pytest.raises(ValueError, match="non-positive weight"):
        ag.weighted_sampler(weighted_dataset([1.0, 0.0]), 10, seed=39)


# ---------------------------------------------------------------------------
# argument checks


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ag.sample_lambda(-0.5, np.random.default_rng(0)),
                 r"mixup alpha must be >= 0, got -0\.5", id="mixup_alpha"),
    pytest.param(lambda: ag.weighted_sampler(Dataset([make_sample()]), 0, seed=0),
                 "epoch_length must be >= 1, got 0", id="epoch_length"),
])
def test_bad_argument_raises_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
