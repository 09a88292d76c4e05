import numpy as np
import pytest

from davit import autodiff as ad
from davit import attention as at
from conftest import check_grads, rel_err


def make_params(c, head_width, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return at.AttentionParams(
        qkv_weight=ad.Tensor(rng.normal(0, 0.2, size=(c, 3 * c)).astype(dtype)),
        qkv_bias=ad.Tensor(rng.normal(0, 0.05, size=(3 * c,)).astype(dtype)),
        proj_weight=ad.Tensor(rng.normal(0, 0.2, size=(c, c)).astype(dtype)),
        proj_bias=ad.Tensor(rng.normal(0, 0.05, size=(c,)).astype(dtype)),
        head_width=head_width,
    )


def softmax_rows(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# spatial window attention


def mhsa_oracle(x2d, p, num_heads):
    # independent dense multi-head self-attention, one window over everything
    c = x2d.shape[1]
    ch = c // num_heads
    qkv = x2d @ p.qkv_weight.data + p.qkv_bias.data
    q, k, v = qkv[:, :c], qkv[:, c : 2 * c], qkv[:, 2 * c :]
    outs = []
    for h in range(num_heads):
        sl = slice(h * ch, (h + 1) * ch)
        w = softmax_rows(q[:, sl] @ k[:, sl].T / np.sqrt(ch))
        outs.append(w @ v[:, sl])
    return np.concatenate(outs, axis=1) @ p.proj_weight.data + p.proj_bias.data


def test_full_window_equals_global_attention_oracle():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 6, 6, 8))
    p = make_params(8, 4, seed=11, dtype=np.float64)
    out = at.spatial_window_attention(ad.Tensor(x.copy()), p, window_size=6)
    want = mhsa_oracle(x[0].reshape(36, 8), p, num_heads=2)
    assert rel_err(out.data[0].reshape(36, 8), want) < 1e-5


def test_padded_windows_equal_per_window_oracle():
    # 5x8 at window 3 pads to 6x9: six windows per image, five of them part padding
    rng = np.random.default_rng(36)
    x = rng.normal(size=(2, 5, 8, 4))
    p = make_params(4, 2, seed=37, dtype=np.float64)
    out, weights = at.spatial_window_attention(ad.Tensor(x.copy()), p, window_size=3, return_weights=True)
    assert out.shape == x.shape
    assert weights.shape == (2 * 6 * 2, 9, 9)
    for b in range(2):
        for i in range(0, 5, 3):
            for j in range(0, 8, 3):
                want = mhsa_oracle(x[b, i : i + 3, j : j + 3].reshape(-1, 4), p, num_heads=2)
                assert rel_err(out.data[b, i : i + 3, j : j + 3].reshape(-1, 4), want) < 1e-5
    # windows per image and head: 75 pads to 77 (11 x 11), 14 needs no padding (2 x 2)
    p = make_params(2, 1, seed=38)
    for b, size, n in [(1, 75, 121), (2, 14, 4)]:
        _, weights = at.spatial_window_attention(ad.zeros((b, size, size, 2)), p, 7, return_weights=True)
        assert weights.shape == (b * n * 2, 49, 49)


def test_single_real_token_per_window():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 1, 1, 4)).astype(np.float32)
    p = make_params(4, 2, seed=13)
    out = at.spatial_window_attention(ad.Tensor(x.copy()), p, window_size=7)
    c = 4
    v = x[0, 0, 0] @ p.qkv_weight.data[:, 2 * c :] + p.qkv_bias.data[2 * c :]
    want = v @ p.proj_weight.data + p.proj_bias.data
    assert np.allclose(out.data[0, 0, 0], want, atol=1e-6)


def test_spatial_locality_exact():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
    p = make_params(4, 2, seed=15)
    base = at.spatial_window_attention(ad.Tensor(x.copy()), p, window_size=2).data
    x2 = x.copy()
    x2[0, 0, 1] += 3.0  # token (0,1) lives in window (0,0)
    pert = at.spatial_window_attention(ad.Tensor(x2), p, window_size=2).data
    changed = np.zeros((4, 4), dtype=bool)
    changed[:2, :2] = True
    assert (base[0][~changed] == pert[0][~changed]).all()
    assert (base[0][changed] != pert[0][changed]).any()


def test_attention_weights_rows_sum_to_one_padded_inert():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(1, 5, 5, 4)).astype(np.float32)  # window 3 pads to 6x6
    p = make_params(4, 2, seed=17)
    _, weights = at.spatial_window_attention(ad.Tensor(x.copy()), p, window_size=3, return_weights=True)
    assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-6
    # padded key positions carry no weight anywhere
    real = np.zeros((6, 6), dtype=bool)
    real[:5, :5] = True
    keys = np.repeat(real.reshape(2, 3, 2, 3).transpose(0, 2, 1, 3).reshape(4, 9), 2, axis=0)
    assert weights[~np.broadcast_to(keys[:, None, :], weights.shape)].max() < 1e-12


def test_spatial_attention_grad():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(1, 4, 4, 4))
    p64 = make_params(4, 2, seed=19, dtype=np.float64)

    def build(ts):
        p = at.AttentionParams(ts[1], ts[2], ts[3], ts[4], head_width=2)
        return ad.tensor_mean(at.spatial_window_attention(ts[0], p, window_size=2))

    check_grads(build, [x, p64.qkv_weight.data, p64.qkv_bias.data,
                        p64.proj_weight.data, p64.proj_bias.data])


@pytest.mark.parametrize("shape", [(1, 4, 4, 2), (2, 3, 4, 2)], ids=["b1", "b2_3x4"])
def test_spatial_attention_grad_with_padding_mask(shape):
    rng = np.random.default_rng(20)
    x = rng.normal(size=shape)
    p64 = make_params(2, 1, seed=21, dtype=np.float64)

    def build(ts):
        p = at.AttentionParams(ts[1], ts[2], ts[3], ts[4], head_width=1)
        return ad.tensor_mean(at.spatial_window_attention(ts[0], p, window_size=3))

    check_grads(build, [x, p64.qkv_weight.data, p64.qkv_bias.data,
                        p64.proj_weight.data, p64.proj_bias.data])


# ---------------------------------------------------------------------------
# the attention core shared by both kernels


@pytest.mark.parametrize("masked", [False, True])
def test_attend_equals_numpy_oracle_bitwise(masked):
    # The stack's gradient is one buffer: dq and dk from attention_weights,
    # dv added in place by the v slice, each as its product + 0.0, so no
    # -0.0 is left behind, also where the upstream gradient holds -0.0.
    rng = np.random.default_rng(26)
    qkv = rng.normal(size=(3, 4, 6, 5)).astype(np.float32)
    mask = rng.random((4, 1, 6)) < 0.6 if masked else None
    if masked:
        mask[..., 0] = True
    up = rng.normal(size=(4, 6, 5)).astype(np.float32)
    up[:, :, 1] = -0.0
    up[0] = -0.0
    scale = 1.0 / np.sqrt(5)
    x = ad.Tensor(qkv.copy(), requires_grad=True)
    with ad.Tape():
        out, attn = at._attend(x, scale, mask)
        ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(up.copy()))))

    q, k, v = qkv
    z = (q @ np.swapaxes(k, -1, -2)) * float(scale)
    if masked:
        z = np.where(mask, z, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    ds = up @ np.swapaxes(v, -1, -2)
    dl = s * (ds - (ds * s).sum(axis=-1, keepdims=True)) * float(scale)
    raw = np.stack([dl @ k, np.swapaxes(np.swapaxes(q, -1, -2) @ dl, -1, -2), np.swapaxes(s, -1, -2) @ up])
    assert attn.data.tobytes() == s.tobytes()
    assert out.data.tobytes() == (s @ v).tobytes()
    assert x.grad.tobytes() == (raw + 0.0).tobytes()
    assert (x.grad[2, 0] == 0).all() and not np.signbit(x.grad[x.grad == 0]).any()


# ---------------------------------------------------------------------------
# channel group attention


def channel_oracle(x2d, p, scale):
    # independent dense channel self-attention: tokens are channels,
    # features are spatial positions
    c = x2d.shape[1]
    qkv = x2d @ p.qkv_weight.data + p.qkv_bias.data
    q, k, v = qkv[:, :c].T, qkv[:, c : 2 * c].T, qkv[:, 2 * c :].T  # (C, N)
    w = softmax_rows(q @ k.T * scale)
    out = (w @ v).T  # back to (N, C)
    return out @ p.proj_weight.data + p.proj_bias.data


def test_one_group_equals_channel_oracle():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(1, 6, 6, 8))
    p = make_params(8, 8, seed=23, dtype=np.float64)
    out = at.channel_group_attention(ad.Tensor(x.copy()), p)
    want = channel_oracle(x[0].reshape(36, 8), p, scale=1.0 / np.sqrt(8))
    assert rel_err(out.data[0].reshape(36, 8), want) < 1e-5


def test_group_width_one_passes_values_through():
    rng = np.random.default_rng(24)
    c = 3
    x = rng.normal(size=(1, 2, 2, c)).astype(np.float32)
    p = make_params(c, 1, seed=25)
    # identity projection exposes the raw attention output
    p.proj_weight = ad.Tensor(np.eye(c, dtype=np.float32))
    p.proj_bias = ad.zeros((c,))
    out, weights = at.channel_group_attention(ad.Tensor(x.copy()), p, return_weights=True)
    assert (weights == 1.0).all()  # softmax over a single token
    # group-blockwise qkv means v_c depends on channel c alone
    wv = p.qkv_weight.data[:, 2 * c :]
    bv = p.qkv_bias.data[2 * c :]
    want = x[0].reshape(4, c) * np.diag(wv) + bv
    assert np.allclose(out.data[0].reshape(4, c), want, atol=1e-6)


def test_channel_locality_exact():
    rng = np.random.default_rng(26)
    x = rng.normal(size=(1, 3, 3, 8)).astype(np.float32)
    p = make_params(8, 4, seed=27)
    base = at.channel_group_attention(ad.Tensor(x.copy()), p).data
    x2 = x.copy()
    x2[0, 1, 1, 2] += 5.0  # channel 2 lives in group 0 (channels 0..3)
    pert = at.channel_group_attention(ad.Tensor(x2), p).data
    assert (base[..., 4:] == pert[..., 4:]).all()
    assert (base[..., :4] != pert[..., :4]).any()


def test_channel_spatial_permutation_equivariance():
    rng = np.random.default_rng(28)
    x = rng.normal(size=(1, 2, 3, 4))
    p = make_params(4, 2, seed=29, dtype=np.float64)
    perm = rng.permutation(6)
    xp = x.reshape(1, 6, 4)[:, perm].reshape(1, 2, 3, 4)
    out = at.channel_group_attention(ad.Tensor(x.copy()), p).data.reshape(6, 4)
    outp = at.channel_group_attention(ad.Tensor(xp.copy()), p).data.reshape(6, 4)
    assert rel_err(outp, out[perm]) < 1e-6


def test_channel_off_diagonal_blocks_are_inert():
    # A channel mixes only with channels of its own group: entries of the
    # qkv and proj weights that cross groups never reach the output and
    # get exactly zero gradient.
    rng = np.random.default_rng(34)
    c, cg = 8, 4
    x = rng.normal(size=(2, 3, 4, c)).astype(np.float32)
    p = make_params(c, cg, seed=35)
    same = np.arange(c)[:, None] // cg == np.arange(c)[None, :] // cg
    same_qkv = np.tile(same, (1, 3))

    def fill_off_diagonal(w, keep):
        noise = rng.normal(0, 1.0, size=w.shape).astype(w.dtype)
        return ad.Tensor(np.where(keep, w.data, noise), requires_grad=True)

    noisy = at.AttentionParams(fill_off_diagonal(p.qkv_weight, same_qkv), p.qkv_bias,
                               fill_off_diagonal(p.proj_weight, same), p.proj_bias, head_width=cg)
    base = at.channel_group_attention(ad.Tensor(x.copy()), p).data
    with ad.Tape():
        out = at.channel_group_attention(ad.Tensor(x.copy()), noisy)
        ad.backward(ad.tensor_sum(out))
    assert (out.data == base).all()
    assert (noisy.qkv_weight.grad[~same_qkv] == 0).all()
    assert (noisy.proj_weight.grad[~same] == 0).all()
    assert (noisy.qkv_weight.grad[same_qkv] != 0).any()
    assert (noisy.proj_weight.grad[same] != 0).any()


@pytest.mark.parametrize("ng, k", [(1, 1), (3, 3), (24, 1)])
def test_grouped_linear_equals_advanced_index_oracle(ng, k):
    rng = np.random.default_rng(36)
    cg = 4
    x = rng.normal(size=(ng, 5, cg)).astype(np.float32)
    w = rng.normal(size=(ng * cg, k * ng * cg)).astype(np.float32)
    b = rng.normal(size=(k * ng * cg,)).astype(np.float32)
    d = np.arange(ng)
    want = x @ w.reshape(ng, cg, k, ng, cg)[d, :, :, d, :].reshape(ng, cg, k * cg)
    want += b.reshape(k, ng, cg).transpose(1, 0, 2).reshape(ng, 1, k * cg)
    got = ad.linear(ad.Tensor(x.copy()), ad.Tensor(w.copy()), ad.Tensor(b.copy()), groups=ng).data
    assert got.shape == (ng, 5, k * cg)
    assert got.tobytes() == want.tobytes()


def test_channel_attention_records_16_nodes():
    # Each grouped linear gathers its weight's diagonal blocks and reorders
    # its bias itself, so no gather or bias reshape node is recorded, and
    # _attend records three: the v slice, attention_weights and attn @ v.
    p = make_params(8, 4, seed=38)
    for t in (p.qkv_weight, p.qkv_bias, p.proj_weight, p.proj_bias):
        t.requires_grad = True
    with ad.Tape() as tape:
        at.channel_group_attention(ad.Tensor(np.ones((1, 2, 3, 8), np.float32), requires_grad=True), p)
    assert len(tape.nodes) == 16
    assert [node.op for node in tape.nodes].count("linear") == 2


@pytest.mark.parametrize("shape", [(1, 4, 4, 4), (2, 3, 4, 4)], ids=["b1", "b2_3x4"])
def test_channel_attention_grad(shape):
    rng = np.random.default_rng(32)
    x = rng.normal(size=shape)
    p64 = make_params(4, 2, seed=33, dtype=np.float64)

    def build(ts):
        p = at.AttentionParams(ts[1], ts[2], ts[3], ts[4], head_width=2)
        return ad.tensor_mean(at.channel_group_attention(ts[0], p))

    check_grads(build, [x, p64.qkv_weight.data, p64.qkv_bias.data,
                        p64.proj_weight.data, p64.proj_bias.data])


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation():
    with pytest.raises(ValueError):
        at.AttentionParams(ad.zeros((4, 8)), ad.zeros((12,)), ad.zeros((4, 4)), ad.zeros((4,)), 2)
    with pytest.raises(ValueError):
        at.AttentionParams(ad.zeros((4, 12)), ad.zeros((12,)), ad.zeros((4, 4)), ad.zeros((4,)), 3)
    with pytest.raises(ValueError):
        at.spatial_window_attention(ad.zeros((1, 4, 4, 6)), make_params(4, 2, 0), 2)
    with pytest.raises(ValueError, match="window_size"):
        at.spatial_window_attention(ad.zeros((1, 4, 4, 4)), make_params(4, 2, 0), 0)
