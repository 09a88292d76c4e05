import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from davit import autodiff as ad
from conftest import check_grads, rel_err


# ---------------------------------------------------------------------------
# creation


def test_zero_fill():
    t = ad.zeros((2, 3))
    assert t.shape == (2, 3)
    assert (t.data == 0).all()


def test_from_values_scalar_like():
    t = ad.from_values((1,), [7.0])
    assert t.shape == (1,)
    assert t.item() == 7.0


def test_from_values_length_mismatch():
    with pytest.raises(ValueError):
        ad.from_values((2, 2), [1.0, 2.0, 3.0])


def test_bad_extents_rejected():
    with pytest.raises(ValueError):
        ad.zeros((0, 3))
    with pytest.raises(ValueError):
        ad.zeros((2, -1))
    with pytest.raises(ValueError):
        ad.Tensor(np.zeros((0,)))


def test_trunc_normal_bound_and_determinism():
    a = ad.trunc_normal((4, 4), 0.0, 0.02, seed=1)
    b = ad.trunc_normal((4, 4), 0.0, 0.02, seed=1)
    assert (np.abs(a.data) <= 0.04).all()
    assert (a.data == b.data).all()
    c = ad.trunc_normal((4, 4), 0.0, 0.02, seed=2)
    assert (a.data != c.data).any()


def trunc_normal_whole_array(shape, mean, std, rng):
    # Every round re-masks the whole array: the reference for the draws.
    vals = rng.normal(mean, std, size=shape)
    bad = np.abs(vals - mean) > 2.0 * std
    while bad.any():
        vals[bad] = rng.normal(mean, std, size=int(bad.sum()))
        bad = np.abs(vals - mean) > 2.0 * std
    return vals


@pytest.mark.parametrize("shape", [(1,), (7, 5), (96, 288), (3, 4, 5, 6)])
@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("mean,std", [(0.0, 0.02), (1.5, 3.0), (0.0, 0.0)])
def test_trunc_normal_equals_whole_array_redraw(shape, seed, mean, std):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = trunc_normal_whole_array(shape, mean, std, ref_rng)
    got = ad.trunc_normal(shape, mean, std, rng=rng, dtype=np.float64)
    assert got.data.tobytes() == want.tobytes()
    # both consumed the same draws, so the generators end in the same state
    assert rng.normal() == ref_rng.normal()


def test_zero_dim_promoted():
    t = ad.Tensor(np.float32(3.5))
    assert t.shape == (1,)
    assert t.item() == 3.5


# ---------------------------------------------------------------------------
# matmul


def matmul_loops(a, b):
    # independent oracle: naive triple loop, batched or plain
    if a.ndim == 2:
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                for k in range(a.shape[1]):
                    out[i, j] += a[i, k] * b[k, j]
        return out
    return np.stack([matmul_loops(a[n], b[n]) for n in range(a.shape[0])])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(a.copy()))
    assert np.allclose(out.data, a)


def test_matmul_small_exact():
    a = ad.from_values((2, 2), [1, 2, 3, 4])
    b = ad.from_values((2, 1), [5, 6])
    out = ad.matmul(a, b)
    assert out.data.reshape(-1).tolist() == [17.0, 39.0]


def test_matmul_batched_scalar_products():
    a = ad.from_values((2, 1, 1), [2.0, 3.0])
    b = ad.from_values((2, 1, 1), [5.0, 7.0])
    out = ad.matmul(a, b)
    assert out.data.reshape(-1).tolist() == [10.0, 21.0]


def test_matmul_against_loop_oracle():
    rng = np.random.default_rng(7)
    shapes = [((4, 5), (5, 3)), ((8, 8), (8, 8)), ((2, 3, 4), (2, 4, 5)), ((8, 8, 8), (8, 8, 8))]
    for sa, sb in shapes:
        a = rng.normal(size=sa)
        b = rng.normal(size=sb)
        got = ad.matmul(ad.Tensor(a.copy()), ad.Tensor(b.copy())).data
        assert rel_err(got, matmul_loops(a, b)) < 1e-5


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        ad.matmul(ad.zeros((2, 3)), ad.zeros((4, 2)))
    with pytest.raises(ValueError):
        ad.matmul(ad.zeros((2, 3, 3)), ad.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        ad.matmul(ad.zeros((2, 2, 2, 2)), ad.zeros((2, 2)))
    # no broadcasting: a rank-2 operand needs a rank-2 partner
    with pytest.raises(ValueError, match="two rank-2 or two rank-3"):
        ad.matmul(ad.zeros((3, 4)), ad.zeros((6, 4, 2)))
    with pytest.raises(ValueError, match="two rank-2 or two rank-3"):
        ad.matmul(ad.zeros((6, 3, 4)), ad.zeros((4, 2)))


# ---------------------------------------------------------------------------
# linear


def group_blocks(w, b, groups):
    """The (G, K/G, N/G) diagonal blocks of w and the (G, N/G) bias, cut part by part."""
    k, n = w.shape
    kg = k // groups
    cols = [[slice(part * k + grp * kg, part * k + (grp + 1) * kg) for part in range(n // k)]
            for grp in range(groups)]
    blocks = np.stack([np.concatenate([w[grp * kg : (grp + 1) * kg, c] for c in cols[grp]], axis=1)
                       for grp in range(groups)])
    return blocks, np.stack([np.concatenate([b[c] for c in cols[grp]]) for grp in range(groups)])


def test_linear_rank2_equals_matmul_add_bitwise():
    rng = np.random.default_rng(33)
    # a dense (R, K) @ (K, N) + (N,) map, then one of 2 groups of a (6, 12) weight in 2 parts
    for x_shape, w_shape, groups in (((5, 7), (7, 3), 1), ((2, 5, 3), (6, 12), 2)):
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        b = rng.normal(size=w_shape[-1:]).astype(np.float32)
        got = ad.linear(ad.Tensor(x.copy()), ad.Tensor(w.copy()), ad.Tensor(b.copy()), groups=groups).data
        blocks, bias = group_blocks(w, b, groups) if groups > 1 else (w, b)
        want = ad.add(ad.matmul(ad.Tensor(x.copy()), ad.Tensor(blocks)), ad.Tensor(bias[..., None, :].copy())).data
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_linear_shape_errors():
    with pytest.raises(ValueError):
        ad.linear(ad.zeros((2, 3)), ad.zeros((4, 2)), ad.zeros((2,)))
    with pytest.raises(ValueError):
        ad.linear(ad.zeros((2, 3)), ad.zeros((3, 2)), ad.zeros((3,)))
    # w is always the dense (K, N) map: a (G, K, N) stack of group weights is no weight
    with pytest.raises(ValueError):
        ad.linear(ad.zeros((2, 5, 4)), ad.zeros((2, 4, 3)), ad.zeros((2, 3)))
    # grouped: x must lead with the group count and end in K / groups, and b stays (N,)
    with pytest.raises(ValueError, match="linear needs"):
        ad.linear(ad.zeros((3, 5, 2)), ad.zeros((4, 12)), ad.zeros((12,)), groups=2)
    with pytest.raises(ValueError, match="linear needs"):
        ad.linear(ad.zeros((2, 5, 4)), ad.zeros((4, 12)), ad.zeros((12,)), groups=2)
    with pytest.raises(ValueError, match="linear needs"):
        ad.linear(ad.zeros((2, 5, 2)), ad.zeros((4, 12)), ad.zeros((2, 6)), groups=2)
    # the groups must split K, and the columns must be whole parts of K
    for k, n, groups in ((4, 12, 3), (4, 6, 2), (4, 12, 0)):
        with pytest.raises(ValueError, match="cannot split"):
            ad.linear(ad.zeros((2, 5, 2)), ad.zeros((k, n)), ad.zeros((n,)), groups=groups)


def test_linear_nonfinite_output_raises():
    x, w = ad.ones((2, 3)), ad.ones((3, 2))
    b = ad.Tensor(np.array([0.0, np.inf], dtype=np.float32))
    with pytest.raises(ad.NonFiniteError, match="linear"):
        ad.linear(x, w, b)


# ---------------------------------------------------------------------------
# softmax / log_softmax, and attention_weights' masked, blocked softmax


def test_softmax_uniform():
    out = ad.softmax(ad.from_values((3,), [1, 1, 1]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_exact_arithmetic():
    out = ad.softmax(ad.from_values((2,), [0.0, math.log(2.0)], dtype=np.float64))
    assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)


def test_softmax_shift_invariance_no_overflow():
    out = ad.softmax(ad.from_values((2,), [1000.0, 1000.0]))
    assert np.allclose(out.data, [0.5, 0.5])
    rng = np.random.default_rng(3)
    x = rng.uniform(-1e4, 1e4, size=(5, 7))
    a = ad.softmax(ad.Tensor(x.copy()), axis=1).data
    b = ad.softmax(ad.Tensor(x + 123.456), axis=1).data
    assert np.abs(a.sum(axis=1) - 1).max() < 1e-6
    assert np.allclose(a, b, atol=1e-6)


def test_softmax_mask():
    qkv = ad.Tensor(np.random.default_rng(12).normal(size=(3, 1, 3, 2)).astype(np.float32))
    mask = np.array([[[True, True, False], [True, False, False], [True, True, True]]])
    out = ad.attention_weights(qkv, 0.5, mask)
    assert out.shape == (1, 3, 3)
    assert out.data[0, 0, 2] == 0.0
    assert out.data[0, 1, 1] == 0.0 and out.data[0, 1, 2] == 0.0
    assert out.data[0, 1, 0] == 1.0
    assert abs(out.data[0, 0, :2].sum() - 1.0) < 1e-6


def test_softmax_mask_all_false_slice():
    with pytest.raises(ValueError, match="excludes every key"):
        ad.attention_weights(ad.zeros((3, 1, 2, 2)), 1.0, np.array([[[True, True], [False, False]]]))


@pytest.mark.parametrize("shape", [(2, 3, 4), (2, 1, 3, 4), (3, 1, 3)])
def test_attention_weights_needs_a_qkv_stack(shape):
    with pytest.raises(ValueError, match=r"\(3, T, n, w\) q/k/v stack"):
        ad.attention_weights(ad.zeros(shape), 1.0)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 6))
    a = ad.log_softmax(ad.Tensor(x.copy()), axis=1).data
    b = np.log(ad.softmax(ad.Tensor(x.copy()), axis=1).data)
    assert np.allclose(a, b, atol=1e-6)


def softmax_formula(z, axis, mask=None):
    # The whole-array forward the blocked op must reproduce bitwise.
    if mask is not None:
        z = np.where(np.broadcast_to(mask, z.shape), z, -np.inf)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def window_key_mask(rng, t, n):
    mask = rng.random((t, 1, n)) < 0.7
    mask[:, :, 0] = True  # every query row keeps one key
    return mask


def attention_logits(qkv, scale):
    # q @ k^T, then the scale, as attention_weights forms its logits
    return (qkv[0] @ np.swapaxes(qkv[1], -1, -2)) * scale


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True])
def test_softmax_blocks_match_pieces_and_formula(dtype, masked):
    # 49 x 49 weights make blocks of 13 along T; 30 ends in a ragged 4
    rng = np.random.default_rng(40)
    step = ad._BLOCK // (49 * 49)
    t = 2 * step + 4
    qkv = rng.normal(0.0, 1.0, size=(3, t, 49, 16)).astype(dtype)
    mask = window_key_mask(rng, t, 49) if masked else None
    whole = ad.attention_weights(ad.Tensor(qkv.copy()), 0.25, mask).data
    assert whole.tobytes() == softmax_formula(attention_logits(qkv, 0.25), -1, mask).tobytes()
    cuts = [0, 5, step + 1, t]
    pieces = [ad.attention_weights(ad.Tensor(qkv[:, lo:hi].copy()), 0.25,
                                   None if mask is None else mask[lo:hi]).data
              for lo, hi in zip(cuts, cuts[1:])]
    assert whole.tobytes() == np.concatenate(pieces).tobytes()


@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_other_axes_match_formula(axis):
    z = np.random.default_rng(41).normal(size=(700, 60, 3)).astype(np.float32)
    got = ad.softmax(ad.Tensor(z.copy()), axis=axis).data
    assert got.tobytes() == softmax_formula(z, axis).tobytes()


def test_softmax_backward_equals_formula_bitwise():
    rng = np.random.default_rng(42)
    t = 2 * (ad._BLOCK // (49 * 49)) + 4
    qkv = rng.normal(size=(3, t, 49, 16)).astype(np.float32)
    w = rng.normal(size=(t, 49, 49)).astype(np.float32)
    mask = window_key_mask(rng, t, 49)
    x = ad.Tensor(qkv.copy(), requires_grad=True)
    with ad.Tape():
        ad.backward(ad.tensor_sum(ad.mul(ad.attention_weights(x, 0.25, mask), ad.Tensor(w.copy()))))
    s = softmax_formula(attention_logits(qkv, 0.25), -1, mask)
    dl = s * (w - (w * s).sum(axis=-1, keepdims=True)) * 0.25
    want = np.zeros_like(qkv)
    want[0] = dl @ qkv[1] + 0.0
    want[1] = np.swapaxes(np.swapaxes(qkv[0], -1, -2) @ dl, -1, -2) + 0.0
    assert x.grad.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# conv2d


def conv_loops(x, w, stride, pad4):
    # independent oracle: direct sliding-window accumulation, NCHW in and out
    top, bottom, left, right = pad4
    xp = np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))
    n, cin, hp, wp = xp.shape
    cout, _, k, _ = w.shape
    oh = (hp - k) // stride + 1
    ow = (wp - k) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for b in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[b, co, i, j] = (patch * w[co]).sum()
    return out


def test_conv_table_shape_300_to_75():
    x = ad.zeros((1, 300, 300, 3))
    w = ad.zeros((96, 3, 7, 7))
    out = ad.conv2d(x, w, ad.zeros((96,)), stride=4, pad=3)
    assert out.shape == (1, 75, 75, 96)


def test_conv_all_ones_147():
    x = ad.ones((1, 9, 9, 3))
    w = ad.ones((1, 3, 7, 7))
    out = ad.conv2d(x, w, ad.zeros((1,)), stride=1, pad=0)
    assert out.shape == (1, 3, 3, 1)
    assert (out.data == 147.0).all()


def test_conv_1x1_equals_channel_matmul():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 5, 5, 4))
    w = rng.normal(size=(6, 4, 1, 1))
    b = rng.normal(size=(6,))
    got = ad.conv2d(ad.Tensor(x.copy()), ad.Tensor(w.copy()), ad.Tensor(b.copy())).data
    # oracle: per-pixel channel mixing via matmul, plus the bias
    want = np.einsum("nhwc,oc->nhwo", x, w[:, :, 0, 0]) + b
    assert rel_err(got, want) < 1e-5


def test_conv_against_loop_oracle():
    rng = np.random.default_rng(9)
    cases = [
        ((1, 2, 6, 6), (3, 2, 3, 3), 1, (0, 0, 0, 0)),
        ((2, 3, 8, 7), (4, 3, 2, 2), 2, (0, 1, 0, 1)),
        ((1, 1, 5, 5), (2, 1, 3, 3), 2, (1, 1, 1, 1)),
    ]
    for xs, ws, stride, pad4 in cases:
        x = rng.normal(size=xs)
        w = rng.normal(size=ws)
        b = rng.normal(size=ws[:1])
        got = ad.conv2d(ad.Tensor(x.transpose(0, 2, 3, 1).copy()), ad.Tensor(w.copy()),
                        ad.Tensor(b.copy()), stride=stride, pad=pad4).data
        want = conv_loops(x, w, stride, pad4).transpose(0, 2, 3, 1) + b
        assert rel_err(got, want) < 1e-5


def test_conv_kernel_too_large():
    with pytest.raises(ValueError):
        ad.conv2d(ad.zeros((1, 4, 4, 1)), ad.zeros((1, 1, 7, 7)), ad.zeros((1,)), stride=1, pad=0)


def test_conv_input_without_grad_keeps_weight_grads_bitwise():
    # dx is formed only for an input that needs it; the w and b gradients
    # do not depend on whether it was formed
    rng = np.random.default_rng(37)
    x = rng.normal(size=(2, 7, 7, 3)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=(4,)).astype(np.float32)
    g = rng.normal(size=(2, 3, 3, 4)).astype(np.float32)
    grads = []
    for x_grad in (True, False):
        ts = [ad.Tensor(x.copy(), requires_grad=x_grad), ad.Tensor(w.copy(), requires_grad=True),
              ad.Tensor(b.copy(), requires_grad=True)]
        with ad.Tape():
            out = ad.conv2d(*ts, stride=2, pad=(1, 0, 1, 0))
            ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(g.copy()))))
        grads.append(ts)
    (xa, wa, ba), (xb, wb, bb) = grads
    assert xa.grad is not None and xb.grad is None
    assert wa.grad.tobytes() == wb.grad.tobytes()
    assert ba.grad.tobytes() == bb.grad.tobytes()


@pytest.mark.parametrize("ng, k", [(1, 1), (3, 3), (2, 1)])
def test_grouped_linear_grad_is_upstream_on_blocks_and_zero_off(ng, k):
    # each group's input is the identity, so its block of dW is the upstream gradient itself
    rng = np.random.default_rng(38)
    cg = 4
    c = ng * cg
    x = ad.Tensor(np.tile(np.eye(cg, dtype=np.float32), (ng, 1, 1)))
    w = ad.Tensor(rng.normal(size=(c, k * c)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(k * c,)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(ng, cg, k * cg)).astype(np.float32)
    with ad.Tape():
        out = ad.linear(x, w, b, groups=ng)
        ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(g.copy()))))
    want, want_b, g_rows = np.zeros((c, k * c), np.float32), np.zeros(k * c, np.float32), g.sum(axis=1)
    for grp in range(ng):
        rows = slice(grp * cg, (grp + 1) * cg)
        for part in range(k):
            cols, parts = slice(part * c + grp * cg, part * c + (grp + 1) * cg), slice(part * cg, (part + 1) * cg)
            want[rows, cols] = g[grp, :, parts]
            want_b[cols] = g_rows[grp, parts]
    assert w.grad.tobytes() == want.tobytes()
    assert b.grad.tobytes() == want_b.tobytes()


# ---------------------------------------------------------------------------
# layer_norm / gelu


def test_layer_norm_constant_row():
    g = ad.ones((3,))
    b = ad.zeros((3,))
    out = ad.layer_norm(ad.from_values((3,), [5, 5, 5]), g, b)
    assert np.allclose(out.data, 0.0, atol=1e-3)


def test_layer_norm_two_values():
    g = ad.ones((2,))
    b = ad.zeros((2,))
    out = ad.layer_norm(ad.from_values((2,), [1.0, 3.0], dtype=np.float64), g, b, eps=1e-12)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_layer_norm_statistics():
    rng = np.random.default_rng(13)
    x = rng.normal(2.0, 3.0, size=(4, 16))
    out = ad.layer_norm(ad.Tensor(x), ad.ones((16,), dtype=np.float64), ad.zeros((16,), dtype=np.float64)).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4


def test_layer_norm_bad_eps():
    with pytest.raises(ValueError):
        ad.layer_norm(ad.zeros((2, 3)), ad.ones((3,)), ad.zeros((3,)), eps=0.0)


def layer_norm_formula(x, gamma, beta, eps=1e-5):
    # The whole-array forward the blocked op must reproduce bitwise.
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gamma + beta, xhat, inv


def layer_norm_inputs(dtype, seed):
    # 96 channels make blocks of 341 rows; 3 x 229 = 687 rows end in a ragged 5
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 3.0, size=(3, 229, 96)).astype(dtype)
    gamma = rng.normal(1.0, 0.5, size=96).astype(dtype)
    beta = rng.normal(0.0, 0.5, size=96).astype(dtype)
    return x, gamma, beta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_blocks_match_pieces_and_formula(dtype):
    x, gamma, beta = layer_norm_inputs(dtype, 43)
    assert x.reshape(-1, 96).shape[0] % (ad._BLOCK // 96) == 5
    whole = ad.layer_norm(ad.Tensor(x.copy()), ad.Tensor(gamma), ad.Tensor(beta)).data
    assert whole.tobytes() == layer_norm_formula(x, gamma, beta)[0].tobytes()
    rows = x.reshape(-1, 96)
    cuts = [0, 7, ad._BLOCK // 96 + 3, rows.shape[0]]
    pieces = [ad.layer_norm(ad.Tensor(rows[lo:hi].copy()), ad.Tensor(gamma), ad.Tensor(beta)).data
              for lo, hi in zip(cuts, cuts[1:])]
    assert whole.reshape(-1, 96).tobytes() == np.concatenate(pieces).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_backward_equals_formula_bitwise(dtype):
    x, gamma, beta = layer_norm_inputs(dtype, 44)
    w = np.random.default_rng(45).normal(size=x.shape).astype(dtype)
    ts = [ad.Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
    with ad.Tape():
        ad.backward(ad.tensor_sum(ad.mul(ad.layer_norm(*ts), ad.Tensor(w.copy()))))
    _, xhat, inv = layer_norm_formula(x, gamma, beta)
    n = 96
    dxhat = w * gamma
    dx = (inv / n) * (n * dxhat - dxhat.sum(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    assert ts[0].grad.tobytes() == dx.tobytes()
    assert ts[1].grad.tobytes() == (w * xhat).reshape(-1, n).sum(axis=0).tobytes()
    assert ts[2].grad.tobytes() == w.reshape(-1, n).sum(axis=0).tobytes()


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees while fn(*args) runs, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del out
    return peak


def test_off_tape_forward_peaks_stay_near_output_size():
    # Off a tape, gelu keeps no derivative and layer_norm no x-hat: the output plus
    # cache-sized block buffers is all the memory these forwards take.
    rng = np.random.default_rng(46)
    x = ad.Tensor(rng.normal(size=(4096, 96)).astype(np.float32))
    g, b = ad.ones((96,)), ad.zeros((96,))
    assert traced_peak(ad.layer_norm, x, g, b) <= 1.5 * x.data.nbytes
    for dtype in (np.float32, np.float64):
        x = ad.Tensor(rng.normal(size=1 << 20).astype(dtype))
        assert traced_peak(ad.gelu, x) <= 1.5 * x.data.nbytes
    qkv = ad.Tensor(rng.normal(size=(3, 512, 49, 16)).astype(np.float32))
    mask = window_key_mask(rng, 512, 49)
    assert traced_peak(ad.attention_weights, qkv, 0.25, mask) <= 1.5 * 512 * 49 * 49 * 4


def test_gelu_f64_forward_peak_below_3x_input():
    # math.erf makes one Python float per value; blocks bound those temporaries
    x = ad.Tensor(np.random.default_rng(47).normal(size=1 << 20), requires_grad=True)
    with ad.Tape():
        assert traced_peak(ad.gelu, x) < 3 * x.data.nbytes


def test_gelu_values():
    x = ad.from_values((3,), [0.0, 10.0, 1.0], dtype=np.float64)
    out = ad.gelu(x).data
    assert out[0] == 0.0
    assert abs(out[1] - 10.0) < 1e-6
    # oracle: standard normal CDF
    phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(out[2] - 1.0 * phi1) < 1e-6
    assert abs(out[2] - 0.841345) < 1e-6


# float32 gelu (Abramowitz & Stegun 7.1.26) against the float64 exact-erf path:
# the docstring bounds the float32 Phi error by 5e-7, so |gelu error| <= 5e-7 * |x|
def test_gelu_f32_matches_exact_erf():
    half_steps = np.arange(0.5, 6.01, 0.5)
    grid = np.concatenate([[0.0, 1e-6, -1e-6, 1e4, -1e4, 1e30, -1e30], half_steps, -half_steps])
    x32 = grid.astype(np.float32)
    out = ad.gelu(ad.Tensor(x32)).data
    assert out.dtype == np.float32
    ref = ad.gelu(ad.Tensor(x32.astype(np.float64))).data
    assert (np.abs(out - ref) <= 5e-7 * np.abs(x32.astype(np.float64))).all()
    assert out[0] == 0.0


def test_gelu_f32_blocks_match_pieces():
    x = np.random.default_rng(30).normal(0.0, 3.0, size=ad._BLOCK + 3).astype(np.float32)
    whole = ad.gelu(ad.Tensor(x)).data
    cuts = [0, 5, ad._BLOCK + 1, x.size]
    pieces = [ad.gelu(ad.Tensor(x[lo:hi].copy())).data for lo, hi in zip(cuts, cuts[1:])]
    assert whole.tobytes() == np.concatenate(pieces).tobytes()


def test_gelu_f32_noncontiguous_input():
    x = np.random.default_rng(31).normal(size=(40, 70)).astype(np.float32).T
    assert not x.flags.c_contiguous
    out = ad.gelu(ad.Tensor(x)).data
    assert out.tobytes() == ad.gelu(ad.Tensor(np.ascontiguousarray(x))).data.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_backward_equals_formula_bitwise(dtype):
    rng = np.random.default_rng(32)
    # the second shape spans more than two blocks and ends inside a third, so
    # the derivative the forward stores crosses block edges
    for shape in ((6, 50), (3, ad._BLOCK - 7)):
        x = ad.Tensor(rng.normal(0.0, 2.0, size=shape).astype(dtype), requires_grad=True)
        w = rng.normal(size=shape).astype(dtype)
        with ad.Tape():
            loss = ad.tensor_sum(ad.mul(ad.gelu(x), ad.Tensor(w.copy())))
            ad.backward(loss)
        xd = x.data
        if dtype == np.float32:
            phi, scratch = np.empty_like(xd), np.empty_like(xd)
            ad._as_phi(xd, phi, scratch)
        else:
            phi = 0.5 * (1.0 + ad._ERF(xd * ad._INV_SQRT2).astype(np.float64))
        pdf = np.exp(-0.5 * xd * xd) * ad._INV_SQRT2PI
        want = w * (phi + xd * pdf)
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == want.tobytes()


def test_gelu_f64_erf_within_4_ulp_of_scipy():
    # scipy is a test-only dependency: the independent reference for math.erf
    x = np.concatenate([np.linspace(-40.0, 40.0, 400_001),
                        np.geomspace(1e-300, 40.0, 20_001), -np.geomspace(1e-300, 40.0, 20_001),
                        np.random.default_rng(35).normal(0.0, 3.0, 200_000)])
    z = x * ad._INV_SQRT2
    got = ad._ERF(z).astype(np.float64)
    want = special.erf(z)
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert ulps.max() <= 4.0


def test_gelu_f64_runs_without_scipy():
    # A fresh interpreter in which every scipy import fails.
    src_dir = Path(ad.__file__).resolve().parents[1]
    script = textwrap.dedent("""
        import math, sys
        sys.modules["scipy"] = None
        import numpy as np
        import davit
        from davit import autodiff as ad
        x = ad.Tensor(np.array([-3.0, -1.0, 0.0, 0.5, 2.0]), requires_grad=True)
        with ad.Tape():
            y = ad.gelu(x)
            ad.backward(ad.tensor_sum(y))
        for xi, yi, gi in zip(x.data, y.data, x.grad):
            phi = 0.5 * (1.0 + math.erf(xi / math.sqrt(2.0)))
            pdf = math.exp(-0.5 * xi * xi) / math.sqrt(2.0 * math.pi)
            assert abs(yi - xi * phi) <= 1e-15, (xi, yi)
            assert abs(gi - (phi + xi * pdf)) <= 1e-15, (xi, gi)
        assert not any(name.startswith("scipy.") for name in sys.modules)
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_gelu_backward_huge_input_does_not_overflow():
    # x * x is inf in float32 past 1.8e19; the gradient there is exactly 1
    x = ad.Tensor(np.array([1e20, 1.0], dtype=np.float32), requires_grad=True)
    with ad.Tape():
        loss = ad.tensor_sum(ad.gelu(x))
        ad.backward(loss)
    assert x.grad[0] == 1.0
    assert abs(x.grad[1] - 1.0833155) < 1e-6


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = ad.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    with ad.Tape():
        loss = ad.tensor_sum(x)
        ad.backward(loss)
    assert (x.grad == 1).all()


def test_backward_dot_gives_other():
    xv = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    yv = np.array([4.0, 5.0, 6.0], dtype=np.float32)
    x = ad.Tensor(xv.copy(), requires_grad=True)
    y = ad.Tensor(yv.copy(), requires_grad=True)
    with ad.Tape():
        loss = ad.tensor_sum(ad.mul(x, y))
        ad.backward(loss)
    assert np.allclose(x.grad, yv)
    assert np.allclose(y.grad, xv)


def test_backward_accumulates_across_uses():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    with ad.Tape():
        loss = ad.tensor_sum(ad.add(ad.mul(x, x), x))  # x^2 + x
        ad.backward(loss)
    assert np.allclose(x.grad, [5.0])  # 2x + 1 at x=2


def test_backward_shared_gradient_is_not_written_in_place():
    # The outer add hands one gradient array to a and to the inner add, which
    # hands it on to a and b; accumulating into a's .grad in place would
    # change b's to 2.
    a = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = ad.Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
    with ad.Tape():
        loss = ad.tensor_sum(ad.add(ad.add(a, b), a))
        ad.backward(loss)
    assert (a.grad == 2.0).all()
    assert (b.grad == 1.0).all()


def linear_loss(x, w, b):
    with ad.Tape():
        return ad.tensor_sum(ad.linear(x, w, b))


def test_backward_adds_into_owned_weight_gradient_in_place():
    # linear hands over a fresh dW, so the weight owns its .grad and a second
    # backward adds its dW in place instead of also allocating the sum
    rng = np.random.default_rng(51)
    x = ad.Tensor(rng.normal(size=(4, 1024)).astype(np.float32))
    w = ad.Tensor(rng.normal(size=(1024, 1024)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(np.zeros(1024, np.float32), requires_grad=True)
    first = traced_peak(ad.backward, linear_loss(x, w, b))
    owned, dw = w.grad, w.grad.copy()
    second = traced_peak(ad.backward, linear_loss(x, w, b))
    assert second <= first + x.data.nbytes
    assert w.grad is owned and w.grad.tobytes() == (dw + dw).tobytes()


def test_backward_never_writes_a_caller_assigned_gradient():
    rng = np.random.default_rng(52)
    x = ad.Tensor(rng.normal(size=(3, 8)))
    w = ad.Tensor(rng.normal(size=(8, 5)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=5), requires_grad=True)
    ad.backward(linear_loss(x, w, b))
    dw, db = w.grad.copy(), b.grad.copy()
    earlier = w.grad  # still alive, so w's earlier backward left it owning this array
    mine = {w: rng.normal(size=(8, 5)), b: rng.normal(size=5)}
    kept = {t: g.copy() for t, g in mine.items()}
    w.grad, b.grad = mine[w], mine[b]
    ad.backward(linear_loss(x, w, b))
    assert earlier.tobytes() == dw.tobytes()
    for t, g in ((w, dw), (b, db)):
        assert mine[t].tobytes() == kept[t].tobytes()
        assert t.grad.tobytes() == (kept[t] + g).tobytes()
    # releasing .grad frees the array the tensor owned
    w.grad = None
    ad.backward(linear_loss(x, w, b))
    owned = weakref.ref(w.grad)
    w.grad = None
    assert owned() is None


def test_backward_wider_gradient_onto_owned_one_promotes():
    # a float64 gradient onto an owned float32 one is summed out of place,
    # as t.grad + g promotes it, not rounded into the float32 array
    w = ad.Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    b = ad.Tensor(np.zeros(2, np.float32), requires_grad=True)
    ad.backward(linear_loss(ad.Tensor(np.full((1, 2), 0.1, np.float32)), w, b))
    owned = w.grad.copy()
    with ad.Tape():
        ad.backward(ad.tensor_sum(ad.add(w, ad.Tensor(np.zeros((2, 2))))))
    assert w.grad.tobytes() == (owned + np.ones((2, 2))).tobytes()


def test_backward_detached_rejected():
    x = ad.Tensor(np.array([1.0]), requires_grad=True)
    out = ad.scale(x, 2.0)  # no tape active
    with pytest.raises(ad.GraphError):
        ad.backward(out)


def test_backward_replay_rejected():
    x = ad.Tensor(np.array([1.0]), requires_grad=True)
    with ad.Tape():
        loss = ad.scale(x, 2.0)
        ad.backward(loss)
        with pytest.raises(ad.GraphError):
            ad.backward(loss)


def test_backward_nonscalar_rejected():
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with ad.Tape():
        out = ad.scale(x, 2.0)
        with pytest.raises(ValueError):
            ad.backward(out)


def test_backward_releases_each_node():
    # x -> scale -> scale -> sum: by the time the first node replays, the
    # later nodes are gone and nothing holds the middle output any more.
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape():
        middle = ad.scale(ad.scale(x, 2.0), 3.0)
        loss = ad.tensor_sum(middle)
    middle_data = weakref.ref(middle.data)
    del middle
    first = loss._tape.nodes[0]
    run = first.run
    released = []

    def probe(g, *ins):
        released.append(middle_data() is None)
        run(g, *ins)

    first.run = probe
    del first
    ad.backward(loss)
    assert released == [True]
    assert (x.grad == 6.0).all()


# op: (input shapes, the op on those inputs, which inputs its backward keeps,
# whether it keeps its output). Each backward keeps only the arrays its formula
# reads: both operands of mul and matmul, linear's x and w (grouped, the copy of
# w's diagonal blocks instead), layer_norm's gamma, conv2d's weight matrix (a
# view of w), the q/k/v stack of attention_weights (q and k are views of it),
# the output of softmax, log_softmax and attention_weights. slice keeps its
# source only when the source is not C-contiguous, whose layout the gradient
# buffer then copies.
RETENTION_CASES = {
    "add": ([(2, 3), (1, 3)], ad.add, [False, False], False),
    "mul": ([(2, 3), (2, 3)], ad.mul, [True, True], False),
    "scale": ([(2, 3)], lambda a: ad.scale(a, 3.0), [False], False),
    "reshape_copy": ([(2, 3)], lambda a: ad.reshape(ad.transpose(a, (1, 0)), (6,)), [False], False),
    "transpose": ([(2, 3, 4)], lambda a: ad.transpose(a, (2, 0, 1)), [False], False),
    "pad": ([(2, 3)], lambda a: ad.pad(a, ((1, 0), (0, 2))), [False], False),
    "sum": ([(2, 3)], lambda a: ad.tensor_sum(a, axis=1), [False], False),
    "slice": ([(3, 4)], lambda a: a[1:, ::2], [False], False),
    "slice_strided": ([(3, 4)], lambda a: ad.transpose(a, (1, 0))[1:, ::2], [True], False),
    "matmul": ([(2, 3), (3, 4)], ad.matmul, [True, True], False),
    "linear": ([(2, 3, 4), (4, 5), (5,)], ad.linear, [True, True, False], False),
    "linear_grouped": ([(2, 3, 2), (4, 8), (8,)], lambda x, w, b: ad.linear(x, w, b, groups=2),
                       [True, False, False], False),
    "softmax": ([(2, 5)], ad.softmax, [False], True),
    "attention_weights": ([(3, 2, 4, 3)], lambda a: ad.attention_weights(a, 0.5), [True], True),
    "log_softmax": ([(2, 5)], ad.log_softmax, [False], True),
    "gelu": ([(2, 5)], ad.gelu, [False], False),
    "layer_norm": ([(2, 5), (5,), (5,)], ad.layer_norm, [False, True, False], False),
    "conv2d": ([(1, 5, 5, 2), (3, 2, 3, 3), (3,)], lambda x, w, b: ad.conv2d(x, w, b, pad=1),
               [False, True, False], False),
}


def recorded_op_grads(shapes, op, drop):
    """Leaf gradients of sum(op(inputs)), each input a recorded copy of a leaf.

    With drop, the caller's references to the inputs and the output go
    before backward; the weak references to their arrays are returned
    alive or dead as the tape left them.
    """
    rng = np.random.default_rng(60)
    leaves = [ad.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    with ad.Tape():
        inputs = [ad.scale(t, 1.0) for t in leaves]  # each owns a fresh array
        out = op(*inputs)
        parts = out if isinstance(out, tuple) else (out,)
        sums = [ad.tensor_sum(part) for part in parts]
        loss = sums[0] if len(sums) == 1 else ad.add(*sums)
    refs = ([weakref.ref(t.data) for t in inputs], [weakref.ref(p.data) for p in parts])
    if drop:
        del inputs, out, parts
    alive = ([r() is not None for r in refs[0]], [r() is not None for r in refs[1]])
    assert not loss._tape.consumed and loss._tape.nodes
    ad.backward(loss)
    return alive, [t.grad for t in leaves]


@pytest.mark.parametrize("name", RETENTION_CASES)
def test_tape_keeps_only_what_backward_reads(name):
    shapes, op, inputs_kept, out_kept = RETENTION_CASES[name]
    (inputs_alive, outs_alive), grads = recorded_op_grads(shapes, op, drop=True)
    assert inputs_alive == inputs_kept
    assert outs_alive == [out_kept] * len(outs_alive)
    _, want = recorded_op_grads(shapes, op, drop=False)
    for got, ref in zip(grads, want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", RETENTION_CASES)
def test_backward_closures_hold_no_tensor(name):
    # the node hands run its inputs' slots, so a closure holds arrays and shapes only
    shapes, op, _, _ = RETENTION_CASES[name]
    leaves = [ad.Tensor(np.ones(s), requires_grad=True) for s in shapes]
    with ad.Tape() as tape:
        inputs = [ad.scale(t, 1.0) for t in leaves]
        op(*inputs)
    nodes = tape.nodes[len(inputs):]
    assert nodes
    for node in nodes:
        for cell in node.run.__closure__ or ():
            try:
                held = cell.cell_contents
            except ValueError:  # a name the op binds only on another path (linear's groups > 1)
                continue
            assert not isinstance(held, ad.Tensor), node.op


def test_recorded_outputs_keep_no_grad():
    # gradients land on leaves; the loss and every recorded output keep .grad None
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape():
        middle = ad.scale(x, 2.0)
        loss = ad.tensor_sum(middle)
        ad.backward(loss)
    assert middle.grad is None and loss.grad is None
    assert (x.grad == 2.0).all()


def test_no_tape_means_no_recording():
    x = ad.Tensor(np.array([1.0]), requires_grad=True)
    out = ad.scale(x, 2.0)
    assert out._tape is None and not out.requires_grad


def test_nonfinite_forward_rejected():
    big = ad.Tensor(np.array([1e300], dtype=np.float64))
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
        ad.mul(big, big)


def test_nonfinite_passes_movement_ops_and_raises_at_arithmetic():
    leaf = ad.Tensor(np.array([[1.0, np.nan, 2.0], [3.0, 4.0, 5.0]], dtype=np.float32))
    moved = ad.pad(ad.transpose(ad.reshape(leaf, (3, 2)), (1, 0)), ((0, 0), (1, 1)))[:, 1:4]
    assert np.isnan(moved.data).any()
    with pytest.raises(ad.NonFiniteError, match="add"):
        ad.add(moved, moved)


def test_finite_output_whose_squares_overflow_passes_silently():
    # 1e20 ** 2 overflows float32, so the one-dot check falls back to the scan
    x = ad.Tensor(np.full((4, 8), 1e20, dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.scale(x, 1.0)
    assert (out.data == np.float32(1e20)).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("transposed", [False, True])
def test_nonfinite_raises_in_any_layout(dtype, bad, transposed):
    data = np.random.default_rng(48).normal(size=(37, 41)).astype(dtype)
    data[36, 40] = bad
    if transposed:
        data = data.T
    assert (data * 1.0).flags.c_contiguous == (not transposed)
    with pytest.raises(ad.NonFiniteError, match="scale produced non-finite"):
        ad.scale(ad.Tensor(data), 1.0)
    # a strided view is not dense in any order: ravel copies, the check stays exact
    with pytest.raises(ad.NonFiniteError, match="scale produced non-finite"):
        ad._ensure_finite(data[:, ::2], "scale")


def test_finite_check_of_dense_transposed_output_allocates_nothing():
    data = np.random.default_rng(49).normal(size=(1024, 1024)).astype(np.float32).T
    assert not data.flags.c_contiguous
    assert traced_peak(ad._ensure_finite, data, "scale") < data.nbytes / 8


# ---------------------------------------------------------------------------
# finite-difference gradient checks (64-bit, step 1e-5, rel err < 1e-4)


def test_grad_add_mul_broadcast():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.add(ts[0], ts[1]), ts[0])), [a, b])


def test_grad_scale_neg_sub():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 3))
    check_grads(lambda ts: ad.tensor_sum(ad.add(ad.scale(ts[0], 2.5), ad.scale(ts[1], -1.0))), [a, b])


def test_grad_matmul_plain_and_batched():
    rng = np.random.default_rng(23)
    check_grads(lambda ts: ad.tensor_sum(ad.matmul(ts[0], ts[1])),
                [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])
    check_grads(lambda ts: ad.tensor_sum(ad.matmul(ts[0], ts[1])),
                [rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 2, 3))])


@pytest.mark.parametrize("shape, w_shape, groups",
                         [((3, 4), (4, 3), 1), ((2, 12, 4), (4, 3), 1), ((2, 5, 2), (4, 12), 2), ((2, 5, 2), (4, 4), 2)],
                         ids=["rank2", "b2_3x4", "grouped2_3parts", "grouped2_1part"])
def test_grad_linear(shape, w_shape, groups):
    rng = np.random.default_rng(34)
    weights = rng.normal(size=shape[:-1] + (w_shape[1] // groups,))
    check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.linear(ts[0], ts[1], ts[2], groups=groups),
                                                ad.Tensor(weights.copy()))),
                [rng.normal(size=shape), rng.normal(size=w_shape), rng.normal(size=w_shape[-1:])])


def test_grad_reshape_transpose_pad_slice():
    rng = np.random.default_rng(24)
    a = rng.normal(size=(2, 3, 4))

    def build(ts):
        t = ad.transpose(ad.reshape(ts[0], (6, 4)), (1, 0))
        t = ad.pad(t, ((1, 0), (0, 2)))
        return ad.tensor_sum(ad.mul(t[1:4, 2:7], t[1:4, 2:7]))

    check_grads(build, [a])


@pytest.mark.parametrize("idx", [np.array([0, 1]), [0, 1], True, np.True_, (slice(None), np.array([1]))],
                         ids=["int_array", "list", "bool", "np_bool", "tuple_with_array"])
def test_slice_rejects_advanced_indices(idx):
    t = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with pytest.raises(IndexError, match="tensor indices must be"):
        t[idx]


def test_slice_takes_numpy_ints_none_and_ellipsis():
    t = ad.Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    with ad.Tape():
        s = t[np.int64(1), None, ..., 2]
        ad.backward(ad.tensor_sum(s))
    assert s.shape == (1, 3)
    assert s.data.tolist() == [[14.0, 18.0, 22.0]]
    assert t.grad.sum() == 3.0 and (t.grad[1, :, 2] == 1.0).all()


def test_grad_sum_mean_axes():
    rng = np.random.default_rng(25)
    a = rng.normal(size=(3, 4, 2))
    check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.tensor_mean(ts[0], axis=1, keepdims=True), ts[0])), [a])
    check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.tensor_sum(ts[0], axis=(0, 2)), ad.tensor_sum(ts[0], axis=(0, 2)))), [a])


def test_grad_softmax_and_log_softmax():
    rng = np.random.default_rng(26)
    a = rng.normal(size=(4, 5))
    w = rng.normal(size=(4, 5))
    check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.softmax(ts[0], axis=1), ad.Tensor(w.copy()))), [a])
    check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.log_softmax(ts[0], axis=1), ad.Tensor(w.copy()))), [a])


def test_grad_softmax_masked():
    # attention_weights, with and without a key mask
    rng = np.random.default_rng(27)
    qkv = rng.normal(size=(3, 2, 4, 3))
    w = rng.normal(size=(2, 4, 4))
    for mask in (np.array([[[True, True, True, False]], [[True, False, True, True]]]), None):
        check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.attention_weights(ts[0], 0.7, mask), ad.Tensor(w.copy()))),
                    [qkv])


def test_grad_gelu():
    rng = np.random.default_rng(28)
    a = rng.normal(size=(2, 8))
    check_grads(lambda ts: ad.tensor_sum(ad.gelu(ts[0])), [a])


def test_grad_layer_norm():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(3, 6))
    g = rng.normal(1.0, 0.1, size=(6,))
    b = rng.normal(0.0, 0.1, size=(6,))
    w = rng.normal(size=(3, 6))
    check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.layer_norm(ts[0], ts[1], ts[2]), ad.Tensor(w.copy()))),
                [x, g, b])


def test_grad_conv2d():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(1, 4, 4, 2))
    w = rng.normal(size=(2, 2, 3, 3))
    b = rng.normal(size=(2,))
    check_grads(lambda ts: ad.tensor_sum(ad.conv2d(ts[0], ts[1], ts[2], stride=1, pad=1)), [x, w, b])
    x2 = rng.normal(size=(1, 5, 5, 1))
    w2 = rng.normal(size=(2, 1, 2, 2))
    b2 = rng.normal(size=(2,))
    check_grads(lambda ts: ad.tensor_sum(ad.conv2d(ts[0], ts[1], ts[2], stride=2, pad=(0, 1, 0, 1))),
                [x2, w2, b2])


# ---------------------------------------------------------------------------
# determinism


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    bias = rng.normal(size=(4,)).astype(np.float32)
    a = ad.conv2d(ad.Tensor(x.copy()), ad.Tensor(w.copy()), ad.Tensor(bias.copy()), stride=1, pad=1).data
    b = ad.conv2d(ad.Tensor(x.copy()), ad.Tensor(w.copy()), ad.Tensor(bias.copy()), stride=1, pad=1).data
    assert (a == b).all()
    s1 = ad.softmax(ad.Tensor(x.copy()), axis=1).data
    s2 = ad.softmax(ad.Tensor(x.copy()), axis=1).data
    assert (s1 == s2).all()


# ---------------------------------------------------------------------------
# argument checks


def _conv(x=(1, 4, 4, 2), w=(3, 2, 2, 2), b=(3,), **kw):
    return lambda: ad.conv2d(ad.zeros(x), ad.zeros(w), ad.zeros(b), **kw)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ad.zeros((2,)).item(), r"item\(\) needs a single-element tensor, got shape \(2,\)",
                 id="item"),
    pytest.param(lambda: ad.zeros(None), "shape must be a sequence of integers, got None", id="shape_type"),
    pytest.param(lambda: ad.zeros(()), "shape needs at least one extent", id="shape_empty"),
    pytest.param(lambda: ad.trunc_normal((2,), std=-1.0), r"std must be >= 0, got -1\.0", id="std"),
    pytest.param(lambda: ad.transpose(ad.zeros((2, 3)), (0, 0)), r"invalid permutation \(0, 0\) for rank 2",
                 id="transpose_axes"),
    pytest.param(lambda: ad.pad(ad.zeros((2, 3)), [(0, 0)]), "pad_width has 1 pairs for rank 2",
                 id="pad_width_rank"),
    pytest.param(lambda: ad.pad(ad.zeros((2, 3)), [(0, 0), (-1, 0)]),
                 r"pad amounts must be >= 0, got \(\(0, 0\), \(-1, 0\)\)", id="pad_width_negative"),
    pytest.param(lambda: ad.layer_norm(ad.zeros((2, 3)), ad.ones((2,)), ad.zeros((3,))),
                 r"gamma/beta must have shape \(3,\), got \(2,\) and \(3,\)", id="layer_norm_gamma"),
    pytest.param(_conv(pad=-1), "pad must be >= 0, got -1", id="conv_pad"),
    pytest.param(_conv(pad=(0, 0, -1, 0)), r"pad amounts must be >= 0, got \(0, 0, -1, 0\)",
                 id="conv_pad_amounts"),
    pytest.param(_conv(x=(4, 4, 2)), "conv2d expects rank-4 input and kernel", id="conv_rank"),
    pytest.param(_conv(w=(3, 2, 2, 1)), r"conv2d kernel must be square, got \(3, 2, 2, 1\)",
                 id="conv_kernel"),
    pytest.param(_conv(b=(2,)), r"conv2d needs x \(\.\.\., 2\) and b \(3,\)", id="conv_bias"),
    pytest.param(_conv(stride=0), "stride must be >= 1, got 0", id="conv_stride"),
])
def test_bad_argument_raises_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()
