import math
import weakref

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


def test_zero_dim_promoted():
    t = ad.Tensor(np.float32(3.5))
    assert t.shape == (1,)
    assert t.item() == 3.5


# ---------------------------------------------------------------------------
# matmul


def matmul_loops(a, b):
    # independent oracle: naive triple loop, batched or plain
    if a.ndim == 2 and b.ndim == 2:
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                for k in range(a.shape[1]):
                    out[i, j] += a[i, k] * b[k, j]
        return out
    if a.ndim == 2:
        a = np.broadcast_to(a, (b.shape[0],) + a.shape)
    if b.ndim == 2:
        b = np.broadcast_to(b, (a.shape[0],) + b.shape)
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
    shapes = [((4, 5), (5, 3)), ((8, 8), (8, 8)), ((2, 3, 4), (2, 4, 5)),
              ((3, 4), (6, 4, 2)), ((6, 3, 4), (4, 2)), ((8, 8, 8), (8, 8, 8))]
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


# ---------------------------------------------------------------------------
# linear


def test_linear_rank2_equals_matmul_add_bitwise():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(5, 7)).astype(np.float32)
    w = rng.normal(size=(7, 3)).astype(np.float32)
    b = rng.normal(size=(3,)).astype(np.float32)
    got = ad.linear(ad.Tensor(x.copy()), ad.Tensor(w.copy()), ad.Tensor(b.copy())).data
    want = ad.add(ad.matmul(ad.Tensor(x.copy()), ad.Tensor(w.copy())), ad.Tensor(b.copy())).data
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


def test_linear_shape_errors():
    with pytest.raises(ValueError):
        ad.linear(ad.zeros((2, 3)), ad.zeros((4, 2)), ad.zeros((2,)))
    with pytest.raises(ValueError):
        ad.linear(ad.zeros((2, 3)), ad.zeros((3, 2)), ad.zeros((3,)))


def test_linear_nonfinite_output_raises():
    x, w = ad.ones((2, 3)), ad.ones((3, 2))
    b = ad.Tensor(np.array([0.0, np.inf], dtype=np.float32))
    with pytest.raises(ad.NonFiniteError, match="linear"):
        ad.linear(x, w, b)


# ---------------------------------------------------------------------------
# softmax / log_softmax


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
    x = ad.from_values((2, 3), [1, 2, 3, 4, 5, 6])
    mask = np.array([[True, True, False], [True, False, False]])
    out = ad.softmax(x, axis=1, mask=mask)
    assert out.data[0, 2] == 0.0
    assert out.data[1, 1] == 0.0 and out.data[1, 2] == 0.0
    assert out.data[1, 0] == 1.0
    assert abs(out.data[0, :2].sum() - 1.0) < 1e-6


def test_softmax_tensor_mask_matches_array_mask():
    x = ad.from_values((2, 3), [1, 2, 3, 4, 5, 6])
    mask = np.array([[True, True, False], [True, False, False]])
    want = ad.softmax(x, axis=1, mask=mask).data
    got = ad.softmax(x, axis=1, mask=ad.Tensor(mask)).data
    assert got.tobytes() == want.tobytes()


def test_softmax_mask_all_false_slice():
    x = ad.zeros((2, 2))
    with pytest.raises(ValueError):
        ad.softmax(x, axis=1, mask=np.array([[True, True], [False, False]]))


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 6))
    a = ad.log_softmax(ad.Tensor(x.copy()), axis=1).data
    b = np.log(ad.softmax(ad.Tensor(x.copy()), axis=1).data)
    assert np.allclose(a, b, atol=1e-6)


# ---------------------------------------------------------------------------
# conv2d


def conv_loops(x, w, stride, pad4):
    # independent oracle: direct sliding-window accumulation
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
    x = ad.zeros((1, 3, 300, 300))
    w = ad.zeros((96, 3, 7, 7))
    out = ad.conv2d(x, w, stride=4, pad=3)
    assert out.shape == (1, 96, 75, 75)


def test_conv_all_ones_147():
    x = ad.ones((1, 3, 9, 9))
    w = ad.ones((1, 3, 7, 7))
    out = ad.conv2d(x, w, stride=1, pad=0)
    assert out.shape == (1, 1, 3, 3)
    assert (out.data == 147.0).all()


def test_conv_1x1_equals_channel_matmul():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 5, 5))
    w = rng.normal(size=(6, 4, 1, 1))
    got = ad.conv2d(ad.Tensor(x.copy()), ad.Tensor(w.copy())).data
    # oracle: per-pixel channel mixing via matmul
    want = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
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
        got = ad.conv2d(ad.Tensor(x.copy()), ad.Tensor(w.copy()), stride=stride, pad=pad4).data
        assert rel_err(got, conv_loops(x, w, stride, pad4)) < 1e-5


def test_conv_kernel_too_large():
    with pytest.raises(ValueError):
        ad.conv2d(ad.zeros((1, 1, 4, 4)), ad.zeros((1, 1, 7, 7)), stride=1, pad=0)


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
    x = ad.Tensor(rng.normal(0.0, 2.0, size=(6, 50)).astype(dtype), requires_grad=True)
    w = rng.normal(size=(6, 50)).astype(dtype)
    with ad.Tape():
        loss = ad.tensor_sum(ad.mul(ad.gelu(x), ad.Tensor(w.copy())))
        ad.backward(loss)
    xd = x.data
    if dtype == np.float32:
        phi = ad._gelu_f32(xd)[0]
    else:
        phi = 0.5 * (1.0 + special.erf(xd * ad._INV_SQRT2))
    pdf = np.exp(-0.5 * xd * xd) * ad._INV_SQRT2PI
    want = w * (phi + xd * pdf)
    assert x.grad.dtype == dtype
    assert x.grad.tobytes() == want.tobytes()


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

    def probe(g):
        released.append(middle_data() is None)
        run(g)

    first.run = probe
    del first
    ad.backward(loss)
    assert released == [True]
    assert (x.grad == 6.0).all()


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
    check_grads(lambda ts: ad.tensor_sum(ad.matmul(ts[0], ts[1])),
                [rng.normal(size=(3, 2)), rng.normal(size=(2, 2, 4))])
    check_grads(lambda ts: ad.tensor_sum(ad.matmul(ts[0], ts[1])),
                [rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 4))])


@pytest.mark.parametrize("shape", [(3, 4), (2, 12, 4)], ids=["rank2", "b2_3x4"])
def test_grad_linear(shape):
    rng = np.random.default_rng(34)
    weights = rng.normal(size=shape[:-1] + (3,))
    check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.linear(ts[0], ts[1], ts[2]), ad.Tensor(weights.copy()))),
                [rng.normal(size=shape), rng.normal(size=(4, 3)), rng.normal(size=(3,))])


def test_grad_reshape_transpose_pad_slice():
    rng = np.random.default_rng(24)
    a = rng.normal(size=(2, 3, 4))

    def build(ts):
        t = ad.transpose(ad.reshape(ts[0], (6, 4)), (1, 0))
        t = ad.pad(t, ((1, 0), (0, 2)))
        return ad.tensor_sum(ad.mul(t[1:4, 2:7], t[1:4, 2:7]))

    check_grads(build, [a])


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
    rng = np.random.default_rng(27)
    a = rng.normal(size=(3, 4))
    mask = np.array([[True, True, True, False]] * 3)
    w = rng.normal(size=(3, 4))
    check_grads(lambda ts: ad.tensor_sum(ad.mul(ad.softmax(ts[0], axis=1, mask=mask), ad.Tensor(w.copy()))), [a])


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
    x = rng.normal(size=(1, 2, 4, 4))
    w = rng.normal(size=(2, 2, 3, 3))
    check_grads(lambda ts: ad.tensor_sum(ad.conv2d(ts[0], ts[1], stride=1, pad=1)), [x, w])
    x2 = rng.normal(size=(1, 1, 5, 5))
    w2 = rng.normal(size=(2, 1, 2, 2))
    check_grads(lambda ts: ad.tensor_sum(ad.conv2d(ts[0], ts[1], stride=2, pad=(0, 1, 0, 1))), [x2, w2])


# ---------------------------------------------------------------------------
# determinism


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    a = ad.conv2d(ad.Tensor(x.copy()), ad.Tensor(w.copy()), stride=1, pad=1).data
    b = ad.conv2d(ad.Tensor(x.copy()), ad.Tensor(w.copy()), stride=1, pad=1).data
    assert (a == b).all()
    s1 = ad.softmax(ad.Tensor(x.copy()), axis=1).data
    s2 = ad.softmax(ad.Tensor(x.copy()), axis=1).data
    assert (s1 == s2).all()
