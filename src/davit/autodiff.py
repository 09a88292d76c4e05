"""Dense tensors with tape-based reverse-mode differentiation.

Every operation runs eagerly on numpy storage and, while a Tape is
active, appends one replay node to it. Execution order is already a
topological order, so the backward pass is a single reverse sweep over
the tape. The sweep pops each node before replaying it, so a node's
closure, its output and that output's gradient are released as soon as
the node has run. A tape can be replayed exactly once; replaying it
again without re-running the forward pass raises GraphError.

Ops are module functions (add, matmul, linear, reshape, tensor_sum, ...); the
only operator Tensor defines is indexing, which is the slice op.

Each forward op's output is scanned for NaN and Inf, which raise
NonFiniteError naming the op. The movement ops (reshape, transpose,
slice, pad) are not scanned: their outputs hold only input values and
zeros, so they cannot make a non-finite value, and the first arithmetic
op that consumes one still raises.

Training and inference default to float32. Gradient-check tests build
float64 tensors instead; operations preserve the dtype of their inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Abramowitz & Stegun 7.1.26 for erf(x / sqrt(2)): p / sqrt(2), and a1..a5 / 2
_AS_P = 0.3275911 * _INV_SQRT2
_AS_HALF_A = tuple(0.5 * a for a in (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))
# float32 gelu works on blocks of this many values so its temporaries stay in cache
_BLOCK = 1 << 15


class NonFiniteError(ArithmeticError):
    """A forward arithmetic op produced NaN or Inf, or passed one on.

    Every op output is scanned except those of reshape, transpose, slice
    and pad, which only move values; a non-finite value they carry raises
    at the first arithmetic op that consumes it.
    """


class GraphError(RuntimeError):
    """Backward cannot replay the requested graph."""


class Node:
    __slots__ = ("op", "out", "run")

    def __init__(self, op, out, run):
        self.op = op
        self.out = out
        self.run = run


class Tape:
    """Ordered record of executed operations, replayed once in reverse."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Tape] = []


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


_MOVE_OPS = frozenset(("reshape", "transpose", "slice", "pad"))


def _ensure_finite(arr, op):
    if op not in _MOVE_OPS and not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """N-dimensional array of reals with an optional gradient.

    The constructor takes ownership of the given array; callers that
    need isolation should pass a copy. Integer/bool input is cast to the
    default float dtype, float32/float64 input keeps its precision.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.size == 0:
            raise ValueError("tensor extents must all be >= 1")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def __getitem__(self, idx):
        raw = self.data[idx]
        if not isinstance(raw, np.ndarray):
            raw = np.asarray(raw)
        raw_shape = raw.shape
        out_data = raw if raw.ndim else raw.reshape(1)
        src = self

        def run(g):
            buf = np.zeros_like(src.data)
            buf[idx] = g.reshape(raw_shape)
            _accum(src, buf)

        return _make("slice", out_data, (self,), run)


def _as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
    return Tensor(arr)


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        # A C-contiguous g of the right dtype is kept as is, so one array can
        # be the .grad of several tensors (add hands g to both inputs). This
        # relies on nothing writing a .grad in place. Other layouts are copied.
        if g.dtype == t.data.dtype and g.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad = t.grad + g


def _make(op, out_data, inputs, run):
    _ensure_finite(out_data, op)
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape.nodes.append(Node(op, out, run))
    return out


def _unbroadcast(g, shape):
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


def backward(loss):
    """Replay the loss tensor's tape, accumulating gradients.

    Gradients add across multiple uses of a tensor within the graph and
    across successive backward calls on leaf tensors (clear .grad between
    optimizer steps).
    """
    tape = loss._tape
    if tape is None:
        raise GraphError("backward needs a tensor produced by operations recorded on a Tape")
    if tape.consumed:
        raise GraphError("this tape was already replayed; re-run the forward pass")
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        if node.out.grad is not None:
            node.run(node.out.grad)


# ---------------------------------------------------------------------------
# creation


def _checked_shape(shape):
    try:
        shape = tuple(int(s) for s in shape)
    except TypeError:
        raise ValueError(f"shape must be a sequence of integers, got {shape!r}") from None
    if not shape:
        raise ValueError("shape needs at least one extent")
    if any(s < 1 for s in shape):
        raise ValueError(f"tensor extents must all be >= 1, got {shape}")
    return shape


def full(shape, value, requires_grad=False, dtype=None):
    shape = _checked_shape(shape)
    return Tensor(np.full(shape, value, dtype=dtype or DEFAULT_DTYPE), requires_grad)


def zeros(shape, requires_grad=False, dtype=None):
    return full(shape, 0.0, requires_grad, dtype)


def ones(shape, requires_grad=False, dtype=None):
    return full(shape, 1.0, requires_grad, dtype)


def from_values(shape, values, requires_grad=False, dtype=None):
    shape = _checked_shape(shape)
    arr = np.asarray(values, dtype=dtype or DEFAULT_DTYPE).reshape(-1)
    want = int(np.prod(shape))
    if arr.size != want:
        raise ValueError(f"expected {want} values for shape {shape}, got {arr.size}")
    return Tensor(arr.reshape(shape), requires_grad)


def trunc_normal(shape, mean=0.0, std=1.0, *, seed=None, rng=None, requires_grad=False, dtype=None):
    """Normal draws resampled until every value lies within mean +/- 2*std."""
    shape = _checked_shape(shape)
    if std < 0:
        raise ValueError("std must be >= 0")
    if rng is None:
        rng = np.random.default_rng(seed)
    vals = rng.normal(mean, std, size=shape)
    bad = np.abs(vals - mean) > 2.0 * std
    while bad.any():
        vals[bad] = rng.normal(mean, std, size=int(bad.sum()))
        bad = np.abs(vals - mean) > 2.0 * std
    return Tensor(vals.astype(dtype or DEFAULT_DTYPE), requires_grad)


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)

    def run(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make("add", a.data + b.data, (a, b), run)


def mul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)

    def run(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make("mul", a.data * b.data, (a, b), run)


def scale(t, c):
    c = float(c)

    def run(g):
        _accum(t, g * c)

    return _make("scale", t.data * c, (t,), run)


def reshape(t, shape):
    in_shape = t.shape
    out_data = t.data.reshape(shape)

    def run(g):
        _accum(t, g.reshape(in_shape))

    return _make("reshape", out_data, (t,), run)


def transpose(t, axes):
    axes = tuple(axes)
    if sorted(axes) != list(range(t.ndim)):
        raise ValueError(f"invalid permutation {axes} for rank {t.ndim}")
    inv = tuple(np.argsort(axes))

    def run(g):
        _accum(t, g.transpose(inv))

    return _make("transpose", t.data.transpose(axes), (t,), run)


def pad(t, pad_width):
    """Zero-pad; pad_width is one (before, after) pair per axis."""
    pad_width = tuple((int(lo), int(hi)) for lo, hi in pad_width)
    if len(pad_width) != t.ndim:
        raise ValueError(f"pad_width has {len(pad_width)} pairs for rank {t.ndim}")
    if any(lo < 0 or hi < 0 for lo, hi in pad_width):
        raise ValueError("pad amounts must be >= 0")
    sl = tuple(slice(lo, lo + s) for (lo, _), s in zip(pad_width, t.shape))

    def run(g):
        _accum(t, g[sl])

    return _make("pad", np.pad(t.data, pad_width), (t,), run)


def tensor_sum(t, axis=None, keepdims=False):
    in_shape = t.shape
    if axis is None:
        axes = tuple(range(t.ndim))
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % t.ndim for a in axes)
    out_data = t.data.sum(axis=axes, keepdims=keepdims)

    def run(g):
        if not keepdims:
            kshape = tuple(1 if i in axes else s for i, s in enumerate(in_shape))
            g = g.reshape(kshape)
        _accum(t, np.broadcast_to(g, in_shape))

    return _make("sum", out_data, (t,), run)


def tensor_mean(t, axis=None, keepdims=False):
    if axis is None:
        n = t.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([t.shape[a % t.ndim] for a in axes]))
    return scale(tensor_sum(t, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    """Matrix product for rank-2 or batched rank-3 operands.

    Both sides rank 3 must share the batch extent; a rank-2 side is
    broadcast across the other side's batch.
    """
    ra, rb = a.ndim, b.ndim
    if ra not in (2, 3) or rb not in (2, 3):
        raise ValueError(f"matmul supports rank 2 or 3 operands, got {ra} and {rb}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if ra == 3 and rb == 3 and a.shape[0] != b.shape[0]:
        raise ValueError(f"matmul batch extents disagree: {a.shape} @ {b.shape}")

    def run(g):
        _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make("matmul", a.data @ b.data, (a, b), run)


def linear(x, w, b):
    """x @ w + b over every leading axis of x, as one GEMM.

    x is (..., K), w is (K, N) and b is (N,); the leading axes of x are
    folded into the rows of a single (rows, K) @ (K, N) product.
    """
    k, n = w.shape
    if x.shape[-1] != k or b.shape != (n,):
        raise ValueError(f"linear needs x (..., {k}) and b ({n},), got {x.shape} and {b.shape}")
    x2 = x.data.reshape(-1, k)
    out_data = x2 @ w.data
    out_data += b.data

    def run(g):
        g2 = g.reshape(-1, n)
        _accum(w, x2.T @ g2)
        _accum(b, g2.sum(axis=0))
        _accum(x, (g2 @ w.data.T).reshape(x.shape))

    return _make("linear", out_data.reshape(x.shape[:-1] + (n,)), (x, w, b), run)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def softmax(t, axis=-1, mask=None):
    """Stable softmax along one axis.

    mask, when given, is a boolean array (or a Tensor of 0/1 values)
    broadcastable to t's shape; False entries are excluded and receive
    exactly zero weight. Every slice along the axis must keep at least
    one True entry.
    """
    axis = axis % t.ndim
    z = t.data
    if mask is not None:
        if isinstance(mask, Tensor):
            mask = mask.data
        m = np.broadcast_to(np.asarray(mask, dtype=bool), z.shape)
        if not m.any(axis=axis).all():
            raise ValueError("softmax mask excludes an entire slice")
        z = np.where(m, z, -np.inf)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def run(g):
        _accum(t, s * (g - (g * s).sum(axis=axis, keepdims=True)))

    return _make("softmax", s, (t,), run)


def log_softmax(t, axis=-1):
    axis = axis % t.ndim
    z = t.data - t.data.max(axis=axis, keepdims=True)
    out_data = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def run(g):
        _accum(t, g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

    return _make("log_softmax", out_data, (t,), run)


def gelu(t):
    """Gaussian error linear unit, x * Phi(x), with Phi the standard normal CDF.

    float64 input uses the exact erf. float32 input uses Abramowitz &
    Stegun 7.1.26 (|erf error| <= 1.5e-7): with t = 1 / (1 + p|x|/sqrt(2))
    and h = poly(t) * exp(-x^2/2) / 2, Phi = 1/2 + copysign(1/2 - h, x).
    In float32 arithmetic Phi stays within 5e-7 of the exact value (the
    largest error a dense sweep of float32 inputs found is 3.6e-7).
    """
    x = t.data
    if x.dtype == np.float64:
        phi = 0.5 * (1.0 + special.erf(x * _INV_SQRT2))
        out_data = x * phi
    else:
        phi, out_data = _gelu_f32(x)

    def run(g):
        # g * (phi + x * pdf), built in one buffer in the same operation order;
        # x * x overflows for huge |x|, where exp(-inf) = 0 is the right limit
        with np.errstate(over="ignore"):
            buf = np.multiply(x, -0.5)
            buf *= x
        np.exp(buf, out=buf)
        buf *= _INV_SQRT2PI
        buf *= x
        buf += phi
        buf *= g
        _accum(t, buf)

    return _make("gelu", out_data, (t,), run)


def _gelu_f32(x):
    """(Phi(x), x * Phi(x)) by A&S 7.1.26, in blocks that stay in cache."""
    xf = x.reshape(-1)
    phi = np.empty_like(xf)
    out = np.empty_like(xf)
    tmp = np.empty(min(_BLOCK, xf.size), dtype=xf.dtype)
    # x * x overflows for |x| > 1.8e19; exp(-inf) = 0 is then the right limit.
    with np.errstate(over="ignore"):
        for i in range(0, xf.size, _BLOCK):
            xb, pb, ob = xf[i : i + _BLOCK], phi[i : i + _BLOCK], out[i : i + _BLOCK]
            q = tmp[: xb.size]
            np.abs(xb, out=pb)
            pb *= _AS_P
            pb += 1.0
            np.reciprocal(pb, out=pb)
            np.multiply(pb, _AS_HALF_A[-1], out=q)
            for a in _AS_HALF_A[-2::-1]:
                q += a
                q *= pb
            np.multiply(xb, xb, out=pb)
            pb *= -0.5
            np.exp(pb, out=pb)
            q *= pb
            np.subtract(0.5, q, out=q)
            np.copysign(q, xb, out=q)
            np.add(q, 0.5, out=pb)
            np.multiply(xb, pb, out=ob)
    return phi.reshape(x.shape), out.reshape(x.shape)


def layer_norm(t, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    n = t.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError(f"gamma/beta must have shape ({n},), got {gamma.shape} and {beta.shape}")
    x = t.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def run(g):
        dxhat = g * gamma.data
        _accum(gamma, (g * xhat).reshape(-1, n).sum(axis=0))
        _accum(beta, g.reshape(-1, n).sum(axis=0))
        dx = (inv / n) * (
            n * dxhat - dxhat.sum(axis=-1, keepdims=True) - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
        )
        _accum(t, dx)

    return _make("layer_norm", out_data, (t, gamma, beta), run)


# ---------------------------------------------------------------------------
# convolution


def _pad4(pad_spec):
    if isinstance(pad_spec, int):
        if pad_spec < 0:
            raise ValueError("pad must be >= 0")
        return (pad_spec,) * 4
    top, bottom, left, right = (int(p) for p in pad_spec)
    if min(top, bottom, left, right) < 0:
        raise ValueError("pad amounts must be >= 0")
    return top, bottom, left, right


def _im2col(xp, k, stride, oh, ow):
    n, c, _, _ = xp.shape
    cols = np.empty((n, c, k, k, oh, ow), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * k * k)


def _col2im(cols, n, c, hp, wp, k, stride, oh, ow):
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, k, k).transpose(0, 3, 4, 5, 1, 2)
    for i in range(k):
        for j in range(k):
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[:, :, i, j]
    return xp


def conv2d(x, w, stride=1, pad=0):
    """2-D cross-correlation of NCHW input with an OIHW square kernel.

    pad is an int (symmetric) or a (top, bottom, left, right) tuple of
    zero-padding amounts. Output extent per side is
    floor((padded - k) / stride) + 1.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects rank-4 input and kernel, got {x.shape} and {w.shape}")
    n, cin, h, wd = x.shape
    cout, cin_w, k, k2 = w.shape
    if k != k2:
        raise ValueError(f"conv2d kernel must be square, got {w.shape}")
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input has {cin}, kernel expects {cin_w}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    top, bottom, left, right = _pad4(pad)
    hp, wp = h + top + bottom, wd + left + right
    if k > hp or k > wp:
        raise ValueError(f"kernel size {k} exceeds padded input {hp}x{wp}")
    oh = (hp - k) // stride + 1
    ow = (wp - k) // stride + 1

    xp = np.pad(x.data, ((0, 0), (0, 0), (top, bottom), (left, right)))
    cols = _im2col(xp, k, stride, oh, ow)
    wmat = w.data.reshape(cout, -1)
    out_data = (cols @ wmat.T).reshape(n, oh, ow, cout).transpose(0, 3, 1, 2)

    def run(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(-1, cout)
        _accum(w, (gmat.T @ cols).reshape(w.shape))
        dxp = _col2im(gmat @ wmat, n, cin, hp, wp, k, stride, oh, ow)
        _accum(x, dxp[:, :, top : top + h, left : left + wd])

    return _make("conv2d", out_data, (x, w), run)
