"""Dense tensors with tape-based reverse-mode differentiation.

Every operation runs eagerly on numpy storage and, while a Tape is
active, appends one replay node to it. Execution order is already a
topological order, so the backward pass is a single reverse sweep over
the tape. The sweep pops each node before replaying it, so a node's
closure and its gradient are released as soon as the node has run. A
tape can be replayed exactly once; replaying it again without re-running
the forward pass raises GraphError.

A recorded op's output gets a gradient slot: a Tensor over a zero-stride
view of the output's shape and dtype, into which the consumers' backwards
accumulate. A leaf (any tensor no recorded op produced) is its own slot.
A node holds its op name, its output's slot, its inputs' slots, and a
closure over only the arrays its formula reads; backward calls the closure
with the output slot's gradient and the input slots, so no closure holds
an input or output as such. add, scale, reshape, transpose, pad and sum
close over no array, so the caller's last reference to an activation frees
it even while the tape lives. Gradients therefore land on leaves only; a
recorded output's own .grad stays None.

A tensor's first gradient is kept as is when it is C-contiguous, so one
array can be the .grad of several tensors; later ones are summed out of
place. The exception is an array that an op has just allocated and
references nowhere else, as every parameter gradient and attention_weights'
q/k/v stack gradient is: the tensor owns it, and later gradients (a slice's
into its region) are added into it in place, bitwise the out-of-place sum.
Ownership follows the array, so a .grad the caller assigns is never written.

Ops are module functions (add, matmul, linear, reshape, attention_weights,
tensor_sum, ...) on Tensors; the only operator Tensor defines is indexing,
which is the slice op and takes basic indices only: ints, slices, None and
Ellipsis.

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
import weakref

import numpy as np

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# erf for float64 gelu: math.erf per element, returned as an object array
_ERF = np.frompyfunc(math.erf, 1, 1)
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
    """One recorded op: its name, its output's gradient slot, its inputs' slots,
    and its backward, a closure over only the arrays its formula reads.

    backward calls run(g, *ins), with g the output slot's gradient.
    """

    __slots__ = ("op", "out", "ins", "run")

    def __init__(self, op, out, ins, run):
        self.op = op
        self.out = out
        self.ins = ins
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


def _recording(inputs):
    # True when an op on these inputs appends a tape node; ops keep buffers
    # that only their backward reads (gelu's Phi, layer_norm's x-hat) only then
    return bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)


_MOVE_OPS = frozenset(("reshape", "transpose", "slice", "pad"))


def _ensure_finite(arr, op):
    if op in _MOVE_OPS:
        return
    # The sum of squares is NaN or Inf whenever a value is; finite values whose
    # squares overflow make it Inf too, and the exact scan then decides. Op
    # outputs are dense in some axis order, so ravel in memory order is a view.
    flat = np.ravel(arr, order="K")
    with np.errstate(all="ignore"):
        if np.isfinite(np.dot(flat, flat)):
            return
    if not np.isfinite(flat).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """N-dimensional array of reals with an optional gradient.

    The constructor takes ownership of the given array; callers that
    need isolation should pass a copy. Integer/bool input is cast to the
    default float dtype, float32/float64 input keeps its precision.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_slot", "_owned")

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
        self._slot = None  # the gradient slot, on a recorded op's output
        self._owned = None  # weakref to the .grad array backward may add into in place

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
        # basic indices only: they never pick an element twice, so backward assigns
        for part in idx if isinstance(idx, tuple) else (idx,):
            if isinstance(part, bool) or not isinstance(part, (int, np.integer, slice, type(None), type(...))):
                raise IndexError(f"tensor indices must be ints, slices, None or Ellipsis, got {part!r}")
        raw = self.data[idx]
        raw_shape = raw.shape
        out_data = raw if raw.ndim else raw.reshape(1)
        like = None if self.data.flags.c_contiguous else self.data  # kept for its layout only

        def run(g, src):
            if src._owned is not None and src._owned() is src.grad and g.dtype == src.grad.dtype:
                src.grad[idx] += g.reshape(raw_shape)  # an array src owns: add into the region in place
                return
            buf = np.zeros(src.shape, src.dtype) if like is None else np.zeros_like(like)
            buf[idx] = g.reshape(raw_shape)
            _accum(src, buf)

        return _make("slice", out_data, (self,), run)


def _accum(t, g, fresh=False):
    """Add g onto t.grad; fresh says the caller just allocated g and keeps no other reference."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # A C-contiguous g of the right dtype is kept as is (add hands one g to
        # both inputs); other layouts are copied. Only a fresh g is owned: an
        # in-place add keeps the first array's layout, and a slot's backward
        # GEMMs and sums read its gradient in layout order. Fresh gradients are
        # C-contiguous, as the out-of-place sums onto them are, so no bit moves.
        if g.dtype == t.data.dtype and g.flags.c_contiguous:
            t.grad = g
            t._owned = weakref.ref(g) if fresh else None
        else:
            t.grad = g.astype(t.data.dtype, copy=True)
    elif t._owned is not None and t._owned() is t.grad and g.dtype == t.grad.dtype:
        np.add(t.grad, g, out=t.grad)
    else:
        t.grad = t.grad + g


def _make(op, out_data, inputs, run):
    _ensure_finite(out_data, op)
    out = Tensor(out_data)
    if _recording(inputs):
        out.requires_grad = True
        out._tape = _TAPE_STACK[-1]
        out._slot = Tensor(np.broadcast_to(np.zeros((), out.dtype), out.shape), requires_grad=True)
        ins = tuple(t if t._slot is None else t._slot for t in inputs)
        out._tape.nodes.append(Node(op, out._slot, ins, run))
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
    """Replay the loss tensor's tape, accumulating gradients onto the leaves.

    The sweep starts from the loss's gradient slot, and each node hands its
    slot's gradient to its inputs' slots. Only leaves keep a .grad: recorded
    outputs, the loss included, keep None. Gradients add across multiple
    uses of a tensor within the graph and across successive backward calls
    on leaf tensors (clear .grad between optimizer steps). A later backward
    may update a leaf's .grad array in place, so copy it to keep it.
    """
    tape = loss._tape
    if tape is None:
        raise GraphError("backward needs a tensor produced by operations recorded on a Tape")
    if tape.consumed:
        raise GraphError("this tape was already replayed; re-run the forward pass")
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape.consumed = True
    loss._slot.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        if node.out.grad is not None:
            node.run(node.out.grad, *node.ins)


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
        raise ValueError(f"std must be >= 0, got {std}")
    if rng is None:
        rng = np.random.default_rng(seed)
    vals = rng.normal(mean, std, size=shape)
    flat = vals.reshape(-1)
    # each round redraws the rejected entries in index order
    bad = np.flatnonzero(np.abs(flat - mean) > 2.0 * std)
    while bad.size:
        flat[bad] = rng.normal(mean, std, size=bad.size)
        bad = bad[np.abs(flat[bad] - mean) > 2.0 * std]
    return Tensor(vals.astype(dtype or DEFAULT_DTYPE), requires_grad)


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b):
    def run(g, a, b):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make("add", a.data + b.data, (a, b), run)


def mul(a, b):
    a_data, b_data = a.data, b.data

    def run(g, a, b):
        _accum(a, _unbroadcast(g * b_data, a.shape))
        _accum(b, _unbroadcast(g * a_data, b.shape))

    return _make("mul", a_data * b_data, (a, b), run)


def scale(t, c):
    c = float(c)

    def run(g, t):
        _accum(t, g * c)

    return _make("scale", t.data * c, (t,), run)


def reshape(t, shape):
    def run(g, t):
        _accum(t, g.reshape(t.shape))

    return _make("reshape", t.data.reshape(shape), (t,), run)


def transpose(t, axes):
    axes = tuple(axes)
    if sorted(axes) != list(range(t.ndim)):
        raise ValueError(f"invalid permutation {axes} for rank {t.ndim}")
    inv = tuple(np.argsort(axes))

    def run(g, t):
        _accum(t, g.transpose(inv))

    return _make("transpose", t.data.transpose(axes), (t,), run)


def pad(t, pad_width):
    """Zero-pad; pad_width is one (before, after) pair per axis."""
    pad_width = tuple((int(lo), int(hi)) for lo, hi in pad_width)
    if len(pad_width) != t.ndim:
        raise ValueError(f"pad_width has {len(pad_width)} pairs for rank {t.ndim}")
    if any(lo < 0 or hi < 0 for lo, hi in pad_width):
        raise ValueError(f"pad amounts must be >= 0, got {pad_width}")
    sl = tuple(slice(lo, lo + s) for (lo, _), s in zip(pad_width, t.shape))

    def run(g, t):
        _accum(t, g[sl])

    return _make("pad", np.pad(t.data, pad_width), (t,), run)


def tensor_sum(t, axis=None, keepdims=False):
    if axis is None:
        axes = tuple(range(t.ndim))
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % t.ndim for a in axes)

    def run(g, t):
        if not keepdims:
            g = g.reshape(tuple(1 if i in axes else s for i, s in enumerate(t.shape)))
        _accum(t, np.broadcast_to(g, t.shape))

    return _make("sum", t.data.sum(axis=axes, keepdims=keepdims), (t,), run)


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
    """Matrix product of two rank-2 or two rank-3 operands.

    Rank-3 operands must share the batch extent; nothing is broadcast.
    """
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ValueError(f"matmul needs two rank-2 or two rank-3 operands, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul extents disagree: {a.shape} @ {b.shape}")

    a_data, b_data = a.data, b.data

    def run(g, a, b):
        _accum(a, g @ np.swapaxes(b_data, -1, -2))
        _accum(b, np.swapaxes(a_data, -1, -2) @ g)

    return _make("matmul", a_data @ b_data, (a, b), run)


def linear(x, w, b, groups=1):
    """x @ w + b as one GEMM per group, the bias added in place.

    w is (K, N) and b is (N,). With groups=1, x is (..., K) and all its
    leading axes fold into the rows of one (rows, K) @ (K, N) product.
    With groups=G > 1, x is (G, ..., K/G) and only w's diagonal blocks map
    it: w's columns are N/K parts of K each (q, k and v for the qkv map),
    and group g's block holds w's rows of group g and, in every part, its
    columns of group g. One advanced index copies only the blocks, and b is
    reordered group-major to match, so the (G, ..., N/G) result holds each
    group's parts in order. Backward scatters dW into a zero (K, N) array,
    so weight entries that cross groups get zero gradient.
    """
    k, n = w.shape
    if groups < 1 or k % groups or (groups > 1 and n % k):
        raise ValueError(f"linear cannot split a {w.shape} weight into {groups} groups")
    kg, ng = k // groups, n // groups
    lead = (groups,) if groups > 1 else ()
    if x.shape[:len(lead)] != lead or x.shape[-1] != kg or b.shape != (n,):
        raise ValueError(f"linear needs x {lead} + (..., {kg}) and b ({n},), got {x.shape} and {b.shape}")
    x2 = x.data.reshape(lead + (-1, kg))
    w_data, b_data = w.data, b.data
    if groups > 1:
        parts, d = n // k, np.arange(groups)
        w_data = w_data.reshape(groups, kg, parts, groups, kg)[d, :, :, d, :].reshape(groups, kg, ng)
        b_data = b_data.reshape(parts, groups, kg).transpose(1, 0, 2).reshape(groups, 1, ng)
    out_data = x2 @ w_data
    out_data += b_data

    def run(g, x, w, b):
        g2 = g.reshape(lead + (-1, ng))
        dw, db = np.swapaxes(x2, -1, -2) @ g2, g2.sum(axis=-2)
        if groups > 1:  # back to w's and b's layouts
            full = np.zeros((k, n), w_data.dtype)
            full.reshape(groups, kg, parts, groups, kg)[d, :, :, d, :] = dw.reshape(groups, kg, parts, kg)
            dw, db = full, db.reshape(groups, parts, kg).transpose(1, 0, 2).reshape(n)
        _accum(w, dw, fresh=True)
        _accum(b, db, fresh=True)
        _accum(x, (g2 @ np.swapaxes(w_data, -1, -2)).reshape(x.shape))

    return _make("linear", out_data.reshape(x.shape[:-1] + (ng,)), (x, w, b), run)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def softmax(t, axis=-1):
    """Stable softmax along one axis."""
    e = np.exp(t.data - t.data.max(axis=axis, keepdims=True))
    s = e / e.sum(axis=axis, keepdims=True)

    def run(g, t):
        _accum(t, s * (g - (g * s).sum(axis=axis, keepdims=True)))

    return _make("softmax", s, (t,), run)


def attention_weights(qkv, scale, mask=None):
    """softmax(scale * q @ k^T) over the keys, for a (3, T, n, w) q/k/v stack.

    mask, when given, is a boolean array broadcastable to (T, n, n) whose
    False keys get exactly zero weight; every query must keep a key. The
    softmax runs in place, in cache-sized blocks of T. Backward writes dq + 0.0
    and dk + 0.0 (so -0.0 reads 0.0) into one zero buffer the stack owns, so
    a slice of v then adds its gradient into that buffer in place.
    """
    if qkv.ndim != 4 or qkv.shape[0] != 3:
        raise ValueError(f"attention_weights needs a (3, T, n, w) q/k/v stack, got {qkv.shape}")
    scale = float(scale)  # a numpy scalar would round the float32 product differently
    q, k = qkv.data[0], qkv.data[1]
    s = q @ np.swapaxes(k, -1, -2)
    s *= scale
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), s.shape)
        if not mask.any(axis=-1).all():
            raise ValueError("attention mask excludes every key of a query")
    step = max(1, _BLOCK // s[0].size)
    for i in range(0, len(s), step):
        sb = s[i : i + step]
        zb = sb if mask is None else np.where(mask[i : i + step], sb, -np.inf)
        np.subtract(zb, zb.max(axis=-1, keepdims=True), out=sb)
        np.exp(sb, out=sb)
        sb /= sb.sum(axis=-1, keepdims=True)

    def run(g, qkv):
        dl = s * (g - (g * s).sum(axis=-1, keepdims=True))
        dl *= scale
        buf = np.zeros(qkv.shape, qkv.dtype)
        np.add(dl @ k, 0.0, out=buf[0])
        np.add(np.swapaxes(np.swapaxes(q, -1, -2) @ dl, -1, -2), 0.0, out=buf[1])
        _accum(qkv, buf, fresh=True)

    return _make("attention_weights", s, (qkv,), run)


def log_softmax(t, axis=-1):
    z = t.data - t.data.max(axis=axis, keepdims=True)
    out_data = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def run(g, t):
        _accum(t, g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

    return _make("log_softmax", out_data, (t,), run)


def gelu(t):
    """Gaussian error linear unit, x * Phi(x), with Phi the standard normal CDF.

    float64 input uses math.erf per element. float32 input uses Abramowitz &
    Stegun 7.1.26 (|erf error| <= 1.5e-7): with t = 1 / (1 + p|x|/sqrt(2))
    and h = poly(t) * exp(-x^2/2) / 2, Phi = 1/2 + copysign(1/2 - h, x).
    In float32 arithmetic Phi stays within 5e-7 of the exact value (the
    largest error a dense sweep of float32 inputs found is 3.6e-7).
    The derivative Phi + x * pdf is kept for the backward only while the op
    is recorded.
    """
    x = t.data
    out_data, d = _gelu_blocks(x, _erf_phi if x.dtype == np.float64 else _as_phi, _recording((t,)))

    def run(g, t):
        _accum(t, np.multiply(d, g, out=d))

    return _make("gelu", out_data, (t,), run)


def _gelu_blocks(x, phi_of, keep_d):
    """(x * Phi(x), gelu'(x) or None), one cache-sized block at a time.

    phi_of leaves Phi in one block buffer and exp(-x^2/2) in the other. With
    keep_d the derivative (exp(-x^2/2) / sqrt(2 pi)) * x + Phi is stored, in
    that operation order, for a backward that is then one multiply.
    """
    xf = x.reshape(-1)
    out = np.empty_like(xf)
    d = np.empty_like(xf) if keep_d else None
    phi = np.empty(min(_BLOCK, xf.size), dtype=xf.dtype)
    e = np.empty_like(phi)
    # x * x overflows for |x| > 1.8e19 in float32; exp(-inf) = 0 is then the right limit.
    with np.errstate(over="ignore"):
        for i in range(0, xf.size, _BLOCK):
            xb = xf[i : i + _BLOCK]
            pb, eb = phi[: xb.size], e[: xb.size]
            phi_of(xb, pb, eb)
            np.multiply(xb, pb, out=out[i : i + _BLOCK])
            if keep_d:
                db = d[i : i + _BLOCK]
                np.multiply(eb, _INV_SQRT2PI, out=db)
                db *= xb
                db += pb
    return out.reshape(x.shape), (d.reshape(x.shape) if keep_d else None)


def _as_phi(xb, pb, eb):
    np.abs(xb, out=eb)
    eb *= _AS_P
    eb += 1.0
    np.reciprocal(eb, out=eb)
    np.multiply(eb, _AS_HALF_A[-1], out=pb)
    for a in _AS_HALF_A[-2::-1]:
        pb += a
        pb *= eb
    np.multiply(xb, xb, out=eb)
    eb *= -0.5
    np.exp(eb, out=eb)
    pb *= eb
    np.subtract(0.5, pb, out=pb)
    np.copysign(pb, xb, out=pb)
    pb += 0.5


def _erf_phi(xb, pb, eb):
    pb[...] = _ERF(xb * _INV_SQRT2)
    pb += 1.0
    pb *= 0.5
    np.multiply(xb, xb, out=eb)
    eb *= -0.5
    np.exp(eb, out=eb)


def layer_norm(t, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine.

    The forward runs in cache-sized blocks of rows. x-hat and the per-row
    1/std are kept for the backward only while the op is recorded.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    n = t.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError(f"gamma/beta must have shape ({n},), got {gamma.shape} and {beta.shape}")
    x2 = t.data.reshape(-1, n)
    rows = x2.shape[0]
    step = max(1, _BLOCK // n)
    keep = _recording((t, gamma, beta))
    out = np.empty(x2.shape, np.result_type(x2, gamma.data, beta.data))
    xhat = np.empty_like(x2) if keep else np.empty((min(step, rows), n), dtype=x2.dtype)
    inv = np.empty((rows, 1), dtype=x2.dtype)
    sq = np.empty((min(step, rows), n), dtype=x2.dtype)
    for i in range(0, rows, step):
        xb = x2[i : i + step]
        hb = xhat[i : i + step] if keep else xhat[: len(xb)]
        qb, ib, ob = sq[: len(xb)], inv[i : i + step], out[i : i + step]
        np.subtract(xb, xb.mean(axis=-1, keepdims=True), out=hb)
        np.multiply(hb, hb, out=qb)
        np.add(qb.mean(axis=-1, keepdims=True), eps, out=ib)
        np.sqrt(ib, out=ib)
        np.divide(1.0, ib, out=ib)
        hb *= ib
        np.multiply(hb, gamma.data, out=ob)
        ob += beta.data
    out_data = out.reshape(t.shape)
    if keep:
        xhat = xhat.reshape(t.shape)
        inv = inv.reshape(t.shape[:-1] + (1,))
    gamma_data = gamma.data

    def run(g, t, gamma, beta):
        dxhat, prod = g * gamma_data, g * xhat
        _accum(gamma, prod.reshape(-1, n).sum(axis=0), fresh=True)
        _accum(beta, g.reshape(-1, n).sum(axis=0), fresh=True)
        # dx = (inv / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # each step in the order of that expression, in dxhat and prod
        np.multiply(dxhat, xhat, out=prod)
        s1, s2 = dxhat.sum(axis=-1, keepdims=True), prod.sum(axis=-1, keepdims=True)
        dxhat *= n
        dxhat -= s1
        dxhat -= np.multiply(xhat, s2, out=prod)
        dxhat *= inv / n
        _accum(t, dxhat)

    return _make("layer_norm", out_data, (t, gamma, beta), run)


# ---------------------------------------------------------------------------
# convolution


def _pad4(pad_spec):
    if isinstance(pad_spec, int):
        if pad_spec < 0:
            raise ValueError(f"pad must be >= 0, got {pad_spec}")
        return (pad_spec,) * 4
    top, bottom, left, right = (int(p) for p in pad_spec)
    if min(top, bottom, left, right) < 0:
        raise ValueError(f"pad amounts must be >= 0, got {(top, bottom, left, right)}")
    return top, bottom, left, right


def conv2d(x, w, b, stride=1, pad=0):
    """2-D cross-correlation of NHWC input with an OIHW square kernel, plus bias.

    x is (N, H, W, C_in), w is (C_out, C_in, k, k) and b is (C_out,); the
    result is (N, H', W', C_out). pad is an int (symmetric) or a (top,
    bottom, left, right) tuple of zero-padding amounts. Output extent per
    side is floor((padded - k) / stride) + 1. The input gradient is formed
    only when x requires one.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects rank-4 input and kernel, got {x.shape} and {w.shape}")
    n, h, wd, cin = x.shape
    cout, cin_w, k, k2 = w.shape
    if k != k2:
        raise ValueError(f"conv2d kernel must be square, got {w.shape}")
    if cin != cin_w or b.shape != (cout,):
        raise ValueError(f"conv2d needs x (..., {cin_w}) and b ({cout},), got {x.shape} and {b.shape}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    top, bottom, left, right = _pad4(pad)
    hp, wp = h + top + bottom, wd + left + right
    if k > hp or k > wp:
        raise ValueError(f"kernel size {k} exceeds padded input {hp}x{wp}")
    oh = (hp - k) // stride + 1
    ow = (wp - k) // stride + 1

    xp = np.pad(x.data, ((0, 0), (top, bottom), (left, right), (0, 0)))
    # (N, H', W', C_in, k, k) windows: columns in the kernel's (C_in, k, k) order
    cols = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    cols = cols.reshape(-1, cin * k * k)
    wmat = w.data.reshape(cout, -1)
    out_data = cols @ wmat.T
    out_data += b.data

    def run(g, x, w, b):
        gmat = g.reshape(-1, cout)
        _accum(w, (gmat.T @ cols).reshape(w.shape), fresh=True)
        _accum(b, g.sum(axis=0).reshape(-1, cout).sum(axis=0), fresh=True)  # batch, then pixels, as a broadcast add sums
        if x.requires_grad:  # col2im: each window's rows of gmat @ wmat add back onto its pixels
            dcols = (gmat @ wmat).reshape(n, oh, ow, cin, k, k)
            dxp = np.zeros((n, hp, wp, cin), dtype=dcols.dtype)
            for i in range(k):
                for j in range(k):
                    dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[..., i, j]
            _accum(x, dxp[:, top : top + h, left : left + wd])

    return _make("conv2d", out_data.reshape(n, oh, ow, cout), (x, w, b), run)
