"""Spatial window attention and channel group attention kernels.

Spatial window attention treats the pixels of each non-overlapping
w x w window as tokens and the channels as features: multi-head scaled
dot-product attention runs inside every window independently. Channel
group attention flips the roles: tokens are channels (grouped into
groups of group_width) and each token's feature vector is the whole
H*W spatial map, so every channel token is globally receptive.

Both kernels share one parameter layout: a fused C -> 3C q/k/v linear
map and a C -> C output projection. In the channel kernel the q/k/v and
projection maps use only the diagonal blocks of those weights, one
Cg x Cg block per group (a channel only mixes with channels of its own
group), which keeps groups fully independent: a perturbation inside one
group leaves every other group's output bitwise unchanged, and the
off-diagonal entries get zero gradient. With a single group the one
diagonal block is the whole weight and the kernel reduces to the dense
map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from davit import autodiff as ad


@dataclass
class AttentionParams:
    qkv_weight: ad.Tensor  # (C, 3C)
    qkv_bias: ad.Tensor  # (3C,)
    proj_weight: ad.Tensor  # (C, C)
    proj_bias: ad.Tensor  # (C,)
    head_width: int  # C_h (spatial) or C_g (channel)

    def __post_init__(self):
        c = self.qkv_weight.shape[0]
        if self.qkv_weight.shape != (c, 3 * c):
            raise ValueError(f"qkv_weight must map C to 3C, got {self.qkv_weight.shape}")
        if self.qkv_bias.shape != (3 * c,):
            raise ValueError(f"qkv_bias must have shape ({3 * c},), got {self.qkv_bias.shape}")
        if self.proj_weight.shape != (c, c):
            raise ValueError(f"proj_weight must map C to C, got {self.proj_weight.shape}")
        if self.proj_bias.shape != (c,):
            raise ValueError(f"proj_bias must have shape ({c},), got {self.proj_bias.shape}")
        if self.head_width < 1 or c % self.head_width:
            raise ValueError(f"channels {c} not divisible by head width {self.head_width}")

    @property
    def channels(self):
        return self.qkv_weight.shape[0]


def init_attention_params(channels, head_width, rng, dtype=None):
    return AttentionParams(
        qkv_weight=ad.trunc_normal((channels, 3 * channels), 0.0, 0.02, rng=rng, dtype=dtype, requires_grad=True),
        qkv_bias=ad.zeros((3 * channels,), requires_grad=True, dtype=dtype),
        proj_weight=ad.trunc_normal((channels, channels), 0.0, 0.02, rng=rng, dtype=dtype, requires_grad=True),
        proj_bias=ad.zeros((channels,), requires_grad=True, dtype=dtype),
        head_width=head_width,
    )


@dataclass
class WindowGrid:
    """Geometry of a padded window partition; pad_mask marks real tokens."""

    window_size: int
    padded_h: int
    padded_w: int
    original_h: int
    original_w: int
    pad_mask: np.ndarray  # (padded_h, padded_w) bool, True = real token

    @property
    def num_windows(self):
        return (self.padded_h // self.window_size) * (self.padded_w // self.window_size)

    def window_key_mask(self):
        """Per-window key mask, shape (num_windows, window_size**2)."""
        w = self.window_size
        m = self.pad_mask.reshape(self.padded_h // w, w, self.padded_w // w, w)
        return m.transpose(0, 2, 1, 3).reshape(self.num_windows, w * w)


def window_partition(fmap, window_size):
    """Split a B x H x W x C map into (B*nW) x w^2 x C token windows.

    The map is zero-padded on the bottom/right to multiples of
    window_size; the returned grid records which padded tokens are real.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    b, h, wd, c = fmap.shape
    w = window_size
    ph = -(-h // w) * w
    pw = -(-wd // w) * w
    grid = WindowGrid(w, ph, pw, h, wd, np.zeros((ph, pw), dtype=bool))
    grid.pad_mask[:h, :wd] = True
    if (ph, pw) != (h, wd):
        fmap = ad.pad(fmap, ((0, 0), (0, ph - h), (0, pw - wd), (0, 0)))
    t = ad.reshape(fmap, (b, ph // w, w, pw // w, w, c))
    t = ad.transpose(t, (0, 1, 3, 2, 4, 5))
    return ad.reshape(t, (b * grid.num_windows, w * w, c)), grid


def window_reverse(windows, grid):
    """Inverse of window_partition; padded tokens are discarded."""
    w = grid.window_size
    nw = grid.num_windows
    if windows.ndim != 3 or windows.shape[1] != w * w or windows.shape[0] % nw:
        raise ValueError(f"windows shape {windows.shape} inconsistent with grid "
                         f"({nw} windows of {w * w} tokens)")
    b = windows.shape[0] // nw
    c = windows.shape[2]
    t = ad.reshape(windows, (b, grid.padded_h // w, grid.padded_w // w, w, w, c))
    t = ad.transpose(t, (0, 1, 3, 2, 4, 5))
    t = ad.reshape(t, (b, grid.padded_h, grid.padded_w, c))
    if (grid.padded_h, grid.padded_w) != (grid.original_h, grid.original_w):
        t = t[:, : grid.original_h, : grid.original_w, :]
    return t


def _attend(qkv, scale, mask=None):
    """Scaled dot-product attention on a (3, T, tokens, width) q/k/v stack.

    Returns the (T, tokens, width) output and the (T, tokens, tokens)
    attention weights.
    """
    q, k, v = qkv[0], qkv[1], qkv[2]
    logits = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), scale)
    attn = ad.softmax(logits, axis=-1, mask=mask)
    return ad.matmul(attn, v), attn


def spatial_window_attention(x, p, window_size, return_weights=False):
    """Multi-head self-attention inside non-overlapping spatial windows.

    x is B x H x W x C. Padded tokens (bottom/right fill) are excluded
    from the softmax, so they draw zero attention weight.
    """
    b, h, wd, c = x.shape
    if c != p.channels:
        raise ValueError(f"input has {c} channels, params expect {p.channels}")
    ch = p.head_width
    nh = c // ch
    windows, grid = window_partition(x, window_size)
    t, n, _ = windows.shape

    qkv = ad.linear(windows, p.qkv_weight, p.qkv_bias)
    qkv = ad.transpose(ad.reshape(qkv, (t, n, 3, nh, ch)), (2, 0, 3, 1, 4))
    qkv = ad.reshape(qkv, (3, t * nh, n, ch))  # heads folded into the window axis
    if grid.pad_mask.all():
        mask = None
    else:
        keys = np.tile(grid.window_key_mask(), (b, 1))  # (B*nW, w^2)
        mask = np.repeat(keys, nh, axis=0)[:, None, :]  # broadcast over queries
    out, attn = _attend(qkv, 1.0 / np.sqrt(ch), mask)

    out = ad.reshape(ad.transpose(ad.reshape(out, (t, nh, n, ch)), (0, 2, 1, 3)), (t, n, c))
    out = ad.linear(out, p.proj_weight, p.proj_bias)
    out = window_reverse(out, grid)
    if return_weights:
        return out, attn.data
    return out


def _diagonal_blocks(w, ng, k):
    """The (Ng, Cg, k*Cg) diagonal blocks of a (C, k*C) weight, one per group.

    The columns of w are k parts of C channels each (q, k and v for the
    qkv map); block g holds the rows of group g and, in every part, the
    columns of group g.
    """
    cg = w.shape[0] // ng
    d = np.arange(ng)
    return ad.reshape(ad.reshape(w, (ng, cg, k, ng, cg))[d, :, :, d, :], (ng, cg, k * cg))


def channel_group_attention(x, p, return_weights=False):
    """Single-head self-attention over channel tokens, grouped by group width.

    Each channel's token carries the full H*W map as its feature vector;
    logits are scaled by 1/sqrt(C_g).
    """
    b, h, wd, c = x.shape
    if c != p.channels:
        raise ValueError(f"input has {c} channels, params expect {p.channels}")
    cg = p.head_width
    ng = c // cg
    n = h * wd

    groups = ad.transpose(ad.reshape(x, (b * n, ng, cg)), (1, 0, 2))  # (Ng, B*N, Cg)
    qkv = ad.matmul(groups, _diagonal_blocks(p.qkv_weight, ng, 3))  # (Ng, B*N, 3Cg)
    qkv = ad.transpose(ad.reshape(qkv, (ng, b, n, 3, cg)), (3, 1, 0, 4, 2))
    qkv = ad.add(qkv, ad.reshape(p.qkv_bias, (3, 1, ng, cg, 1)))  # (3, B, Ng, Cg, N)
    out, attn = _attend(ad.reshape(qkv, (3, b * ng, cg, n)), 1.0 / np.sqrt(cg))

    out = ad.transpose(ad.reshape(out, (b, ng, cg, n)), (1, 0, 3, 2))
    out = ad.matmul(ad.reshape(out, (ng, b * n, cg)), _diagonal_blocks(p.proj_weight, ng, 1))
    out = ad.reshape(ad.transpose(ad.reshape(out, (ng, b, h, wd, cg)), (1, 2, 3, 0, 4)), (b, h, wd, c))
    out = ad.add(out, p.proj_bias)
    if return_weights:
        return out, attn.data
    return out
