"""Spatial window attention and channel group attention kernels.

Spatial window attention treats the pixels of each non-overlapping
w x w window as tokens and the channels as features: multi-head scaled
dot-product attention runs inside every window independently. Channel
group attention flips the roles: tokens are channels (grouped into
groups of group_width) and each token's feature vector is the whole
H*W spatial map, so every channel token is globally receptive.

Both kernels share one parameter layout: a fused C -> 3C q/k/v linear
map and a C -> C output projection, each applied as one `ad.linear`. In
the channel kernel the q/k/v and projection maps use only the diagonal
blocks of those weights, one Cg x Cg block per group (a channel only
mixes with channels of its own group), and the matching Cg-wide slices
of the biases: each map is one `ad.linear` with groups=Ng, which gathers
the blocks and adds the group's bias inside its GEMM. This keeps groups
fully independent: a perturbation inside one group leaves every other
group's output bitwise unchanged, and the off-diagonal entries get zero
gradient. With a single group the one diagonal block is the whole weight
and the kernel reduces to the dense map.
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


def _attend(qkv, scale, mask=None):
    """Scaled dot-product attention on a (3, T, tokens, width) q/k/v stack.

    Returns the (T, tokens, width) output and the (T, tokens, tokens)
    attention weights.
    """
    v = qkv[2]  # recorded first, so its backward adds into the stack's buffer last
    attn = ad.attention_weights(qkv, scale, mask)
    return ad.matmul(attn, v), attn


def spatial_window_attention(x, p, window_size, return_weights=False):
    """Multi-head self-attention inside non-overlapping spatial windows.

    x is B x H x W x C. The q/k/v and output maps run on the real tokens
    only; the q/k/v stack is zero-padded on the bottom/right to whole
    windows (adding 0 rows and 0 columns when the map already is whole
    windows), and padded keys are excluded from the softmax, so they draw
    zero attention weight. Weights come back as (B*nW*nh, w^2, w^2),
    heads innermost.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    b, h, wd, c = x.shape
    if c != p.channels:
        raise ValueError(f"input has {c} channels, params expect {p.channels}")
    ch = p.head_width
    nh = c // ch
    w = window_size
    ph = -(-h // w) * w
    pw = -(-wd // w) * w
    nwh, nww = ph // w, pw // w

    qkv = ad.linear(x, p.qkv_weight, p.qkv_bias)  # (B, H, W, 3C)
    qkv = ad.pad(qkv, ((0, 0), (0, ph - h), (0, pw - wd), (0, 0)))
    real = np.zeros((ph, pw), dtype=bool)
    real[:h, :wd] = True
    keys = real.reshape(nwh, w, nww, w).transpose(0, 2, 1, 3).reshape(nwh * nww, w * w)
    mask = np.repeat(np.tile(keys, (b, 1)), nh, axis=0)[:, None, :]  # (B*nW*nh, 1, w^2)
    qkv = ad.transpose(ad.reshape(qkv, (b, nwh, w, nww, w, 3, nh, ch)), (5, 0, 1, 3, 6, 2, 4, 7))
    # rebind qkv so the padded stack is freed once its windowed copy exists, not held through _attend
    qkv = ad.reshape(qkv, (3, b * nwh * nww * nh, w * w, ch))  # (window, head) batch order
    out, attn = _attend(qkv, 1.0 / np.sqrt(ch), mask)

    out = ad.transpose(ad.reshape(out, (b, nwh, nww, nh, w, w, ch)), (0, 1, 4, 2, 5, 3, 6))
    out = ad.reshape(out, (b, ph, pw, c))[:, :h, :wd, :]
    out = ad.linear(out, p.proj_weight, p.proj_bias)
    if return_weights:
        return out, attn.data
    return out


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
    qkv = ad.linear(groups, p.qkv_weight, p.qkv_bias, groups=ng)  # (Ng, B*N, 3Cg)
    qkv = ad.transpose(ad.reshape(qkv, (ng, b, n, 3, cg)), (3, 1, 0, 4, 2))  # (3, B, Ng, Cg, N)
    out, attn = _attend(ad.reshape(qkv, (3, b * ng, cg, n)), 1.0 / np.sqrt(cg))

    out = ad.transpose(ad.reshape(out, (b, ng, cg, n)), (1, 0, 3, 2))
    out = ad.linear(ad.reshape(out, (ng, b * n, cg)), p.proj_weight, p.proj_bias, groups=ng)
    out = ad.reshape(ad.transpose(ad.reshape(out, (ng, b, h, wd, cg)), (1, 2, 3, 0, 4)), (b, h, wd, c))
    if return_weights:
        return out, attn.data
    return out
