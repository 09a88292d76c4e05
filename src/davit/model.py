"""Four-stage dual-attention pyramid: patch embeddings, blocks, head.

Stage 1 embeds patches with a 7x7 stride-4 convolution (symmetric pad
3); later stages halve the spatial extent with 2x2 stride-2
convolutions. A stage with embed_pad 0 and stride > 1 zero-pads the
bottom/right edge just enough to make the output extent
ceil(input/stride), which takes a 300-pixel input through spatial sizes
75, 38, 19, 10.

Every block applies, in order, with pre-normalization and residuals:
spatial window attention, FFN, channel group attention, FFN. The head
is a layer norm, global average pool, and a linear map to class logits.

The parameter tree below (Model -> StageParams -> BlockParams -> ...) is
the only owner of the parameters. A parameter's name is its attribute
path in that tree, for example `stages.0.blocks.0.spatial.qkv_weight` or
`head.weight`; `named_parameters()` walks the tree in field order, and
checkpoints store each tensor under that name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from davit import autodiff as ad
from davit import attention as at


@dataclass
class StageConfig:
    embed_kernel: int
    embed_stride: int
    embed_pad: int
    channels: int
    depth: int
    window_size: int
    head_width: int

    def validate(self):
        if self.channels < 1 or self.head_width < 1 or self.channels % self.head_width:
            raise ValueError(f"channels {self.channels} not divisible by head width {self.head_width}")
        if self.depth < 1:
            raise ValueError("stage depth must be >= 1")
        if self.embed_kernel < 1 or self.embed_stride < 1 or self.embed_pad < 0:
            raise ValueError("invalid patch embedding geometry")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")


@dataclass
class ModelConfig:
    input_size: int
    num_classes: int
    stages: list
    input_channels: int = 3
    ffn_expansion: float = 4.0

    def validate(self):
        if self.input_size < 1:
            raise ValueError("input_size must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.input_channels < 1:
            raise ValueError("input_channels must be >= 1")
        if self.ffn_expansion <= 0:
            raise ValueError("ffn_expansion must be > 0")
        if not self.stages:
            raise ValueError("at least one stage required")
        for s in self.stages:
            s.validate()
        for size in stage_output_sizes(self):
            if size < 1:
                raise ValueError("a stage collapses the spatial extent below 1")

    def ffn_hidden(self, channels):
        hidden = int(round(channels * self.ffn_expansion))
        if hidden < 1:
            raise ValueError("ffn_expansion too small for channel width")
        return hidden


def default_config(num_classes=10, input_size=300, depths=(1, 1, 1, 1)):
    """The published four-stage architecture: C = 96/192/384/768,
    7x7 windows, head and group width 32, stride-4 then stride-2 embeds."""
    channels = (96, 192, 384, 768)
    stages = [StageConfig(7, 4, 3, channels[0], depths[0], 7, 32)]
    for i in range(1, 4):
        stages.append(StageConfig(2, 2, 0, channels[i], depths[i], 7, 32))
    return ModelConfig(input_size=input_size, num_classes=num_classes, stages=stages)


def _embed_geometry(size, s: StageConfig):
    """Output extent and (top, bottom, left, right) padding for one stage."""
    if s.embed_pad > 0:
        out = (size + 2 * s.embed_pad - s.embed_kernel) // s.embed_stride + 1
        return out, (s.embed_pad,) * 4
    out = -(-size // s.embed_stride)  # ceil
    needed = (out - 1) * s.embed_stride + s.embed_kernel
    extra = max(0, needed - size)
    return out, (0, extra, 0, extra)


def stage_output_sizes(cfg: ModelConfig):
    sizes = []
    size = cfg.input_size
    for s in cfg.stages:
        size, _ = _embed_geometry(size, s)
        sizes.append(size)
    return sizes


@dataclass
class NormParams:
    gamma: ad.Tensor
    beta: ad.Tensor


@dataclass
class FFNParams:
    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor


@dataclass
class BlockParams:
    norm1: NormParams
    spatial: at.AttentionParams
    norm2: NormParams
    ffn1: FFNParams
    norm3: NormParams
    channel: at.AttentionParams
    norm4: NormParams
    ffn2: FFNParams


@dataclass
class EmbedParams:
    weight: ad.Tensor
    bias: ad.Tensor


@dataclass
class StageParams:
    embed: EmbedParams
    blocks: list


@dataclass
class HeadParams:
    norm: NormParams
    weight: ad.Tensor
    bias: ad.Tensor


@dataclass
class Model:
    config: ModelConfig
    stages: list
    head: HeadParams

    def named_parameters(self):
        """Name -> Tensor for every parameter, in tree order."""
        return dict(_walk("", self))

    def forward(self, images):
        return forward(self, images)


def _walk(prefix, node):
    if isinstance(node, ad.Tensor):
        yield prefix[:-1], node
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _walk(f"{prefix}{i}.", child)
    elif is_dataclass(node):
        for f in fields(node):
            yield from _walk(f"{prefix}{f.name}.", getattr(node, f.name))


def build_model(cfg: ModelConfig, seed: int, dtype=None) -> Model:
    """Instantiate all parameters; deterministic for a fixed seed."""
    cfg.validate()
    rng = np.random.default_rng(seed)

    def norm(c):
        return NormParams(ad.ones((c,), requires_grad=True, dtype=dtype),
                          ad.zeros((c,), requires_grad=True, dtype=dtype))

    def linear(cin, cout):
        w = ad.trunc_normal((cin, cout), 0.0, 0.02, rng=rng, dtype=dtype, requires_grad=True)
        b = ad.zeros((cout,), requires_grad=True, dtype=dtype)
        return w, b

    stages = []
    cin = cfg.input_channels
    for s in cfg.stages:
        embed_w = ad.trunc_normal((s.channels, cin, s.embed_kernel, s.embed_kernel),
                                  0.0, 0.02, rng=rng, dtype=dtype, requires_grad=True)
        embed_b = ad.zeros((s.channels,), requires_grad=True, dtype=dtype)
        blocks = []
        hidden = cfg.ffn_hidden(s.channels)
        for _ in range(s.depth):
            w1, b1 = linear(s.channels, hidden)
            w2, b2 = linear(hidden, s.channels)
            w3, b3 = linear(s.channels, hidden)
            w4, b4 = linear(hidden, s.channels)
            blocks.append(BlockParams(
                norm1=norm(s.channels),
                spatial=at.init_attention_params(s.channels, s.head_width, rng, dtype=dtype),
                norm2=norm(s.channels),
                ffn1=FFNParams(w1, b1, w2, b2),
                norm3=norm(s.channels),
                channel=at.init_attention_params(s.channels, s.head_width, rng, dtype=dtype),
                norm4=norm(s.channels),
                ffn2=FFNParams(w3, b3, w4, b4),
            ))
        stages.append(StageParams(EmbedParams(embed_w, embed_b), blocks))
        cin = s.channels

    head_norm = norm(cfg.stages[-1].channels)
    head_w, head_b = linear(cfg.stages[-1].channels, cfg.num_classes)
    return Model(cfg, stages, HeadParams(head_norm, head_w, head_b))


def patch_embed(x, sp: StageParams, s: StageConfig):
    """Strided convolution plus bias; x is N x C_in x H x W."""
    size = x.shape[2]
    if x.shape[3] != size:
        raise ValueError(f"expected a square input, got {x.shape}")
    _, pad4 = _embed_geometry(size, s)
    out = ad.conv2d(x, sp.embed.weight, stride=s.embed_stride, pad=pad4)
    return ad.add(out, ad.reshape(sp.embed.bias, (s.channels, 1, 1)))


def _ffn(x, f: FFNParams):
    return ad.linear(ad.gelu(ad.linear(x, f.w1, f.b1)), f.w2, f.b2)


def _norm(x, n: NormParams):
    return ad.layer_norm(x, n.gamma, n.beta)


def dual_attention_block(x, bp: BlockParams, s: StageConfig):
    """Spatial attention, FFN, channel attention, FFN; pre-norm residuals."""
    if x.shape[3] != s.channels:
        raise ValueError(f"block expects {s.channels} channels, got {x.shape[3]}")
    x = ad.add(x, at.spatial_window_attention(_norm(x, bp.norm1), bp.spatial, s.window_size))
    x = ad.add(x, _ffn(_norm(x, bp.norm2), bp.ffn1))
    x = ad.add(x, at.channel_group_attention(_norm(x, bp.norm3), bp.channel))
    x = ad.add(x, _ffn(_norm(x, bp.norm4), bp.ffn2))
    return x


def forward(model: Model, images) -> ad.Tensor:
    """Class logits for a batch of images, shape B x num_classes."""
    cfg = model.config
    b, c, h, w = images.shape
    if c != cfg.input_channels or h != cfg.input_size or w != cfg.input_size:
        raise ValueError(
            f"expected input {cfg.input_channels}x{cfg.input_size}x{cfg.input_size}, got {c}x{h}x{w}")
    x = images
    for sp, s in zip(model.stages, cfg.stages):
        x = patch_embed(x, sp, s)  # N x C x H x W
        x = ad.transpose(x, (0, 2, 3, 1))
        for bp in sp.blocks:
            x = dual_attention_block(x, bp, s)
        x = ad.transpose(x, (0, 3, 1, 2))
    x = ad.transpose(x, (0, 2, 3, 1))
    x = _norm(x, model.head.norm)
    x = ad.tensor_mean(x, axis=(1, 2))  # global average pool
    return ad.linear(x, model.head.weight, model.head.bias)


def count_params(model: Model) -> int:
    return sum(t.size for t in model.named_parameters().values())


def count_params_formula(cfg: ModelConfig) -> int:
    """Closed-form parameter count, cross-checked against construction."""
    total = 0
    cin = cfg.input_channels
    for s in cfg.stages:
        c = s.channels
        hidden = cfg.ffn_hidden(c)
        total += c * cin * s.embed_kernel ** 2 + c
        attention = c * 3 * c + 3 * c + c * c + c
        ffn = c * hidden + hidden + hidden * c + c
        total += s.depth * (4 * 2 * c + 2 * attention + 2 * ffn)
        cin = c
    c4 = cfg.stages[-1].channels
    total += 2 * c4 + c4 * cfg.num_classes + cfg.num_classes
    return total
