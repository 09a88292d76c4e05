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

import ctypes
import functools
import os
import pickle
import signal
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from davit import autodiff as ad
from davit import attention as at

# glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit: malloc serves a larger request
# with a fresh mapping, whose pages the kernel faults in and zeroes on first touch
MMAP_THRESHOLD_MAX = 32 << 20


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
            raise ValueError(f"channels {self.channels} not divisible by head_width {self.head_width}")
        for key, low in (("depth", 1), ("embed_kernel", 1), ("embed_stride", 1), ("embed_pad", 0),
                         ("window_size", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")


@dataclass
class ModelConfig:
    input_size: int
    num_classes: int
    stages: list
    input_channels: int = 3
    ffn_expansion: float = 4.0

    def validate(self):
        for key, low in (("input_size", 1), ("num_classes", 2), ("input_channels", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.ffn_expansion <= 0:
            raise ValueError(f"ffn_expansion must be > 0, got {self.ffn_expansion}")
        if not self.stages:
            raise ValueError("at least one stage required")
        for i, s in enumerate(self.stages):
            try:
                s.validate()
            except ValueError as exc:
                raise ValueError(f"stage {i}: {exc}") from None
        for i, size in enumerate(stage_output_sizes(self)):
            if size < 1:
                raise ValueError(f"input_size {self.input_size} collapses stage {i} below 1 pixel")

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


def activation_bytes(cfg: ModelConfig, itemsize=np.dtype(ad.DEFAULT_DTYPE).itemsize):
    """Per stage, the bytes of one image's widest activation, the FFN hidden map."""
    return [size * size * cfg.ffn_hidden(s.channels) * itemsize
            for size, s in zip(stage_output_sizes(cfg), cfg.stages)]


def images_per_chunk(cfg: ModelConfig, itemsize=np.dtype(ad.DEFAULT_DTYPE).itemsize):
    """Images per off-tape forward chunk: the most whose widest activation
    stays under MMAP_THRESHOLD_MAX, so freed blocks are reused, not remapped."""
    return max(1, MMAP_THRESHOLD_MAX // max(activation_bytes(cfg, itemsize)))


@functools.cache
def _blas_threads():
    """OpenBLAS's (get, set) thread-count functions in numpy's BLAS, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                 "openblas_%s_num_threads"):
        get, set_ = (getattr(lib, name % op, None) for op in ("get", "set"))
        if get and set_:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def offtape_plan(cfg: ModelConfig, batch, itemsize=np.dtype(ad.DEFAULT_DTYPE).itemsize):
    """(chunks, W) of an off-tape forward of `batch` images: the fewest
    near-equal chunks of at most images_per_chunk images, run by W processes
    at one BLAS thread each, so the logits depend on neither W nor the
    caller's thread count. W is at most the CPUs this process may use and
    the chunks; it is 0, and the chunks run in the caller at its own thread
    count, for one chunk or where os.fork or OpenBLAS's thread setter is missing.
    """
    chunks = -(-batch // images_per_chunk(cfg, itemsize))
    if chunks == 1 or not hasattr(os, "fork") or _blas_threads() is None:
        return chunks, 0
    return chunks, min(_cpus(), chunks)


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

    def attention(c, head_width):  # qkv, then proj: the draw order the pinned parameter bytes fix
        return at.AttentionParams(*linear(c, 3 * c), *linear(c, c), head_width)

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
                spatial=attention(s.channels, s.head_width),
                norm2=norm(s.channels),
                ffn1=FFNParams(w1, b1, w2, b2),
                norm3=norm(s.channels),
                channel=attention(s.channels, s.head_width),
                norm4=norm(s.channels),
                ffn2=FFNParams(w3, b3, w4, b4),
            ))
        stages.append(StageParams(EmbedParams(embed_w, embed_b), blocks))
        cin = s.channels

    head_norm = norm(cfg.stages[-1].channels)
    head_w, head_b = linear(cfg.stages[-1].channels, cfg.num_classes)
    return Model(cfg, stages, HeadParams(head_norm, head_w, head_b))


def patch_embed(x, sp: StageParams, s: StageConfig):
    """Strided convolution plus bias; x and the result are N x H x W x C."""
    size = x.shape[1]
    if x.shape[2] != size:
        raise ValueError(f"expected a square input, got {x.shape}")
    _, pad4 = _embed_geometry(size, s)
    return ad.conv2d(x, sp.embed.weight, sp.embed.bias, stride=s.embed_stride, pad=pad4)


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


def _forward_chunks(model, parts, w):
    """Logits of each part, part i forwarded in process i mod w (see offtape_plan)."""
    def run(ps):
        return [forward(model, ad.Tensor(p)).data for p in ps]

    if not w:
        return run(parts)
    get, set_ = _blas_threads()
    threads = get()
    set_(1)
    readers = {}  # child pid -> read end of the pipe it answers on
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: send its parts' logits or its error, exit without cleanup
                try:
                    try:
                        out = run(parts[i::w])
                    except Exception as e:
                        out = e
                    with open(wr, "wb") as f:
                        pickle.dump(out, f)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(wr)
            readers[pid] = open(r, "rb")
        out = [None] * len(parts)
        out[::w] = run(parts[::w])
        for i, pid in enumerate(list(readers), 1):
            with readers.pop(pid) as f:
                data = f.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise RuntimeError(f"off-tape forward worker {pid} " + (
                    f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"))
            got = pickle.loads(data)
            if isinstance(got, Exception):
                raise got
            out[i::w] = got
        return out
    finally:
        set_(threads)
        for pid, f in readers.items():  # left only when unwinding
            f.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def forward(model: Model, images) -> ad.Tensor:
    """Class logits for a batch of images, shape B x num_classes.

    Off a tape a batch of more than images_per_chunk images runs in chunks
    spread over processes as offtape_plan says, and their logits are
    concatenated. Each chunk is its own forward call, so a wrapper of forward
    sees one pass over the stages per chunk the caller runs; a forked child's
    calls stay in the child. On a tape the batch runs whole: the tape keeps
    every chunk's activations until backward anyway.
    """
    cfg = model.config
    if not isinstance(images, ad.Tensor) or images.ndim != 4:
        raise ValueError(f"expected a (B, C, H, W) Tensor of images, "
                         f"got {type(images).__name__} of shape {getattr(images, 'shape', None)}")
    b, c, h, w = images.shape
    if c != cfg.input_channels or h != cfg.input_size or w != cfg.input_size:
        raise ValueError(
            f"expected input {cfg.input_channels}x{cfg.input_size}x{cfg.input_size}, got {c}x{h}x{w}")
    chunks, procs = offtape_plan(cfg, b, images.dtype.itemsize)
    if chunks > 1 and not ad._TAPE_STACK:
        parts = np.array_split(images.data, chunks)
        return ad.Tensor(np.concatenate(_forward_chunks(model, parts, procs)))
    x = ad.transpose(images, (0, 2, 3, 1))  # channels last from here to the head
    for sp, s in zip(model.stages, cfg.stages):
        x = patch_embed(x, sp, s)
        for bp in sp.blocks:
            x = dual_attention_block(x, bp, s)
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
