import hashlib
import math
import os
import signal
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from davit import autodiff as ad
from davit import checkpoint as ck
from davit import model as md
from conftest import check_grads, rel_err
from test_autodiff import conv_loops


def toy_config():
    return md.ModelConfig(
        input_size=16,
        num_classes=3,
        stages=[
            md.StageConfig(7, 4, 3, 4, 1, 2, 2),
            md.StageConfig(2, 2, 0, 8, 1, 2, 4),
        ],
    )


# ---------------------------------------------------------------------------
# geometry


def test_default_stage_sizes_are_table_values():
    cfg = md.default_config()
    assert md.stage_output_sizes(cfg) == [75, 38, 19, 10]


def test_patch_embed_300_to_75():
    cfg = md.default_config()
    m = md.build_model(cfg, seed=0)
    out = md.patch_embed(ad.zeros((1, 300, 300, 3)), m.stages[0], cfg.stages[0])
    assert out.shape == (1, 75, 75, 96)


def test_patch_embed_ceil_rule_75_to_38_and_19_to_10():
    s = md.StageConfig(2, 2, 0, 4, 1, 7, 2)
    sp = md.StageParams(md.EmbedParams(ad.zeros((4, 2, 2, 2)), ad.zeros((4,))), [])
    assert md.patch_embed(ad.zeros((1, 75, 75, 2)), sp, s).shape == (1, 38, 38, 4)
    assert md.patch_embed(ad.zeros((1, 38, 38, 2)), sp, s).shape == (1, 19, 19, 4)
    assert md.patch_embed(ad.zeros((1, 19, 19, 2)), sp, s).shape == (1, 10, 10, 4)


def test_patch_embed_rejects_non_square():
    s = md.StageConfig(2, 2, 0, 4, 1, 7, 2)
    sp = md.StageParams(md.EmbedParams(ad.zeros((4, 2, 2, 2)), ad.zeros((4,))), [])
    with pytest.raises(ValueError):
        md.patch_embed(ad.zeros((1, 8, 10, 2)), sp, s)


def test_config_validation():
    cfg = toy_config()
    cfg.stages[0].channels = 5  # not divisible by head_width 2
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = toy_config()
    cfg.stages[1].depth = 0
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = toy_config()
    cfg.input_size = 2
    cfg.stages[0].embed_pad = 1  # 7x7 kernel exceeds the padded 4x4 input
    with pytest.raises(ValueError):
        cfg.validate()


# ---------------------------------------------------------------------------
# construction


def test_build_deterministic_bitwise():
    cfg = toy_config()
    a = md.build_model(cfg, seed=7)
    b = md.build_model(cfg, seed=7)
    for name, t in a.named_parameters().items():
        assert (t.data == b.named_parameters()[name].data).all(), name
    c = md.build_model(cfg, seed=8)
    assert (a.named_parameters()["head.weight"].data != c.named_parameters()["head.weight"].data).any()


def test_parameter_names_bytes_and_checkpoint_pinned(tmp_path):
    # pins the initialisation draw order, the name of each parameter,
    # and the checkpoint layout for one seed
    m = md.build_model(toy_config(), seed=0)
    h = hashlib.sha256()
    for name, t in m.named_parameters().items():
        h.update(name.encode() + b"\0")
        h.update(t.data.tobytes())
    assert h.hexdigest() == "91995f29f9da579e1f2080de8825bd76c32c572270ce2860a0b1e90416ad5ff9"
    path = tmp_path / "toy.ckpt"
    ck.save_checkpoint(m, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "bc15f456afdc07143863fcdcec9daa286f2828cf8a94ae0573d2d13941255c44")

def test_toy_forward_finite_logits():
    cfg = md.ModelConfig(input_size=32, num_classes=10,
                         stages=[md.StageConfig(7, 4, 3, 8, 1, 4, 4),
                                 md.StageConfig(2, 2, 0, 16, 1, 4, 4)])
    m = md.build_model(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = ad.Tensor(rng.uniform(0, 1, size=(2, 3, 32, 32)).astype(np.float32))
    logits = md.forward(m, x)
    assert logits.shape == (2, 10)
    assert np.isfinite(logits.data).all()


def test_forward_wrong_input_rejected():
    m = md.build_model(toy_config(), seed=0)
    with pytest.raises(ValueError):
        md.forward(m, ad.zeros((1, 3, 8, 8)))
    with pytest.raises(ValueError):
        md.forward(m, ad.zeros((1, 1, 16, 16)))
    with pytest.raises(ValueError, match=r"\(B, C, H, W\) Tensor .* shape \(3, 16, 16\)"):
        md.forward(m, ad.zeros((3, 16, 16)))
    with pytest.raises(ValueError, match=r"\(B, C, H, W\) Tensor .*got ndarray"):
        md.forward(m, np.zeros((1, 3, 16, 16), dtype=np.float32))


# ---------------------------------------------------------------------------
# off-tape chunks


def _record_calls(monkeypatch, fn=None):
    """Route md.forward through a wrapper that appends each call's batch size
    to the list returned, then calls fn (default: the real forward). Returns
    the list and the real forward; a chunked forward calls md.forward per chunk.
    The forward runs every chunk in this process (W = 1): a forked worker's
    calls would not reach the list."""
    monkeypatch.setattr(md, "_cpus", lambda: 1)
    sizes = []
    real = md.forward
    inner = fn or real

    def recording(model, x):
        sizes.append(x.shape[0])
        return inner(model, x)

    monkeypatch.setattr(md, "forward", recording)
    return sizes, real


def _cap_at(monkeypatch, cfg, per, itemsize=8):
    monkeypatch.setattr(md, "MMAP_THRESHOLD_MAX", per * max(md.activation_bytes(cfg, itemsize)))
    assert md.images_per_chunk(cfg, itemsize) == per


def test_offtape_chunks_equal_parts_forwarded_alone(monkeypatch):
    cfg = toy_config()
    m = md.build_model(cfg, seed=0, dtype=np.float64)
    x = ad.Tensor(np.random.default_rng(1).uniform(0, 1, (5, 3, 16, 16)))
    whole = md.forward(m, x).data
    _cap_at(monkeypatch, cfg, 2)
    alone = np.concatenate([md.forward(m, ad.Tensor(x.data[i:j])).data
                            for i, j in ((0, 2), (2, 4), (4, 5))])
    sizes, _ = _record_calls(monkeypatch)
    chunked = md.forward(m, x).data
    assert sizes == [5, 2, 2, 1]
    assert chunked.tobytes() == alone.tobytes()
    assert rel_err(chunked, whole) < 1e-6
    assert (chunked.argmax(axis=1) == whole.argmax(axis=1)).all()


def test_default_config_b16_splits_three_three_three_three_two_two(monkeypatch):
    cfg = md.default_config()
    assert md.images_per_chunk(cfg) == 3  # 32 MiB over the 8.64 MB stage-0 FFN hidden map
    sizes, real = _record_calls(monkeypatch, lambda model, x: ad.zeros((x.shape[0], cfg.num_classes)))
    logits = real(md.Model(cfg, [], None), ad.zeros((16, 3, 300, 300)))
    assert sizes == [3, 3, 3, 3, 2, 2] and logits.shape == (16, cfg.num_classes)


def test_tape_forward_runs_the_whole_batch(monkeypatch):
    cfg = toy_config()
    x = ad.Tensor(np.random.default_rng(2).uniform(0, 1, (5, 3, 16, 16)))

    def step():
        m = md.build_model(cfg, seed=0, dtype=np.float64)
        with ad.Tape() as tape:
            loss = ad.tensor_sum(md.forward(m, x))
            nodes = len(tape.nodes)
            ad.backward(loss)
        return nodes, {n: t.grad.tobytes() for n, t in m.named_parameters().items()}

    unchunked = step()
    _cap_at(monkeypatch, cfg, 2)
    sizes, _ = _record_calls(monkeypatch)
    assert step() == unchunked
    assert sizes == [5]


# ---------------------------------------------------------------------------
# off-tape chunk workers

needs_workers = pytest.mark.skipif(not hasattr(os, "fork") or md._blas_threads() is None,
                                   reason="no os.fork or no OpenBLAS thread setter")


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test whose forward waits on a worker for a minute."""
    def expire(*_):
        raise TimeoutError("an off-tape forward waited on its workers for 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _toy_batch(monkeypatch, n, w, seed=3):
    """A float32 toy model, n images and a forward in chunks of one image
    dealt over w processes."""
    cfg = toy_config()
    _cap_at(monkeypatch, cfg, 1, itemsize=4)
    monkeypatch.setattr(md, "_cpus", lambda: w)
    x = np.random.default_rng(seed).uniform(0, 1, (n, 3, 16, 16)).astype(np.float32)
    return md.build_model(cfg, seed=0), x


@needs_workers
@pytest.mark.parametrize("w", [1, 2, 3])
def test_offtape_logits_do_not_depend_on_worker_count(monkeypatch, deadline, w):
    m, x = _toy_batch(monkeypatch, 5, w)
    assert md.offtape_plan(m.config, 5) == (5, w)
    get, set_ = md._blas_threads()
    threads = get()
    set_(1)
    try:
        alone = np.concatenate([md.forward(m, ad.Tensor(x[i:i + 1])).data for i in range(5)])
    finally:
        set_(threads)
    assert md.forward(m, ad.Tensor(x)).data.tobytes() == alone.tobytes()
    assert get() == threads
    _assert_no_children()


def test_offtape_chunks_run_in_the_caller_without_fork(monkeypatch):
    m, x = _toy_batch(monkeypatch, 3, 1)
    monkeypatch.delattr(os, "fork", raising=False)
    assert md.offtape_plan(m.config, 3) == (3, 0)
    sizes, _ = _record_calls(monkeypatch)
    assert md.forward(m, ad.Tensor(x)).shape == (3, 3)
    assert sizes == [3, 1, 1, 1]


@needs_workers
def test_batched_logits_do_not_depend_on_blas_threads():
    """A one-stage default model at 300 px and B=4, two chunks of two: its
    channel logits are a (32, 5625) @ (5625, 32) GEMM per image, whose bits
    follow the BLAS thread count unless every chunk runs at one thread."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from davit import autodiff as ad, model as md
        cfg = md.default_config()
        cfg.stages = cfg.stages[:1]
        x = np.random.default_rng(4).uniform(0, 1, (4, 3, 300, 300)).astype(np.float32)
        sys.stdout.write(md.forward(md.build_model(cfg, seed=0), ad.Tensor(x)).data.tobytes().hex())
    """)
    src_dir = Path(md.__file__).resolve().parents[1]
    logits = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src_dir), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        logits.append(done.stdout)
    assert len(logits[0]) == 4 * 10 * 4 * 2
    assert logits[0] == logits[1]


@needs_workers
@pytest.mark.parametrize("bad", [0, 1])
def test_nonfinite_chunk_raises_in_the_caller(monkeypatch, deadline, bad):
    """Image 0 runs in the caller, image 1 in the forked worker."""
    m, x = _toy_batch(monkeypatch, 4, 2)
    x[bad, 0, 5, 5] = np.nan
    with pytest.raises(ad.NonFiniteError, match="conv2d produced non-finite values"):
        md.forward(m, ad.Tensor(x))
    _assert_no_children()


@needs_workers
@pytest.mark.parametrize("die, status", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
])
def test_dead_worker_raises_its_exit_status(monkeypatch, deadline, die, status):
    m, x = _toy_batch(monkeypatch, 4, 2)
    parent, real = os.getpid(), md.forward

    def dying(model, images):
        if os.getpid() != parent:
            die()
        return real(model, images)

    monkeypatch.setattr(md, "forward", dying)
    with pytest.raises(RuntimeError, match=f"off-tape forward worker [0-9]+ .*{status}"):
        md.forward(m, ad.Tensor(x))
    _assert_no_children()


def test_count_params_formula_matches_construction():
    for cfg in (toy_config(), md.default_config(input_size=300)):
        m = md.build_model(cfg, seed=0)
        assert md.count_params(m) == md.count_params_formula(cfg)


def test_default_config_param_count_value():
    # Table-as-printed (every stage depth 1) comes to 20.41M parameters;
    # the published 48.98M implies deeper stages (see README).
    assert md.count_params_formula(md.default_config()) == 20_411_146


def test_single_linear_layer_count():
    assert 96 * 288 + 288 == 27_936


# ---------------------------------------------------------------------------
# block semantics


def test_block_preserves_shape():
    cfg = md.ModelConfig(input_size=24, num_classes=2,
                         stages=[md.StageConfig(4, 4, 0, 8, 1, 3, 4)])
    m = md.build_model(cfg, seed=3)
    x = ad.Tensor(np.random.default_rng(4).normal(size=(1, 6, 6, 8)).astype(np.float32))
    out = md.dual_attention_block(x, m.stages[0].blocks[0], cfg.stages[0])
    assert out.shape == (1, 6, 6, 8)


def test_zeroed_projections_make_block_identity():
    cfg = toy_config()
    m = md.build_model(cfg, seed=5)
    bp = m.stages[0].blocks[0]
    for t in (bp.spatial.proj_weight, bp.spatial.proj_bias,
              bp.channel.proj_weight, bp.channel.proj_bias,
              bp.ffn1.w2, bp.ffn1.b2, bp.ffn2.w2, bp.ffn2.b2):
        t.data[...] = 0.0
    x = np.random.default_rng(6).normal(size=(2, 4, 4, 4)).astype(np.float32)
    out = md.dual_attention_block(ad.Tensor(x.copy()), bp, cfg.stages[0])
    assert (out.data == x).all()


def test_end_to_end_gradient_fd():
    cfg = md.ModelConfig(input_size=8, num_classes=2, input_channels=1,
                         stages=[md.StageConfig(7, 4, 3, 4, 1, 2, 2)])
    m = md.build_model(cfg, seed=9, dtype=np.float64)
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, size=(1, 1, 8, 8))
    gamma = m.head.norm.gamma.data.copy()
    hw = m.head.weight.data.copy()

    def build(ts):
        m.head.norm.gamma = ts[1]
        m.head.weight = ts[2]
        logits = md.forward(m, ts[0])
        return ad.tensor_sum(ad.mul(logits, logits))

    check_grads(build, [x, gamma, hw])


def test_full_block_gradient_fd():
    # one complete dual-attention block, differentiated end to end
    cfg = md.ModelConfig(input_size=16, num_classes=2,
                         stages=[md.StageConfig(4, 4, 0, 4, 1, 2, 2)])
    m = md.build_model(cfg, seed=11, dtype=np.float64)
    bp = m.stages[0].blocks[0]
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 4, 4, 4))

    def build(ts):
        return ad.tensor_mean(md.dual_attention_block(ts[0], bp, cfg.stages[0]))

    check_grads(build, [x])


# ---------------------------------------------------------------------------
# full-scale forward and straight-line oracle


def test_default_forward_shape_and_duplicate_rows():
    cfg = md.default_config()
    m = md.build_model(cfg, seed=13)
    rng = np.random.default_rng(14)
    one = rng.uniform(0, 1, size=(1, 3, 300, 300)).astype(np.float32)
    batch = ad.Tensor(np.concatenate([one, one], axis=0))
    logits = md.forward(m, batch)
    assert logits.shape == (2, 10)
    assert (logits.data[0] == logits.data[1]).all()
    probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.abs(probs.sum(axis=1) - 1).max() < 1e-6


def test_default_b1_recorded_forward_node_histogram():
    # Each of the 8 blocks' two _attend calls records a v slice, one
    # attention_weights and the attn @ v matmul.
    m = md.build_model(md.default_config(), seed=0)
    x = ad.Tensor(np.random.default_rng(15).uniform(0, 1, size=(1, 3, 300, 300)).astype(np.float32))
    with ad.Tape() as tape:
        md.forward(m, x)
    assert Counter(node.op for node in tape.nodes) == {
        "reshape": 44, "linear": 33, "transpose": 24, "layer_norm": 17, "add": 16, "slice": 12,
        "gelu": 8, "matmul": 8, "attention_weights": 8, "conv2d": 4, "pad": 4, "scale": 1, "sum": 1}
    assert len(tape.nodes) == 180


def sl_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def sl_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def sl_gelu(x):
    from scipy import special
    return 0.5 * x * (1.0 + special.erf(x / math.sqrt(2.0)))


def sl_block(x, bp, s, ffn_hidden):
    # straight-line dual attention block on a single B=1 map, no padding
    b, h, w, c = x.shape
    assert b == 1 and h % s.window_size == 0 and w % s.window_size == 0
    ws = s.window_size
    nh = c // s.head_width
    ch = s.head_width

    def spatial(xin, p):
        xw = xin.reshape(h // ws, ws, w // ws, ws, c).transpose(0, 2, 1, 3, 4).reshape(-1, ws * ws, c)
        qkv = xw @ p.qkv_weight.data + p.qkv_bias.data
        out = np.empty_like(xw)
        for t in range(xw.shape[0]):
            parts = []
            for head in range(nh):
                sl = slice(head * ch, (head + 1) * ch)
                q = qkv[t, :, :c][:, sl]
                k = qkv[t, :, c:2 * c][:, sl]
                v = qkv[t, :, 2 * c:][:, sl]
                parts.append(sl_softmax(q @ k.T / math.sqrt(ch)) @ v)
            out[t] = np.concatenate(parts, axis=1)
        out = out @ p.proj_weight.data + p.proj_bias.data
        return out.reshape(h // ws, w // ws, ws, ws, c).transpose(0, 2, 1, 3, 4).reshape(1, h, w, c)

    def channel(xin, p):
        cg = p.head_width
        same = (np.arange(c)[:, None] // cg) == (np.arange(c)[None, :] // cg)
        wq = p.qkv_weight.data * np.tile(same, (1, 3))
        wp = p.proj_weight.data * same
        tokens = xin.reshape(h * w, c)
        qkv = tokens @ wq + p.qkv_bias.data
        out = np.empty((h * w, c))
        for g in range(c // cg):
            sl = slice(g * cg, (g + 1) * cg)
            q = qkv[:, :c][:, sl].T
            k = qkv[:, c:2 * c][:, sl].T
            v = qkv[:, 2 * c:][:, sl].T
            out[:, sl] = (sl_softmax(q @ k.T / math.sqrt(cg)) @ v).T
        out = out @ wp + p.proj_bias.data
        return out.reshape(1, h, w, c)

    def ffn(xin, f):
        t = xin.reshape(-1, c)
        t = sl_gelu(t @ f.w1.data + f.b1.data)
        return (t @ f.w2.data + f.b2.data).reshape(1, h, w, c)

    x = x + spatial(sl_layer_norm(x, bp.norm1.gamma.data, bp.norm1.beta.data), bp.spatial)
    x = x + ffn(sl_layer_norm(x, bp.norm2.gamma.data, bp.norm2.beta.data), bp.ffn1)
    x = x + channel(sl_layer_norm(x, bp.norm3.gamma.data, bp.norm3.beta.data), bp.channel)
    x = x + ffn(sl_layer_norm(x, bp.norm4.gamma.data, bp.norm4.beta.data), bp.ffn2)
    return x


def test_forward_matches_straight_line_oracle():
    cfg = toy_config()
    m = md.build_model(cfg, seed=15, dtype=np.float64)
    rng = np.random.default_rng(16)
    img = rng.uniform(0, 1, size=(1, 3, 16, 16))

    got = md.forward(m, ad.Tensor(img.copy())).data

    # independent straight-line re-implementation on the same weights
    x = img
    for sp, s in zip(m.stages, cfg.stages):
        if s.embed_pad > 0:
            pad4 = (s.embed_pad,) * 4
        else:
            out_sz = -(-x.shape[2] // s.embed_stride)
            extra = max(0, (out_sz - 1) * s.embed_stride + s.embed_kernel - x.shape[2])
            pad4 = (0, extra, 0, extra)
        x = conv_loops(x, sp.embed.weight.data, s.embed_stride, pad4)
        x = x + sp.embed.bias.data[None, :, None, None]
        x = x.transpose(0, 2, 3, 1)
        for bp in sp.blocks:
            x = sl_block(x, bp, s, cfg.ffn_hidden(s.channels))
        x = x.transpose(0, 3, 1, 2)
    x = x.transpose(0, 2, 3, 1)
    x = sl_layer_norm(x, m.head.norm.gamma.data, m.head.norm.beta.data)
    x = x.mean(axis=(1, 2))
    want = x @ m.head.weight.data + m.head.bias.data

    assert rel_err(got, want) < 1e-6
