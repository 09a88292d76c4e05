import csv
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from davit import bench, checkpoint as ck, cli, model as md, synth
from davit.config import load_run_config
from davit.dataset import Dataset, Sample
from davit.train import TrainConfig
from davit import autodiff as ad
from test_model import deadline, needs_workers  # noqa: F401 (deadline is a fixture)

BASE_CONFIG = """\
[model]
input_size = 32
num_classes = 10
channels = 8,16
depths = 1,1
windows = 4,4
head_widths = 4,4

[data]
manifest = data/manifest.csv
train_fraction = 0.8
split_seed = 0

[train]
base_lr = 0.01
warmup_epochs = 0
total_epochs = 2
batch_size = 8
mixup_alpha = 0.0
seed = 0
threshold = 0.0

[out]
dir = {out}
"""


def tag_class_zero(manifest_path):
    """Mark every class-0 row as a hard sample."""
    with open(manifest_path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    zero_label = synth.class_names(10)[0]
    rows[0].append("tag")
    for row in rows[1:]:
        row.append("hard" if row[1] == zero_label else "")
    with open(manifest_path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    manifest = synth.generate_dataset(root / "data", per_class=3, seed=0)
    tag_class_zero(manifest)
    cfg = root / "run.cfg"
    cfg.write_text(BASE_CONFIG.format(out="run"), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return {"root": root, "cfg": cfg, "out": root / "run"}


def read_metrics(out_dir):
    lines = (out_dir / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


# ---------------------------------------------------------------------------
# train


def test_train_artifacts(workspace):
    out = workspace["out"]
    assert (out / "best.ckpt").is_file()
    assert (out / "last.ckpt").is_file()
    assert not (out / "INCOMPLETE").exists()
    records = read_metrics(out)
    assert len(records) == 2  # one line per epoch
    for rec in records:
        assert set(rec) == {"epoch", "lr", "train_loss", "train_acc",
                            "val_acc", "rejected"}
    assert [r["epoch"] for r in records] == [0, 1]
    model = md.build_model(load_run_config(workspace["cfg"]).model, seed=0)
    best_state, _ = ck.load_checkpoint(out / "best.ckpt", model)
    assert best_state is None  # the AdamW moments go to last.ckpt only
    last_state, _ = ck.load_checkpoint(out / "last.ckpt", model)
    names = set(model.named_parameters())
    assert set(last_state.m) == names and set(last_state.v) == names


def test_train_determinism(workspace, tmp_path):
    root = workspace["root"]
    cfg = root / "again.cfg"
    cfg.write_text(BASE_CONFIG.format(out="run_again"), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    a, b = workspace["out"], root / "run_again"
    assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
    assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()
    assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()


def test_diverging_train_ends_with_one_error_line(workspace, capsys, recwarn):
    root = workspace["root"]
    cfg = root / "diverge.cfg"
    text = BASE_CONFIG.format(out="run_diverge").replace("base_lr = 0.01", "base_lr = 1e30")
    cfg.write_text(text, encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: linear produced non-finite values"
    assert not any(line.startswith("error:") for line in err[:-1])
    assert (root / "run_diverge" / "INCOMPLETE").is_file()
    # the overflow surfaces only as that error, not as numpy RuntimeWarnings
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_missing_manifest(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\nmanifest = nowhere/missing.csv\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) != 0
    assert "missing.csv" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_image_size_unlike_input_size_fails_early(workspace, command, capsys):
    root = workspace["root"]
    cfg = root / f"size24_{command}.cfg"
    cfg.write_text(BASE_CONFIG.format(out=f"run_size24_{command}").replace("input_size = 32", "input_size = 24"),
                   encoding="utf-8")
    init = [] if command == "train" else ["--init-from", str(workspace["out"] / "best.ckpt")]
    assert cli.main([command, "--config", str(cfg)] + init) != 0
    err = capsys.readouterr().err
    assert "manifest.csv: images are 3x32x32, but [model] expects 3x24x24" in err
    assert not (root / f"run_size24_{command}" / "INCOMPLETE").exists()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[train]\nbogus = 1\n", encoding="utf-8")
    assert cli.main(["inspect", "--config", str(cfg)]) != 0
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["seed = 1\n[train]\n", "[train]\nseed = 1\nseed = 2\n",
                                  "[train]\nseed = 1\n[train]\nseed = 2\n"],
                         ids=["key_before_section", "duplicate_key", "duplicate_section"])
def test_malformed_config_is_one_error_line(tmp_path, text):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "davit.cli", "inspect", "--config", str(cfg)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: malformed config file ") and str(cfg) in line


def test_config_with_byte_order_mark_loads(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(BASE_CONFIG.format(out="run"), encoding="utf-8")
    marked.write_text(BASE_CONFIG.format(out="run"), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_run_config(marked) == load_run_config(plain)


def test_config_not_utf8_names_the_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"[train]\nseed = 1  # \xa7 1\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(cfg))}: byte 20 is not UTF-8"):
        load_run_config(cfg)


def test_manifest_field_over_csv_limit_is_one_error_line(tmp_path):
    (tmp_path / "a.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("relative_path,label_name\na.ppm," + "x" * 200_000 + "\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\nmanifest = manifest.csv\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "davit.cli", "train", "--config", str(cfg)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    assert line == f"error: {manifest} line 2: field larger than field limit (131072)"


@pytest.mark.parametrize("section, key", [
    ("model", "window"), ("data", "manifests"), ("train", "threshhold"),
    ("bench", "timed"), ("out", "dirr")])
def test_misspelled_key_rejected(tmp_path, section, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{section}]\n{key} = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(cfg))}: unknown key '{key}' in \[{section}\]$"):
        load_run_config(cfg)


def test_resume_reproduces_recorded_eval(workspace, capsys):
    root = workspace["root"]
    cfg = root / "finetune.cfg"
    text = BASE_CONFIG.format(out="run_ft").replace(
        "total_epochs = 2", "total_epochs = 1").replace(
        "[train]", "[train]\n", 1)
    text = text.replace("split_seed = 0",
                        "split_seed = 0\nupweight_tag = hard\nupweight_factor = 4.0")
    cfg.write_text(text, encoding="utf-8")
    best = workspace["out"] / "best.ckpt"
    assert cli.main(["train", "--config", str(cfg),
                     "--init-from", str(best)]) == 0
    err = capsys.readouterr().err
    m = re.search(r"recorded val acc (\S+), epoch-0 val acc (\S+)", err)
    assert m is not None, err
    assert m.group(1) == m.group(2)  # repr equality, so bitwise equality
    # under split_seed 0 one of the three tagged rows lands in the val split
    assert "upweighted 2 samples tagged 'hard' by 4.0" in err


# ---------------------------------------------------------------------------
# eval


def test_eval_matches_final_training_line(workspace, capsys):
    last = workspace["out"] / "last.ckpt"
    assert cli.main(["eval", "--config", str(workspace["cfg"]),
                     "--init-from", str(last)]) == 0
    doc = json.loads(capsys.readouterr().out)
    final = read_metrics(workspace["out"])[-1]
    assert doc["accuracy"] == final["val_acc"]
    assert doc["rejected_count"] == final["rejected"]
    on_disk = json.loads((workspace["out"] / "eval.json").read_text(encoding="utf-8"))
    assert on_disk == doc


def test_eval_threshold_monotone(workspace, capsys):
    best = workspace["out"] / "best.ckpt"
    accs = {}
    for thr in ("0.0", "0.5"):
        assert cli.main(["eval", "--config", str(workspace["cfg"]),
                         "--init-from", str(best), "--threshold", thr]) == 0
        accs[thr] = json.loads(capsys.readouterr().out)["accuracy"]
    assert accs["0.0"] >= accs["0.5"]


def test_eval_requires_checkpoint(workspace, capsys):
    assert cli.main(["eval", "--config", str(workspace["cfg"])]) != 0
    assert "--init-from" in capsys.readouterr().err


def test_corrupt_and_mismatch_reported_distinctly(workspace, tmp_path, capsys):
    best = (workspace["out"] / "best.ckpt").read_bytes()
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(best[: len(best) - 7])
    assert cli.main(["eval", "--config", str(workspace["cfg"]),
                     "--init-from", str(broken)]) != 0
    corrupt_msg = capsys.readouterr().err
    assert corrupt_msg.count("corrupt checkpoint") == 1, corrupt_msg

    other = md.build_model(
        md.ModelConfig(input_size=32, num_classes=10,
                       stages=[md.StageConfig(7, 4, 3, 4, 1, 4, 4)]), seed=0)
    wrong = tmp_path / "wrong.ckpt"
    ck.save_checkpoint(other, wrong)
    assert cli.main(["eval", "--config", str(workspace["cfg"]),
                     "--init-from", str(wrong)]) != 0
    mismatch_msg = capsys.readouterr().err
    assert "checkpoint mismatch" in mismatch_msg
    assert "corrupt checkpoint" not in mismatch_msg


def test_hash_mismatch_needs_force(workspace, capsys):
    root = workspace["root"]
    cfg = root / "rewindowed.cfg"
    cfg.write_text(BASE_CONFIG.format(out="run_rw").replace(
        "windows = 4,4", "windows = 2,2"), encoding="utf-8")
    best = str(workspace["out"] / "best.ckpt")
    assert cli.main(["eval", "--config", str(cfg), "--init-from", best]) != 0
    err = capsys.readouterr().err
    assert "warning" in err and "hash mismatch" in err
    assert cli.main(["eval", "--config", str(cfg), "--init-from", best,
                     "--force"]) == 0
    assert "warning" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench and inspect


def test_bench_command(workspace, capsys):
    root = workspace["root"]
    cfg = root / "bench.cfg"
    cfg.write_text(BASE_CONFIG.format(out="run_bench") +
                   "\n[bench]\nwarmup_iters = 1\ntimed_iters = 3\n",
                   encoding="utf-8")
    assert cli.main(["bench", "--config", str(cfg)]) == 0
    assert "fps" in capsys.readouterr().out
    rows = bench.from_csv((root / "run_bench" / "bench.csv").read_text(encoding="utf-8"))
    assert len(rows) == 1
    assert rows[0]["param_count"] == md.count_params_formula(
        load_run_config(cfg).model)


def test_bench_loads_init_from(workspace, capsys):
    root = workspace["root"]
    cfg = root / "bench_init.cfg"
    cfg.write_text(BASE_CONFIG.format(out="run_bench_init") +
                   "\n[bench]\nwarmup_iters = 1\ntimed_iters = 1\n",
                   encoding="utf-8")
    missing = root / "nowhere" / "missing.ckpt"
    assert cli.main(["bench", "--config", str(cfg), "--init-from", str(missing)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "missing.ckpt" in err[0]
    assert not (root / "run_bench_init" / "bench.csv").exists()
    best = workspace["out"] / "best.ckpt"
    assert cli.main(["bench", "--config", str(cfg), "--init-from", str(best)]) == 0
    assert (root / "run_bench_init" / "bench.csv").stat().st_size > 0


def test_inspect_default_config_fast(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("", encoding="utf-8")
    t0 = time.monotonic()
    assert cli.main(["inspect", "--config", str(cfg)]) == 0
    assert time.monotonic() - t0 < 5.0
    out = capsys.readouterr().out.splitlines()
    assert "stage1: size=75 channels=96" in out
    assert "stage2: size=38 channels=192" in out
    assert "stage3: size=19 channels=384" in out
    assert "stage4: size=10 channels=768" in out
    assert "stage1 activation: 8640000 bytes per image" in out  # 75 * 75 * 384 float32
    assert "stage4 activation: 1228800 bytes per image" in out
    assert "images_per_chunk: 3" in out
    assert "logits: 10" in out
    assert "params: 20411146" in out


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("", encoding="utf-8")
    rc = load_run_config(cfg)
    assert rc.model == md.default_config()
    assert rc.train == TrainConfig()
    assert rc.train.threshold == 0.5
    assert rc.data.train_fraction == 0.8 and rc.data.split_seed == 0
    assert rc.data.manifest is None and rc.data.policy is None
    assert rc.data.upweight_factor == 4.0 and rc.data.upweight_tag is None
    assert (rc.bench.batch_size, rc.bench.warmup_iters, rc.bench.timed_iters) == (1, 20, 100)
    assert rc.out_dir == str(tmp_path / "runs")


def test_readme_config_reference_loads_to_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Config reference.*?```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "readme.cfg").write_text(block, encoding="utf-8")
    (tmp_path / "empty.cfg").write_text("", encoding="utf-8")
    rc = load_run_config(tmp_path / "readme.cfg")
    assert rc.data.manifest == str(tmp_path / "data/manifest.csv")
    rc.data.manifest = None
    assert rc == load_run_config(tmp_path / "empty.cfg")


def test_config_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[train]\nseed = 3\nthreshold = 0.9\n", encoding="utf-8")
    rc = load_run_config(cfg, seed=7, threshold=0.25)
    assert rc.train.seed == 7
    assert rc.train.threshold == 0.25


def test_config_errors(tmp_path):
    def load(text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        return load_run_config(cfg)

    bad = re.escape(str(tmp_path / "bad.cfg"))  # every error names the file first
    with pytest.raises(ValueError, match=rf"^{bad}: unknown config section \[nope\]$"):
        load("[nope]\nx = 1\n")
    with pytest.raises(ValueError, match=rf"^{bad}: \[train\] base_lr"):
        load("[train]\nbase_lr = fast\n")
    with pytest.raises(ValueError, match=rf"^{bad}: \[model\] depths has 3 entries for 2 stages$"):
        load("[model]\nchannels = 8,16\ndepths = 1,2,3\n")
    with pytest.raises(ValueError, match=rf"^{bad}: \[model\] stage 1: depth must be >= 1, got 0$"):
        load("[model]\nchannels = 8,16\nhead_widths = 4\ndepths = 1,0\n")
    with pytest.raises(ValueError, match=rf"^{bad}: \[train\] threshold must be in \[0, 1\), got 1.5$"):
        load("[train]\nthreshold = 1.5\n")
    with pytest.raises(ValueError, match=rf"^{bad}: \[data\] train_fraction must be in \(0, 1\), got 0.0$"):
        load("[data]\ntrain_fraction = 0\n")
    with pytest.raises(ValueError, match=rf"^{bad}: \[train\] mixup_alpha must be >= 0, got -1.0$"):
        load("[train]\nmixup_alpha = -1\n")
    with pytest.raises(ValueError, match="config file not found"):
        load_run_config(tmp_path / "absent.cfg")
    for section, key in [("train", "base_lr"), ("train", "weight_decay"), ("train", "eps"),
                         ("train", "mixup_alpha"), ("data", "upweight_factor"),
                         ("model", "ffn_expansion")]:
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match=rf"^{bad}: \[{section}\] {key}: not a finite number"):
                load(f"[{section}]\n{key} = {value}\n")


def test_config_holdout_and_lists(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\nholdout_tags = hard, verify\n"
                   "[model]\nchannels = 8,16\nwindows = 4\nhead_widths = 4\n",
                   encoding="utf-8")
    rc = load_run_config(cfg)
    assert rc.data.holdout_tags == frozenset({"hard", "verify"})
    assert [s.window_size for s in rc.model.stages] == [4, 4]  # broadcast
    assert [s.embed_kernel for s in rc.model.stages] == [7, 2]


# Each case: (config text, manifest text or None, a.ppm's bytes or None, the
# file the error must name, what else it must name: the key or row).
GOOD_PPM = b"P6\n2 2\n255\n" + bytes(12)
GOOD_MANIFEST = "relative_path,label_name\na.ppm,x\nb.ppm,y\n"
WITH_MANIFEST = "[model]\ninput_size = 2\n[data]\nmanifest = m.csv\n"
BAD_INPUTS = {
    "not_a_boolean": ("[train]\ncosine_decay = maybe\n", None, None, "run.cfg", "[train] cosine_decay"),
    "empty_list_element": ("[data]\nholdout_tags = a,,b\n", None, None, "run.cfg", "[data] holdout_tags"),
    "upweight_factor": ("[data]\nupweight_factor = 0\n", None, None, "run.cfg", "[data] upweight_factor"),
    "seed": ("[train]\nseed = -1\n", None, None, "run.cfg", "[train] seed"),
    "total_epochs": ("[train]\nwarmup_epochs = 0\ntotal_epochs = 0\n", None, None, "run.cfg", "[train] total_epochs"),
    "split_seed": ("[data]\nsplit_seed = -3\n", None, None, "run.cfg", "[data] split_seed"),
    "bench_batch_size": ("[bench]\nbatch_size = 0\n", None, None, "run.cfg", "[bench] batch_size"),
    "bench_warmup_iters": ("[bench]\nwarmup_iters = -1\n", None, None, "run.cfg", "[bench] warmup_iters"),
    "bench_timed_iters": ("[bench]\ntimed_iters = 0\n", None, None, "run.cfg", "[bench] timed_iters"),
    "input_size": ("[model]\ninput_size = 0\n", None, None, "run.cfg", "[model] input_size"),
    "num_classes": ("[model]\nnum_classes = 1\n", None, None, "run.cfg", "[model] num_classes"),
    "input_channels": ("[model]\ninput_channels = 0\n", None, None, "run.cfg", "[model] input_channels"),
    "ffn_expansion": ("[model]\nffn_expansion = -1\n", None, None, "run.cfg", "[model] ffn_expansion"),
    "collapsed_stage": ("[model]\ninput_size = 2\nembed_pads = 1\n", None, None, "run.cfg",
                        "[model] input_size 2 collapses stage 0"),
    "depths": ("[model]\ndepths = 0\n", None, None, "run.cfg", "[model] stage 0: depth"),
    "windows": ("[model]\nwindows = 7,7,0,7\n", None, None, "run.cfg", "[model] stage 2: window_size"),
    "head_widths": ("[model]\nhead_widths = 5\n", None, None, "run.cfg", "[model] stage 0: channels 96"),
    "embed_kernels": ("[model]\nembed_kernels = 0\n", None, None, "run.cfg", "[model] stage 0: embed_kernel"),
    "embed_strides": ("[model]\nembed_strides = 0\n", None, None, "run.cfg", "[model] stage 0: embed_stride"),
    "embed_pads": ("[model]\nembed_pads = -1\n", None, None, "run.cfg", "[model] stage 0: embed_pad"),
    "no_manifest": ("[train]\nseed = 1\n", None, None, "run.cfg", "[data] manifest"),
    "empty_train_split": (WITH_MANIFEST + "train_fraction = 0.1\n", GOOD_MANIFEST, GOOD_PPM, "run.cfg",
                          "[data] train_fraction"),
    "all_held_out": (WITH_MANIFEST + "holdout_tags = t\n", "relative_path,label_name,tag\na.ppm,x,t\nb.ppm,y,t\n",
                     GOOD_PPM, "run.cfg", "[data] train_fraction"),
    "class_count": (WITH_MANIFEST.replace("[data]", "num_classes = 3\n[data]"), GOOD_MANIFEST, GOOD_PPM, "m.csv",
                    "2 classes, but [model] num_classes = 3"),
    "manifest_header": (WITH_MANIFEST, "path,label\na.ppm,x\n", GOOD_PPM, "m.csv", "relative_path,label_name"),
    "manifest_no_rows": (WITH_MANIFEST, "relative_path,label_name\n", GOOD_PPM, "m.csv", "no samples"),
    "manifest_no_label": (WITH_MANIFEST, "relative_path,label_name\na.ppm,\n", GOOD_PPM, "m.csv", "row 2"),
    "manifest_no_path": (WITH_MANIFEST, "relative_path,label_name\nb.ppm,y\n,x\n", GOOD_PPM, "m.csv", "row 3"),
    "manifest_weight": (WITH_MANIFEST, "relative_path,label_name,weight\na.ppm,x,heavy\n", GOOD_PPM, "m.csv",
                        "row 2: bad weight 'heavy'"),
    "manifest_repeated_column": (WITH_MANIFEST, "relative_path,label_name,label_name\na.ppm,x,y\n", GOOD_PPM,
                                 "m.csv", "header names column 'label_name' twice"),
    "manifest_extra_field": (WITH_MANIFEST, "relative_path,label_name,weight\na.ppm,x,2,5\nb.ppm,y,1\n", GOOD_PPM,
                             "m.csv", "row 2: 4 fields, but the header has 3"),
    "ppm_truncated": (WITH_MANIFEST, GOOD_MANIFEST, b"P6\n2 2", "a.ppm", "m.csv row 2"),
    "ppm_malformed": (WITH_MANIFEST, GOOD_MANIFEST, b"P6\n2 x\n255\n" + bytes(12), "a.ppm", "m.csv row 2"),
    "ppm_zero_width": (WITH_MANIFEST, GOOD_MANIFEST, b"P6\n0 2\n255\n", "a.ppm", "m.csv row 2"),
}


def run_bad_input(tmp_path, capsys, case, command="train", *flags):
    """Write BAD_INPUTS[case]'s files, run the command on them, return its one error line."""
    config, manifest, ppm, _, _ = BAD_INPUTS[case]
    (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    if manifest is not None:
        (tmp_path / "m.csv").write_text(manifest, encoding="utf-8")
    if ppm is not None:
        (tmp_path / "a.ppm").write_bytes(ppm)
        (tmp_path / "b.ppm").write_bytes(GOOD_PPM)
    assert cli.main([command, "--config", str(tmp_path / "run.cfg"), *flags]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: "), line
    assert not list(tmp_path.glob("runs"))  # nothing started
    return line


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_is_one_error_line_naming_file_and_key_or_row(case, tmp_path, capsys):
    _, _, _, named, key = BAD_INPUTS[case]
    line = run_bad_input(tmp_path, capsys, case)
    assert str(tmp_path / named) in line and key in line, line


def test_eval_checks_the_class_count(tmp_path, capsys):
    # eval loads the splits as train does, before it reads the checkpoint
    line = run_bad_input(tmp_path, capsys, "class_count", "eval", "--init-from", "none.ckpt")
    assert str(tmp_path / "m.csv") in line and "2 classes, but [model] num_classes = 3" in line, line


def test_seed_flag_is_checked_as_the_key(tmp_path, capsys):
    line = run_bad_input(tmp_path, capsys, "no_manifest", "train", "--seed", "-1")
    assert str(tmp_path / "run.cfg") in line and "[train] seed must be >= 0, got -1" in line, line


@needs_workers
def test_dead_forward_worker_is_one_error_line(workspace, monkeypatch, deadline, capsys):
    """A bench batch of two in chunks of one image: image 1 runs in a forked
    worker, which is SIGKILLed as an out-of-memory kill would end it."""
    monkeypatch.setattr(md, "images_per_chunk", lambda cfg, itemsize=4: 1)
    monkeypatch.setattr(md, "_cpus", lambda: 2)
    parent, real = os.getpid(), md.forward

    def dying(model, images):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(model, images)

    monkeypatch.setattr(md, "forward", dying)
    cfg = workspace["root"] / "killed.cfg"
    cfg.write_text(BASE_CONFIG.format(out="run_killed") +
                   "\n[bench]\nbatch_size = 2\nwarmup_iters = 0\ntimed_iters = 1\n", encoding="utf-8")
    assert cli.main(["bench", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert re.fullmatch(rf"error: off-tape forward worker [0-9]+ was killed by signal {int(signal.SIGKILL)}",
                        line), line


def test_upweight_tagged_scales_weights():
    img = ad.zeros((3, 4, 4))
    samples = [Sample(image=img, label=np.eye(2, dtype=np.float32)[0],
                      weight=2.0, tag=tag)
               for tag in ("hard", None, "hard", "easy")]
    ds = Dataset(samples=samples, class_names=["a", "b"])
    assert cli.upweight_tagged(ds, "hard", 4.0) == 2
    assert [s.weight for s in ds.samples] == [8.0, 2.0, 8.0, 2.0]
