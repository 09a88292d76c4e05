import csv
import dataclasses
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from davit import bench, checkpoint as ck, cli, model as md, synth
from davit.config import load_run_config
from davit.dataset import Dataset, Sample
from davit import autodiff as ad

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


def test_train_determinism(workspace, tmp_path):
    root = workspace["root"]
    cfg = root / "again.cfg"
    cfg.write_text(BASE_CONFIG.format(out="run_again"), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    a, b = workspace["out"], root / "run_again"
    assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
    assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()
    assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()


def test_missing_manifest(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\nmanifest = nowhere/missing.csv\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) != 0
    assert "missing.csv" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[train]\nbogus = 1\n", encoding="utf-8")
    assert cli.main(["inspect", "--config", str(cfg)]) != 0
    assert "bogus" in capsys.readouterr().err


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
    assert "corrupt checkpoint" in corrupt_msg

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
    assert "logits: 10" in out
    assert "params: 20411146" in out


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("", encoding="utf-8")
    rc = load_run_config(cfg)
    assert rc.model == md.default_config()
    assert rc.threshold == 0.5
    assert rc.train_fraction == 0.8 and rc.split_seed == 0
    assert rc.manifest is None and rc.policy_path is None
    assert rc.upweight_factor == 4.0 and rc.upweight_tag is None
    assert (rc.bench_batch_size, rc.bench_warmup_iters, rc.bench_timed_iters) == (1, 20, 100)
    assert rc.out_dir == str(tmp_path / "runs")


def test_readme_config_reference_loads_to_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Config reference.*?```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "readme.cfg").write_text(block, encoding="utf-8")
    (tmp_path / "empty.cfg").write_text("", encoding="utf-8")
    rc = load_run_config(tmp_path / "readme.cfg")
    assert rc.manifest == str(tmp_path / "data/manifest.csv")
    assert dataclasses.replace(rc, manifest=None) == load_run_config(tmp_path / "empty.cfg")


def test_config_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[train]\nseed = 3\nthreshold = 0.9\n", encoding="utf-8")
    rc = load_run_config(cfg, seed=7, threshold=0.25)
    assert rc.train.seed == 7
    assert rc.threshold == 0.25


def test_config_errors(tmp_path):
    def load(text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        return load_run_config(cfg)

    with pytest.raises(ValueError, match="unknown config section"):
        load("[nope]\nx = 1\n")
    with pytest.raises(ValueError, match=r"\[train\] base_lr"):
        load("[train]\nbase_lr = fast\n")
    with pytest.raises(ValueError, match="depths has 3 entries"):
        load("[model]\nchannels = 8,16\ndepths = 1,2,3\n")
    with pytest.raises(ValueError, match="threshold"):
        load("[train]\nthreshold = 1.5\n")
    with pytest.raises(ValueError, match="train_fraction"):
        load("[data]\ntrain_fraction = 0\n")
    with pytest.raises(ValueError, match="config file not found"):
        load_run_config(tmp_path / "absent.cfg")


def test_config_holdout_and_lists(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\nholdout_tags = hard, verify\n"
                   "[model]\nchannels = 8,16\nwindows = 4\nhead_widths = 4\n",
                   encoding="utf-8")
    rc = load_run_config(cfg)
    assert rc.holdout_tags == frozenset({"hard", "verify"})
    assert [s.window_size for s in rc.model.stages] == [4, 4]  # broadcast
    assert [s.embed_kernel for s in rc.model.stages] == [7, 2]


def test_upweight_tagged_scales_weights():
    img = ad.zeros((3, 4, 4))
    samples = [Sample(image=img, label=np.eye(2, dtype=np.float32)[0],
                      weight=2.0, tag=tag)
               for tag in ("hard", None, "hard", "easy")]
    ds = Dataset(samples=samples, class_names=["a", "b"])
    assert cli.upweight_tagged(ds, "hard", 4.0) == 2
    assert [s.weight for s in ds.samples] == [8.0, 2.0, 8.0, 2.0]
