"""Command-line entry point.

Subcommands: `train` (checkpoints + JSON-lines metrics), `eval` (threshold
accuracy report), `bench` (throughput table + CSV), `inspect` (parameter
count and per-stage output sizes).  Diagnostics go to stderr, data to stdout
and files; the exit status is 0 only when the command's full contract held.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import bench as bh
from . import checkpoint as ck
from . import model as md
from .augment import parse_policy
from .config import load_run_config
from .dataset import load_dataset, split_dataset
from .train import OptimizerState, evaluate, lr_schedule, train_epoch


class CliError(ValueError):
    """Fatal command failure carrying a one-line diagnostic."""


def upweight_tagged(ds, tag, factor) -> int:
    """Scale the sampling weight of every sample carrying `tag`."""
    hits = 0
    for s in ds.samples:
        if s.tag == tag:
            s.weight = s.weight * factor
            hits += 1
    return hits


def _load_splits(rc, config):
    if rc.data.manifest is None:
        raise CliError(f"{config}: config is missing [data] manifest")
    ds = load_dataset(rc.data.manifest)
    want = (rc.model.input_channels, rc.model.input_size, rc.model.input_size)
    if ds[0].image.shape != want:
        raise CliError(f"{rc.data.manifest}: images are {'x'.join(map(str, ds[0].image.shape))}, "
                       f"but [model] expects {'x'.join(map(str, want))}")
    train_ds, val_ds = split_dataset(ds, rc.data.train_fraction, rc.data.split_seed,
                                     holdout_tags=rc.data.holdout_tags)
    if len(train_ds) == 0:  # split_dataset leaves an untagged sample to validation
        raise CliError(f"{config}: [data] train_fraction and holdout_tags leave the train split empty")
    if len(ds.class_names) != rc.model.num_classes:
        raise CliError(f"{rc.data.manifest}: {len(ds.class_names)} classes, "
                       f"but [model] num_classes = {rc.model.num_classes}")
    return train_ds, val_ds


def _init_from(args, rc, model):
    """Load --init-from into model, refusing another model config unless --force; its meta."""
    _, meta = ck.load_checkpoint(args.init_from, model)
    if meta.config_hash != ck.model_config_hash(rc.model):
        print("warning: checkpoint was written under a different model config",
              file=sys.stderr)
        if not args.force:
            raise CliError("config hash mismatch; pass --force to load anyway")
    return meta


def cmd_train(args, rc) -> int:
    train_ds, val_ds = _load_splits(rc, args.config)
    if rc.data.upweight_tag is not None:
        hits = upweight_tagged(train_ds, rc.data.upweight_tag, rc.data.upweight_factor)
        print(f"upweighted {hits} samples tagged '{rc.data.upweight_tag}' "
              f"by {rc.data.upweight_factor}", file=sys.stderr)
    policy = parse_policy(rc.data.policy) if rc.data.policy is not None else None

    model = md.build_model(rc.model, seed=rc.train.seed)
    state = OptimizerState()  # finetuning restarts the optimizer
    if args.init_from is not None:
        meta = _init_from(args, rc, model)
        report0 = evaluate(model, val_ds, rc.train.threshold)
        print(f"resumed from {args.init_from}: epoch {meta.epoch}, "
              f"recorded val acc {meta.val_accuracy!r}, "
              f"epoch-0 val acc {report0.accuracy!r}", file=sys.stderr)

    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "INCOMPLETE"
    marker.write_text("training did not finish\n", encoding="utf-8")
    best_acc = -1.0
    config_hash = ck.model_config_hash(rc.model)
    with open(out / "metrics.jsonl", "w", encoding="utf-8") as mf:
        for epoch in range(rc.train.total_epochs):
            loss, acc = train_epoch(model, train_ds, rc.train, epoch, state,
                                    policy=policy)
            report = evaluate(model, val_ds, rc.train.threshold)
            mf.write(json.dumps({
                "epoch": epoch,
                "lr": lr_schedule(epoch, rc.train),
                "train_loss": loss,
                "train_acc": acc,
                "val_acc": report.accuracy,
                "rejected": report.rejected_count,
            }) + "\n")
            mf.flush()
            meta = ck.CheckpointMeta(epoch=epoch, val_correct=report.correct,
                                     val_total=report.total,
                                     config_hash=config_hash)
            ck.save_checkpoint(model, out / "last.ckpt", state=state, meta=meta)
            if report.accuracy > best_acc:
                best_acc = report.accuracy
                ck.save_checkpoint(model, out / "best.ckpt", meta=meta)
            print(f"epoch {epoch}: loss {loss:.4f} train_acc {acc:.3f} "
                  f"val_acc {report.accuracy:.3f} rejected {report.rejected_count}",
                  file=sys.stderr)
    marker.unlink()
    return 0


def cmd_eval(args, rc) -> int:
    if args.init_from is None:
        raise CliError("eval needs --init-from <checkpoint>")
    _, val_ds = _load_splits(rc, args.config)
    model = md.build_model(rc.model, seed=rc.train.seed)
    _init_from(args, rc, model)
    report = evaluate(model, val_ds, rc.train.threshold)
    doc = json.dumps(report.to_dict(), indent=2)
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval.json").write_text(doc + "\n", encoding="utf-8")
    print(doc)
    return 0


def cmd_bench(args, rc) -> int:
    model = md.build_model(rc.model, seed=rc.train.seed)
    if args.init_from is not None:
        _init_from(args, rc, model)
    shape = (rc.bench.batch_size, rc.model.input_channels,
             rc.model.input_size, rc.model.input_size)
    report = bh.measure_fps(model, shape,
                            warmup_iters=rc.bench.warmup_iters,
                            timed_iters=rc.bench.timed_iters,
                            seed=rc.train.seed, model_name="model",
                            environment=rc.bench.environment)
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.csv").write_text(bh.to_csv([report]), encoding="utf-8")
    print(bh.format_table([report]))
    return 0


def cmd_inspect(args, rc) -> int:
    sizes = md.stage_output_sizes(rc.model)
    print(f"input: {rc.model.input_size}")
    act = md.activation_bytes(rc.model)
    for i, (size, stage, nbytes) in enumerate(zip(sizes, rc.model.stages, act), start=1):
        print(f"stage{i}: size={size} channels={stage.channels}")
        print(f"stage{i} activation: {nbytes} bytes per image")
    print(f"images_per_chunk: {md.images_per_chunk(rc.model)}")
    print(f"logits: {rc.model.num_classes}")
    print(f"params: {md.count_params_formula(rc.model)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="davit",
        description="Train, evaluate, benchmark, and inspect the classifier.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (("train", cmd_train), ("eval", cmd_eval),
                ("bench", cmd_bench), ("inspect", cmd_inspect))
    for name, fn in commands:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the run config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override [train] seed")
        sp.add_argument("--threshold", type=float, default=None,
                        help="override [train] threshold")
        sp.add_argument("--init-from", dest="init_from", default=None,
                        help="checkpoint to load weights from")
        sp.add_argument("--force", action="store_true",
                        help="proceed past a config hash mismatch")
        sp.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = load_run_config(args.config, seed=args.seed, threshold=args.threshold)
        # every op output is scanned, so an overflow surfaces as NonFiniteError
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args, rc)
    except ck.CheckpointMismatchError as exc:
        print(f"error: checkpoint mismatch: {exc}", file=sys.stderr)
    except (ValueError, OSError, ad.NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
