"""Dual-attention vision transformer classification pipeline.

Layers, bottom to top: `autodiff` (tape-based reverse mode over numpy),
`attention` (spatial window and channel group kernels), `model` (four-stage
pyramid classifier), `dataset`/`augment`/`synth` (ingestion, policies, mixup,
synthetic data), `train` (AdamW, schedules, thresholded evaluation),
`checkpoint` (binary tensor serialization), `bench` (throughput harness),
`config`/`cli` (run configuration and the `davit` command).
"""

from davit.attention import AttentionParams, channel_group_attention, spatial_window_attention
from davit.autodiff import GraphError, NonFiniteError, Tape, Tensor, backward
from davit.augment import apply_policy, mixup, parse_policy, sample_lambda, weighted_sampler
from davit.bench import BenchReport, measure_fps
from davit.checkpoint import (
    CheckpointMeta,
    CheckpointMismatchError,
    CorruptCheckpointError,
    load_checkpoint,
    model_config_hash,
    save_checkpoint,
)
from davit.config import RunConfig, load_run_config
from davit.dataset import Dataset, Sample, load_dataset, read_ppm, split_dataset, write_ppm
from davit.model import (
    Model,
    ModelConfig,
    StageConfig,
    build_model,
    count_params,
    count_params_formula,
    default_config,
    forward,
    stage_output_sizes,
)
from davit.train import (
    EvalReport,
    OptimizerState,
    TrainConfig,
    adamw_step,
    evaluate,
    lr_schedule,
    soft_cross_entropy,
    train_epoch,
)

__all__ = [
    "AttentionParams",
    "BenchReport",
    "CheckpointMeta",
    "CheckpointMismatchError",
    "CorruptCheckpointError",
    "Dataset",
    "EvalReport",
    "GraphError",
    "Model",
    "ModelConfig",
    "NonFiniteError",
    "OptimizerState",
    "RunConfig",
    "Sample",
    "StageConfig",
    "Tape",
    "Tensor",
    "TrainConfig",
    "adamw_step",
    "apply_policy",
    "backward",
    "build_model",
    "channel_group_attention",
    "count_params",
    "count_params_formula",
    "default_config",
    "evaluate",
    "forward",
    "load_checkpoint",
    "load_dataset",
    "load_run_config",
    "lr_schedule",
    "measure_fps",
    "mixup",
    "model_config_hash",
    "parse_policy",
    "read_ppm",
    "sample_lambda",
    "save_checkpoint",
    "soft_cross_entropy",
    "spatial_window_attention",
    "split_dataset",
    "stage_output_sizes",
    "train_epoch",
    "weighted_sampler",
    "write_ppm",
]
