"""Structured-matrix attention toolkit.

Multi-level low-rank and block tensor-train score functions for softmax
attention, together with the contraction-cost model, width-transfer (muP)
scaling rules, and a small in-context linear-regression training harness.
All numerics run on an in-package taped autodiff core over numpy arrays.
"""

from .icl import (
    ICLTaskConfig,
    TrainConfig,
    eval_error_at_N,
    icl_loss,
    least_squares_error_at_N,
    sample_batch,
    sample_prompt,
    train,
)
from .masks import MaskSpec, global_layer_indices, mask_matrix, resolve_layer_masks
from .model import ModelConfig, Transformer
from .mup import BASE_LR_GRID, MupRule, adam_lr, init_std, write_lr_table, zero_init_output
from .optim import AdamW
from .tensor import (
    GradTape,
    Gradients,
    NonDifferentiableError,
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
    flop_scope,
    flop_totals,
    load_tensors,
    matmul_batched,
    relative_error,
    reset_flops,
    rms_norm,
    save_tensors,
    softmax_rows_masked,
)

__all__ = [
    "AdamW",
    "BASE_LR_GRID",
    "GradTape",
    "Gradients",
    "ICLTaskConfig",
    "MaskSpec",
    "ModelConfig",
    "MupRule",
    "TrainConfig",
    "Transformer",
    "NonDifferentiableError",
    "ShapeError",
    "Tensor",
    "adam_lr",
    "backward",
    "eval_error_at_N",
    "finite_diff_grad",
    "flop_scope",
    "flop_totals",
    "global_layer_indices",
    "icl_loss",
    "init_std",
    "least_squares_error_at_N",
    "load_tensors",
    "mask_matrix",
    "matmul_batched",
    "relative_error",
    "reset_flops",
    "resolve_layer_masks",
    "rms_norm",
    "sample_batch",
    "sample_prompt",
    "save_tensors",
    "softmax_rows_masked",
    "train",
    "write_lr_table",
]
