"""In-context linear regression: prompts, the causal loss, and a trainer.

A prompt interleaves inputs and labels, x_1, f(x_1), ..., x_N, with
w ~ N(0, I), x_i ~ N(0, I/d_input) and f(x) = w^T x, all drawn fresh per
prompt. Labels ride in coordinate 0 of an otherwise zero token; the final
token is x_N with no trailing label. With these variances E[f(x)^2] = 1,
so a model that predicts zero sits at loss 1.

The loss reads the model's output at each x position (where it has seen
only the preceding pairs, attention being causal) against f(x_i) and
averages over the N positions and the batch. Training is AdamW with the
per-matrix width-transfer learning rates. Prompt RNG streams are split
per prompt index, so batches are reproducible under any parallel order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, Transformer, learning_rates
from .optim import AdamW
from .tensor import GradTape, Tensor, backward, flop_scope, tmean

# stream tags so training batches and the fixed eval set never collide
_TRAIN_STREAM = 1
_EVAL_STREAM = 2


@dataclass(frozen=True)
class ICLTaskConfig:
    """Task distribution: input dimension, pairs per prompt, data seed."""

    d_input: int
    n_pairs: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.d_input, (int, np.integer)) or self.d_input < 1:
            raise ValueError(f"d_input must be a positive integer, got {self.d_input!r}")
        if self.n < 2:
            raise ValueError(f"need at least 2 pairs per prompt, got {self.n}")

    @property
    def n(self) -> int:
        return 2 * self.d_input if self.n_pairs is None else int(self.n_pairs)

    @property
    def sequence_length(self) -> int:
        return 2 * self.n - 1


@dataclass(frozen=True)
class PromptBatch:
    tokens: np.ndarray   # (count, 2N-1, d_input)
    targets: np.ndarray  # (count, N), f(x_i) for every x position


def build_prompt(xs: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interleave given inputs and their labels. Returns (tokens, targets)."""
    xs = np.asarray(xs, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, d = xs.shape
    targets = xs @ w
    tokens = np.zeros((2 * n - 1, d))
    tokens[0::2] = xs
    tokens[1::2, 0] = targets[:-1]
    return tokens, targets


def sample_prompt(cfg: ICLTaskConfig, rng: np.random.Generator) -> np.ndarray:
    """One token sequence of shape (2N-1, d_input)."""
    w = rng.standard_normal(cfg.d_input)
    xs = rng.standard_normal((cfg.n, cfg.d_input)) / math.sqrt(cfg.d_input)
    return build_prompt(xs, w)[0]


def sample_batch(cfg: ICLTaskConfig, count: int, entropy) -> PromptBatch:
    """count prompts, each from its own child stream of `entropy`."""
    root = entropy if isinstance(entropy, tuple) else (entropy,)
    tokens = np.empty((count, cfg.sequence_length, cfg.d_input))
    targets = np.empty((count, cfg.n))
    for i in range(count):
        rng = np.random.default_rng((*root, i))
        w = rng.standard_normal(cfg.d_input)
        xs = rng.standard_normal((cfg.n, cfg.d_input)) / math.sqrt(cfg.d_input)
        tokens[i], targets[i] = build_prompt(xs, w)
    return PromptBatch(tokens, targets)


def _predict(model, tokens) -> Tensor:
    fn = model.forward if hasattr(model, "forward") else model
    return fn(tokens)


def icl_loss(model, batch: PromptBatch) -> Tensor:
    """Mean squared error at the x positions, averaged over the batch."""
    preds = _predict(model, batch.tokens)
    err = preds[..., 0::2] - Tensor(np.asarray(batch.targets, dtype=preds.dtype))
    return tmean(err * err)


def eval_error_at_N(model, cfg: ICLTaskConfig, prompts: int, seed: int | None = None) -> float:
    """Squared error of the prediction for x_N, conditioned on the full context."""
    entropy = (cfg.seed if seed is None else seed, _EVAL_STREAM)
    batch = sample_batch(cfg, prompts, entropy)
    preds = _predict(model, batch.tokens)
    last = preds[..., -1].to_numpy()
    return float(np.mean((last - batch.targets[:, -1]) ** 2))


def least_squares_error_at_N(cfg: ICLTaskConfig, prompts: int, seed: int | None = None) -> float:
    """Eval error of the exact least-squares oracle on the same prompt stream.

    The oracle fits w from the N-1 labeled pairs and predicts w_hat^T x_N;
    noiseless and overdetermined for N > d_input, so the error is at the
    level of solver roundoff. Lower-bounds what any trained model can do.
    """
    entropy = (cfg.seed if seed is None else seed, _EVAL_STREAM)
    batch = sample_batch(cfg, prompts, entropy)
    errs = np.empty(prompts)
    for i in range(prompts):
        xs = batch.tokens[i, 0::2]
        ys = batch.targets[i]
        w_hat = np.linalg.lstsq(xs[:-1], ys[:-1], rcond=None)[0]
        errs[i] = (xs[-1] @ w_hat - ys[-1]) ** 2
    return float(np.mean(errs))


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule knobs. base_width anchors the width-transfer rules."""

    steps: int
    batch_size: int = 32
    base_lr: float = 1e-3
    base_width: int = 64
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    precision: str = "f64"
    eval_every: int = 100
    eval_prompts: int = 256

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1 or self.eval_every < 1 or self.eval_prompts < 1:
            raise ValueError("batch_size, eval_every and eval_prompts must be >= 1")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be 'f32' or 'f64', got {self.precision!r}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64


DIVERGENCE_LIMIT = 1e3

METRIC_COLUMNS = ("step", "loss", "eval_error", "flops_cumulative", "wall_seconds")


class DivergenceError(RuntimeError):
    """Loss or a gradient went non-finite, or the loss passed the limit; carries the last good state."""

    def __init__(self, step: int, lr: float, max_activation: float,
                 params=None, rows=None, cause: str = "loss"):
        super().__init__(f"training diverged at step {step} ({cause}): base lr {lr}, "
                         f"max |activation| {max_activation:.3e}")
        self.step = step
        self.lr = lr
        self.max_activation = max_activation
        self.params = params
        self.rows = rows


@dataclass
class TrainResult:
    rows: list[dict]
    model: Transformer
    task: ICLTaskConfig

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


def _raise_divergence(model, batch, step, train_cfg, rows, cause):
    probes = []
    model.forward(batch.tokens, probes=probes)
    raise DivergenceError(step, train_cfg.base_lr, max(m for _, _, m in probes),
                          params=model.params, rows=rows, cause=cause)


def train(model_cfg: ModelConfig, task_cfg: ICLTaskConfig, train_cfg: TrainConfig,
          model: Transformer | None = None) -> TrainResult:
    """Run the regression task; returns per-step metrics and the final model.

    Metrics rows carry (step, loss, eval_error, flops_cumulative,
    wall_seconds); loss is measured on the step's batch before its update,
    eval_error on a fixed held-out prompt set every eval_every steps (and
    at steps 0 and steps). flops_cumulative meters the forward passes of
    training batches. Everything except wall_seconds is deterministic
    given the seeds in 64-bit mode.
    """
    t = task_cfg.sequence_length
    for i in range(model_cfg.layers):
        score = model_cfg.score_cfg(i)
        if hasattr(score, "validate_length"):
            score.validate_length(t)

    if model is None:
        rng = np.random.default_rng(train_cfg.seed)
        model = Transformer.init(model_cfg, rng, train_cfg.base_lr, train_cfg.base_width,
                                 dtype=train_cfg.dtype)
    opt = AdamW(learning_rates(model.rules), train_cfg.beta1, train_cfg.beta2,
                train_cfg.eps, train_cfg.weight_decay)

    t0 = time.perf_counter()
    flops_total = 0
    rows = [{"step": 0, "loss": math.nan,
             "eval_error": eval_error_at_N(model, task_cfg, train_cfg.eval_prompts),
             "flops_cumulative": 0, "wall_seconds": time.perf_counter() - t0}]

    for step in range(1, train_cfg.steps + 1):
        batch = sample_batch(task_cfg, train_cfg.batch_size,
                             (task_cfg.seed, _TRAIN_STREAM, step))
        with flop_scope() as fc:
            with GradTape() as tape:
                loss = icl_loss(model, batch)
            loss_val = loss.item()
            if not math.isfinite(loss_val) or loss_val > DIVERGENCE_LIMIT:
                _raise_divergence(model, batch, step, train_cfg, rows, f"loss {loss_val!r}")
            grads = backward(tape, loss)
            gdict = {path: grads[p] for path, p in model.params.items()}
            bad = next((path for path, g in gdict.items() if not np.isfinite(g).all()), None)
            if bad is not None:
                _raise_divergence(model, batch, step, train_cfg, rows, f"non-finite gradient of {bad}")
        flops_total += fc.flops
        model = model.with_params(opt.step(model.params, gdict))

        due = step % train_cfg.eval_every == 0 or step == train_cfg.steps
        rows.append({
            "step": step,
            "loss": loss_val,
            "eval_error": eval_error_at_N(model, task_cfg, train_cfg.eval_prompts)
                          if due else math.nan,
            "flops_cumulative": flops_total,
            "wall_seconds": time.perf_counter() - t0,
        })
    return TrainResult(rows, model, task_cfg)
