"""Small pre-norm transformer for the in-context regression task.

Input linear (d_input -> D), then `layers` pre-norm residual blocks
(attention followed by a gelu MLP, rms_norm everywhere, no biases or
gains), a final rms_norm, and a zero-initialized readout D -> 1. The
score kind selects one of the four scoring forms from the attention
module; bilinear kinds give every head its own structured D x D score
matrix while values stay standard multi-head.

Weights live in a flat path -> Tensor dict so the optimizer can swap
them functionally; each path carries a width-transfer rule that fixes
its init std and Adam learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (AttentionWeights, MLRAttentionConfig, ScoreFunctionConfig,
                        attention_layer_forward, check_btt_width)
from .masks import MaskSpec, resolve_layer_masks
from .mup import MupRule, adam_lr, init_std
from .structured import BTTSpec, MLRSpec
from .tensor import ShapeError, Tensor, gelu, matmul_batched, rms_norm

MODEL_SCORE_KINDS = ("standard", "bilinear-mlr", "bilinear-btt", "mlr-attention")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the regression transformer.

    ranks feeds the multi-level kinds: the per-level ranks of the bilinear
    score matrix, or the per-level rank allocation (summing to D/H) of
    token-axis mlr attention. btt_s is the tensor-train expansion factor.
    score_kind may be a single name or a per-layer tuple. A window turns on
    the global-plus-sliding-window policy: anchor layers stay fully causal,
    the rest see only the trailing `window` tokens.
    """

    d_input: int
    d_model: int
    layers: int
    heads: int
    score_kind: str | tuple = "standard"
    ranks: tuple[int, ...] | None = None
    btt_s: int = 1
    qk_norm: bool | None = None
    norm_constant: float = 1.0
    window: int | None = None
    mlp_ratio: int = 4

    def __post_init__(self):
        for name in ("d_input", "d_model", "layers", "heads", "btt_s", "mlp_ratio"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.d_model % self.heads:
            raise ShapeError(f"D={self.d_model} is not divisible by H={self.heads}")
        kinds = self.score_kind
        if isinstance(kinds, str):
            kinds = (kinds,) * self.layers
        else:
            kinds = tuple(kinds)
            if len(kinds) != self.layers:
                raise ValueError(f"score_kind lists {len(kinds)} layers, model has {self.layers}")
        for kind in kinds:
            if kind not in MODEL_SCORE_KINDS:
                raise ValueError(f"unknown score kind {kind!r}; want one of {MODEL_SCORE_KINDS}")
        object.__setattr__(self, "score_kind", kinds)
        if self.ranks is not None:
            object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if self.window is not None and (not isinstance(self.window, (int, np.integer))
                                        or self.window < 0):
            raise ValueError(f"window must be a nonnegative integer, got {self.window!r}")
        # eager per-layer configs: every structural invariant trips at
        # construction, not at the first forward pass
        object.__setattr__(self, "_score_cfgs",
                           tuple(self._build_score_cfg(k) for k in kinds))
        policy = (MaskSpec("causal") if self.window is None
                  else MaskSpec("global_plus_swa", self.window))
        masks = tuple(resolve_layer_masks(policy, self.layers))
        for i, (score, m) in enumerate(zip(self._score_cfgs, masks)):
            if isinstance(score, MLRAttentionConfig) and m.kind != "causal":
                raise ValueError(f"layer {i}: mlr-attention is causal by construction "
                                 f"and cannot run under a sliding window")
        object.__setattr__(self, "_layer_masks", masks)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads

    def _build_score_cfg(self, kind: str):
        if kind == "standard":
            return ScoreFunctionConfig("standard", r=self.head_dim)
        if kind == "mlr-attention":
            ranks = self.ranks if self.ranks is not None else (self.head_dim,)
            if sum(ranks) != self.head_dim:
                raise ShapeError(f"mlr attention allocation {ranks} sums to {sum(ranks)}, "
                                 f"head dimension is {self.head_dim}")
            return MLRAttentionConfig(ranks)
        if kind == "bilinear-mlr":
            if self.ranks is None:
                raise ValueError("bilinear-mlr needs per-level ranks")
            spec = MLRSpec.equal_blocks(self.d_model, self.d_model, self.ranks)
            return ScoreFunctionConfig("bilinear-mlr", spec=spec, qk_norm=self.qk_norm,
                                       norm_constant=self.norm_constant)
        spec = BTTSpec.square_root(self.d_model, self.btt_s)
        score = ScoreFunctionConfig("bilinear-btt", spec=spec, qk_norm=self.qk_norm,
                                    norm_constant=self.norm_constant)
        check_btt_width(score, self.d_model, self.heads)
        return score

    def score_cfg(self, layer: int):
        return self._score_cfgs[layer]

    def layer_mask(self, layer: int) -> MaskSpec:
        return self._layer_masks[layer]


def parameter_plan(cfg: ModelConfig, base_lr: float, base_width: int) -> list[tuple[str, tuple, MupRule]]:
    """Every weight as (path, tensor shape, scaling rule), in creation order."""
    d, h = cfg.d_model, cfg.heads
    rv = cfg.head_dim

    def dense(fan_in, fan_out, role="hidden-dense"):
        return MupRule(role, fan_in, fan_out, base_lr, base_width, d)

    plan = [("embed.w", (cfg.d_input, d), dense(cfg.d_input, d, role="embedding"))]
    for i in range(cfg.layers):
        at = f"layers.{i}.attn"
        score = cfg.score_cfg(i)
        if isinstance(score, MLRAttentionConfig) or score.kind == "standard":
            plan.append((f"{at}.wq", (h, d, score.r), dense(d, score.r)))
            plan.append((f"{at}.wk", (h, d, score.r), dense(d, score.r)))
        elif score.kind == "bilinear-mlr":
            for li, lev in enumerate(score.spec.levels):
                for k, mk in enumerate(lev.row_sizes):
                    plan.append((f"{at}.q.{li}.{k}", (h, mk, lev.rank),
                                 MupRule("mlr-factor", mk, lev.rank, base_lr, base_width, d,
                                         level=li + 1)))
                for k, nk in enumerate(lev.col_sizes):
                    plan.append((f"{at}.k.{li}.{k}", (h, nk, lev.rank),
                                 MupRule("mlr-factor", nk, lev.rank, base_lr, base_width, d,
                                         level=li + 1)))
        else:
            spec = score.spec
            cs, bs = spec.c * spec.s, spec.b * spec.s
            for k in range(spec.b):
                plan.append((f"{at}.q.{k}", (h, spec.a, cs),
                             MupRule("btt-left", cs, spec.a, base_lr, base_width, d)))
            for k in range(spec.c):
                plan.append((f"{at}.k.{k}", (h, spec.d, bs),
                             MupRule("btt-right", spec.d, bs, base_lr, base_width, d,
                                     a=spec.a)))
        plan.append((f"{at}.wv", (h, d, rv), dense(d, rv)))
        # stored (h, d, rv) but applied transposed, so the map is rv -> d
        plan.append((f"{at}.wo", (h, d, rv), dense(rv, d)))
        plan.append((f"layers.{i}.mlp.w1", (d, cfg.mlp_ratio * d), dense(d, cfg.mlp_ratio * d)))
        plan.append((f"layers.{i}.mlp.w2", (cfg.mlp_ratio * d, d), dense(cfg.mlp_ratio * d, d)))
    plan.append(("readout.w", (d, 1), dense(d, 1, role="output")))
    return plan


def init_parameters(cfg: ModelConfig, rng: np.random.Generator, base_lr: float = 1e-3,
                    base_width: int = 64, dtype=np.float64):
    """Draw all weights at their prescribed stds. Returns (params, rules)."""
    params: dict[str, Tensor] = {}
    rules: dict[str, MupRule] = {}
    for path, shape, rule in parameter_plan(cfg, base_lr, base_width):
        arr = rng.standard_normal(shape) * init_std(rule)
        params[path] = Tensor(arr.astype(dtype), requires_grad=True)
        rules[path] = rule
    return params, rules


def learning_rates(rules: dict[str, MupRule]) -> dict[str, float]:
    return {path: adam_lr(rule) for path, rule in rules.items()}


@dataclass
class Transformer:
    """Config plus a parameter dict; forward() wires them together."""

    cfg: ModelConfig
    params: dict[str, Tensor]
    rules: dict[str, MupRule] = field(default_factory=dict)

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator, base_lr: float = 1e-3,
             base_width: int = 64, dtype=np.float64) -> "Transformer":
        params, rules = init_parameters(cfg, rng, base_lr, base_width, dtype)
        return cls(cfg, params, rules)

    def with_params(self, params: dict[str, Tensor]) -> "Transformer":
        return Transformer(self.cfg, params, self.rules)

    def _attention_weights(self, layer: int) -> AttentionWeights:
        p, at = self.params, f"layers.{layer}.attn"
        score = self.cfg.score_cfg(layer)
        wv, wo = p[f"{at}.wv"], p[f"{at}.wo"]
        if isinstance(score, MLRAttentionConfig) or score.kind == "standard":
            return AttentionWeights(wv, wo, wq=p[f"{at}.wq"], wk=p[f"{at}.wk"])
        if score.kind == "bilinear-mlr":
            qb = tuple(tuple(p[f"{at}.q.{li}.{k}"] for k in range(lev.blocks))
                       for li, lev in enumerate(score.spec.levels))
            kb = tuple(tuple(p[f"{at}.k.{li}.{k}"] for k in range(lev.blocks))
                       for li, lev in enumerate(score.spec.levels))
            return AttentionWeights(wv, wo, q_blocks=qb, k_blocks=kb)
        spec = score.spec
        qb = tuple(p[f"{at}.q.{k}"] for k in range(spec.b))
        kb = tuple(p[f"{at}.k.{k}"] for k in range(spec.c))
        return AttentionWeights(wv, wo, q_blocks=qb, k_blocks=kb)

    def forward(self, tokens, probes: list | None = None) -> Tensor:
        """Per-position predictions, shape tokens.shape[:-1].

        tokens is (..., T, d_input). probes, if given, collects
        (stage name, activation rms, max |activation|) tuples.
        """
        dtype = self.params["embed.w"].dtype
        x = tokens if isinstance(tokens, Tensor) else Tensor(np.asarray(tokens, dtype=dtype))
        if x.shape[-1] != self.cfg.d_input:
            raise ShapeError(f"tokens have {x.shape[-1]} features, model wants {self.cfg.d_input}")

        def probe(name, t):
            if probes is not None:
                a = t.data
                probes.append((name, float(np.sqrt(np.mean(a * a))), float(np.max(np.abs(a)))))

        x = matmul_batched(x, self.params["embed.w"])
        probe("embed", x)
        for i in range(self.cfg.layers):
            h = attention_layer_forward(rms_norm(x), self._attention_weights(i),
                                        self.cfg.score_cfg(i), self.cfg.layer_mask(i))
            x = x + h
            probe(f"layers.{i}.attn", x)
            m = matmul_batched(gelu(matmul_batched(rms_norm(x), self.params[f"layers.{i}.mlp.w1"])),
                               self.params[f"layers.{i}.mlp.w2"])
            x = x + m
            probe(f"layers.{i}.mlp", x)
        x = rms_norm(x)
        out = matmul_batched(x, self.params["readout.w"])
        return out[..., 0]
