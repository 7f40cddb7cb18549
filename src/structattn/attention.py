"""Attention layers over structured score functions.

Four ways to build the per-head score matrix S = X M X^T:

  standard        M = Wq Wk^T, the usual rank-r form; S = (X Wq)(X Wk)^T
  bilinear-mlr    M is multi-level block low rank over the embedding axis;
                  level l contributes (X blockdiag(Wq_l))(X blockdiag(Wk_l))^T
  bilinear-btt    M is a block tensor-train; computed through the chained
                  right product M X^T, never materializing M
  mlr attention   low rank over the *token* axis: level l scores p_l = 2^(l-1)
                  contiguous token blocks with their own rank-r_l factors, so
                  distant pairs get coarse scores and near pairs the full rank

Score functions return raw (unscaled) scores, except that qk normalization,
when on, layer-normalizes the projected features and applies the tunable
C/(r_l p_l) or C*/(ab) scaling inside the level sum. attention_layer_forward
hands the mean-field 1/denominator normalization (not 1/sqrt) to the masked
softmax as its scale and contracts values per head.

Heads are batched, not looped: every weight tensor stacks heads along its
leading axis and the score/value products run as one batched matmul.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masks import MaskSpec
from .structured import BTTSpec, MLRSpec
from .tensor import (
    ShapeError,
    Tensor,
    block_diag_embed,
    concat,
    layer_norm,
    matmul_batched,
    softmax_rows_masked,
    tsum,
)

SCORE_KINDS = ("standard", "bilinear-mlr", "bilinear-btt")


@dataclass(frozen=True)
class ScoreFunctionConfig:
    """How one head's score matrix is parameterized.

    kind "standard" uses dense (D, r) projections with r = D/H. The bilinear
    kinds take a square structured spec for Wq Wk^T. qk_norm defaults to on
    for bilinear kinds (off for standard); norm_constant is the tunable C or
    C* of the normalized scores. sqrt_scale restores the 1/sqrt(r) convention
    for the standard kind; the default is the mean-field 1/r.
    """

    kind: str
    r: int | None = None
    spec: MLRSpec | BTTSpec | None = None
    qk_norm: bool | None = None
    norm_constant: float = 1.0
    sqrt_scale: bool = False

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}; want one of {SCORE_KINDS}")
        if self.norm_constant <= 0:
            raise ValueError(f"norm_constant must be positive, got {self.norm_constant}")
        if self.kind == "standard":
            if self.r is None or self.r < 1:
                raise ValueError("standard scoring needs a head dimension r >= 1")
            if self.spec is not None:
                raise ValueError("standard scoring takes no structured spec")
        else:
            if self.sqrt_scale:
                raise ValueError("sqrt_scale applies to the standard kind only")
            want = MLRSpec if self.kind == "bilinear-mlr" else BTTSpec
            if not isinstance(self.spec, want):
                raise ValueError(f"{self.kind} needs a {want.__name__} spec")
            if self.spec.m != self.spec.n:
                raise ShapeError(f"bilinear scoring needs a square matrix, got {self.spec.m}x{self.spec.n}")
            if isinstance(self.spec, MLRSpec):
                for l, lev in enumerate(self.spec.levels, start=1):
                    if lev.blocks & (lev.blocks - 1):
                        raise ValueError(f"mlr level {l}: block count {lev.blocks} is not a power of two")

    @property
    def qk_norm_on(self) -> bool:
        return self.kind != "standard" if self.qk_norm is None else bool(self.qk_norm)

    @property
    def score_denominator(self) -> float:
        """The mean-field normalization denominator for unnormalized scores."""
        if self.kind == "standard":
            return float(np.sqrt(self.r) if self.sqrt_scale else self.r)
        if self.kind == "bilinear-mlr":
            return sum(lev.rank * lev.blocks for lev in self.spec.levels) / self.norm_constant
        return self.spec.a * self.spec.b / self.norm_constant


@dataclass(frozen=True)
class MLRAttentionConfig:
    """Token-axis multi-level low rank with rank allocation r_1..r_L.

    Level l splits the sequence into p_l = 2^(l-1) contiguous blocks; tokens
    in the same level-l block accumulate that level's rank-r_l score. The
    allocation sums to the head dimension r. Causal by construction.
    """

    ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(x) for x in self.ranks))
        if not self.ranks or any(x < 1 for x in self.ranks):
            raise ValueError(f"rank allocation must be positive, got {self.ranks}")

    @property
    def levels(self) -> int:
        return len(self.ranks)

    @property
    def r(self) -> int:
        return sum(self.ranks)

    @property
    def block_counts(self) -> tuple[int, ...]:
        return tuple(2 ** l for l in range(self.levels))

    def validate_length(self, t: int):
        p_max = 2 ** (self.levels - 1)
        if t % p_max:
            raise ShapeError(f"sequence length {t} must be divisible by 2^(L-1) = {p_max}")
        if t <= p_max:
            raise ShapeError(f"sequence length {t} must exceed the finest block count {p_max}")


def _splits(sizes):
    out, j = [], 0
    for s in sizes:
        out.append((j, j + s))
        j += s
    return out


# ---------------------------------------------------------------------------
# score matrices
# ---------------------------------------------------------------------------

def score_matrix_standard(X: Tensor, wq: Tensor, wk: Tensor) -> Tensor:
    """S = (X Wq)(X Wk)^T, raw. Leading axes of wq/wk (e.g. heads) broadcast."""
    if wq.shape[-1] != wk.shape[-1]:
        raise ShapeError(f"Wq/Wk feature dims disagree: {wq.shape} vs {wk.shape}")
    q = matmul_batched(X, wq)
    k = matmul_batched(X, wk)
    return matmul_batched(q, k.mT)


def score_matrix_bilinear(X: Tensor, cfg: ScoreFunctionConfig, q_blocks, k_blocks) -> Tensor:
    """S[j,j'] = x_j^T M x_j' for a structured M, never materialized.

    q_blocks/k_blocks hold the factor blocks, optionally stacked over a
    leading head axis:
      bilinear-mlr  q_blocks[l][k] is (.., D/p_l, r_l) for diagonal block k
      bilinear-btt  q_blocks[k'] the b left cores (.., a, cs), k_blocks[k]
                    the c right cores (.., d, bs)
    With qk_norm on, features are layer normalized and each level scaled by
    C/(r_l p_l) (mlr) or the chain product by C*/(ab) (btt); with it off the
    raw bilinear form comes back (the dense-materialization oracle).
    """
    if cfg.kind == "bilinear-mlr":
        return _score_bilinear_mlr(X, cfg, q_blocks, k_blocks)
    if cfg.kind == "bilinear-btt":
        return _score_bilinear_btt(X, cfg, q_blocks, k_blocks)
    raise ValueError(f"score_matrix_bilinear got non-bilinear kind {cfg.kind!r}")


def check_btt_width(cfg: ScoreFunctionConfig, d: int, heads: int):
    """A btt layer's projected features (T, s*b*c) must be at least the dense head dim D/H."""
    spec = cfg.spec
    if cfg.kind == "bilinear-btt" and spec.s * spec.b * spec.c < d // heads:
        raise ShapeError(f"bilinear-btt {spec}: feature width s*b*c = {spec.s * spec.b * spec.c} "
                         f"is narrower than the head dim D/H = {d}/{heads} = {d // heads}")


def _check_dim(X, m):
    if X.shape[-1] != m:
        raise ShapeError(f"scoring expects inputs with D={m}, got {X.shape}")


def _score_bilinear_mlr(X, cfg, q_blocks, k_blocks):
    spec = cfg.spec
    _check_dim(X, spec.m)
    if len(q_blocks) != len(spec.levels) or len(k_blocks) != len(spec.levels):
        raise ShapeError(f"expected factor blocks for {len(spec.levels)} levels")
    total = None
    for l, (lev, qbs, kbs) in enumerate(zip(spec.levels, q_blocks, k_blocks), start=1):
        if len(qbs) != lev.blocks or len(kbs) != lev.blocks:
            raise ShapeError(f"level {l}: expected {lev.blocks} factor blocks per side")
        for blk, sizes, side in ((qbs, lev.row_sizes, "q"), (kbs, lev.col_sizes, "k")):
            for k, (b, mk) in enumerate(zip(blk, sizes)):
                if b.shape[-2:] != (mk, lev.rank):
                    raise ShapeError(f"level {l} {side} block {k}: shape {b.shape}, "
                                     f"expected trailing ({mk}, {lev.rank})")
        qf = concat([matmul_batched(X[..., j0:j1], b)
                     for (j0, j1), b in zip(_splits(lev.row_sizes), qbs)], axis=-1)
        kf = concat([matmul_batched(X[..., j0:j1], b)
                     for (j0, j1), b in zip(_splits(lev.col_sizes), kbs)], axis=-1)
        if cfg.qk_norm_on:
            scale = cfg.norm_constant / (lev.rank * lev.blocks)
            term = matmul_batched(layer_norm(qf), layer_norm(kf).mT) * scale
        else:
            term = matmul_batched(qf, kf.mT)
        total = term if total is None else total + term
    return total


def _score_bilinear_btt(X, cfg, q_blocks, k_blocks):
    spec = cfg.spec
    _check_dim(X, spec.m)
    if len(q_blocks) != spec.b or len(k_blocks) != spec.c:
        raise ShapeError(f"btt wants {spec.b} left and {spec.c} right cores, "
                         f"got {len(q_blocks)} and {len(k_blocks)}")
    cs, bs = spec.c * spec.s, spec.b * spec.s
    for k, b in enumerate(q_blocks):
        if b.shape[-2:] != (spec.a, cs):
            raise ShapeError(f"left core {k}: shape {b.shape}, expected trailing ({spec.a}, {cs})")
    for k, b in enumerate(k_blocks):
        if b.shape[-2:] != (spec.d, bs):
            raise ShapeError(f"right core {k}: shape {b.shape}, expected trailing ({spec.d}, {bs})")
    chain = _btt_chain(X, spec, q_blocks, k_blocks)
    if cfg.qk_norm_on:
        scale = cfg.norm_constant / (spec.a * spec.b)
        return matmul_batched(layer_norm(X), layer_norm(chain.mT).mT) * scale
    return matmul_batched(X, chain)


def _btt_chain(X, spec, lefts, rights):
    """M X^T via blockdiag(R^T) -> P_R -> blockdiag(L) -> P_L, as (.., D, T)."""
    xt = X.mT
    parts = [matmul_batched(rights[k].mT, xt[..., k * spec.d:(k + 1) * spec.d, :])
             for k in range(spec.c)]
    u = spec.perm_right.apply(concat(parts, axis=-2), axis=-2)
    cs = spec.c * spec.s
    parts = [matmul_batched(lefts[kp], u[..., kp * cs:(kp + 1) * cs, :])
             for kp in range(spec.b)]
    return spec.perm_left.apply(concat(parts, axis=-2), axis=-2)


def score_matrix_mlr_attention(X: Tensor, wq: Tensor, wk: Tensor,
                               cfg: MLRAttentionConfig) -> Tensor:
    """Hierarchical block scores sum_l blockdiag_k(Q_{l,k} K_{l,k}^T).

    Wq and Wk are (.., D, r) with columns partitioned by the rank allocation;
    level l reshapes the tokens into p_l blocks and scores each block with
    its own column slice. Raw scores; masking and scaling happen downstream.
    """
    if wq.shape[-1] != cfg.r or wk.shape[-1] != cfg.r:
        raise ShapeError(f"rank allocation {cfg.ranks} wants {cfg.r} projection "
                         f"columns, got {wq.shape} and {wk.shape}")
    q = matmul_batched(X, wq)
    k = matmul_batched(X, wk)
    t = q.shape[-2]
    cfg.validate_length(t)
    total, off = None, 0
    for l, rl in enumerate(cfg.ranks):
        p = 1 << l
        qs = q[..., off:off + rl]
        ks = k[..., off:off + rl]
        off += rl
        lead = qs.shape[:-2]
        blocks = matmul_batched(qs.reshape(lead + (p, t // p, rl)),
                                ks.reshape(lead + (p, t // p, rl)).mT)
        term = block_diag_embed(blocks)
        total = term if total is None else total + term
    return total


def retained_key_indices(cfg: MLRAttentionConfig, t: int) -> tuple[tuple[int, int], ...]:
    """Per-level token ranges whose keys a decoder must keep.

    Only the last (current) level-l block ever scores new queries, so level l
    retains [t (p_l - 1) / p_l, t). Summing r_l times the range lengths
    reproduces the closed-form key-cache size.
    """
    cfg.validate_length(t)
    return tuple((t * (p - 1) // p, t) for p in cfg.block_counts)


# ---------------------------------------------------------------------------
# the full layer
# ---------------------------------------------------------------------------

@dataclass
class AttentionWeights:
    """One layer's weights; heads stack along every tensor's leading axis.

    wv, wo: (H, D, D/H); the output projection applies as wo^T.
    standard / mlr-attention: dense wq, wk (H, D, r).
    bilinear-mlr: q_blocks[l][k] and k_blocks[l][k] are (H, D/p_l, r_l).
    bilinear-btt: q_blocks[k'] are (H, a, cs), k_blocks[k] are (H, d, bs).
    """

    wv: Tensor
    wo: Tensor
    wq: Tensor | None = None
    wk: Tensor | None = None
    q_blocks: tuple | None = None
    k_blocks: tuple | None = None

    @property
    def heads(self) -> int:
        return self.wv.shape[0]

    def tensors(self) -> list[Tensor]:
        out = [self.wv, self.wo]
        if self.wq is not None:
            out += [self.wq, self.wk]
        if self.q_blocks is not None:
            for side in (self.q_blocks, self.k_blocks):
                for entry in side:
                    if isinstance(entry, (tuple, list)):
                        out.extend(entry)
                    else:
                        out.append(entry)
        return out


def attention_layer_forward(X: Tensor, weights: AttentionWeights,
                            cfg: ScoreFunctionConfig | MLRAttentionConfig,
                            mask: MaskSpec | np.ndarray) -> Tensor:
    """sum_h softmax(mask(S_h / denom)) (X Wv_h) Wo_h^T, shape-preserving.

    X is (T, D) or carries leading batch axes (.., T, D). The masked softmax
    divides scores by the mean-field denominator unless qk normalization
    already scaled them inside the score function.
    """
    t, d = X.shape[-2], X.shape[-1]
    h = weights.heads
    if d % h:
        raise ShapeError(f"head partition: D={d} is not divisible by H={h}")
    if weights.wv.shape != (h, d, d // h) or weights.wo.shape != (h, d, d // h):
        raise ShapeError(f"value/output weights must be ({h}, {d}, {d // h}), "
                         f"got {weights.wv.shape} and {weights.wo.shape}")
    xh = X[..., None, :, :]

    if isinstance(cfg, MLRAttentionConfig):
        if h * cfg.r != d:
            raise ShapeError(f"head partition: D={d} != H*r = {h}*{cfg.r}")
        if weights.wq.shape != (h, d, cfg.r):
            raise ShapeError(f"mlr-attention projections must be ({h}, {d}, {cfg.r}), got {weights.wq.shape}")
        if not (isinstance(mask, MaskSpec) and mask.kind == "causal"):
            raise ValueError("mlr attention is causal by construction; pass MaskSpec('causal')")
        scores = score_matrix_mlr_attention(xh, weights.wq, weights.wk, cfg)
        scale = 1.0 / cfg.r
    elif cfg.kind == "standard":
        if h * cfg.r != d:
            raise ShapeError(f"head partition: D={d} != H*r = {h}*{cfg.r}")
        if weights.wq.shape != (h, d, cfg.r):
            raise ShapeError(f"standard projections must be ({h}, {d}, {cfg.r}), got {weights.wq.shape}")
        scores = score_matrix_standard(xh, weights.wq, weights.wk)
        scale = 1.0 / cfg.score_denominator
    else:
        _check_dim(X, cfg.spec.m)
        check_btt_width(cfg, d, h)
        scores = score_matrix_bilinear(xh, cfg, weights.q_blocks, weights.k_blocks)
        scale = 1.0 if cfg.qk_norm_on else 1.0 / cfg.score_denominator

    attn = softmax_rows_masked(scores, mask, scale)
    v = matmul_batched(xh, weights.wv)
    head_out = matmul_batched(matmul_batched(attn, v), weights.wo.mT)
    return tsum(head_out, axis=-3)


def init_attention_weights(rng: np.random.Generator, d: int, heads: int,
                           cfg: ScoreFunctionConfig | MLRAttentionConfig,
                           dtype=np.float64, requires_grad: bool = True) -> AttentionWeights:
    """Gaussian weights with 1/fan-in variances (btt right cores use 1/d).

    This matches the structured-factor scaling; the training model swaps in
    its width-transfer stds on top of the same shapes.
    """
    def draw(shape, var):
        arr = rng.standard_normal(shape) * np.sqrt(var)
        return Tensor(arr.astype(dtype), requires_grad=requires_grad)

    rv = d // heads
    wv = draw((heads, d, rv), 1.0 / d)
    wo = draw((heads, d, rv), 1.0 / rv)
    if isinstance(cfg, MLRAttentionConfig) or cfg.kind == "standard":
        wq = draw((heads, d, cfg.r), 1.0 / d)
        wk = draw((heads, d, cfg.r), 1.0 / d)
        return AttentionWeights(wv, wo, wq=wq, wk=wk)
    if cfg.kind == "bilinear-mlr":
        qb, kb = [], []
        for lev in cfg.spec.levels:
            qb.append(tuple(draw((heads, mk, lev.rank), 1.0 / mk) for mk in lev.row_sizes))
            kb.append(tuple(draw((heads, nk, lev.rank), 1.0 / nk) for nk in lev.col_sizes))
        return AttentionWeights(wv, wo, q_blocks=tuple(qb), k_blocks=tuple(kb))
    spec = cfg.spec
    cs, bs = spec.c * spec.s, spec.b * spec.s
    qb = tuple(draw((heads, spec.a, cs), 1.0 / cs) for _ in range(spec.b))
    kb = tuple(draw((heads, spec.d, bs), 1.0 / spec.d) for _ in range(spec.c))
    return AttentionWeights(wv, wo, q_blocks=qb, k_blocks=kb)
