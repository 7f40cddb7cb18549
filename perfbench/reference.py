"""Plain-numpy dense references for one attention layer.

Each head's score matrix is built straight from its definition, without the
package's taped ops: bilinear kinds through `structured.materialize` (or the
dense block-diagonal factor matrices whose product it must equal), token-axis
MLR attention through one explicit block mask per level.
"""
from __future__ import annotations

import numpy as np

from structattn.attention import MLRAttentionConfig
from structattn.structured import BTTFactors, MLRFactors, materialize
from structattn.tensor import LAYER_NORM_EPS, Tensor


def _layer_norm(a: np.ndarray) -> np.ndarray:
    centered = a - a.mean(axis=-1, keepdims=True)
    return centered / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    i = j = 0
    for b in blocks:
        out[i:i + b.shape[0], j:j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return out


def _head(blocks, head: int) -> list[Tensor]:
    return [Tensor(b.data[head]) for b in blocks]


def mlr_level_factors(weights, head: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per level, the dense (D, p_l r_l) block-diagonal query and key factors."""
    return [(_block_diag([b.data[head] for b in qb]), _block_diag([b.data[head] for b in kb]))
            for qb, kb in zip(weights.q_blocks, weights.k_blocks)]


def materialized(weights, cfg, head: int) -> np.ndarray:
    """The head's D x D bilinear matrix M from structured.materialize."""
    if cfg.kind == "bilinear-mlr":
        factors = MLRFactors([_head(qb, head) for qb in weights.q_blocks],
                             [_head(kb, head) for kb in weights.k_blocks])
    else:
        factors = BTTFactors(_head(weights.q_blocks, head), _head(weights.k_blocks, head))
    return materialize(cfg.spec, factors)


def head_scores(x: np.ndarray, weights, cfg, head: int) -> np.ndarray:
    """Scaled (T, T) scores of one head, before masking."""
    if isinstance(cfg, MLRAttentionConfig):
        q = x @ weights.wq.data[head]
        k = x @ weights.wk.data[head]
        t = x.shape[0]
        s = np.zeros((t, t))
        off = 0
        for level, rl in enumerate(cfg.ranks):
            block = np.arange(t) // (t >> level)
            same_block = block[:, None] == block[None, :]
            s += np.where(same_block, q[:, off:off + rl] @ k[:, off:off + rl].T, 0.0)
            off += rl
        return s / cfg.r
    if cfg.kind == "standard":
        return (x @ weights.wq.data[head]) @ (x @ weights.wk.data[head]).T / cfg.score_denominator
    if not cfg.qk_norm_on:
        return x @ materialized(weights, cfg, head) @ x.T / cfg.score_denominator
    if cfg.kind == "bilinear-btt":
        scale = cfg.norm_constant / (cfg.spec.a * cfg.spec.b)
        return _layer_norm(x) @ _layer_norm(x @ materialized(weights, cfg, head).T).T * scale
    s = 0.0
    for lev, (qf, kf) in zip(cfg.spec.levels, mlr_level_factors(weights, head)):
        scale = cfg.norm_constant / (lev.rank * lev.blocks)
        s = s + _layer_norm(x @ qf) @ _layer_norm(x @ kf).T * scale
    return s


def layer_output(x: np.ndarray, weights, cfg) -> np.ndarray:
    """Causal attention layer output for x of shape (T, D)."""
    t = x.shape[0]
    causal = np.tril(np.ones((t, t), dtype=bool))
    out = np.zeros_like(x)
    for head in range(weights.heads):
        s = np.where(causal, head_scores(x, weights, cfg, head), -np.inf)
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        out += p @ (x @ weights.wv.data[head]) @ weights.wo.data[head].T
    return out


def mlr_factor_mismatch(weights, cfg) -> float:
    """Worst |sum_l A_l B_l^T - materialize(M)| over heads, for bilinear-mlr."""
    worst = 0.0
    for head in range(weights.heads):
        dense = sum(qf @ kf.T for qf, kf in mlr_level_factors(weights, head))
        worst = max(worst, float(np.max(np.abs(dense - materialized(weights, cfg, head)))))
    return worst
