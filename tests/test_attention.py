"""Attention layers: oracle equivalence, reductions, masks, gradients."""
import numpy as np
import pytest

from structattn.attention import (
    AttentionWeights,
    MLRAttentionConfig,
    ScoreFunctionConfig,
    attention_layer_forward,
    init_attention_weights,
    retained_key_indices,
    score_matrix_bilinear,
    score_matrix_mlr_attention,
    score_matrix_standard,
)
from structattn.costs import bilinear_btt_flops, bilinear_mlr_flops, kv_cache_size, mlr_attention_score_flops
from structattn.masks import MaskSpec
from structattn.structured import BTTSpec, MLRLevelSpec, MLRSpec, factors_from_arrays, materialize
from structattn.tensor import (
    GradTape,
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
    flop_scope,
    relative_error,
    softmax_rows_masked,
)

CAUSAL = MaskSpec("causal")


def _head_factors(spec, q_blocks, k_blocks, h):
    """Slice head h out of stacked attention blocks into a factors object."""
    flat = []
    if isinstance(spec, MLRSpec):
        for qbs, kbs in zip(q_blocks, k_blocks):
            flat += [b.data[h] for b in qbs] + [b.data[h] for b in kbs]
    else:
        flat = [b.data[h] for b in q_blocks] + [b.data[h] for b in k_blocks]
    return factors_from_arrays(spec, flat)


def _bilinear_oracle(x, spec, q_blocks, k_blocks, heads):
    """Dense per-head scores x_j^T M_h x_j' by materializing M_h."""
    out = []
    for h in range(heads):
        m = materialize(spec, _head_factors(spec, q_blocks, k_blocks, h))
        out.append(x @ m @ x.T)
    return np.stack(out)


def _hierarchy_depth(j, jp, t, levels):
    d = 0
    for l in range(levels):
        p = 1 << l
        if j // (t // p) == jp // (t // p):
            d = l + 1
        else:
            break
    return d


def _mlr_attention_oracle(x, wq, wk, ranks):
    """Entrywise hierarchical scores: pair (j, j') sums levels 1..d(j, j')."""
    t = x.shape[0]
    offs = np.concatenate([[0], np.cumsum(ranks)])
    s = np.zeros((t, t))
    for j in range(t):
        for jp in range(t):
            d = _hierarchy_depth(j, jp, t, len(ranks))
            for l in range(d):
                lm = wq[:, offs[l]:offs[l + 1]]
                rm = wk[:, offs[l]:offs[l + 1]]
                s[j, jp] += (x[j] @ lm) @ (rm.T @ x[jp])
    return s


# ---------------------------------------------------------------------------
# standard scoring
# ---------------------------------------------------------------------------

def test_standard_identity_weights_orthonormal_input():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    s = score_matrix_standard(Tensor(q), Tensor(np.eye(4)), Tensor(np.eye(4)))
    assert np.allclose(s.data, np.eye(4), atol=1e-12)


def test_standard_single_token():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 5))
    wq = rng.standard_normal((5, 2))
    wk = rng.standard_normal((5, 2))
    s = score_matrix_standard(Tensor(x), Tensor(wq), Tensor(wk))
    assert s.shape == (1, 1)
    assert abs(s.data[0, 0] - x[0] @ wq @ wk.T @ x[0]) < 1e-12


def test_standard_matches_entrywise_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 6))
    wq = rng.standard_normal((6, 2))
    wk = rng.standard_normal((6, 2))
    s = score_matrix_standard(Tensor(x), Tensor(wq), Tensor(wk)).data
    for j in range(4):
        for jp in range(4):
            assert abs(s[j, jp] - x[j] @ wq @ wk.T @ x[jp]) < 1e-12


def test_standard_stacked_heads_equal_per_head_runs():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    wq = rng.standard_normal((3, 6, 2))
    wk = rng.standard_normal((3, 6, 2))
    stacked = score_matrix_standard(Tensor(x), Tensor(wq), Tensor(wk)).data
    for h in range(3):
        single = score_matrix_standard(Tensor(x), Tensor(wq[h]), Tensor(wk[h])).data
        assert np.allclose(stacked[h], single, atol=1e-13)


def test_standard_shape_errors():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError, match="feature dims"):
        score_matrix_standard(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 3))))
    with pytest.raises(ShapeError):
        score_matrix_standard(x, Tensor(np.zeros((5, 2))), Tensor(np.zeros((5, 2))))


# ---------------------------------------------------------------------------
# bilinear scoring vs the dense-materialization oracle
# ---------------------------------------------------------------------------

def _random_blocks(rng, spec, heads):
    if isinstance(spec, MLRSpec):
        qb = tuple(tuple(Tensor(rng.standard_normal((heads, mk, lev.rank))) for mk in lev.row_sizes)
                   for lev in spec.levels)
        kb = tuple(tuple(Tensor(rng.standard_normal((heads, nk, lev.rank))) for nk in lev.col_sizes)
                   for lev in spec.levels)
        return qb, kb
    cs, bs = spec.c * spec.s, spec.b * spec.s
    qb = tuple(Tensor(rng.standard_normal((heads, spec.a, cs))) for _ in range(spec.b))
    kb = tuple(Tensor(rng.standard_normal((heads, spec.d, bs))) for _ in range(spec.c))
    return qb, kb


def test_bilinear_btt_matches_materialized_oracle():
    rng = np.random.default_rng(5)
    cases = [(2, 2, 2, 2, 1, 3), (2, 2, 2, 2, 2, 5), (2, 4, 4, 2, 1, 4),
             (4, 2, 2, 4, 2, 8), (3, 3, 3, 3, 1, 6)]
    for a, b, c, d, s, t in cases:
        spec = BTTSpec(a, b, c, d, s)
        cfg = ScoreFunctionConfig("bilinear-btt", spec=spec, qk_norm=False)
        for heads in (1, 2):
            qb, kb = _random_blocks(rng, spec, heads)
            x = rng.standard_normal((t, spec.m))
            got = score_matrix_bilinear(Tensor(x), cfg, qb, kb).data
            want = _bilinear_oracle(x, spec, qb, kb, heads)
            assert np.max(np.abs(got - want)) < 1e-10, (a, b, c, d, s)


def test_bilinear_mlr_matches_materialized_oracle():
    rng = np.random.default_rng(6)
    cases = [(8, [3, 2], 4), (8, [2, 1, 1], 7), (16, [4, 2, 1], 8), (12, [5], 5)]
    for d, ranks, t in cases:
        spec = MLRSpec.equal_blocks(d, d, ranks)
        cfg = ScoreFunctionConfig("bilinear-mlr", spec=spec, qk_norm=False)
        for heads in (1, 2):
            qb, kb = _random_blocks(rng, spec, heads)
            x = rng.standard_normal((t, d))
            got = score_matrix_bilinear(Tensor(x), cfg, qb, kb).data
            want = _bilinear_oracle(x, spec, qb, kb, heads)
            assert np.max(np.abs(got - want)) < 1e-10, (d, ranks)


def test_bilinear_mlr_single_level_is_standard_scoring():
    rng = np.random.default_rng(7)
    spec = MLRSpec.equal_blocks(6, 6, [2])
    cfg = ScoreFunctionConfig("bilinear-mlr", spec=spec, qk_norm=False)
    x = Tensor(rng.standard_normal((5, 6)))
    wq = Tensor(rng.standard_normal((6, 2)))
    wk = Tensor(rng.standard_normal((6, 2)))
    via_bilinear = score_matrix_bilinear(x, cfg, ((wq,),), ((wk,),)).data
    via_standard = score_matrix_standard(x, wq, wk).data
    assert np.max(np.abs(via_bilinear - via_standard)) <= 1e-12


def test_bilinear_block_shape_validation():
    rng = np.random.default_rng(8)
    spec = MLRSpec.equal_blocks(8, 8, [2, 1])
    cfg = ScoreFunctionConfig("bilinear-mlr", spec=spec, qk_norm=False)
    qb, kb = _random_blocks(rng, spec, 1)
    x = Tensor(rng.standard_normal((3, 8)))
    with pytest.raises(ShapeError, match="levels"):
        score_matrix_bilinear(x, cfg, qb[:1], kb[:1])
    with pytest.raises(ShapeError, match="block"):
        score_matrix_bilinear(x, cfg, (qb[0], qb[0][:1]), kb)
    with pytest.raises(ShapeError, match="expects inputs with D=8"):
        score_matrix_bilinear(Tensor(rng.standard_normal((3, 6))), cfg, qb, kb)

    bspec = BTTSpec(2, 2, 2, 2, 1)
    bcfg = ScoreFunctionConfig("bilinear-btt", spec=bspec, qk_norm=False)
    bq, bk = _random_blocks(rng, bspec, 1)
    with pytest.raises(ShapeError, match="cores"):
        score_matrix_bilinear(Tensor(rng.standard_normal((3, 4))), bcfg, bq[:1], bk)


def test_qk_norm_scales_linearly_in_constant():
    rng = np.random.default_rng(9)
    spec = MLRSpec.equal_blocks(8, 8, [2, 1])
    x = Tensor(rng.standard_normal((4, 8)))
    qb, kb = _random_blocks(rng, spec, 1)
    one = score_matrix_bilinear(x, ScoreFunctionConfig("bilinear-mlr", spec=spec, norm_constant=1.0), qb, kb)
    two = score_matrix_bilinear(x, ScoreFunctionConfig("bilinear-mlr", spec=spec, norm_constant=2.0), qb, kb)
    assert np.allclose(2.0 * one.data, two.data, atol=1e-12)


def test_qk_norm_invariant_to_input_scale():
    rng = np.random.default_rng(10)
    for spec in (MLRSpec.equal_blocks(8, 8, [2, 2]), BTTSpec(4, 2, 2, 4, 1)):
        kind = "bilinear-mlr" if isinstance(spec, MLRSpec) else "bilinear-btt"
        cfg = ScoreFunctionConfig(kind, spec=spec)
        assert cfg.qk_norm_on
        qb, kb = _random_blocks(rng, spec, 1)
        x = rng.standard_normal((4, 8))
        base = score_matrix_bilinear(Tensor(x), cfg, qb, kb).data
        scaled = score_matrix_bilinear(Tensor(3.0 * x), cfg, qb, kb).data
        assert np.allclose(base, scaled, atol=1e-6), kind


# ---------------------------------------------------------------------------
# hierarchical (token-axis) scoring
# ---------------------------------------------------------------------------

def test_mlr_attention_single_level_is_standard():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((6, 4)))
    wq = Tensor(rng.standard_normal((4, 3)))
    wk = Tensor(rng.standard_normal((4, 3)))
    cfg = MLRAttentionConfig((3,))
    hier = score_matrix_mlr_attention(x, wq, wk, cfg).data
    flat = score_matrix_standard(x, wq, wk).data
    assert np.max(np.abs(hier - flat)) <= 1e-12


def test_mlr_attention_two_level_entries_by_hand():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 4))
    wq = rng.standard_normal((4, 2))
    wk = rng.standard_normal((4, 2))
    cfg = MLRAttentionConfig((1, 1))
    s = score_matrix_mlr_attention(Tensor(x), Tensor(wq), Tensor(wk), cfg).data
    l1 = lambda j, jp: (x[j] @ wq[:, :1]) @ (wk[:, :1].T @ x[jp])
    l2 = lambda j, jp: (x[j] @ wq[:, 1:]) @ (wk[:, 1:].T @ x[jp])
    # tokens 0 and 3 sit in different level-2 halves: level 1 only
    assert abs(s[0, 3] - l1(0, 3)) < 1e-12
    # tokens 0 and 1 share the first half: levels 1 and 2 both contribute
    assert abs(s[0, 1] - (l1(0, 1) + l2(0, 1))) < 1e-12


def test_mlr_attention_depth_counting_all_pairs():
    rng = np.random.default_rng(13)
    t, ranks = 8, [2, 2, 1]
    x = rng.standard_normal((t, 5))
    wq = rng.standard_normal((5, sum(ranks)))
    wk = rng.standard_normal((5, sum(ranks)))
    s = score_matrix_mlr_attention(Tensor(x), Tensor(wq), Tensor(wk),
                                   MLRAttentionConfig(tuple(ranks))).data
    want = _mlr_attention_oracle(x, wq, wk, ranks)
    assert np.max(np.abs(s - want)) < 1e-12
    # spot check: tokens 0 and 3 share the level-2 half but not a level-3 block
    assert _hierarchy_depth(0, 3, t, 3) == 2


def test_block_scores_equal_entrywise_formula():
    # block-built vs per-entry summation across every small configuration
    rng = np.random.default_rng(14)
    for t in (2, 4, 8, 16):
        for levels in (1, 2, 3, 4):
            if t % (1 << (levels - 1)) or t <= (1 << (levels - 1)):
                continue
            for _ in range(3):
                ranks = [int(rng.integers(1, 4)) for _ in range(levels)]
                d = int(rng.integers(2, 7))
                x = rng.standard_normal((t, d))
                wq = rng.standard_normal((d, sum(ranks)))
                wk = rng.standard_normal((d, sum(ranks)))
                s = score_matrix_mlr_attention(Tensor(x), Tensor(wq), Tensor(wk),
                                               MLRAttentionConfig(tuple(ranks))).data
                want = _mlr_attention_oracle(x, wq, wk, ranks)
                assert np.max(np.abs(s - want)) <= 1e-12, (t, levels, ranks)


def test_mlr_attention_validation():
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((6, 4)))
    wq = Tensor(rng.standard_normal((4, 2)))
    wq3 = Tensor(rng.standard_normal((4, 3)))
    with pytest.raises(ShapeError, match="divisible"):
        score_matrix_mlr_attention(x, wq3, wq3, MLRAttentionConfig((1, 1, 1)))
    with pytest.raises(ShapeError, match="exceed"):
        score_matrix_mlr_attention(Tensor(rng.standard_normal((2, 4))), wq, wq,
                                   MLRAttentionConfig((1, 1)))
    with pytest.raises(ShapeError, match="rank allocation"):
        score_matrix_mlr_attention(x, wq, wq, MLRAttentionConfig((1, 2)))
    with pytest.raises(ValueError, match="positive"):
        MLRAttentionConfig((2, 0))


def test_mlr_attention_masked_softmax_rows():
    rng = np.random.default_rng(16)
    for t, ranks in ((4, (2,)), (8, (2, 1)), (16, (2, 1, 1)), (8, (1, 1, 2))):
        d = sum(ranks)
        x = Tensor(rng.standard_normal((t, d)))
        wq = Tensor(rng.standard_normal((d, d)))
        wk = Tensor(rng.standard_normal((d, d)))
        s = score_matrix_mlr_attention(x, wq, wk, MLRAttentionConfig(ranks))
        a = softmax_rows_masked(s, CAUSAL).data
        assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(a[np.triu_indices(t, k=1)] == 0.0)


# ---------------------------------------------------------------------------
# sliding windows and key retention
# ---------------------------------------------------------------------------

def test_sliding_window_full_width_equals_causal():
    rng = np.random.default_rng(17)
    s = Tensor(rng.standard_normal((5, 5)))
    windowed = softmax_rows_masked(s, MaskSpec("sliding_window", 5)).data
    causal = softmax_rows_masked(s, CAUSAL).data
    assert np.array_equal(windowed, causal)


def test_sliding_window_zero_is_one_hot():
    rng = np.random.default_rng(18)
    s = Tensor(rng.standard_normal((4, 4)))
    a = softmax_rows_masked(s, MaskSpec("sliding_window", 0)).data
    assert np.array_equal(a, np.eye(4))


def test_sliding_window_band_membership():
    s = Tensor(np.zeros((6, 6)))
    out = softmax_rows_masked(s, MaskSpec("sliding_window", 2)).data
    for j in range(6):
        want = {jp for jp in range(6) if 0 <= j - jp <= 2}
        assert set(np.flatnonzero(out[j])) == want
        assert np.all(out[j, sorted(want)] == 1.0 / len(want))
    assert set(np.flatnonzero(out[5])) == {3, 4, 5}


def test_retained_key_indices_ranges():
    assert retained_key_indices(MLRAttentionConfig((4,)), 8) == ((0, 8),)
    assert retained_key_indices(MLRAttentionConfig((2, 2)), 8) == ((0, 8), (4, 8))
    cfg = MLRAttentionConfig((8,) * 8)
    spans = retained_key_indices(cfg, 1024)
    total = sum(r * (hi - lo) for r, (lo, hi) in zip(cfg.ranks, spans))
    assert total == kv_cache_size(1024, list(cfg.ranks)) == 16_320


# ---------------------------------------------------------------------------
# the full layer
# ---------------------------------------------------------------------------

def _dense_weights(rng, d, heads, r):
    return AttentionWeights(
        wv=Tensor(rng.standard_normal((heads, d, d // heads))),
        wo=Tensor(rng.standard_normal((heads, d, d // heads))),
        wq=Tensor(rng.standard_normal((heads, d, r))),
        wk=Tensor(rng.standard_normal((heads, d, r))),
    )


def test_forward_single_token_ignores_scores():
    rng = np.random.default_rng(19)
    d, heads = 4, 2
    w = _dense_weights(rng, d, heads, d // heads)
    x = rng.standard_normal((1, d))
    cfg = ScoreFunctionConfig("standard", r=d // heads)
    out = attention_layer_forward(Tensor(x), w, cfg, CAUSAL).data
    want = sum(x[0] @ w.wv.data[h] @ w.wo.data[h].T for h in range(heads))
    assert np.allclose(out[0], want, atol=1e-12)


def test_forward_zero_scores_average_causally():
    rng = np.random.default_rng(20)
    d = 4
    w = AttentionWeights(
        wv=Tensor(rng.standard_normal((1, d, d))),
        wo=Tensor(rng.standard_normal((1, d, d))),
        wq=Tensor(np.zeros((1, d, d))),
        wk=Tensor(np.zeros((1, d, d))),
    )
    x = rng.standard_normal((5, d))
    out = attention_layer_forward(Tensor(x), w, ScoreFunctionConfig("standard", r=d), CAUSAL).data
    values = x @ w.wv.data[0]
    for j in range(5):
        want = values[:j + 1].mean(axis=0) @ w.wo.data[0].T
        assert np.allclose(out[j], want, atol=1e-12)


def _naive_standard_forward(x, w, r, causal_window=None):
    t, d = x.shape
    heads = w.wv.data.shape[0]
    out = np.zeros((t, d))
    for h in range(heads):
        s = (x @ w.wq.data[h]) @ (x @ w.wk.data[h]).T / r
        vis = np.tril(np.ones((t, t), dtype=bool))
        e = np.where(vis, np.exp(s - np.where(vis, s, -np.inf).max(axis=-1, keepdims=True)), 0.0)
        a = e / e.sum(axis=-1, keepdims=True)
        out += a @ (x @ w.wv.data[h]) @ w.wo.data[h].T
    return out


def test_forward_standard_matches_naive_oracle():
    rng = np.random.default_rng(21)
    t, d, heads = 4, 8, 2
    r = d // heads
    w = _dense_weights(rng, d, heads, r)
    x = rng.standard_normal((t, d))
    got = attention_layer_forward(Tensor(x), w, ScoreFunctionConfig("standard", r=r), CAUSAL).data
    assert np.max(np.abs(got - _naive_standard_forward(x, w, r))) < 1e-10


def test_forward_sqrt_scale_compatibility_flag():
    rng = np.random.default_rng(22)
    t, d = 3, 4
    w = _dense_weights(rng, d, 1, d)
    x = rng.standard_normal((t, d))
    got = attention_layer_forward(Tensor(x), w, ScoreFunctionConfig("standard", r=d, sqrt_scale=True),
                                  CAUSAL).data
    want = _naive_standard_forward(x, w, np.sqrt(d))
    assert np.max(np.abs(got - want)) < 1e-12


def test_forward_batched_inputs_match_loop():
    rng = np.random.default_rng(23)
    d, heads = 6, 2
    w = _dense_weights(rng, d, heads, d // heads)
    cfg = ScoreFunctionConfig("standard", r=d // heads)
    xs = rng.standard_normal((3, 4, d))
    batched = attention_layer_forward(Tensor(xs), w, cfg, CAUSAL).data
    for i in range(3):
        single = attention_layer_forward(Tensor(xs[i]), w, cfg, CAUSAL).data
        assert np.allclose(batched[i], single, atol=1e-13)


def _permute_weights(w, perm):
    def p(t):
        return None if t is None else Tensor(t.data[perm])

    def pblocks(side):
        if side is None:
            return None
        out = []
        for entry in side:
            if isinstance(entry, tuple):
                out.append(tuple(p(b) for b in entry))
            else:
                out.append(p(entry))
        return tuple(out)

    return AttentionWeights(wv=p(w.wv), wo=p(w.wo), wq=p(w.wq), wk=p(w.wk),
                            q_blocks=pblocks(w.q_blocks), k_blocks=pblocks(w.k_blocks))


def test_forward_invariant_to_head_order():
    rng = np.random.default_rng(24)
    d, heads, t = 8, 4, 6
    x = Tensor(rng.standard_normal((t, d)))
    perm = np.array([2, 0, 3, 1])
    configs = [
        ScoreFunctionConfig("standard", r=d // heads),
        ScoreFunctionConfig("bilinear-mlr", spec=MLRSpec.equal_blocks(d, d, [2, 1])),
        ScoreFunctionConfig("bilinear-btt", spec=BTTSpec(4, 2, 2, 4, 1)),
        MLRAttentionConfig((1, 1)),
    ]
    for cfg in configs:
        w = init_attention_weights(rng, d, heads, cfg)
        base = attention_layer_forward(x, w, cfg, CAUSAL).data
        swapped = attention_layer_forward(x, _permute_weights(w, perm), cfg, CAUSAL).data
        assert np.max(np.abs(base - swapped)) <= 1e-12, cfg


def test_forward_causality_blocks_future_tokens():
    rng = np.random.default_rng(25)
    d, heads, t = 4, 1, 8
    cfg = MLRAttentionConfig((3, 1))
    w = init_attention_weights(rng, d, heads, cfg)
    x = rng.standard_normal((t, d))
    base = attention_layer_forward(Tensor(x), w, cfg, CAUSAL).data
    bumped = x.copy()
    bumped[5] += 10.0
    out = attention_layer_forward(Tensor(bumped), w, cfg, CAUSAL).data
    assert np.array_equal(base[:5], out[:5])
    assert not np.allclose(base[5:], out[5:])


def test_forward_head_partition_errors():
    rng = np.random.default_rng(26)
    w = _dense_weights(rng, 6, 2, 4)
    x = Tensor(rng.standard_normal((3, 6)))
    with pytest.raises(ShapeError, match="head partition"):
        attention_layer_forward(x, w, ScoreFunctionConfig("standard", r=4), CAUSAL)
    cfg = MLRAttentionConfig((2, 2))
    with pytest.raises(ShapeError, match="head partition"):
        attention_layer_forward(x, init_attention_weights(rng, 6, 1, cfg), cfg, CAUSAL)


def test_forward_mask_validation():
    rng = np.random.default_rng(27)
    d = 4
    cfg = MLRAttentionConfig((2, 2))
    w = init_attention_weights(rng, d, 1, cfg)
    x = Tensor(rng.standard_normal((8, d)))
    with pytest.raises(ValueError, match="causal"):
        attention_layer_forward(x, w, cfg, MaskSpec("none"))
    scfg = ScoreFunctionConfig("standard", r=d)
    sw = init_attention_weights(rng, d, 1, scfg)
    with pytest.raises(ValueError, match="resolve_layer_masks"):
        attention_layer_forward(x, sw, scfg, MaskSpec("global_plus_swa", 2))


def test_forward_sliding_window_mask():
    rng = np.random.default_rng(28)
    d, t = 4, 6
    scfg = ScoreFunctionConfig("standard", r=d)
    w = init_attention_weights(rng, d, 1, scfg)
    x = rng.standard_normal((t, d))
    base = attention_layer_forward(Tensor(x), w, scfg, MaskSpec("sliding_window", 2)).data
    bumped = x.copy()
    bumped[0] += 5.0
    out = attention_layer_forward(Tensor(bumped), w, scfg, MaskSpec("sliding_window", 2)).data
    # token 0 left the window of rows 3+, so those rows cannot change
    assert np.array_equal(base[3:], out[3:])
    assert not np.allclose(base[:3], out[:3])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

GRAD_CONFIGS = [
    ("standard", lambda: ScoreFunctionConfig("standard", r=4), 4, 1, 4),
    ("bilinear-mlr", lambda: ScoreFunctionConfig("bilinear-mlr", spec=MLRSpec.equal_blocks(8, 8, [2, 1])), 8, 2, 4),
    ("bilinear-btt", lambda: ScoreFunctionConfig("bilinear-btt", spec=BTTSpec(2, 2, 2, 2, 2)), 4, 1, 4),
    ("mlr-attention", lambda: MLRAttentionConfig((3, 1)), 4, 1, 4),
]


@pytest.mark.parametrize("name,make_cfg,d,heads,t", GRAD_CONFIGS, ids=[c[0] for c in GRAD_CONFIGS])
def test_forward_gradients_match_finite_differences(name, make_cfg, d, heads, t):
    rng = np.random.default_rng(29)
    cfg = make_cfg()
    w = init_attention_weights(rng, d, heads, cfg, requires_grad=True)
    x = Tensor(rng.standard_normal((t, d)), requires_grad=True)
    params = [x] + w.tensors()

    def run(tensors):
        probe_w = AttentionWeights(
            wv=tensors[1], wo=tensors[2],
            wq=tensors[3] if w.wq is not None else None,
            wk=tensors[4] if w.wq is not None else None,
            q_blocks=_regroup(w.q_blocks, tensors[3:]) if w.q_blocks is not None else None,
            k_blocks=_regroup(w.k_blocks, tensors[3 + _count(w.q_blocks):]) if w.k_blocks is not None else None,
        )
        out = attention_layer_forward(tensors[0], probe_w, cfg, CAUSAL)
        return (out * out).sum()

    with GradTape() as tape:
        loss = run(params)
    grads = backward(tape, loss)
    for i, p in enumerate(params):
        def f(arr, i=i):
            probe = [Tensor(q.data) for q in params]
            probe[i] = Tensor(arr)
            return run(probe).item()
        fd = finite_diff_grad(f, p.data)
        err = relative_error(grads[p], fd)
        assert err < 1e-5, f"{name} param {i}: rel err {err}"


def _count(blocks):
    return sum(len(e) if isinstance(e, tuple) else 1 for e in blocks)


def _regroup(template, flat):
    out, i = [], 0
    for entry in template:
        if isinstance(entry, tuple):
            out.append(tuple(flat[i:i + len(entry)]))
            i += len(entry)
        else:
            out.append(flat[i])
            i += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# runtime counter vs closed forms
# ---------------------------------------------------------------------------

def test_score_flops_match_closed_forms():
    rng = np.random.default_rng(30)
    t, d = 256, 128
    x = Tensor(rng.standard_normal((t, d)))

    wq = Tensor(rng.standard_normal((d, d)))
    with flop_scope() as c:
        score_matrix_standard(x, wq, wq)
    assert c.macs == t * t * d + 2 * t * d * d

    ranks = [8, 4, 2]
    spec = MLRSpec.equal_blocks(d, d, ranks)
    qb, kb = _random_blocks(rng, spec, 1)
    cfg = ScoreFunctionConfig("bilinear-mlr", spec=spec, qk_norm=False)
    with flop_scope() as c:
        score_matrix_bilinear(x, cfg, qb, kb)
    assert c.macs == bilinear_mlr_flops(t, d, ranks, "optimal")

    bspec = BTTSpec.square_root(256, s=2)
    xb = Tensor(rng.standard_normal((t, 256)))
    qb, kb = _random_blocks(rng, bspec, 1)
    bcfg = ScoreFunctionConfig("bilinear-btt", spec=bspec, qk_norm=False)
    with flop_scope() as c:
        score_matrix_bilinear(xb, bcfg, qb, kb)
    assert c.macs == bilinear_btt_flops(t, 256, 2, "chained")

    mranks = (64, 32, 16, 8, 4, 2, 1, 1)
    mcfg = MLRAttentionConfig(mranks)
    wq = Tensor(rng.standard_normal((d, sum(mranks))))
    with flop_scope() as c:
        score_matrix_mlr_attention(x, wq, wq, mcfg)
    want = mlr_attention_score_flops(t, list(mranks)) + 2 * t * d * sum(mranks)
    assert c.macs == want


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_score_config_validation():
    with pytest.raises(ValueError, match="unknown score kind"):
        ScoreFunctionConfig("linear", r=4)
    with pytest.raises(ValueError, match="positive"):
        ScoreFunctionConfig("standard", r=4, norm_constant=0.0)
    with pytest.raises(ValueError, match="head dimension"):
        ScoreFunctionConfig("standard")
    with pytest.raises(ValueError, match="no structured spec"):
        ScoreFunctionConfig("standard", r=4, spec=MLRSpec.equal_blocks(4, 4, [1]))
    with pytest.raises(ValueError, match="needs a MLRSpec"):
        ScoreFunctionConfig("bilinear-mlr", spec=BTTSpec(2, 2, 2, 2, 1))
    with pytest.raises(ValueError, match="sqrt_scale"):
        ScoreFunctionConfig("bilinear-btt", spec=BTTSpec(2, 2, 2, 2, 1), sqrt_scale=True)
    with pytest.raises(ShapeError, match="square"):
        ScoreFunctionConfig("bilinear-mlr", spec=MLRSpec.equal_blocks(8, 4, [1]))
    three_blocks = MLRSpec(6, 6, (MLRLevelSpec(1, (2, 2, 2), (2, 2, 2)),))
    with pytest.raises(ValueError, match="power of two"):
        ScoreFunctionConfig("bilinear-mlr", spec=three_blocks)


def test_init_weights_shapes():
    rng = np.random.default_rng(31)
    w = init_attention_weights(rng, 8, 2, ScoreFunctionConfig("standard", r=4))
    assert w.wq.shape == (2, 8, 4) and w.wv.shape == (2, 8, 4)
    w = init_attention_weights(rng, 8, 2, ScoreFunctionConfig("bilinear-mlr", spec=MLRSpec.equal_blocks(8, 8, [2, 1])))
    assert w.q_blocks[1][1].shape == (2, 4, 1)
    w = init_attention_weights(rng, 8, 2, ScoreFunctionConfig("bilinear-btt", spec=BTTSpec(4, 2, 2, 4, 2)))
    assert w.q_blocks[0].shape == (2, 4, 4) and w.k_blocks[0].shape == (2, 4, 4)
    assert len(w.tensors()) == 2 + 2 + 2


def test_btt_feature_width_is_a_shape_error(monkeypatch):
    # s*b*c = 1 features per head against a dense head dim of 8
    narrow = ScoreFunctionConfig("bilinear-btt", spec=BTTSpec(8, 1, 1, 8, 1))
    rng = np.random.default_rng(32)
    w = init_attention_weights(rng, 8, 1, narrow)
    x = Tensor(rng.standard_normal((4, 8)))
    with pytest.raises(ShapeError, match=r"bilinear-btt BTTSpec\(a=8, b=1, c=1, d=8, s=1\).*width s\*b\*c = 1"):
        attention_layer_forward(x, w, narrow, CAUSAL)

    from structattn.model import ModelConfig
    monkeypatch.setattr(BTTSpec, "square_root", classmethod(lambda cls, dim, s=1: cls(dim, 1, 1, dim, s)))
    with pytest.raises(ShapeError, match="head dim D/H = 8/1 = 8"):
        ModelConfig(d_input=2, d_model=8, layers=1, heads=1, score_kind="bilinear-btt")
    assert ModelConfig(d_input=2, d_model=8, layers=1, heads=8, score_kind="bilinear-btt")
