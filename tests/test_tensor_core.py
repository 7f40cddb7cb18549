"""Tensor core: matmul/softmax oracles, tape semantics, gradients, serialization."""
import io
import struct

import numpy as np
import pytest

import structattn.tensor as tc
from structattn import (
    GradTape,
    MaskSpec,
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
    flop_scope,
    mask_matrix,
    relative_error,
    rms_norm,
    softmax_rows_masked,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference for 2-d matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_oracle(row: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """Reference row softmax over the visible entries only."""
    out = np.zeros_like(row)
    vals = row[visible]
    e = np.exp(vals - vals.max())
    out[visible] = e / e.sum()
    return out


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_hand_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    assert np.array_equal((a @ b).to_numpy(), [[17.0], [39.0]])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 7))
    assert np.array_equal((Tensor(x) @ Tensor(np.eye(7))).to_numpy(), x)


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 6))
    got = (Tensor(a) @ Tensor(b)).to_numpy()
    assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 1, 4, 5))
    b = rng.standard_normal((2, 5, 6))
    got = tc.matmul_batched(Tensor(a), Tensor(b)).to_numpy()
    assert got.shape == (3, 2, 4, 6)
    for i in range(3):
        for j in range(2):
            assert np.max(np.abs(got[i, j] - matmul_oracle(a[i, 0], b[j]))) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))


def test_matmul_dtype_mismatch():
    a = Tensor(np.zeros((2, 2)), dtype=np.float32)
    b = Tensor(np.zeros((2, 2)))
    with pytest.raises(TypeError, match="dtype"):
        a @ b


def test_matmul_flop_meter_is_exact():
    a = Tensor(np.zeros((4, 5)))
    b = Tensor(np.zeros((5, 6)))
    with flop_scope() as fc:
        a @ b
    assert fc.macs == 4 * 5 * 6
    assert fc.flops == 2 * 4 * 5 * 6 - 4 * 6


def test_flop_scopes_nest_and_global_accumulates():
    tc.reset_flops()
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    with flop_scope() as outer:
        a @ b
        with flop_scope() as inner:
            a @ b
    assert inner.macs == 12
    assert outer.macs == 24
    assert tc.flop_totals()[1] == 24


# ---------------------------------------------------------------------------
# masked softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform_rows():
    s = Tensor(np.zeros((5, 5)))
    p = softmax_rows_masked(s, MaskSpec("none")).to_numpy()
    assert np.max(np.abs(p - 0.2)) < 1e-15


def test_softmax_causal_first_row_is_one_hot():
    rng = np.random.default_rng(3)
    p = softmax_rows_masked(Tensor(rng.standard_normal((4, 4))), MaskSpec("causal")).to_numpy()
    assert p[0, 0] == 1.0
    assert np.all(p[0, 1:] == 0.0)


def test_softmax_matches_reference_across_masks():
    rng = np.random.default_rng(4)
    for mask in [MaskSpec("none"), MaskSpec("causal"), MaskSpec("sliding_window", 2)]:
        s = rng.standard_normal((6, 6)) * 3
        p = softmax_rows_masked(Tensor(s), mask).to_numpy()
        vis = mask_matrix(mask, 6)
        for j in range(6):
            assert np.max(np.abs(p[j] - softmax_oracle(s[j], vis[j]))) < 1e-14


def test_softmax_shift_invariance_large_logits():
    # a row of 1000s must not overflow; it equals the hand value (uniform)
    s = Tensor(np.full((1, 3, 3), 1000.0))
    p = softmax_rows_masked(s, MaskSpec("none")).to_numpy()
    assert np.max(np.abs(p - 1.0 / 3.0)) < 1e-12


def test_softmax_rows_sum_to_one_any_mask_and_magnitude():
    rng = np.random.default_rng(5)
    for mask in [MaskSpec("none"), MaskSpec("causal"), MaskSpec("sliding_window", 3)]:
        for scale in (1.0, 1e2, 1e4):
            s = rng.standard_normal((8, 8)) * scale
            p = softmax_rows_masked(Tensor(s), mask).to_numpy()
            assert np.max(np.abs(p.sum(-1) - 1.0)) < 1e-9
            assert np.all(p[~mask_matrix(mask, 8)] == 0.0)


def test_softmax_fully_masked_row_raises():
    vis = np.ones((3, 3), dtype=bool)
    vis[1] = False
    with pytest.raises(ShapeError, match="row 1 fully masked"):
        softmax_rows_masked(Tensor(np.zeros((3, 3))), vis)
    # negative windows never get that far: the spec itself is rejected
    with pytest.raises(ValueError, match="window"):
        MaskSpec("sliding_window", -1)


def test_softmax_window_zero_is_identity_weights():
    rng = np.random.default_rng(6)
    p = softmax_rows_masked(Tensor(rng.standard_normal((5, 5))), MaskSpec("sliding_window", 0)).to_numpy()
    assert np.array_equal(p, np.eye(5))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mask", ["causal", "window", "explicit"])
@pytest.mark.parametrize("c", [1.0, 0.125, 0.37])
def test_fused_scale_matches_unfused_softmax(dtype, mask, c):
    rng = np.random.default_rng(41)
    if mask == "explicit":
        mask = rng.random((6, 6)) < 0.5
        mask[np.arange(6), rng.integers(0, 6, 6)] = True
    else:
        mask = MaskSpec("causal") if mask == "causal" else MaskSpec("sliding_window", 2)
    s_arr = rng.standard_normal((2, 3, 6, 6)) * 4
    g = rng.standard_normal(s_arr.shape)

    def run(fused):
        s = Tensor(s_arr, requires_grad=True, dtype=dtype)
        with flop_scope() as fc, GradTape() as tape:
            p = softmax_rows_masked(s, mask, c) if fused else softmax_rows_masked(s * c, mask)
        return p.to_numpy(), backward(tape, p, seed=g)[s], fc.flops, len(tape.nodes)

    p_f, g_f, flops_f, nodes_f = run(True)
    p_u, g_u, flops_u, nodes_u = run(False)
    assert p_f.dtype == g_f.dtype == dtype
    assert np.array_equal(p_f, p_u)
    assert np.array_equal(g_f, g_u)
    assert (nodes_f, nodes_u) == (1, 2)
    assert flops_f == (4 if c == 1.0 else 5) * s_arr.size
    if c != 1.0:
        assert flops_f == flops_u


def test_softmax_rejects_non_positive_scale():
    for c in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="scale"):
            softmax_rows_masked(Tensor(np.zeros((3, 3))), MaskSpec("causal"), c)
    # representable in f64 but not in f32, where masked -inf * 0 would be nan
    with pytest.raises(ValueError, match="float32"):
        softmax_rows_masked(Tensor(np.zeros((3, 3)), dtype=np.float32), MaskSpec("causal"), 1e-50)


def test_mask_cache_is_read_only_and_explicit_masks_are_still_checked():
    spec = MaskSpec("sliding_window", 2)
    vis = tc._visibility(spec, 7)
    assert vis is tc._visibility(MaskSpec("sliding_window", 2), 7)
    assert np.array_equal(vis, mask_matrix(spec, 7))
    assert not vis.flags.writeable
    with pytest.raises(ValueError):
        vis[0, 1] = True
    # the mask mask_matrix hands out stays the caller's own
    assert mask_matrix(spec, 7).flags.writeable
    empty = np.zeros((7, 7), dtype=bool)
    for _ in range(2):
        with pytest.raises(ShapeError, match="row 0 fully masked"):
            softmax_rows_masked(Tensor(np.zeros((7, 7))), empty)


# ---------------------------------------------------------------------------
# mask specs
# ---------------------------------------------------------------------------

def test_mask_matrix_sliding_window_row():
    vis = mask_matrix(MaskSpec("sliding_window", 2), 6)
    assert list(np.flatnonzero(vis[5])) == [3, 4, 5]
    assert list(np.flatnonzero(vis[1])) == [0, 1]


def test_mask_policy_resolution():
    from structattn import global_layer_indices, resolve_layer_masks

    assert global_layer_indices(6) == (1, 4)
    layers = resolve_layer_masks(MaskSpec("global_plus_swa", window=8), 6)
    kinds = [m.kind for m in layers]
    assert kinds == ["causal", "sliding_window", "sliding_window", "causal",
                     "sliding_window", "sliding_window"]
    with pytest.raises(ValueError, match="resolve_layer_masks"):
        mask_matrix(MaskSpec("global_plus_swa", window=2), 4)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    with GradTape() as tape:
        loss = x.sum()
    g = backward(tape, loss)[x]
    assert np.array_equal(g, np.ones((2, 3)))


def test_backward_bilinear_form_gives_outer_product():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 1))
    y = rng.standard_normal((5, 1))
    w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    with GradTape() as tape:
        loss = (Tensor(x).mT @ (w @ Tensor(y))).sum()
    g = backward(tape, loss)[w]
    assert np.max(np.abs(g - x @ y.T)) < 1e-12


def test_backward_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 4))
    w1 = rng.standard_normal((4, 5))
    w2 = rng.standard_normal((5, 2))

    def run(w1a, w2a):
        t1, t2 = Tensor(w1a, requires_grad=True), Tensor(w2a, requires_grad=True)
        with GradTape() as tape:
            h = tc.gelu(Tensor(x) @ t1)
            loss = ((h @ t2) ** 2).mean()
        return tape, loss, t1, t2

    tape, loss, t1, t2 = run(w1, w2)
    grads = backward(tape, loss)
    for t, arr, pick in [(t1, w1, 0), (t2, w2, 1)]:
        def f(a, pick=pick):
            ws = [w1, w2]
            ws[pick] = a
            _, l, *_ = run(*ws)
            return l.item()
        fd = finite_diff_grad(f, arr)
        assert relative_error(grads[t], fd) < 1e-6


PRIMITIVE_CASES = [
    ("add", lambda a, b: a + b, 2),
    ("sub", lambda a, b: a - b, 2),
    ("mul", lambda a, b: a * b, 2),
    ("div", lambda a, b: a / (b + 3.0), 2),
    ("matmul", lambda a, b: a @ b.mT, 2),
    ("exp", lambda a: a.exp(), 1),
    ("log", lambda a: (a * a + 1.0).log(), 1),
    ("sqrt", lambda a: (a * a + 1.0).sqrt(), 1),
    ("tanh", lambda a: a.tanh(), 1),
    ("pow", lambda a: a ** 3, 1),
    ("gelu", lambda a: tc.gelu(a), 1),
    ("sum0", lambda a: a.sum(axis=0) ** 2, 1),
    ("mean", lambda a: a.mean(axis=-1, keepdims=True) * a, 1),
    ("reshape", lambda a: a.reshape(a.size, 1) ** 2, 1),
    ("transpose", lambda a: a.mT @ a, 1),
    ("getitem", lambda a: a[1:, :2] ** 2, 1),
    ("concat", lambda a, b: tc.concat([a, b], axis=0) ** 2, 2),
    ("rms_norm", lambda a: rms_norm(a) * a, 1),
    ("layer_norm", lambda a: tc.layer_norm(a) ** 2, 1),
    ("block_diag", lambda a: tc.block_diag_embed(a.reshape(2, 2, 3)) ** 2, 1),
    ("softmax", lambda a: softmax_rows_masked(a @ a.mT, MaskSpec("causal")) ** 2, 1),
    ("softmax_scaled", lambda a: softmax_rows_masked(a @ a.mT, MaskSpec("causal"), 0.3) ** 2, 1),
]


@pytest.mark.parametrize("name,fn,arity", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, fn, arity):
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(20):
        shape = (3, 4)
        arrs = [rng.standard_normal(shape) for _ in range(arity)]
        ts = [Tensor(a, requires_grad=True) for a in arrs]
        with GradTape() as tape:
            loss = fn(*ts).sum()
        grads = backward(tape, loss)
        for i, t in enumerate(ts):
            def f(a, i=i):
                probe = [Tensor(x) for x in arrs]
                probe[i] = Tensor(a)
                return fn(*probe).sum().item()
            fd = finite_diff_grad(f, arrs[i])
            err = relative_error(grads[t], fd)
            assert err < 1e-5, f"{name} input {i} trial {trial}: rel err {err}"


BINARY_CASES = [
    ("add", lambda a, b: a + b, (3, 4), (4,)),
    ("sub", lambda a, b: a - b, (3, 4), (3, 1)),
    ("mul", lambda a, b: a * b, (3, 4), (1, 4)),
    ("div", lambda a, b: a / b, (3, 4), (3, 4)),
    ("matmul", lambda a, b: a @ b, (2, 3, 4), (4, 5)),
]


@pytest.mark.parametrize("name,fn,ash,bsh", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_constant_operand_gets_no_gradient(name, fn, ash, bsh):
    rng = np.random.default_rng(42)
    arrs = [rng.uniform(0.5, 2.0, ash), rng.uniform(0.5, 2.0, bsh)]
    g = rng.standard_normal(fn(*arrs).shape)

    def vjp(grad_mask):
        ts = [Tensor(a, requires_grad=r) for a, r in zip(arrs, grad_mask)]
        with GradTape() as tape:
            fn(*ts)
        (node,) = tape.nodes
        return node.vjp(g)

    both = vjp((True, True))
    for live in (0, 1):
        got = vjp((live == 0, live == 1))
        assert got[1 - live] is None
        assert np.array_equal(got[live], both[live])


def test_gelu_cube_as_products_stays_within_an_ulp_of_pow():
    # the products round differently from pow only in the last bit of x^3;
    # that moves gelu by at most 5e-16, or one ulp of outputs past 4
    x = np.random.default_rng(43).uniform(-30.0, 30.0, 1_000_000)
    c, a = tc._GELU_C, tc._GELU_A
    t = np.tanh(c * (x + a * x ** 3))
    want = 0.5 * x * (1.0 + t)
    want_grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (c * (1.0 + 3.0 * a * x * x))
    xt = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        y = tc.gelu(xt)
    assert np.all(np.abs(y.data - want) <= np.maximum(5e-16, np.spacing(np.abs(want))))
    assert np.max(np.abs(backward(tape, y, seed=np.ones_like(x))[xt] - want_grad)) <= 2e-15
    assert np.array_equal(tc._gelu_fwd(x), y.data)


def test_icl_loss_metering_is_pinned():
    # forward flops and MACs of one icl_loss at the d16 training shapes
    # (batch 16, T 63, D 64, 2 layers); fused softmax scaling must not move them
    from structattn.icl import ICLTaskConfig, icl_loss, sample_batch
    from structattn.model import ModelConfig, Transformer

    batch = sample_batch(ICLTaskConfig(16), 16, (0, 1, 1))
    pinned = {
        (("heads", 8), ("score_kind", "standard")): (241_096_993, 116_444_160),
        (("heads", 1), ("score_kind", "standard")): (237_540_769, 116_444_160),
        (("heads", 8), ("score_kind", "bilinear-mlr"), ("ranks", (4, 2, 1, 1))): (271_885_345, 128_636_928),
        (("heads", 8), ("score_kind", "bilinear-btt"), ("btt_s", 1)): (358_968_481, 173_343_744),
    }
    for kw, (flops, macs) in pinned.items():
        model = Transformer.init(ModelConfig(d_input=16, d_model=64, layers=2, **dict(kw)),
                                 np.random.default_rng(0))
        with flop_scope() as fc:
            icl_loss(model, batch)
        assert (fc.flops, fc.macs) == (flops, macs), kw


def test_non_scalar_backward_without_seed_is_shape_error():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with GradTape() as tape:
        y = x * 2.0
    with pytest.raises(ShapeError, match="scalar"):
        backward(tape, y)
    g = backward(tape, y, seed=np.ones((2, 2)))[x]
    assert np.array_equal(g, np.full((2, 2), 2.0))


def test_detached_leaf_gets_zero_gradient_not_error():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with GradTape() as tape:
        loss = (x * w.detach()).sum()
    grads = backward(tape, loss)
    assert np.array_equal(grads[w], np.zeros((2, 2)))
    assert np.array_equal(grads[x], np.ones((2, 2)))


def test_non_differentiable_op_raises_at_record_time():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradTape():
        with pytest.raises(tc.NonDifferentiableError):
            tc.greater(x, 0.0)
    # outside a tape the same op is fine
    assert np.array_equal(tc.greater(x, 0.0).to_numpy(), np.ones(3))


def test_tapes_do_not_nest():
    with GradTape():
        with pytest.raises(RuntimeError, match="already active"):
            with GradTape():
                pass


def test_tape_replay_is_bit_exact():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
    with GradTape() as tape:
        h = rms_norm(x @ x.mT)
        p = softmax_rows_masked(h, MaskSpec("causal"))
        (p * h).sum()
    assert len(tape.nodes) > 5
    assert tape.replay_max_deviation() == 0.0


def test_same_seed_same_bits_end_to_end():
    def once():
        rng = np.random.default_rng(1234)
        x = Tensor(rng.standard_normal((8, 8)))
        with GradTape():
            pass
        y = softmax_rows_masked(x @ x.mT, MaskSpec("causal"))
        return y.to_numpy().tobytes()
    assert once() == once()


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_finite_diff_square_at_three():
    g = finite_diff_grad(lambda a: float(a[0] ** 2), np.array([3.0]))
    assert abs(g[0] - 6.0) < 1e-8


def test_finite_diff_of_softmax_row_sum_is_zero():
    rng = np.random.default_rng(10)
    x0 = rng.standard_normal(5)

    def f(v):
        e = np.exp(v - v.max())
        return float((e / e.sum()).sum())

    g = finite_diff_grad(f, x0)
    assert np.max(np.abs(g)) < 1e-7


# ---------------------------------------------------------------------------
# rms_norm
# ---------------------------------------------------------------------------

def test_rms_norm_hand_value():
    out = rms_norm(Tensor([3.0, 4.0])).to_numpy()
    expect = np.array([3.0, 4.0]) / np.sqrt(12.5 + 1e-8)
    assert np.max(np.abs(out - expect)) < 1e-12


def test_rms_norm_zero_vector_is_zero():
    assert np.array_equal(rms_norm(Tensor(np.zeros(4))).to_numpy(), np.zeros(4))


def test_rms_norm_output_rms_is_one():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((10, 32))
    out = rms_norm(Tensor(x)).to_numpy()
    rms = np.sqrt((out ** 2).mean(axis=-1))
    assert np.max(np.abs(rms - 1.0)) < 1e-6


# ---------------------------------------------------------------------------
# dtype handling
# ---------------------------------------------------------------------------

def test_f32_ops_stay_f32():
    a = Tensor(np.ones((2, 2)), dtype=np.float32)
    assert (a @ a).dtype == np.float32
    assert (a + 1.0).dtype == np.float32
    assert softmax_rows_masked(a, MaskSpec("causal")).dtype == np.float32


def test_tensor_data_is_immutable():
    a = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        a.data[0] = 2.0


# ---------------------------------------------------------------------------
# serialization: u64-LE rank, u64-LE extents, f64-LE row-major payload
# ---------------------------------------------------------------------------

def test_serialization_layout_against_hand_packed_bytes():
    arr = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    buf = io.BytesIO()
    tc.write_tensor(buf, Tensor(arr))
    expect = struct.pack("<Q", 2) + struct.pack("<2Q", 2, 3)
    expect += struct.pack("<6d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert buf.getvalue() == expect


def test_serialization_roundtrip_multiple_tensors(tmp_path):
    rng = np.random.default_rng(12)
    tensors = [rng.standard_normal(s) for s in [(3, 4), (2, 2, 2), (5,), ()]]
    path = tmp_path / "t.bin"
    tc.save_tensors(path, tensors)
    back = tc.load_tensors(path)
    assert len(back) == 4
    for a, b in zip(tensors, back):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_serialization_f32_upcasts_to_f64_payload():
    buf = io.BytesIO()
    tc.write_tensor(buf, Tensor(np.array([1.5], dtype=np.float32)))
    buf.seek(0)
    out = tc.read_tensor(buf)
    assert out.dtype == np.float64
    assert out[0] == 1.5


def test_serialization_truncation_errors(tmp_path):
    buf = io.BytesIO()
    tc.write_tensor(buf, Tensor(np.ones((2, 2))))
    blob = buf.getvalue()
    with pytest.raises(ValueError, match="truncated"):
        tc.read_tensor(io.BytesIO(blob[:-8]))
    with pytest.raises(EOFError):
        tc.read_tensor(io.BytesIO(b""))
