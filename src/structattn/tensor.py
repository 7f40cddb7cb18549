"""Dense tensors with taped reverse-mode differentiation and a FLOP meter.

Everything numerical in this package runs through the ops here: they wrap
numpy arrays, meter their arithmetic cost, and (inside a GradTape) record
enough to replay the forward pass and to pull gradients back to the leaves.

Conventions:
  - float64 is the default dtype; float32 is opt-in per tensor.
  - tensor data is frozen after construction; new values mean new tensors.
  - a matmul of shapes (m, k) @ (k, n) costs m*k*n multiply-accumulates and
    2*m*k*n - m*n flops (adds + muls). Both tallies are kept because closed
    cost formulas elsewhere count one flop per multiply-accumulate.
"""
from __future__ import annotations

import functools
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np

from .masks import MaskSpec, mask_matrix

FLOAT_DTYPES = (np.float32, np.float64)
DEFAULT_DTYPE = np.float64
RMS_NORM_EPS = 1e-8
LAYER_NORM_EPS = 1e-8


class ShapeError(ValueError):
    """Operand shapes (or sizes) are incompatible."""


class NonDifferentiableError(TypeError):
    """A non-differentiable op was recorded on a gradient path."""


# ---------------------------------------------------------------------------
# flop meter
# ---------------------------------------------------------------------------

class FlopCounter:
    """Tally of arithmetic executed through tensor ops.

    flops counts every add/mul (a matmul is 2mkn - mn); macs counts matmul
    multiply-accumulates only (mkn), the convention used by the closed-form
    cost model.
    """

    __slots__ = ("flops", "macs")

    def __init__(self):
        self.flops = 0
        self.macs = 0

    def reset(self):
        self.flops = 0
        self.macs = 0

    def __repr__(self):
        return f"FlopCounter(flops={self.flops}, macs={self.macs})"


_GLOBAL_COUNTER = FlopCounter()
_COUNTERS: list[FlopCounter] = [_GLOBAL_COUNTER]


def reset_flops():
    _GLOBAL_COUNTER.reset()


def flop_totals() -> tuple[int, int]:
    """(flops, macs) accumulated on the global counter since the last reset."""
    return _GLOBAL_COUNTER.flops, _GLOBAL_COUNTER.macs


@contextmanager
def flop_scope():
    """Meter just the ops executed inside the with-block."""
    scope = FlopCounter()
    _COUNTERS.append(scope)
    try:
        yield scope
    finally:
        _COUNTERS.remove(scope)


def _count_matmul(batch: int, m: int, k: int, n: int):
    for c in _COUNTERS:
        c.macs += batch * m * k * n
        c.flops += batch * (2 * m * k * n - m * n)


def _count_flops(n: int):
    for c in _COUNTERS:
        c.flops += n


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

@dataclass
class TapeNode:
    op: str
    inputs: tuple["Tensor", ...]
    output: "Tensor"
    vjp: Callable[[np.ndarray], tuple]
    fwd: Callable[..., np.ndarray]


_TAPES: list["GradTape"] = []


class GradTape:
    """Records differentiable ops, in execution (= topological) order.

    One tape may be active at a time; the graph of a single logical forward
    pass has to live on a single tape for replay and backward to make sense.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "GradTape":
        if _TAPES:
            raise RuntimeError("a GradTape is already active; tapes do not nest")
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.remove(self)
        return False

    def replay_max_deviation(self) -> float:
        """Re-run every recorded forward and report the worst |difference|.

        Recorded inputs are immutable, so this is 0.0 unless an op is
        non-deterministic.
        """
        worst = 0.0
        for node in self.nodes:
            again = node.fwd(*(t.data for t in node.inputs))
            if again.shape != node.output.data.shape:
                raise ShapeError(f"replay of {node.op}: shape changed {node.output.shape} -> {again.shape}")
            worst = max(worst, float(np.max(np.abs(again - node.output.data), initial=0.0)))
        return worst


def _active_tape() -> GradTape | None:
    return _TAPES[-1] if _TAPES else None


class Gradients:
    """Gradient lookup returned by backward().

    Indexing by a requires-grad tensor that never touched the taped graph
    (detached, or simply unused) gives zeros of its shape rather than an error.
    """

    def __init__(self, grads: dict[int, np.ndarray], leaves: dict[int, "Tensor"]):
        self._grads = grads
        self._leaves = leaves

    def __getitem__(self, t: "Tensor") -> np.ndarray:
        if not isinstance(t, Tensor):
            raise TypeError("gradients are indexed by Tensor")
        if not t.requires_grad:
            raise KeyError("tensor does not require grad")
        g = self._grads.get(id(t))
        return np.zeros_like(t.data) if g is None else g

    def leaves(self) -> list["Tensor"]:
        """Requires-grad leaves that actually participated in the taped graph."""
        return list(self._leaves.values())


def backward(tape: GradTape, loss: "Tensor", seed: np.ndarray | None = None) -> Gradients:
    """Reverse sweep over the tape from loss back to the leaves.

    loss must be a single element unless an explicit seed (dLoss/dOut) of the
    output's shape is supplied.
    """
    if seed is None:
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss or an explicit seed; got shape {loss.shape}")
        seed = np.ones_like(loss.data)
    else:
        seed = np.asarray(seed, dtype=loss.data.dtype)
        if seed.shape != loss.data.shape:
            raise ShapeError(f"seed shape {seed.shape} does not match loss shape {loss.shape}")

    produced: dict[int, TapeNode] = {id(n.output): n for n in tape.nodes}
    grads: dict[int, np.ndarray] = {id(loss): seed}
    leaves: dict[int, Tensor] = {}

    for node in reversed(tape.nodes):
        g_out = grads.pop(id(node.output), None)
        if g_out is None:
            continue  # not on a path to the loss
        gs = node.vjp(g_out)
        for t, g in zip(node.inputs, gs):
            if g is None or not t.requires_grad:
                continue
            k = id(t)
            if k in grads:
                grads[k] = grads[k] + g
            else:
                grads[k] = g
            if k not in produced:
                leaves[k] = t

    if loss.requires_grad and id(loss) not in produced:
        leaves[id(loss)] = loss  # loss is itself a leaf (empty graph)

    return Gradients({k: v for k, v in grads.items() if k in leaves}, leaves)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Tensor:
    """Immutable dense array plus a requires-grad flag."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            dtype = data.dtype if isinstance(data, np.ndarray) and data.dtype in FLOAT_DTYPES else DEFAULT_DTYPE
        if np.dtype(dtype) not in FLOAT_DTYPES:
            raise TypeError(f"unsupported dtype {dtype}; use float32 or float64")
        arr = np.array(data, dtype=dtype, order="C")  # private copy, caller keeps theirs writable
        self.data = _freeze(arr)
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        t = object.__new__(cls)
        t.data = _freeze(arr)
        t.requires_grad = requires_grad
        return t

    # -- introspection ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def to_numpy(self) -> np.ndarray:
        return np.array(self.data)

    def detach(self) -> "Tensor":
        return Tensor._wrap(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        if _active_tape() is not None and self.requires_grad:
            raise NonDifferentiableError("astype on a gradient path; cast outside the tape")
        return Tensor._wrap(np.ascontiguousarray(self.data, dtype=dtype), self.requires_grad)

    # -- operators ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul_batched(self, other)

    def __pow__(self, p):
        return pow_scalar(self, p)

    def __getitem__(self, idx):
        return getitem(self, idx)

    # -- method sugar --------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    @property
    def mT(self):
        """Swap the last two axes (matrix transpose of the trailing matrices)."""
        if self.ndim < 2:
            raise ShapeError(f"mT needs ndim >= 2, got shape {self.shape}")
        axes = list(range(self.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
        return transpose(self, tuple(axes))

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def tanh(self):
        return tanh(self)

    def square(self):
        return mul(self, self)


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
    return Tensor(arr)


def _check_same_dtype(op: str, a: Tensor, b: Tensor):
    if a.data.dtype != b.data.dtype:
        raise TypeError(f"{op}: dtype mismatch {a.data.dtype.name} vs {b.data.dtype.name}")


def _record(op: str, inputs: tuple[Tensor, ...], out_arr: np.ndarray,
            fwd: Callable[..., np.ndarray], vjp) -> Tensor:
    requires = any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_arr, requires_grad=requires)
    tape = _active_tape()
    if tape is not None and requires:
        if vjp is None:
            raise NonDifferentiableError(f"{op} is not differentiable but sits on a gradient path")
        tape.nodes.append(TapeNode(op, inputs, out, vjp, fwd))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    _check_same_dtype("add", a, b)
    out = a.data + b.data
    _count_flops(out.size)
    ra, rb, ash, bsh = a.requires_grad, b.requires_grad, a.shape, b.shape
    return _record("add", (a, b), out, lambda x, y: x + y,
                   lambda g: (_unbroadcast(g, ash) if ra else None,
                              _unbroadcast(g, bsh) if rb else None))


def sub(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    _check_same_dtype("sub", a, b)
    out = a.data - b.data
    _count_flops(out.size)
    ra, rb, ash, bsh = a.requires_grad, b.requires_grad, a.shape, b.shape
    return _record("sub", (a, b), out, lambda x, y: x - y,
                   lambda g: (_unbroadcast(g, ash) if ra else None,
                              _unbroadcast(-g, bsh) if rb else None))


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    _check_same_dtype("mul", a, b)
    out = a.data * b.data
    _count_flops(out.size)
    ra, rb, ad, bd = a.requires_grad, b.requires_grad, a.data, b.data
    return _record("mul", (a, b), out, lambda x, y: x * y,
                   lambda g: (_unbroadcast(g * bd, ad.shape) if ra else None,
                              _unbroadcast(g * ad, bd.shape) if rb else None))


def div(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    _check_same_dtype("div", a, b)
    out = a.data / b.data
    _count_flops(out.size)
    ra, rb, ad, bd = a.requires_grad, b.requires_grad, a.data, b.data
    return _record("div", (a, b), out, lambda x, y: x / y,
                   lambda g: (_unbroadcast(g / bd, ad.shape) if ra else None,
                              _unbroadcast(-g * ad / (bd * bd), bd.shape) if rb else None))


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = -a.data
    _count_flops(out.size)
    return _record("neg", (a,), out, lambda x: -x, lambda g: (-g,))


def pow_scalar(a: Tensor, p) -> Tensor:
    if isinstance(p, Tensor):
        raise NotImplementedError("tensor exponents are not supported")
    a = _as_tensor(a)
    p = float(p)
    out = a.data ** p
    _count_flops(out.size)
    ad = a.data
    return _record("pow", (a,), out, lambda x: x ** p,
                   lambda g: (g * p * ad ** (p - 1.0),))


def matmul_batched(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul semantics: trailing matrices multiply, leading dims broadcast."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    _check_same_dtype("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        batch_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul: batch dimensions do not broadcast: {a.shape} @ {b.shape}") from None
    out = np.matmul(a.data, b.data)
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    _count_matmul(int(np.prod(batch_shape, dtype=np.int64)) if batch_shape else 1, m, k, n)
    ra, rb, ad, bd = a.requires_grad, b.requires_grad, a.data, b.data

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape) if ra else None
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape) if rb else None
        return ga, gb

    return _record("matmul", (a, b), out, np.matmul, vjp)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    a = _as_tensor(a)
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))
    return _record("transpose", (a,), out, lambda x: np.ascontiguousarray(np.transpose(x, axes)),
                   lambda g: (np.transpose(g, inv),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    try:
        out = np.reshape(a.data, shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {a.shape} ({a.size} elements) to {shape}") from None
    ash = a.shape
    return _record("reshape", (a,), np.ascontiguousarray(out),
                   lambda x: np.ascontiguousarray(np.reshape(x, shape)),
                   lambda g: (np.reshape(g, ash),))


def getitem(a: Tensor, idx) -> Tensor:
    a = _as_tensor(a)
    _validate_basic_index(idx)
    out = np.ascontiguousarray(a.data[idx])
    ash, adt = a.shape, a.data.dtype

    def vjp(g):
        gi = np.zeros(ash, dtype=adt)
        gi[idx] = g
        return (gi,)

    return _record("getitem", (a,), out, lambda x: np.ascontiguousarray(x[idx]), vjp)


def _validate_basic_index(idx):
    items = idx if isinstance(idx, tuple) else (idx,)
    for it in items:
        if isinstance(it, (int, np.integer, slice)) or it is None or it is Ellipsis:
            continue
        raise TypeError(f"only basic indexing (ints/slices) is supported, got {type(it).__name__}")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of zero tensors")
    for t in ts[1:]:
        _check_same_dtype("concat", ts[0], t)
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat along axis {axis}: shapes {[t.shape for t in ts]}") from None
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        gm = np.moveaxis(g, axis, 0)
        return tuple(np.ascontiguousarray(np.moveaxis(gm[offsets[i]:offsets[i + 1]], 0, axis))
                     for i in range(len(ts)))

    return _record("concat", tuple(ts), out, lambda *xs: np.concatenate(xs, axis=axis), vjp)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)
    out = np.asarray(out, dtype=a.data.dtype)
    _count_flops(a.size)
    ash = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, ash).astype(g.dtype, copy=True),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, ash).astype(g.dtype, copy=True),)

    return _record("sum", (a,), out, lambda x: np.asarray(np.sum(x, axis=axis, keepdims=keepdims), dtype=x.dtype), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = np.mean(a.data, axis=axis, keepdims=keepdims)
    out = np.asarray(out, dtype=a.data.dtype)
    _count_flops(a.size + out.size)
    ash = a.shape
    denom = a.size if axis is None else int(np.prod([ash[i] for i in np.atleast_1d(axis)]))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / denom, ash).astype(g.dtype, copy=True),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / denom, ash).astype(g.dtype, copy=True),)

    return _record("mean", (a,), out, lambda x: np.asarray(np.mean(x, axis=axis, keepdims=keepdims), dtype=x.dtype), vjp)


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    _count_flops(out.size)
    return _record("exp", (a,), out, np.exp, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.log(a.data)
    _count_flops(out.size)
    ad = a.data
    return _record("log", (a,), out, np.log, lambda g: (g / ad,))


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    _count_flops(out.size)
    return _record("sqrt", (a,), out, np.sqrt, lambda g: (g * 0.5 / out,))


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    _count_flops(out.size)
    return _record("tanh", (a,), out, np.tanh, lambda g: (g * (1.0 - out * out),))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    # the cube as products: numpy's pow takes ~100x longer for the same values
    return np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))


def _gelu_fwd(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + _gelu_tanh(x))


def gelu(a: Tensor) -> Tensor:
    """tanh-form gelu; smooth, so finite differences agree everywhere."""
    a = _as_tensor(a)
    ad = a.data
    t = _gelu_tanh(ad)
    out = 0.5 * ad * (1.0 + t)
    _count_flops(8 * out.size)

    def vjp(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * ad * ad)
        return (g * (0.5 * (1.0 + t) + 0.5 * ad * (1.0 - t * t) * du),)

    return _record("gelu", (a,), out, _gelu_fwd, vjp)


def greater(a: Tensor, b) -> Tensor:
    """Elementwise a > b as 0/1 values. Not differentiable."""
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    out = (a.data > b.data).astype(a.data.dtype)
    return _record("greater", (a, b), out, lambda x, y: (x > y).astype(x.dtype), None)


def apply_permutation(a: Tensor, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Permute slices along an axis: out[pi[i]] = a[i] (scatter convention).

    Pure data movement; costs no flops.
    """
    a = _as_tensor(a)
    pi = np.asarray(indices, dtype=np.int64)
    n = a.shape[axis]
    if pi.shape != (n,) or not np.array_equal(np.sort(pi), np.arange(n)):
        raise ShapeError(f"permutation of length {pi.size} is not a bijection on axis {axis} of {a.shape}")
    inv = np.argsort(pi)

    def fwd(x):
        return np.ascontiguousarray(np.take(x, inv, axis=axis))

    def vjp(g):
        return (np.ascontiguousarray(np.take(g, pi, axis=axis)),)

    return _record("apply_permutation", (a,), fwd(a.data), fwd, vjp)


def block_diag_embed(blocks: Tensor) -> Tensor:
    """(..., p, t, u) -> (..., p*t, p*u) with the p blocks on the diagonal.

    Pure data movement; costs no flops.
    """
    blocks = _as_tensor(blocks)
    if blocks.ndim < 3:
        raise ShapeError(f"block_diag_embed needs (..., p, t, u), got {blocks.shape}")
    p, t, u = blocks.shape[-3:]

    def fwd(x):
        out = np.zeros(x.shape[:-3] + (p * t, p * u), dtype=x.dtype)
        for k in range(p):
            out[..., k * t:(k + 1) * t, k * u:(k + 1) * u] = x[..., k, :, :]
        return out

    def vjp(g):
        gi = np.empty(g.shape[:-2] + (p, t, u), dtype=g.dtype)
        for k in range(p):
            gi[..., k, :, :] = g[..., k * t:(k + 1) * t, k * u:(k + 1) * u]
        return (gi,)

    return _record("block_diag_embed", (blocks,), fwd(blocks.data), fwd, vjp)


@functools.lru_cache(maxsize=64)
def _visibility(spec: MaskSpec, t: int) -> np.ndarray:
    """The read-only (t, t) visibility matrix of a spec, checked once per (spec, t)."""
    return _check_rows_visible(_freeze(mask_matrix(spec, t)))


def _check_rows_visible(vis: np.ndarray) -> np.ndarray:
    seen = vis.any(axis=-1)
    if not seen.all():
        raise ShapeError(f"mask leaves row {int(np.flatnonzero(~seen)[0])} fully masked; softmax undefined")
    return vis


def softmax_rows_masked(s: Tensor, mask: MaskSpec | np.ndarray, scale: float = 1.0) -> Tensor:
    """Row softmax of scale * s over the trailing (t, t) scores under a visibility mask.

    mask is a MaskSpec or an explicit boolean (t, t) visibility matrix.
    Masked logits are excluded outright (treated as -inf): they never enter
    the max shift or the exp pool, and their output weight is exactly 0.0.
    A row with nothing visible is an error. A positive scale gives the same
    bits as softmax_rows_masked(s * scale, mask) without a separate pass.
    """
    s = _as_tensor(s)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ShapeError(f"softmax_rows_masked expects trailing square scores, got {s.shape}")
    c = np.array(scale, dtype=s.data.dtype)  # checked after the cast: f32 can round it to 0 or inf
    if not 0.0 < c < np.inf:
        raise ValueError(f"softmax scale must be positive and finite in {c.dtype}, got {scale}")
    if c == 1.0:
        c = None
    t = s.shape[-1]
    if isinstance(mask, MaskSpec):
        vis = _visibility(mask, t)
    else:
        vis = np.asarray(mask, dtype=bool)
        if vis.shape != (t, t):
            raise ShapeError(f"mask shape {vis.shape} does not match scores {s.shape}")
        _check_rows_visible(vis)
    neg_inf = np.array(-np.inf, dtype=s.data.dtype)

    def fwd(x):
        z = np.where(vis, x, neg_inf)
        if c is not None:
            z *= c  # -inf stays -inf for c > 0
        z -= np.max(z, axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= np.sum(z, axis=-1, keepdims=True)
        return z

    out = fwd(s.data)
    _count_flops((4 if c is None else 5) * out.size)

    def vjp(g):
        gs = g * out
        np.subtract(g, np.sum(gs, axis=-1, keepdims=True), out=gs)
        gs *= out
        if c is not None:
            gs *= c
        return (gs,)

    return _record("softmax_rows_masked", (s,), out, fwd, vjp)


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def rms_norm(x: Tensor) -> Tensor:
    """x / sqrt(mean(x^2) + 1e-8) over the last axis. No learned gain."""
    x = _as_tensor(x)
    ms = tmean(mul(x, x), axis=-1, keepdims=True)
    return div(x, sqrt(add(ms, RMS_NORM_EPS)))


def layer_norm(x: Tensor) -> Tensor:
    """(x - mean) / sqrt(var + 1e-8) over the last axis. No affine parameters."""
    x = _as_tensor(x)
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    return div(centered, sqrt(add(var, LAYER_NORM_EPS)))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x.

    Per-coordinate step: h * max(1, |x_i|), default h = 1e-5.
    """
    x = np.asarray(x, dtype=np.float64)
    base = 1e-5 if h is None else float(h)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        step = base * max(1.0, abs(flat[i]))
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += step
        xm[i] -= step
        fp = float(f(xp.reshape(x.shape)))
        fm = float(f(xm.reshape(x.shape)))
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """max |a - e| scaled by the largest magnitude in play (floored at 1)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(exact), initial=0.0)), float(np.max(np.abs(approx), initial=0.0)))
    return float(np.max(np.abs(approx - exact), initial=0.0)) / scale


# ---------------------------------------------------------------------------
# serialization: u64-LE rank, u64-LE extents, little-endian f64 values (C order)
# ---------------------------------------------------------------------------

def write_tensor(f: BinaryIO, t: Tensor | np.ndarray):
    arr = t.data if isinstance(t, Tensor) else np.asarray(t)
    arr = np.asarray(arr, dtype=np.float64, order="C")  # ascontiguousarray would promote 0-d to 1-d
    f.write(struct.pack("<Q", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
    f.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(f: BinaryIO) -> np.ndarray:
    head = f.read(8)
    if len(head) == 0:
        raise EOFError("no tensor at stream position")
    if len(head) != 8:
        raise ValueError("truncated tensor header")
    rank = struct.unpack("<Q", head)[0]
    if rank > 64:
        raise ValueError(f"implausible tensor rank {rank}; corrupt stream?")
    shape = struct.unpack(f"<{rank}Q", f.read(8 * rank)) if rank else ()
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    raw = f.read(8 * count)
    if len(raw) != 8 * count:
        raise ValueError(f"truncated tensor payload: wanted {8 * count} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def save_tensors(path, tensors: Iterable[Tensor | np.ndarray]):
    with open(path, "wb") as f:
        for t in tensors:
            write_tensor(f, t)


def load_tensors(path) -> list[np.ndarray]:
    out = []
    with open(path, "rb") as f:
        while True:
            try:
                out.append(read_tensor(f))
            except EOFError:
                return out
