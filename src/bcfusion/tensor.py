"""Dense tensors with tape-based reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array plus an
optional gradient buffer, and a ``Tape`` records every differentiable op
executed while it is active.  ``backward`` replays the tape in reverse,
accumulating gradients additively, so fan-out works without any graph
bookkeeping beyond execution order.

Broadcasting is restricted to the cases the network layers need (scalar
operands and bias vectors added over leading rows); anything else raises a
``ShapeError`` up front rather than silently broadcasting.

Tapes are kept on a thread-local stack: a tape and the tensors it references
belong to one thread, and independent tapes may run concurrently in separate
threads.  With no active tape, ops run as plain numpy (inference mode).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "as_tensor",
    "backward",
    "matmul",
    "transpose",
    "add",
    "sub",
    "neg",
    "mul",
    "scale",
    "relu",
    "sigmoid",
    "log",
    "clip",
    "softmax",
    "layer_norm",
    "tsum",
    "tmean",
    "concat",
    "slice_cols",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


class Tensor:
    """An n-dimensional array that can participate in a differentiation tape.

    ``data`` is immutable by convention once the tensor has been used in an
    op; only ``grad`` is mutated (by ``backward`` and the optimizer).  A
    floating-point array keeps its dtype; anything else becomes float64.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# --------------------------------------------------------------------------
# Tape
# --------------------------------------------------------------------------

_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed differentiable ops.

    Each record holds the op's input tensors, its output tensor, and a
    backward rule mapping the output gradient to input-gradient updates.
    Records are appended at execution time, so inputs always precede the
    ops that consume them; the backward pass visits each record exactly
    once, in reverse order.
    """

    def __init__(self):
        self.records: list[tuple[tuple[Tensor, ...], Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        assert stack and stack[-1] is self, "tape stack corrupted"
        stack.pop()

    def record(self, inputs: tuple[Tensor, ...], out: Tensor,
               backward_fn: Callable[[np.ndarray], None]) -> None:
        self.records.append((inputs, out, backward_fn))


def backward(output: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires-grad tensor reachable from ``output``.

    ``output`` must be a size-1 tensor produced on ``tape``.  Gradients
    accumulate additively across fan-out; ops whose result never reached
    the output are skipped (their output gradient stays ``None``).
    """
    if output.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {output.shape}")
    output.grad = np.ones_like(output.data)
    for _, out, backward_fn in reversed(tape.records):
        if out.grad is None:
            continue
        backward_fn(out.grad)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _emit(inputs: Sequence[Tensor], out_data: np.ndarray,
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap op output; record on the active tape when gradients are needed."""
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(tuple(inputs), out, backward_fn)
    return out


# --------------------------------------------------------------------------
# Ops
# --------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.  ``a`` may be 1-D (vector @ matrix) or 2-D; ``b`` is 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if b.data.ndim != 2 or a.data.ndim not in (1, 2):
        raise ShapeError(f"matmul expects 1-D/2-D @ 2-D, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            if a.data.ndim == 1:
                _accum(b, np.outer(a.data, g))
            else:
                _accum(b, a.data.T @ g)

    return _emit((a, b), out_data, bw)


def transpose(x: Tensor) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.shape}")
    return _emit((x,), x.data.T.copy(), lambda g: _accum(x, g.T))


def _is_scalar_operand(v) -> bool:
    return np.isscalar(v) or (isinstance(v, np.ndarray) and v.ndim == 0)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum.

    Supported operand combinations: identical shapes, a python/0-d scalar,
    or a 1-D bias of width ``a.shape[-1]`` broadcast over leading axes.
    """
    a = as_tensor(a)
    if _is_scalar_operand(b):
        c = float(b)
        return _emit((a,), a.data + c, lambda g: _accum(a, g))
    b = as_tensor(b)
    if a.shape == b.shape:
        def bw_same(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g)
        return _emit((a, b), a.data + b.data, bw_same)
    if b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def bw_bias(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g.reshape(-1, b.shape[0]).sum(axis=0))
        return _emit((a, b), a.data + b.data, bw_bias)
    raise ShapeError(f"add: unsupported operand shapes {a.shape} and {b.shape}")


def neg(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return _emit((x,), -x.data, lambda g: _accum(x, -g))


def sub(a: Tensor, b) -> Tensor:
    if _is_scalar_operand(b):
        return add(a, -float(b))
    return add(as_tensor(a), neg(as_tensor(b)))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with an identically shaped tensor or a scalar."""
    a = as_tensor(a)
    if _is_scalar_operand(b):
        c = float(b)
        return _emit((a,), a.data * c, lambda g: _accum(a, g * c))
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ: {a.shape} vs {b.shape}")

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _emit((a, b), a.data * b.data, bw)


def scale(x: Tensor, c: float) -> Tensor:
    return mul(x, float(c))


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    return _emit((x,), np.where(mask, x.data, 0.0), lambda g: _accum(x, g * mask))


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    d = x.data
    out_data = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                        np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    return _emit((x,), out_data, lambda g: _accum(x, g * out_data * (1.0 - out_data)))


def log(x: Tensor) -> Tensor:
    """Natural log; inputs must be strictly positive."""
    x = as_tensor(x)
    return _emit((x,), np.log(x.data), lambda g: _accum(x, g / x.data))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only through unclipped entries."""
    x = as_tensor(x)
    mask = (x.data >= lo) & (x.data <= hi)
    return _emit((x,), np.clip(x.data, lo, hi), lambda g: _accum(x, g * mask))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Probability-normalized exponentials along ``axis`` (max-shifted for stability)."""
    x = as_tensor(x)
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g: np.ndarray) -> None:
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(x, out_data * (g - inner))

    return _emit((x,), out_data, bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply gain and bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def bw(g: np.ndarray) -> None:
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accum(x, inv * (gx - m1 - xhat * m2))

    return _emit((x, gain, bias), out_data, bw)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    x = as_tensor(x)
    return _emit((x,), np.asarray(x.data.sum()),
                 lambda g: _accum(x, np.broadcast_to(g, x.shape).copy()))


def tmean(x: Tensor, axis: Optional[int] = None) -> Tensor:
    """Mean over all elements (axis=None) or over rows (axis=0)."""
    x = as_tensor(x)
    if axis is None:
        n = x.data.size
        return _emit((x,), np.asarray(x.data.mean()),
                     lambda g: _accum(x, np.broadcast_to(g / n, x.shape).copy()))
    if axis != 0:
        raise ShapeError("tmean supports axis=None or axis=0")
    if x.data.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"tmean(axis=0) expects a nonempty 2-D tensor, got {x.shape}")
    n = x.shape[0]
    return _emit((x,), x.data.mean(axis=0), lambda g: _accum(x, np.tile(g / n, (n, 1))))


def concat(parts: Iterable[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors: 1-D vectors end to end, or 2-D along axis 0 or 1."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: no tensors given")
    ndim = parts[0].data.ndim
    if any(p.data.ndim != ndim for p in parts) or ndim not in (1, 2):
        raise ShapeError(f"concat: incompatible ranks {[p.shape for p in parts]}")
    if ndim == 1:
        axis = 0
    elif axis not in (0, 1):
        raise ShapeError("concat supports axis 0 or 1")
    if ndim == 2:
        other = 1 - axis
        if any(p.shape[other] != parts[0].shape[other] for p in parts):
            raise ShapeError(f"concat: mismatched shapes {[p.shape for p in parts]}")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def bw(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, g[lo:hi] if axis == 0 or ndim == 1 else g[:, lo:hi])

    return _emit(tuple(parts), out_data, bw)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Take feature columns [start, stop) of a 2-D tensor."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols expects a 2-D tensor, got {x.shape}")
    if not 0 <= start < stop <= x.shape[1]:
        raise ShapeError(f"slice_cols: [{start}, {stop}) out of range for width {x.shape[1]}")

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        _accum(x, full)

    return _emit((x,), x.data[:, start:stop].copy(), bw)
