"""Dense tensors with tape-based reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array plus an
optional gradient buffer, and a ``Tape`` records every differentiable op
executed while it is active.  ``backward`` replays the tape in reverse,
accumulating gradients additively, so fan-out works without any graph
bookkeeping beyond execution order.

The op set is what the batched engine records: one product op for 2-D
matrices, one affine op (product, bias row and optional ReLU), one
multi-head attention op, elementwise ops, layer norm of a residual sum,
softmax over the last axis, feature-axis concat and slicing, per-sequence
row means, and all-element sums and means for losses.  The fused ops keep
on the tape only what their backward rules read (after Chen et al. 2016):
the affine op its output, from which the ReLU mask is read back; layer norm
the normalised rows, not the residual sum.  Attention is one record: it
cuts the heads out of its (B·T, H·d_head) operands as array axes, works on
the score stack in place, and keeps only the attention weights for its
backward rule, which rebuilds the head layouts of q, k and v from the
tensors the tape already holds.  Broadcasting is restricted to scalar
operands and the affine op's bias row; anything else raises a
``ShapeError`` up front rather than silently broadcasting.

Active tapes form one module-level stack, so tapes nest and the innermost
one records.  The stack belongs to the process, not to a thread: tapes are
not shared across threads.  With no active tape, ops run as plain numpy
(inference mode).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "as_tensor",
    "backward",
    "matmul",
    "linear",
    "add",
    "sub",
    "neg",
    "mul",
    "sigmoid",
    "log",
    "clip",
    "softmax",
    "layer_norm",
    "tsum",
    "tmean",
    "concat",
    "slice_cols",
    "attention",
    "row_mean",
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

_tapes: list["Tape"] = []


def active_tape() -> Optional["Tape"]:
    return _tapes[-1] if _tapes else None


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
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert _tapes and _tapes[-1] is self, "tape stack corrupted"
        _tapes.pop()

    def record(self, inputs: tuple[Tensor, ...], out: Tensor,
               backward_fn: Callable[[np.ndarray], None]) -> None:
        self.records.append((inputs, out, backward_fn))


def backward(output: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires-grad tensor reachable from ``output``.

    ``output`` must be a size-1 tensor produced on ``tape``.  Gradients
    accumulate additively across fan-out; ops whose result never reached
    the output are skipped.  Every consumer of a record's output comes later
    on the tape, so once the record's rule has run its output gradient is
    complete and spent: it is released, and only leaves keep a gradient.
    """
    if output.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {output.shape}")
    output.grad = np.ones_like(output.data)
    for _, out, backward_fn in reversed(tape.records):
        if out.grad is None:
            continue
        backward_fn(out.grad)
        out.grad = None


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``; the first write is a copy in ``t``'s dtype, never ``g`` itself."""
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
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

def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """``a @ b`` for two 2-D matrices, such as stacked (B·T, d) rows @ a weight;
    with ``transpose_b``, b enters transposed."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D @ 2-D, got {a.shape} @ {b.shape}")
    bm = b.data.T if transpose_b else b.data
    if a.shape[1] != bm.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}"
                         f"{' with transpose_b' if transpose_b else ''}")

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g @ (b.data if transpose_b else b.data.T))
        if b.requires_grad:
            _accum(b, g.T @ a.data if transpose_b else a.data.T @ g)

    return _emit((a, b), a.data @ bm, bw)


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b`` for a 2-D x, the bias row added to every row, followed by
    ``max(·, 0)`` when ``relu`` is set, as one tape op.

    The bias and the ReLU work in place on the product, so the tape keeps
    only the output; the backward rule reads the ReLU mask back from it
    (``out > 0`` exactly where ``x @ w + b > 0``).
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ShapeError(f"linear expects (n, k) @ (k, m) + (m,), got {x.shape} @ {w.shape} "
                         f"+ {b.shape}")
    out_data = x.data @ w.data
    out_data += b.data
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def bw(g: np.ndarray) -> None:
        if relu:
            g = g * (out_data > 0)
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _emit((x, w, b), out_data, bw)


def _is_scalar_operand(v) -> bool:
    return np.isscalar(v) or (isinstance(v, np.ndarray) and v.ndim == 0)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum.

    Supported operand combinations: identical shapes or a python/0-d scalar;
    a bias row enters through :func:`linear`.
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


def softmax(x: Tensor) -> Tensor:
    """Probability-normalized exponentials along the last axis (max-shifted for stability)."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bw(g: np.ndarray) -> None:
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(x, out_data * (g - inner))

    return _emit((x,), out_data, bw)


def layer_norm(x: Tensor, r: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the residual sum ``x + r`` over the last axis to zero mean / unit
    variance, then apply gain and bias.

    The sum is centred in place and the variance taken from the centred rows,
    as ``np.var`` does; both passes then work in place on their own arrays,
    and one input gradient goes to both summands.
    """
    x, r, gain, bias = as_tensor(x), as_tensor(r), as_tensor(gain), as_tensor(bias)
    if r.shape != x.shape:
        raise ShapeError(f"layer_norm: residual shapes differ: {x.shape} vs {r.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    xhat = x.data + r.data
    xhat -= xhat.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data

    def bw(g: np.ndarray) -> None:
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad or r.requires_grad:
            gx = g * gain.data
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= xhat * m2
            gx *= inv
            for t in (x, r):
                if t.requires_grad:
                    _accum(t, gx)

    return _emit((x, r, gain, bias), out_data, bw)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    x = as_tensor(x)
    return _emit((x,), np.asarray(x.data.sum()),
                 lambda g: _accum(x, np.broadcast_to(g, x.shape).copy()))


def tmean(x: Tensor) -> Tensor:
    """Mean of all elements, as a 0-d tensor."""
    x = as_tensor(x)
    n = x.data.size
    return _emit((x,), np.asarray(x.data.mean()),
                 lambda g: _accum(x, np.broadcast_to(g / n, x.shape).copy()))


def concat(parts: Iterable[Tensor]) -> Tensor:
    """Join 2-D tensors with equal row counts along the feature axis, in order."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: no tensors given")
    if any(p.data.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ShapeError(f"concat expects 2-D tensors with equal row counts, "
                         f"got {[p.shape for p in parts]}")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def bw(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, g[:, lo:hi])

    return _emit(tuple(parts), np.concatenate([p.data for p in parts], axis=1), bw)


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


def _heads_to_rows(x: np.ndarray, batch: int) -> np.ndarray:
    """(B·H, T, dh) -> (B·T, H·dh)."""
    bh, t, dh = x.shape
    return x.reshape(batch, bh // batch, t, dh).transpose(0, 2, 1, 3).reshape(batch * t, -1)


def _rows_to_heads(x: np.ndarray, n_heads: int, batch: int) -> np.ndarray:
    """(B·T, H·dh) -> (B·H, T, dh)."""
    rows, width = x.shape
    t, dh = rows // batch, width // n_heads
    return x.reshape(batch, t, n_heads, dh).transpose(0, 2, 1, 3).reshape(batch * n_heads, t, dh)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, batch: int) -> Tensor:
    """softmax(q kᵀ / sqrt(d_head)) v within each of ``batch`` stacked sequences
    and each of ``n_heads`` heads, as one tape op.

    q: (B·T_q, H·d_head), k: (B·T_k, H·d_head), v: (B·T_k, H·d_v) ->
    (B·T_q, H·d_v).  Head h of a sequence is its column block h; the heads
    are computed as (B·H, T, d) stacks (the reshape formulation of Vaswani
    et al. 2017).  The score stack is scaled, max-shifted, exponentiated and
    normalised in place; the backward rule keeps only those weights.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    for name, t in (("q", q), ("k", k), ("v", v)):
        if t.data.ndim != 2 or t.shape[0] % batch or t.shape[1] % n_heads:
            raise ShapeError(f"attention: {name} {t.shape} is not {batch} sequences of "
                             f"{n_heads} equal heads")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: q/k widths differ: {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention: k/v rows differ: {k.shape} vs {v.shape}")
    scale = 1.0 / math.sqrt(q.shape[1] // n_heads)
    p = _rows_to_heads(q.data, n_heads, batch) @ \
        _rows_to_heads(k.data, n_heads, batch).swapaxes(-1, -2)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out_data = _heads_to_rows(p @ _rows_to_heads(v.data, n_heads, batch), batch)

    def bw(g: np.ndarray) -> None:
        gh = _rows_to_heads(g, n_heads, batch)
        if v.requires_grad:
            _accum(v, _heads_to_rows(p.swapaxes(-1, -2) @ gh, batch))
        if not (q.requires_grad or k.requires_grad):
            return
        gs = gh @ _rows_to_heads(v.data, n_heads, batch).swapaxes(-1, -2)
        inner = (gs * p).sum(axis=-1, keepdims=True)
        gs -= inner
        gs *= p
        gs *= scale
        if k.requires_grad:
            _accum(k, _heads_to_rows(gs.swapaxes(-1, -2) @
                                     _rows_to_heads(q.data, n_heads, batch), batch))
        if q.requires_grad:
            _accum(q, _heads_to_rows(gs @ _rows_to_heads(k.data, n_heads, batch), batch))

    return _emit((q, k, v), out_data, bw)


def row_mean(x: Tensor, batch: int) -> Tensor:
    """Mean over each of ``batch`` equal row blocks: (B·T, d) -> (B, d)."""
    x = as_tensor(x)
    if x.data.ndim != 2 or batch < 1 or x.shape[0] < batch or x.shape[0] % batch:
        raise ShapeError(f"row_mean: {x.shape} is not {batch} nonempty equal row blocks")
    t = x.shape[0] // batch
    return _emit((x,), x.data.reshape(batch, t, -1).mean(axis=1),
                 lambda g: _accum(x, np.repeat(g / t, t, axis=0)))
