"""Dense tensors with tape-based reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array plus an
optional gradient buffer, and a ``Tape`` records every differentiable op
executed while it is active.  ``backward`` replays the tape in reverse and
consumes it, accumulating gradients additively, so fan-out works without any
graph bookkeeping beyond execution order.

The op set is what the batched engine records: one affine op (product,
bias row and optional ReLU), one multi-head attention op, elementwise sum,
layer norm of a residual sum (the residual optionally inverted-dropped by a
boolean keep-mask, so training-mode dropout adds no record), feature-axis
concat and slicing, per-sequence row means, and one training objective: the
weighted sum of per-head mean losses (cross entropy on logits or squared
error), one record however many heads it mixes (op fusion at
primitive granularity, Baydin et al. 2018).  The fused ops keep on the tape
only what their backward rules read (after Chen et al. 2016): the affine op
its output, from which the ReLU mask is read back; layer norm the
normalised rows and the keep-mask, one byte per element, but neither the
residual sum nor the dropped residual.  Attention is one record from the layer inputs to
the output projection: the four weights stay separate tensors, and the
projections run the GEMMs, and accumulate their gradients in the order,
that separate products would.  It picks its head kernel from the operand
shapes alone (the key count and the head width), and its backward rule
takes the softmax gradient through the FlashAttention term
D = rowsum(g_ctx ∘ ctx) (Dao et al. 2022), keeping q, k, v, the attention
weights and the head outputs.  Broadcasting is restricted to the affine
op's bias row; anything else raises a ``ShapeError`` up front rather than
silently broadcasting.

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
    "linear",
    "add",
    "layer_norm",
    "concat",
    "slice_cols",
    "attention",
    "row_mean",
    "weighted_loss",
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
    once, in reverse order, and pops it as it goes: after :func:`backward`
    ``records`` is empty and the tape holds no arrays.
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
    The tape is consumed the same way: each record is popped off as it is
    replayed, so the arrays it saved are freed as soon as its rule has run.
    A tape is spent after backward; record a new one for another pass.
    """
    if output.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {output.shape}")
    output.grad = np.ones_like(output.data)
    records = tape.records
    while records:
        _, out, backward_fn = records.pop()
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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of identically shaped tensors; a bias row enters through
    :func:`linear`."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: unsupported operand shapes {a.shape} and {b.shape}")

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _emit((a, b), a.data + b.data, bw)


# Added to the variance before its square root in layer_norm.
LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, r: Tensor, gain: Tensor, bias: Tensor,
               keep: Optional[np.ndarray] = None, rate: float = 0.0) -> Tensor:
    """Normalize the residual sum ``x + r`` over the last axis to zero mean / unit
    variance, then apply gain and bias.

    Given a boolean ``keep`` mask of ``r``'s shape, the residual is dropped
    first (inverted dropout): the sum is ``x + keep·r/(1−rate)``, formed as
    ``r * keep`` scaled in place, bit for bit the product with a float mask
    of 0 and 1/(1−rate), signed zeros included.  The sum is centred in place
    and the variance taken from the centred rows, as ``np.var`` does; both
    passes then work in place on their own arrays, and one input gradient
    goes to both summands, masked and scaled the same way for ``r``.
    """
    x, r, gain, bias = as_tensor(x), as_tensor(r), as_tensor(gain), as_tensor(bias)
    if r.shape != x.shape:
        raise ShapeError(f"layer_norm: residual shapes differ: {x.shape} vs {r.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    if keep is None:
        xhat = x.data + r.data
    else:
        keep = np.asarray(keep)
        if keep.dtype != np.bool_ or keep.shape != r.shape:
            raise ShapeError(f"layer_norm: keep must be a bool array of shape {r.shape}, "
                             f"got {keep.dtype} {keep.shape}")
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"layer_norm: dropout rate must be in [0, 1), got {rate}")
        scale = 1.0 / (1.0 - rate)
        xhat = r.data * keep
        xhat *= scale
        xhat += x.data
    xhat -= xhat.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
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
            if x.requires_grad:
                _accum(x, gx)
            if r.requires_grad:
                if keep is not None:
                    gx = gx * keep
                    gx *= scale
                _accum(r, gx)

    return _emit((x, r, gain, bias), out_data, bw)


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


# Keys a score row may have for its max to be taken as a running maximum over
# the key columns, one vectorised call per key: numpy reduces each contiguous
# row in its own inner loop, which dominates for short rows, while for long
# ones the strided column reads cost more than that loop.
SHORT_ROWS = 48


def _heads(x: np.ndarray, n_heads: int, batch: int) -> np.ndarray:
    """(B·T, H·d) rows -> a (B, H, T, d) view: head h of a sequence is its column block h."""
    rows, width = x.shape
    return x.reshape(batch, rows // batch, n_heads, width // n_heads).swapaxes(1, 2)


def _rows(x: np.ndarray) -> np.ndarray:
    """(B, H, T, d) -> (B·T, H·d) rows."""
    b, h, t, d = x.shape
    return x.swapaxes(1, 2).reshape(b * t, h * d)


def _head_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ bᵀ`` per head, (B, H, m, d) by (B, H, n, d) -> (B, H, m, n): a broadcast
    product for d = 1 (one exact product per entry, as the GEMM gives), else
    stacked GEMMs on a contiguous bᵀ.  The result is C-contiguous either way."""
    if a.shape[-1] == 1:
        return np.multiply(a, b.swapaxes(-1, -2), order="C")
    return a @ np.ascontiguousarray(b.swapaxes(-1, -2))


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis as one GEMV against ones in ``x``'s dtype, shape ``x.shape[:-1]``."""
    return (x.reshape(-1, x.shape[-1]) @ np.ones(x.shape[-1], x.dtype)).reshape(x.shape[:-1])


def _softmax_rows(s: np.ndarray) -> None:
    """Max-shift, exponentiate and normalise each row of ``s`` in place; ``s`` must
    be C-contiguous, so that its rows are a view of it."""
    rows = s.reshape(-1, s.shape[-1])
    if rows.shape[1] <= SHORT_ROWS:
        top = rows[:, 0].copy()
        for j in range(1, rows.shape[1]):
            np.maximum(top, rows[:, j], out=top)
    else:
        top = rows.max(axis=1)
    rows -= top[:, None]
    np.exp(rows, out=rows)
    rows /= _row_sums(rows)[:, None]


def attention(x_q: Tensor, x_kv: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
              n_heads: int, batch: int) -> Tensor:
    """Multi-head attention of ``batch`` stacked sequences, from the layer inputs to
    the output projection, as one tape op:
    ``concat_h(softmax(q_h k_hᵀ / sqrt(d_head)) v_h) @ wo`` with ``q = x_q @ wq``,
    ``k = x_kv @ wk`` and ``v = x_kv @ wv``.

    x_q: (B·T_q, d_q), x_kv: (B·T_k, d_kv), wq: (d_q, H·d_head),
    wk: (d_kv, H·d_head), wv: (d_kv, H·d_v), wo: (H·d_v, d_out) ->
    (B·T_q, d_out).  Head h of a sequence is column block h of its
    projections; heads and sequences are array axes of (B, H, T, d) views
    (the reshape formulation of Vaswani et al. 2017).  The head kernel is
    chosen by operand shape alone: the scores are a broadcast product for
    d_head = 1 and stacked GEMMs otherwise, and rows of at most
    ``SHORT_ROWS`` keys take their max as a running maximum over the key
    columns.  Row sums are one GEMV.

    The rule keeps q, k, v, the attention weights p and the head outputs
    ``ctx``.  It takes the softmax gradient through D = rowsum(g_ctx ∘ ctx)
    over d_v, which equals rowsum(g_p ∘ p) over T_k (Dao et al.,
    "FlashAttention", 2022), and runs the projection GEMMs, and accumulates
    their gradients, in the order separate products would.
    """
    x_q, x_kv, wq, wk, wv, wo = (as_tensor(t) for t in (x_q, x_kv, wq, wk, wv, wo))
    if any(t.data.ndim != 2 for t in (x_q, x_kv, wq, wk, wv, wo)) or batch < 1 \
            or n_heads < 1 or x_q.shape[0] % batch or x_kv.shape[0] % batch \
            or (x_q.shape[1], x_kv.shape[1], x_kv.shape[1], wq.shape[1], wv.shape[1]) \
            != (wq.shape[0], wk.shape[0], wv.shape[0], wk.shape[1], wo.shape[0]) \
            or wq.shape[1] % n_heads or wv.shape[1] % n_heads:
        raise ShapeError(f"attention: x_q {x_q.shape} @ wq {wq.shape}, x_kv {x_kv.shape} @ "
                         f"wk {wk.shape} and @ wv {wv.shape}, then @ wo {wo.shape} is not "
                         f"{batch} sequences of {n_heads} equal heads")
    q, k, v = x_q.data @ wq.data, x_kv.data @ wk.data, x_kv.data @ wv.data
    scale = 1.0 / math.sqrt(wq.shape[1] // n_heads)
    p = _head_product(_heads(q, n_heads, batch), _heads(k, n_heads, batch))
    if scale != 1.0:
        p *= scale
    _softmax_rows(p)
    ctx = _rows(p @ _heads(v, n_heads, batch))
    need_q = x_q.requires_grad or wq.requires_grad
    need_k = x_kv.requires_grad or wk.requires_grad
    need_v = x_kv.requires_grad or wv.requires_grad

    def bw(g: np.ndarray) -> None:
        g_ctx = g @ wo.data.T
        if wo.requires_grad:
            _accum(wo, ctx.T @ g)
        gh = _heads(g_ctx, n_heads, batch)
        gq = gk = gv = None
        if need_v:
            gv = _rows(p.swapaxes(-1, -2) @ gh)
        if need_q or need_k:
            d_v = wv.shape[1] // n_heads
            dterm = _row_sums((g_ctx * ctx).reshape(-1, d_v)).reshape(-1, n_heads)
            gs = _head_product(gh, _heads(v, n_heads, batch))
            gs -= _heads(dterm, n_heads, batch)
            gs *= p
            if scale != 1.0:
                gs *= scale
            if need_k:
                gk = _rows(gs.swapaxes(-1, -2) @ _heads(q, n_heads, batch))
            if need_q:
                gq = _rows(gs @ _heads(k, n_heads, batch))
            del gs
        # the projections in the order separate products would take them: v, k, q
        for x, w, gp in ((x_kv, wv, gv), (x_kv, wk, gk), (x_q, wq, gq)):
            if gp is not None:
                if x.requires_grad:
                    _accum(x, gp @ w.data.T)
                if w.requires_grad:
                    _accum(w, x.data.T @ gp)

    return _emit((x_q, x_kv, wq, wk, wv, wo), ctx @ wo.data, bw)


def row_mean(x: Tensor, batch: int) -> Tensor:
    """Mean over each of ``batch`` equal row blocks: (B·T, d) -> (B, d)."""
    x = as_tensor(x)
    if x.data.ndim != 2 or batch < 1 or x.shape[0] < batch or x.shape[0] % batch:
        raise ShapeError(f"row_mean: {x.shape} is not {batch} nonempty equal row blocks")
    t = x.shape[0] // batch
    return _emit((x,), x.data.reshape(batch, t, -1).mean(axis=1),
                 lambda g: _accum(x, np.repeat(g / t, t, axis=0)))


LOSS_KINDS = ("bce", "mse")


def weighted_loss(preds: Sequence[Tensor], y, weights: Sequence[float], kind: str) -> Tensor:
    """``Σₖ wₖ · mean(loss(predₖ, y))`` over equally shaped predictions, as one tape op:
    binary cross entropy on logits z (``kind="bce"``), written as
    ``max(z, 0) − z·y + log1p(exp(−|z|))`` so that it saturates only where the
    answer is right (Goodfellow et al., *Deep Learning*, 2016, §6.2.2.2), or
    squared error (``kind="mse"``).  ``y`` takes the predictions' dtype.

    The heads' terms are summed in order.  The rule keeps one residual per
    head, ``sigmoid(z) − y`` (the sigmoid in its overflow-free form) or
    ``2(pred − y)``, and head k receives ``g·wₖ/n · rₖ`` for n labels.
    """
    preds = [as_tensor(p) for p in preds]
    weights = [float(w) for w in weights]
    if kind not in LOSS_KINDS:
        raise ValueError(f"weighted_loss: kind must be one of {LOSS_KINDS}, got {kind!r}")
    if not preds or len(weights) != len(preds):
        raise ValueError(f"weighted_loss: {len(weights)} weights for {len(preds)} predictions")
    y = np.asarray(y, dtype=preds[0].data.dtype)
    if any(p.shape != y.shape for p in preds):
        raise ShapeError(f"weighted_loss: prediction shapes {[p.shape for p in preds]} "
                         f"do not all match label shape {y.shape}")
    n = y.size
    residuals = []
    total = None
    for p, w in zip(preds, weights):
        z = p.data
        if kind == "bce":
            e = np.exp(-np.abs(z))
            term = (np.maximum(z, 0.0) - z * y + np.log1p(e)).mean() * w
            residuals.append(np.where(z >= 0, 1.0, e) / (1.0 + e) - y)
        else:
            d = z - y
            term = (d * d).mean() * w
            residuals.append(2.0 * d)
        total = term if total is None else total + term

    def bw(g: np.ndarray) -> None:
        for p, w, r in zip(preds, weights, residuals):
            if p.requires_grad:
                _accum(p, g * w / n * r)

    return _emit(preds, total, bw)
