"""Dense tensors with tape-based reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array plus an
optional gradient buffer, and a ``Tape`` records every differentiable op
executed while it is active.  ``backward`` replays the tape in reverse and
consumes it, accumulating gradients additively, so fan-out works without any
graph bookkeeping beyond execution order.

The op set is what the batched engine records, seven ops: one affine op
(product, bias row and optional ReLU), one multi-head attention op, layer
norm of a residual sum (the residual optionally inverted-dropped by a
boolean keep-mask, so training-mode dropout adds no record), feature-axis
concat and slicing, per-sequence row means, and one training objective: the
weighted sum of per-head mean losses (cross entropy on logits or squared
error), one record however many heads it mixes (op fusion at
primitive granularity, Baydin et al. 2018).

A record is a backward rule plus gradient slots (the ``save_for_backward``
design of PyTorch autograd, Paszke et al. 2019): the slots of the op's
inputs that take a gradient and the :class:`Slot` of its output, which
holds a gradient but no data.  A leaf that takes a gradient is its own
slot.  Each rule closes over exactly the arrays it reads and over those
slots; weight operands are read through their tensors.  No record holds an
op output's tensor, so an activation that no rule reads dies with the
forward's locals (after Chen et al. 2016).  What a rule saves is fixed
by the op and its options, not by which inputs take a gradient: the
affine op saves its input, and its output only with the ReLU, whose mask
it reads back from it; layer norm saves the normalised rows, their
inverse deviations and the keep-mask, one byte per element, but neither
summand; slicing saves its input's shape and dtype; concat and row means
save nothing.  Attention is one record from the layer inputs to the
output projection: the four weights stay separate tensors, and the
projections run the GEMMs, and accumulate their gradients in the order,
that separate products would.  It picks its head kernel from the operand
shapes alone (the key count and the head width), and its backward rule
takes the softmax gradient through the FlashAttention term
D = rowsum(g_ctx ∘ ctx) (Dao et al. 2022), saving the layer inputs, q,
k, v, the attention weights and the head outputs.  A rule writes only
into the slots that exist, so a constant operand costs at most a saved
array or a discarded product, never a wrong gradient.

A gradient has one owner: no two slots ever hold one array.  A rule hands a
slot only an array that nothing else references (a fresh result, or a copy
of a view or of an array handed to two inputs), and a first write into an
empty slot keeps it.  A rule may therefore work in place on its spent
output gradient, as the affine op does with its ReLU mask.  Broadcasting
is restricted to the affine op's bias row; anything else raises a
``ShapeError`` up front rather than silently broadcasting.

Active tapes form one module-level stack, so tapes nest and the innermost
one records.  The stack belongs to the process, not to a thread: tapes are
not shared across threads.  With no active tape, ops run as plain numpy
(inference mode) and allocate no slot.
"""

from __future__ import annotations

import itertools
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
    An op output recorded on a tape has a gradient :class:`Slot` in
    ``slot``; a leaf that takes a gradient is its own slot, and ``grad`` is
    where its gradient lands.
    """

    __slots__ = ("data", "requires_grad", "grad", "slot")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.slot: Optional[Slot] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Slot:
    """Where the gradient of a recorded op output accumulates.

    The consumers' rules add into ``grad``, in the output's ``dtype``; the
    producing record's rule reads it once and it is released.  A slot holds
    no data (``data`` is None), so a record keeps no output alive; like a
    leaf that takes a gradient, it has ``requires_grad`` set, so that the
    slots of a record read alike.
    """

    __slots__ = ("grad", "dtype")
    data = None
    requires_grad = True

    def __init__(self, dtype: np.dtype):
        self.grad: Optional[np.ndarray] = None
        self.dtype = dtype


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

    Each record holds the gradient slots of the op's inputs that take a
    gradient, the slot of its output, and a backward rule that reads the
    output gradient and adds to the input slots.  Records are appended at
    execution time, so inputs always precede the ops that consume them; the
    backward pass visits each record exactly once, in reverse order, and
    pops it as it goes: after :func:`backward` ``records`` is empty and the
    tape holds no arrays.
    """

    def __init__(self):
        self.records: list[tuple[tuple, Slot, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert _tapes and _tapes[-1] is self, "tape stack corrupted"
        _tapes.pop()

    def record(self, inputs: tuple, out: Slot, backward_fn: Callable[[np.ndarray], None]) -> None:
        self.records.append((inputs, out, backward_fn))


def backward(output: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``output``.

    ``output`` must be a size-1 tensor produced on ``tape``.  Gradients
    accumulate additively across fan-out; ops whose result never reached
    the output are skipped.  Every consumer of a record's output comes later
    on the tape, so once the record is reached its output gradient is
    complete: the slot lets go of it and the rule spends it, and only leaves
    keep a gradient.  The tape is consumed the same way: each record is
    popped off as it is replayed, so the arrays its rule saved are freed as
    soon as the rule has run.  A tape is spent after backward; record a new
    one for another pass.
    """
    if output.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {output.shape}")
    (output if output.slot is None else output.slot).grad = np.ones_like(output.data)
    records = tape.records
    while records:
        _, out, backward_fn = records.pop()
        g = out.grad
        if g is None:
            continue
        out.grad = None
        backward_fn(g)


def _slot(t: Tensor):
    """Where ``t``'s gradient goes: its op's slot, ``t`` itself for a leaf that
    takes a gradient, or None."""
    if t.slot is not None:
        return t.slot
    return t if t.requires_grad else None


def _recording(*inputs: Tensor) -> Optional[Tape]:
    """The active tape if an op of ``inputs`` is to be recorded on it: one of
    them takes a gradient.  None in inference mode."""
    if _tapes and any(t.requires_grad for t in inputs):
        return _tapes[-1]
    return None


def _emit(tape: Tape, slots: Sequence, out_data: np.ndarray,
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap a recorded op's output, give it a slot, and record the op on ``tape``."""
    out = Tensor(out_data, requires_grad=True)
    out.slot = Slot(out.data.dtype)
    tape.record(tuple(s for s in slots if s is not None), out.slot, backward_fn)
    return out


def _take(s, g: np.ndarray) -> None:
    """Add ``g``, an array that nothing else references, to slot ``s``: a first
    write in ``s``'s dtype keeps ``g`` itself, so no two slots hold one array."""
    if s.grad is None:
        s.grad = g if g.dtype == s.dtype else g.astype(s.dtype)
    else:
        s.grad += g


def _project(gp: np.ndarray, sx, w: Tensor, x_data: np.ndarray, sw) -> None:
    """Route the gradient ``gp`` of a product ``x @ w`` to the slots of x and of w."""
    if sx is not None:
        _take(sx, gp @ w.data.T)
    if sw is not None:
        _take(sw, x_data.T @ gp)


# --------------------------------------------------------------------------
# Ops
# --------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b`` for a 2-D x, the bias row added to every row, followed by
    ``max(·, 0)`` when ``relu`` is set, as one tape op.

    The bias and the ReLU work in place on the product.  The rule saves x
    and, with the ReLU, the output, from which it reads the mask back
    (``out > 0`` exactly where ``x @ w + b > 0``) and applies it in place to
    the spent output gradient; w is read through its tensor.
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
    tape = _recording(x, w, b)
    if tape is None:
        return Tensor(out_data)
    sx, sw, sb = _slot(x), _slot(w), _slot(b)
    x_data = x.data
    activated = out_data if relu else None

    def bw(g: np.ndarray) -> None:
        if activated is not None:
            np.multiply(g, activated > 0, out=g)
        _project(g, sx, w, x_data, sw)
        if sb is not None:
            _take(sb, np.add.reduce(g, axis=0))

    return _emit(tape, (sx, sw, sb), out_data, bw)


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
    goes to both summands, masked and scaled the same way for ``r``.  The
    rule saves the normalised rows, their inverse deviations and the
    keep-mask, one byte per element; it reads neither summand, and gain
    through its tensor.
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
    # np.add.reduce, then an in-place divide for a mean, is what .sum and np.mean
    # compute, bit for bit, without their Python wrappers; so for every reduction here
    mean = np.add.reduce(xhat, axis=-1, keepdims=True)
    mean /= d
    xhat -= mean
    var = np.add.reduce(np.square(xhat), axis=-1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data
    tape = _recording(x, r, gain, bias)
    if tape is None:
        return Tensor(out_data)
    sx, sr, s_gain, s_bias = _slot(x), _slot(r), _slot(gain), _slot(bias)
    through = sx is not None or sr is not None

    def bw(g: np.ndarray) -> None:
        if s_gain is not None:
            _take(s_gain, np.add.reduce((g * xhat).reshape(-1, d), axis=0))
        if s_bias is not None:
            _take(s_bias, np.add.reduce(g.reshape(-1, d), axis=0))
        if not through:
            return
        gx = g * gain.data
        m2 = np.add.reduce(gx * xhat, axis=-1, keepdims=True)
        m2 /= d
        mean = np.add.reduce(gx, axis=-1, keepdims=True)
        mean /= d
        gx -= mean
        gx -= xhat * m2
        gx *= inv
        if sr is None:
            _take(sx, gx)
        elif keep is None:  # one array for both summands: x takes a copy
            if sx is not None:
                _take(sx, gx.copy())
            _take(sr, gx)
        else:
            gr = gx * keep
            gr *= scale
            if sx is not None:
                _take(sx, gx)
            _take(sr, gr)

    return _emit(tape, (sx, sr, s_gain, s_bias), out_data, bw)


def concat(parts: Iterable[Tensor]) -> Tensor:
    """Join 2-D tensors with equal row counts along the feature axis, in order."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: no tensors given")
    if any(p.data.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ShapeError(f"concat expects 2-D tensors with equal row counts, "
                         f"got {[p.shape for p in parts]}")
    out_data = np.concatenate([p.data for p in parts], axis=1)
    tape = _recording(*parts)
    if tape is None:
        return Tensor(out_data)
    slots = [_slot(p) for p in parts]
    stops = list(itertools.accumulate(p.shape[1] for p in parts))

    def bw(g: np.ndarray) -> None:
        for s, lo, hi in zip(slots, [0] + stops, stops):
            if s is not None:
                _take(s, g[:, lo:hi].copy())

    return _emit(tape, slots, out_data, bw)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Take feature columns [start, stop) of a 2-D tensor."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols expects a 2-D tensor, got {x.shape}")
    if not 0 <= start < stop <= x.shape[1]:
        raise ShapeError(f"slice_cols: [{start}, {stop}) out of range for width {x.shape[1]}")

    out_data = x.data[:, start:stop].copy()
    tape = _recording(x)
    if tape is None:
        return Tensor(out_data)
    sx, shape, dtype = _slot(x), x.shape, x.data.dtype

    def bw(g: np.ndarray) -> None:
        full = np.zeros(shape, dtype)
        full[:, start:stop] = g
        _take(sx, full)

    return _emit(tape, (sx,), out_data, bw)


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

    The rule saves the layer inputs, q, k, v, the attention weights p and
    the head outputs ``ctx``, whichever operands take a gradient; the four
    weights are read through their tensors.  It takes the softmax
    gradient through D = rowsum(g_ctx ∘ ctx) over d_v, which equals
    rowsum(g_p ∘ p) over T_k (Dao et al., "FlashAttention", 2022), and runs
    the projection GEMMs, and accumulates their gradients, in the order
    separate products would: v, k, q.  Each projection's gradient is routed
    as soon as it is formed, so no two of them are alive at once.
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
    out_data = ctx @ wo.data
    tape = _recording(x_q, x_kv, wq, wk, wv, wo)
    if tape is None:
        return Tensor(out_data)
    s_xq, s_xkv, s_wq, s_wk, s_wv, s_wo = (_slot(t) for t in (x_q, x_kv, wq, wk, wv, wo))
    xq_data, xkv_data, d_v = x_q.data, x_kv.data, wv.shape[1] // n_heads

    def bw(g: np.ndarray) -> None:
        if s_wo is not None:
            _take(s_wo, ctx.T @ g)
        g_ctx = g @ wo.data.T
        gh = _heads(g_ctx, n_heads, batch)
        _project(_rows(p.swapaxes(-1, -2) @ gh), s_xkv, wv, xkv_data, s_wv)
        dterm = _row_sums((g_ctx * ctx).reshape(-1, d_v)).reshape(-1, n_heads)
        gs = _head_product(gh, _heads(v, n_heads, batch))
        del g_ctx, gh
        gs -= _heads(dterm, n_heads, batch)
        gs *= p
        if scale != 1.0:
            gs *= scale
        _project(_rows(gs.swapaxes(-1, -2) @ _heads(q, n_heads, batch)),
                 s_xkv, wk, xkv_data, s_wk)
        _project(_rows(gs @ _heads(k, n_heads, batch)), s_xq, wq, xq_data, s_wq)

    return _emit(tape, (s_xq, s_xkv, s_wq, s_wk, s_wv, s_wo), out_data, bw)


def row_mean(x: Tensor, batch: int) -> Tensor:
    """Mean over each of ``batch`` equal row blocks: (B·T, d) -> (B, d)."""
    x = as_tensor(x)
    if x.data.ndim != 2 or batch < 1 or x.shape[0] < batch or x.shape[0] % batch:
        raise ShapeError(f"row_mean: {x.shape} is not {batch} nonempty equal row blocks")
    t = x.shape[0] // batch
    out_data = np.add.reduce(x.data.reshape(batch, t, -1), axis=1)
    out_data /= t
    tape = _recording(x)
    if tape is None:
        return Tensor(out_data)
    sx = _slot(x)
    return _emit(tape, (sx,), out_data, lambda g: _take(sx, np.repeat(g / t, t, axis=0)))


LOSS_KINDS = ("bce", "mse")


def weighted_loss(preds: Sequence[Tensor], y, weights: Sequence[float], kind: str) -> Tensor:
    """``Σₖ wₖ · mean(loss(predₖ, y))`` over equally shaped predictions, as one tape op:
    binary cross entropy on logits z (``kind="bce"``), written as
    ``max(z, 0) − z·y + log1p(exp(−|z|))`` so that it saturates only where the
    answer is right (Goodfellow et al., *Deep Learning*, 2016, §6.2.2.2), or
    squared error (``kind="mse"``).  ``y`` takes the predictions' dtype.

    The heads' terms are summed in order.  The rule keeps one residual per
    head, ``sigmoid(z) − y`` (the sigmoid in its overflow-free form) or
    ``2(pred − y)``, stacked in one array, and head k receives
    ``g·wₖ/n · rₖ`` for n labels.
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
    tape = _recording(*preds)
    residuals = []
    total = None
    for p, w in zip(preds, weights):
        z = p.data
        if kind == "bce":
            e = np.exp(-np.abs(z))
            term = np.add.reduce(np.maximum(z, 0.0) - z * y + np.log1p(e), axis=None) / n * w
            if tape is not None:
                residuals.append(np.where(z >= 0, 1.0, e) / (1.0 + e) - y)
        else:
            d = z - y
            term = np.add.reduce(d * d, axis=None) / n * w
            if tape is not None:
                residuals.append(2.0 * d)
        total = term if total is None else total + term
    if tape is None:
        return Tensor(total)
    slots = [_slot(p) for p in preds]
    residuals = np.stack(residuals)

    def bw(g: np.ndarray) -> None:
        for s, w, r in zip(slots, weights, residuals):
            if s is not None:
                _take(s, g * w / n * r)

    return _emit(tape, slots, total, bw)
