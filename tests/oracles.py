"""Plain-numpy oracles and small tape reductions shared by the tests."""

import math

import numpy as np

from bcfusion import tensor as T
from bcfusion.layers import sinusoidal_positional_encoding
from bcfusion.tensor import Tensor


def sdpa_reference(q, k, v):
    """Explicit softmax-then-weighted-sum oracle for 2-D q (T_q, d), k (T_k, d), v (T_k, d_v)."""
    scores = q @ k.T / math.sqrt(q.shape[1])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    return attn @ v


def identity_projections(q, k, v):
    """Inputs and weights under which :func:`tensor.attention` projects to exactly
    ``q``, ``k`` and ``v`` and leaves the head outputs as they are: x_q = q with
    wq = I, x_kv = [k | v] with wk and wv selecting its two column blocks, and
    wo = I.  Each projected entry is one product with 1 plus products with 0."""
    d, d_v, dtype = q.shape[1], v.shape[1], q.dtype
    return (q, np.concatenate([k, v], axis=1), np.eye(d, dtype=dtype),
            np.eye(d + d_v, d, dtype=dtype), np.eye(d + d_v, d_v, -d, dtype=dtype),
            np.eye(d_v, dtype=dtype))


def attention_core(q, k, v, n_heads, batch) -> np.ndarray:
    """:func:`tensor.attention` on given (B·T_q, H·d), (B·T_k, H·d) and (B·T_k, H·d_v)
    arrays q, k and v, through :func:`identity_projections`."""
    return T.attention(*(Tensor(a) for a in identity_projections(q, k, v)), n_heads, batch).data


def attention_weights(logits) -> np.ndarray:
    """Row-wise softmax of a (B, n) logit array, read off :func:`tensor.attention`.

    Row b is one sequence: a single width-1 query 1 against n width-1 keys
    ``logits[b]``, so its scores are the logits exactly (d_head = 1 scales by
    1), and an identity value matrix returns the attention weights themselves.
    """
    logits = np.asarray(logits)
    b, n = logits.shape
    return attention_core(np.ones((b, 1), logits.dtype), logits.reshape(b * n, 1),
                          np.tile(np.eye(n, dtype=logits.dtype), (b, 1)), 1, b)


def weighted_loss_reference(preds, y, weights, kind):
    """Closed-form value and per-head gradients of ``Σₖ wₖ·mean(loss(predₖ, y))``
    over n elements, in plain float64 numpy.  Cross entropy (``"bce"``) on
    logits z: log(1 + eᶻ) − y·z, taken as ``logaddexp(0, z) − y·z``, whose
    derivative wₖ/n · (σ(z) − y) takes σ(z) = exp(−logaddexp(0, −z));
    squared error (``"mse"``): (p − y)², derivative 2wₖ(p − y)/n."""
    y = np.asarray(y, dtype=np.float64)
    value, grads = 0.0, []
    for p, w in zip(preds, weights):
        p = np.asarray(p, dtype=np.float64)
        if kind == "bce":
            value += w * np.mean(np.logaddexp(0.0, p) - y * p)
            grads.append(w / y.size * (np.exp(-np.logaddexp(0.0, -p)) - y))
        else:
            value += w * np.mean((p - y) ** 2)
            grads.append(2.0 * w * (p - y) / y.size)
    return value, grads


def squared_error(x: Tensor, target) -> Tensor:
    """The mean squared error of ``x`` against a fixed ``target`` through the loss
    op: the scalar the tests reduce an op's output to, with gradient 2(x − target)/n."""
    return T.weighted_loss([x], target, [1.0], "mse")


def sum_of_squares(x: Tensor) -> Tensor:
    """Σ x² through the loss op (squared error against 0 with weight n), whose
    gradient is exactly 2x: each element receives 1·x twice."""
    return T.weighted_loss([x], np.zeros(x.shape), [x.size], "mse")


def unit_gradient_loss(x: Tensor) -> Tensor:
    """A scalar of ``x`` through the loss op whose gradient is 1 in every element, so
    an op's backward receives an all-ones output gradient: squared error against
    x − 2 with weight n/4, which hands each element 0.25·2 twice.  Exact where
    x − 2 is, as for the small dyadic values the tests use."""
    return T.weighted_loss([x], x.data - 2.0, [x.size / 4], "mse")


def tiled_positional_encoding(x: Tensor, batch: int = 1) -> Tensor:
    """The position signal added out of place, as a separate op: a new tensor
    ``x`` + the (T, width) table tiled over the ``batch`` sequences, recorded
    on the active tape with a rule that hands ``x``'s slot a copy of its
    gradient (what an elementwise sum with a constant operand records)."""
    steps, width = x.shape[0] // batch, x.shape[1]
    table = sinusoidal_positional_encoding(steps, width).data.astype(x.dtype)
    out = Tensor(x.data + np.tile(table, (batch, 1)))
    tape, slot = T.active_tape(), x.slot
    if tape is None or slot is None:
        return out
    out.requires_grad, out.slot = True, T.Slot(out.dtype)

    def bw(g: np.ndarray) -> None:
        slot.grad = g.copy() if slot.grad is None else slot.grad + g

    tape.record((slot,), out.slot, bw)
    return out
