"""Plain-numpy oracles and small tape reductions shared by the tests."""

import math

import numpy as np

from bcfusion import tensor as T
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


def total(x: Tensor) -> Tensor:
    """Sum of all elements as tape ops: the mean times the count, whose
    backward hands every element exactly n/n = 1."""
    return T.mul(T.tmean(x), float(x.size))
