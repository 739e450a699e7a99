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


def attention_weights(logits) -> np.ndarray:
    """Row-wise softmax of a (B, n) logit array, read off :func:`tensor.attention`.

    Row b is one sequence: a single width-1 query 1 against n width-1 keys
    ``logits[b]``, so its scores are the logits exactly (d_head = 1 scales by
    1), and an identity value matrix returns the attention weights themselves.
    """
    logits = np.asarray(logits)
    b, n = logits.shape
    return T.attention(Tensor(np.ones((b, 1), logits.dtype)), Tensor(logits.reshape(b * n, 1)),
                       Tensor(np.tile(np.eye(n, dtype=logits.dtype), (b, 1))), 1, b).data


def total(x: Tensor) -> Tensor:
    """Sum of all elements as tape ops: the mean times the count, whose
    backward hands every element exactly n/n = 1."""
    return T.mul(T.tmean(x), float(x.size))
