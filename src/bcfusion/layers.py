"""Attention and transformer-encoder building blocks.

Everything here operates on single sequences shaped (T, d): batching is the
caller's concern.  Parameters are plain ``Tensor`` objects created with
uniform fan-in initialization, U(-sqrt(1/fan_in), +sqrt(1/fan_in)).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = math.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Linear:
    """Affine map x @ w + b for row-major sequences or single vectors."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.d_out = d_out
        self.w = uniform_init(rng, (d_in, d_out), d_in)
        self.b = uniform_init(rng, (d_out,), d_in)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.w), self.b)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}w", self.w
        yield f"{prefix}b", self.b


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q kᵀ / sqrt(d_k)) v for 2-D q, k, v.

    q: (T_q, d_k), k: (T_k, d_k), v: (T_k, d_v) -> (T_q, d_v).  Every row of
    the attention matrix is a probability vector over the T_k keys.
    """
    for name, t in (("q", q), ("k", k), ("v", v)):
        if t.data.ndim != 2:
            raise ShapeError(f"attention: {name} must be 2-D, got {t.shape}")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: q/k widths differ: {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention: k/v lengths differ: {k.shape} vs {v.shape}")
    d_k = q.shape[1]
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(d_k))
    return T.matmul(T.softmax(scores, axis=-1), v)


class MultiHeadAttention:
    """h parallel attention heads over packed projections, then an output map.

    Queries are projected from ``x_q`` and keys/values from ``x_kv``;
    self-attention is the ``x_q is x_kv`` case.  Projections are packed as
    single (d_model, d_model) matrices and sliced into per-head columns.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        if d_model % n_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by {n_heads} heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.wq = uniform_init(rng, (d_model, d_model), d_model)
        self.wk = uniform_init(rng, (d_model, d_model), d_model)
        self.wv = uniform_init(rng, (d_model, d_model), d_model)
        self.wo = uniform_init(rng, (d_model, d_model), d_model)

    def __call__(self, x_q: Tensor, x_kv: Tensor) -> Tensor:
        if x_q.shape[-1] != self.d_model or x_kv.shape[-1] != self.d_model:
            raise ShapeError(
                f"attention width mismatch: inputs {x_q.shape}/{x_kv.shape}, d_model {self.d_model}")
        q = T.matmul(x_q, self.wq)
        k = T.matmul(x_kv, self.wk)
        v = T.matmul(x_kv, self.wv)
        heads = []
        for i in range(self.n_heads):
            lo, hi = i * self.d_head, (i + 1) * self.d_head
            heads.append(scaled_dot_product_attention(
                T.slice_cols(q, lo, hi), T.slice_cols(k, lo, hi), T.slice_cols(v, lo, hi)))
        return T.matmul(T.concat(heads, axis=1), self.wo)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}wq", self.wq
        yield f"{prefix}wk", self.wk
        yield f"{prefix}wv", self.wv
        yield f"{prefix}wo", self.wo


def sinusoidal_positional_encoding(n_positions: int, d_model: int) -> Tensor:
    """Interleaved sine/cosine position signal, shape (n_positions, d_model).

    Column pair 2i uses wavelength 10000^(2i/d_model); values lie in [-1, 1].
    The result carries no gradient and is added to first-layer inputs.
    """
    if n_positions < 1:
        raise ValueError("positional encoding needs at least one position")
    if d_model % 2 != 0:
        raise ValueError(f"positional encoding requires even d_model, got {d_model}")
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    inv_freq = np.exp(np.arange(0, d_model, 2, dtype=np.float64) * (-math.log(10000.0) / d_model))
    pe = np.zeros((n_positions, d_model))
    pe[:, 0::2] = np.sin(pos * inv_freq)
    pe[:, 1::2] = np.cos(pos * inv_freq)
    return Tensor(pe)


def add_positional_encoding(x: Tensor) -> Tensor:
    pe = sinusoidal_positional_encoding(x.shape[0], x.shape[1]).data
    return T.add(x, Tensor(pe.astype(x.data.dtype, copy=False)))


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator],
            training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is zero."""
    if not training or rate <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs a random generator")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return T.mul(x, Tensor(mask.astype(x.data.dtype, copy=False)))


class TransformerLayer:
    """Self-attention block: attention, residual, norm, feed-forward, residual, norm.

    Post-norm ordering by default (norm after each residual add); pre-norm is
    available behind ``pre_norm``.  For cross-attention, pass ``x_q`` to source
    the queries from another stream; keys, values, and the residual path stay
    on the layer's own input.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator,
                 d_ff: Optional[int] = None, dropout_rate: float = 0.1,
                 pre_norm: bool = False, eps: float = 1e-5):
        self.d_model = d_model
        self.dropout_rate = dropout_rate
        self.pre_norm = pre_norm
        self.eps = eps
        self.attn = MultiHeadAttention(d_model, n_heads, rng)
        d_ff = d_ff if d_ff is not None else 2 * d_model
        self.ffn1 = Linear(d_model, d_ff, rng)
        self.ffn2 = Linear(d_ff, d_model, rng)
        self.ln1_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln1_bias = Tensor(np.zeros(d_model), requires_grad=True)
        self.ln2_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln2_bias = Tensor(np.zeros(d_model), requires_grad=True)

    def _ffn(self, x: Tensor) -> Tensor:
        return self.ffn2(T.relu(self.ffn1(x)))

    def forward(self, x: Tensor, x_q: Optional[Tensor] = None, training: bool = False,
                rng: Optional[np.random.Generator] = None) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.d_model:
            raise ShapeError(f"transformer layer expects (T, {self.d_model}), got {x.shape}")
        if x_q is not None and x_q.shape != x.shape:
            raise ShapeError(f"query stream shape {x_q.shape} != input shape {x.shape}")
        if self.pre_norm:
            xn = T.layer_norm(x, self.ln1_gain, self.ln1_bias, self.eps)
            qn = xn if x_q is None else T.layer_norm(x_q, self.ln1_gain, self.ln1_bias, self.eps)
            h = T.add(x, dropout(self.attn(qn, xn), self.dropout_rate, rng, training))
            hn = T.layer_norm(h, self.ln2_gain, self.ln2_bias, self.eps)
            return T.add(h, dropout(self._ffn(hn), self.dropout_rate, rng, training))
        q_src = x if x_q is None else x_q
        a = dropout(self.attn(q_src, x), self.dropout_rate, rng, training)
        h = T.layer_norm(T.add(x, a), self.ln1_gain, self.ln1_bias, self.eps)
        f = dropout(self._ffn(h), self.dropout_rate, rng, training)
        return T.layer_norm(T.add(h, f), self.ln2_gain, self.ln2_bias, self.eps)

    __call__ = forward

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield from self.attn.named_parameters(f"{prefix}attn.")
        yield from self.ffn1.named_parameters(f"{prefix}ffn1.")
        yield from self.ffn2.named_parameters(f"{prefix}ffn2.")
        yield f"{prefix}ln1_gain", self.ln1_gain
        yield f"{prefix}ln1_bias", self.ln1_bias
        yield f"{prefix}ln2_gain", self.ln2_gain
        yield f"{prefix}ln2_bias", self.ln2_bias


def mean_pool(x: Tensor) -> Tensor:
    """Arithmetic mean over the time axis: (T, d) -> (d,)."""
    if x.data.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"mean_pool needs a nonempty (T, d) sequence, got {x.shape}")
    return T.tmean(x, axis=0)
