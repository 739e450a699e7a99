"""Attention and transformer-encoder building blocks.

A mini-batch of B sequences of equal length T is stacked into (B·T, d) rows,
sample after sample, so projections, the feed-forward block and layer norm
run as one 2-D op over every frame of the batch; the ``batch`` argument tells
attention and positional encoding where one sequence ends and the next
begins.  Attention is one tape op over (B·H, T, d_head) stacks, heads and
samples alike an array axis (the reshape formulation of Vaswani et al. 2017).  A
single (T, d) sequence is a batch of one.  Parameters are plain ``Tensor``
objects created with uniform fan-in initialization,
U(-sqrt(1/fan_in), +sqrt(1/fan_in)).
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
    """Affine map x @ w + b applied to every row of a 2-D input, followed by a
    ReLU when called with ``relu=True``; one :func:`tensor.linear` record."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.d_out = d_out
        self.w = uniform_init(rng, (d_in, d_out), d_in)
        self.b = uniform_init(rng, (d_out,), d_in)

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return T.linear(x, self.w, self.b, relu)

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
    scores = T.mul(T.matmul(q, k, transpose_b=True), 1.0 / math.sqrt(d_k))
    return T.matmul(T.softmax(scores), v)


class MultiHeadAttention:
    """h parallel attention heads over packed projections, then an output map.

    Queries are projected from ``x_q`` and keys/values from ``x_kv``;
    self-attention is the ``x_q is x_kv`` case.  Projections are packed as
    single (d_model, d_model) matrices whose column blocks are the heads.
    The heads of every stacked sequence run as one :func:`tensor.attention`
    record between the three input projections and the output map.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
        if d_model % n_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by {n_heads} heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.wq = uniform_init(rng, (d_model, d_model), d_model)
        self.wk = uniform_init(rng, (d_model, d_model), d_model)
        self.wv = uniform_init(rng, (d_model, d_model), d_model)
        self.wo = uniform_init(rng, (d_model, d_model), d_model)

    def __call__(self, x_q: Tensor, x_kv: Tensor, batch: int = 1) -> Tensor:
        """Attend within each of ``batch`` stacked sequences: rows (B·T_q, d), (B·T_k, d)."""
        if x_q.shape[-1] != self.d_model or x_kv.shape[-1] != self.d_model:
            raise ShapeError(
                f"attention width mismatch: inputs {x_q.shape}/{x_kv.shape}, d_model {self.d_model}")
        q, k, v = (T.matmul(x, w) for x, w in ((x_q, self.wq), (x_kv, self.wk), (x_kv, self.wv)))
        return T.matmul(T.attention(q, k, v, self.n_heads, batch), self.wo)

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


def add_positional_encoding(x: Tensor, batch: int = 1) -> Tensor:
    """Add the position signal to each of ``batch`` stacked sequences."""
    pe = sinusoidal_positional_encoding(x.shape[0] // batch, x.shape[1]).data
    return T.add(x, Tensor(np.tile(pe.astype(x.data.dtype, copy=False), (batch, 1))))


def dropout(x: Tensor, rate: float, uniforms: np.ndarray) -> Tensor:
    """Inverted dropout, keeping the entries whose uniform draw is at least ``rate``."""
    mask = (uniforms.reshape(x.shape) >= rate) / (1.0 - rate)
    return T.mul(x, Tensor(mask.astype(x.data.dtype, copy=False)))


class TransformerLayer:
    """Post-norm encoder layer (Vaswani et al. 2017): attention, residual, norm,
    feed-forward at twice the model width, residual, norm.

    For cross-attention, pass ``x_q`` to source the queries from another
    stream; keys, values, and the residual path stay on the layer's own input.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator,
                 dropout_rate: float = 0.1):
        self.d_model = d_model
        self.dropout_rate = dropout_rate
        self.attn = MultiHeadAttention(d_model, n_heads, rng)
        self.ffn1 = Linear(d_model, 2 * d_model, rng)
        self.ffn2 = Linear(2 * d_model, d_model, rng)
        self.ln1_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln1_bias = Tensor(np.zeros(d_model), requires_grad=True)
        self.ln2_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln2_bias = Tensor(np.zeros(d_model), requires_grad=True)

    def forward(self, x: Tensor, x_q: Optional[Tensor] = None, training: bool = False,
                batch: int = 1, noise: Optional[np.ndarray] = None) -> Tensor:
        """Encode ``batch`` stacked sequences, rows (B·T, d_model).

        In training with dropout, the masks are cut from ``noise``, which is
        required: the (B, 2, T, d_model) uniforms of each sample's attention
        and feed-forward masks, in that order.
        """
        if x.data.ndim != 2 or x.shape[1] != self.d_model:
            raise ShapeError(f"transformer layer expects (T, {self.d_model}), got {x.shape}")
        if x_q is not None and x_q.shape != x.shape:
            raise ShapeError(f"query stream shape {x_q.shape} != input shape {x.shape}")
        drop = training and self.dropout_rate > 0.0
        if drop and noise is None:
            raise ValueError("dropout in training mode needs noise")
        q_src = x if x_q is None else x_q
        a = self.attn(q_src, x, batch)
        if drop:
            a = dropout(a, self.dropout_rate, noise[:, 0])
        h = T.layer_norm(x, a, self.ln1_gain, self.ln1_bias)
        f = self.ffn2(self.ffn1(h, relu=True))
        if drop:
            f = dropout(f, self.dropout_rate, noise[:, 1])
        return T.layer_norm(h, f, self.ln2_gain, self.ln2_bias)

    __call__ = forward

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield from self.attn.named_parameters(f"{prefix}attn.")
        yield from self.ffn1.named_parameters(f"{prefix}ffn1.")
        yield from self.ffn2.named_parameters(f"{prefix}ffn2.")
        yield f"{prefix}ln1_gain", self.ln1_gain
        yield f"{prefix}ln1_bias", self.ln1_bias
        yield f"{prefix}ln2_gain", self.ln2_gain
        yield f"{prefix}ln2_bias", self.ln2_bias
