"""Attention and transformer-encoder building blocks.

A mini-batch of B sequences of equal length T is stacked into (B·T, d) rows,
sample after sample, so projections, the feed-forward block and layer norm
run as one 2-D op over every frame of the batch; the ``batch`` argument tells
attention and positional encoding where one sequence ends and the next
begins.  :class:`TransformerLayer` calls :func:`tensor.attention` itself: one
tape op from the layer inputs to the output projection, over (B, H, T, d_head)
views in which heads and samples alike are array axes (the reshape
formulation of Vaswani et al. 2017); its head kernel is chosen by operand
shape, and its backward uses the FlashAttention term D = rowsum(g_ctx ∘ ctx).
A single (T, d) sequence is a batch of one.
Parameters are plain ``Tensor`` objects created with uniform fan-in
initialization, U(-sqrt(1/fan_in), +sqrt(1/fan_in)), or left undrawn when no
generator is given (a skeleton that a checkpoint fills).
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


def uniform_init(rng: Optional[np.random.Generator], shape: tuple[int, ...],
                 fan_in: int) -> Tensor:
    """Draw a parameter from U(-sqrt(1/fan_in), +sqrt(1/fan_in)).

    Without a generator the parameter is left undrawn (``np.empty``) for a
    checkpoint to fill: its pages are never touched, so it costs neither
    memory nor time until it is replaced.
    """
    if rng is None:
        return Tensor(np.empty(shape), requires_grad=True)
    bound = math.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Linear:
    """Affine map x @ w + b applied to every row of a 2-D input, followed by a
    ReLU when called with ``relu=True``; one :func:`tensor.linear` record."""

    def __init__(self, d_in: int, d_out: int, rng: Optional[np.random.Generator]):
        self.d_out = d_out
        self.w = uniform_init(rng, (d_in, d_out), d_in)
        self.b = uniform_init(rng, (d_out,), d_in)

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return T.linear(x, self.w, self.b, relu)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}w", self.w
        yield f"{prefix}b", self.b


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


@functools.lru_cache(maxsize=16)
def _position_table(n_positions: int, d_model: int, dtype: np.dtype) -> np.ndarray:
    """The (n_positions, d_model) position signal in ``dtype``, read-only."""
    pe = sinusoidal_positional_encoding(n_positions, d_model).data.astype(dtype, copy=False)
    pe.flags.writeable = False
    return pe


def add_positional_encoding(x: Tensor, batch: int = 1) -> Tensor:
    """Add the position signal in place to each of ``batch`` stacked sequences;
    returns ``x``.

    The (T, width) table is computed once per shape and dtype and memoised
    read-only, in a cache of a few entries (about half a MiB each at paper
    widths), and added through a (B, T, width) view of ``x``'s rows: nothing
    is tiled or recorded.  That is exact for an op output that no op has read
    and whose own rule does not read it (a projection without ReLU, a concat):
    a constant shift passes the gradient through unchanged.
    """
    if x.data.ndim != 2 or batch < 1 or x.shape[0] < batch or x.shape[0] % batch:
        raise ShapeError(f"add_positional_encoding: {x.shape} is not {batch} nonempty "
                         f"equal row blocks")
    if not x.data.flags.c_contiguous:
        raise ValueError("add_positional_encoding: x must be C-contiguous, so that the "
                         "signal lands in its data")
    if x.requires_grad and x.slot is None:
        raise ValueError("add_positional_encoding: x is a leaf that takes a gradient; "
                         "the signal would shift it")
    steps, width = x.shape[0] // batch, x.shape[1]
    rows = x.data.reshape(batch, steps, width)
    rows += _position_table(steps, width, x.data.dtype)
    return x


class TransformerLayer:
    """Post-norm encoder layer (Vaswani et al. 2017): attention, residual, norm,
    feed-forward at twice the model width, residual, norm.

    The attention projections ``wq``, ``wk``, ``wv`` and ``wo`` are single
    (d_model, d_model) matrices whose column blocks are the heads; the
    projections, the heads of every stacked sequence and the output map run
    as one :func:`tensor.attention` record.  For cross-attention, pass
    ``x_q`` to source the queries from another stream; keys, values, and the
    residual path stay on the layer's own input.
    """

    def __init__(self, d_model: int, n_heads: int, rng: Optional[np.random.Generator],
                 dropout_rate: float = 0.1):
        if d_model % n_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by {n_heads} heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.dropout_rate = dropout_rate
        # drawn before the feed-forward maps, in this order, which fixes seeded weights
        self.wq, self.wk, self.wv, self.wo = (uniform_init(rng, (d_model, d_model), d_model)
                                              for _ in range(4))
        self.ffn1 = Linear(d_model, 2 * d_model, rng)
        self.ffn2 = Linear(2 * d_model, d_model, rng)
        self.ln1_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln1_bias = Tensor(np.zeros(d_model), requires_grad=True)
        self.ln2_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln2_bias = Tensor(np.zeros(d_model), requires_grad=True)

    def forward(self, x: Tensor, x_q: Optional[Tensor] = None, batch: int = 1,
                keep: Optional[np.ndarray] = None) -> Tensor:
        """Encode ``batch`` stacked sequences, rows (B·T, d_model).

        A training forward with dropout passes ``keep``, the (2, B·T, d_model)
        boolean keep-masks of the attention and the feed-forward branch, in
        that order.  Each goes into the ``layer_norm`` of its residual branch,
        so dropout adds no tape record and costs one byte per element.
        """
        keep = (None, None) if keep is None else keep
        rate = self.dropout_rate
        a = T.attention(x if x_q is None else x_q, x, self.wq, self.wk, self.wv, self.wo,
                        self.n_heads, batch)
        h = T.layer_norm(x, a, self.ln1_gain, self.ln1_bias, keep[0], rate)
        f = self.ffn2(self.ffn1(h, relu=True))
        return T.layer_norm(h, f, self.ln2_gain, self.ln2_bias, keep[1], rate)

    __call__ = forward

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}attn.wq", self.wq
        yield f"{prefix}attn.wk", self.wk
        yield f"{prefix}attn.wv", self.wv
        yield f"{prefix}attn.wo", self.wo
        yield from self.ffn1.named_parameters(f"{prefix}ffn1.")
        yield from self.ffn2.named_parameters(f"{prefix}ffn2.")
        yield f"{prefix}ln1_gain", self.ln1_gain
        yield f"{prefix}ln1_bias", self.ln1_bias
        yield f"{prefix}ln2_gain", self.ln2_gain
        yield f"{prefix}ln2_bias", self.ln2_bias
