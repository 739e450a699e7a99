#!/usr/bin/env python3
"""The attention building blocks and their defining properties."""

import numpy as np

from bcfusion import MultiHeadAttention, TransformerLayer, sinusoidal_positional_encoding
from bcfusion import tensor as T
from bcfusion.tensor import Tensor

rng = np.random.default_rng(0)

# multi-head attention is one op from the layer inputs to the output map:
# queries are projected from x_q, keys and values from x_kv, each head (a
# column block) takes a probability-weighted mix of its value rows, and wo
# remixes the heads.  Here one sequence of 4 queries over 6 keys, 2 heads
x_q, x_kv = Tensor(rng.normal(size=(4, 8))), Tensor(rng.normal(size=(6, 8)))
wq, wk, wv, wo = (Tensor(rng.normal(size=(8, 8))) for _ in range(4))
out = T.attention(x_q, x_kv, wq, wk, wv, wo, n_heads=2, batch=1)
print("attention output:", out.shape)            # (4, 8)

# identity values and output map return the attention matrix itself: every row
# sums to 1.  x_kv carries 8 key columns and a 6x6 identity; wk and wv select them
x_kv_eye = Tensor(np.hstack([x_kv.data, np.eye(6)]))
select_k, select_v = Tensor(np.eye(14, 8)), Tensor(np.eye(14, 6, -8))
weights = T.attention(x_q, x_kv_eye, wq, select_k, select_v, Tensor(np.eye(6)), 1, 1)
print("attention rows sum to 1:", np.allclose(weights.data.sum(axis=1), 1.0))

# with a single key there is nothing to choose: every query gets its value row
one_kv = Tensor(rng.normal(size=(1, 8)))
single = T.attention(x_q, one_kv, wq, wk, wv, wo, n_heads=2, batch=1)
print("single-key rows equal the value row:",
      np.allclose(single.data, one_kv.data @ wv.data @ wo.data))

# multi-head attention splits the width across heads and remixes with W_O
mha = MultiHeadAttention(d_model=8, n_heads=2, rng=rng)
x = Tensor(rng.normal(size=(5, 8)))
print("self-attention:", mha(x, x).shape, " cross-attention:",
      mha(Tensor(rng.normal(size=(3, 8))), x).shape)

# the sinusoidal position signal: bounded, unique per position
pe = sinusoidal_positional_encoding(16, 8)
print("positional encoding range: [%.2f, %.2f]" % (pe.data.min(), pe.data.max()))

# a full encoder layer is permutation-equivariant until positions are added
layer = TransformerLayer(d_model=8, n_heads=2, rng=rng, dropout_rate=0.0)
seq = rng.normal(size=(7, 8))
perm = rng.permutation(7)
base = layer.forward(Tensor(seq)).data
shuffled = layer.forward(Tensor(seq[perm])).data
print("permutation equivariant:", np.allclose(shuffled, base[perm], atol=1e-9))

# pooling reduces each sequence of a batch to one feature row for the prediction heads
print("pooled:", T.row_mean(Tensor(seq), 1).shape)
