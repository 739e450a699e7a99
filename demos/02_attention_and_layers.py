#!/usr/bin/env python3
"""The attention building blocks and their defining properties."""

import numpy as np

from bcfusion import MultiHeadAttention, TransformerLayer, sinusoidal_positional_encoding
from bcfusion import tensor as T
from bcfusion.tensor import Tensor

rng = np.random.default_rng(0)

# scaled dot-product attention: each query row takes a probability-weighted
# mix of the value rows.  One op runs every head (a column block) of every
# stacked sequence: here one sequence of 4 queries over 6 keys, 2 heads
q, k, v = (Tensor(rng.normal(size=s)) for s in [(4, 8), (6, 8), (6, 6)])
out = T.attention(q, k, v, n_heads=2, batch=1)
print("attention output:", out.shape)            # (4, 6)

# identity values return the attention matrix itself: every row sums to 1
weights = T.attention(q, k, Tensor(np.eye(6)), n_heads=1, batch=1)
print("attention rows sum to 1:", np.allclose(weights.data.sum(axis=1), 1.0))

# with a single key there is nothing to choose: the value row is returned
one_k = Tensor(rng.normal(size=(1, 8)))
one_v = Tensor([[1.0, 2.0, 3.0]])
print("single-key rows equal the value row:",
      np.allclose(T.attention(q, one_k, one_v, n_heads=1, batch=1).data, one_v.data))

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
