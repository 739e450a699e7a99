#!/usr/bin/env python3
"""Tape-based reverse-mode differentiation in a few strokes.

Ops executed inside a `with Tape()` block are recorded; `backward` replays
the records in reverse and fills in `.grad` on every parameter that asked
for it.  Outside a tape the same ops are plain numpy.
"""

import numpy as np

from bcfusion import Tape, Tensor, backward, finite_diff_gradcheck
from bcfusion import tensor as T

# d/dx of x^2 at x = 3: a squared error against 0 is one tape record
x = Tensor([3.0], requires_grad=True)
with Tape() as tape:
    y = T.weighted_loss([x], [0.0], [1.0], "mse")
backward(y, tape)
print("d(x^2)/dx at 3:", x.grad)                 # -> [6.]

# gradients flow through linear (with its ReLU) and layer norm as through every op;
# the training objective mixes per-head losses in one record
rng = np.random.default_rng(0)
w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
b = Tensor(np.zeros(3), requires_grad=True)
gain, bias = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
v = Tensor(rng.normal(size=(5, 4)))
r = Tensor(rng.normal(size=(5, 3)))
with Tape() as tape:
    h = T.layer_norm(T.linear(v, w, b, relu=True), r, gain, bias)
    out = T.weighted_loss([h], rng.normal(size=(5, 3)), [1.0], "mse")
backward(out, tape)
print("grad shape:", w.grad.shape, "grad norm: %.3e" % np.linalg.norm(w.grad))

# layer norm centres every row, so with unit gain and zero bias each row of
# its output sums to 0 whatever the input, and a gradient that is the same
# in every column reaches no input: here the squared error against the
# output minus 1, whose residual is 1 everywhere
z = Tensor([[0.3, -1.2, 2.0]], requires_grad=True)
with Tape() as tape:
    n = T.layer_norm(z, Tensor(np.zeros((1, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    s = T.weighted_loss([n], n.data - 1.0, [1.0], "mse")
backward(s, tape)
print("layer-norm gradient under a uniform pull:", z.grad)   # -> ~[[0, 0, 0]]

# every gradient in this library is checked against central differences;
# the same tool is available for your own compositions
p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
labels = (rng.random((3, 3)) < 0.5).astype(float)
report = finite_diff_gradcheck(
    lambda: T.weighted_loss([T.sigmoid(p)], labels, [1.0], "bce"), [("p", p)])
print("gradcheck pass:", report.passed, " max rel err: %.2e" % report.max_rel_err)
