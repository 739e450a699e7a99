#!/usr/bin/env python3
"""Tape-based reverse-mode differentiation in a few strokes.

Ops executed inside a `with Tape()` block are recorded; `backward` replays
the records in reverse and fills in `.grad` on every parameter that asked
for it.  Outside a tape the same ops are plain numpy.
"""

import numpy as np

from bcfusion import Tape, Tensor, backward, finite_diff_gradcheck
from bcfusion import tensor as T

# d/dx of x^2 at x = 3
x = Tensor(3.0, requires_grad=True)
with Tape() as tape:
    y = T.mul(x, x)
backward(y, tape)
print("d(x^2)/dx at 3:", x.grad)                 # -> 6.0

# gradients flow through matmul, softmax, linear (with its ReLU), layer norm, ...
rng = np.random.default_rng(0)
w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
v = Tensor(rng.normal(size=(5, 4)))
r = Tensor(rng.normal(size=(5, 3)))
with Tape() as tape:
    out = T.tmean(T.mul(T.softmax(T.matmul(v, w)), r))
backward(out, tape)
print("grad shape:", w.grad.shape, "grad norm: %.3e" % np.linalg.norm(w.grad))

# softmax of a constant-shifted row is unchanged, so the gradient of its sum
# is identically zero
z = Tensor([0.3, -1.2, 2.0], requires_grad=True)
with Tape() as tape:
    s = T.tsum(T.softmax(z))
backward(s, tape)
print("softmax-sum gradient:", z.grad)           # -> ~[0, 0, 0]

# every gradient in this library is checked against central differences;
# the same tool is available for your own compositions
p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
r = Tensor(rng.normal(size=(3, 3)))
report = finite_diff_gradcheck(lambda: T.tsum(T.mul(T.sigmoid(p), r)), [("p", p)])
print("gradcheck pass:", report.passed, " max rel err: %.2e" % report.max_rel_err)
