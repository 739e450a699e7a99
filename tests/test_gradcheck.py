"""Finite-difference verification of every differentiable op in isolation."""

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.gradcheck import finite_diff_gradcheck
from bcfusion.tensor import Tensor


def check(make_scalar, params, tol=1e-4):
    report = finite_diff_gradcheck(make_scalar, params, h=1e-5, tol=tol)
    assert report.passed, (report.per_param, report.failures)
    return report


def random_projection(rng, shape):
    """Fixed random weighting that turns any op output into a scalar."""
    r = Tensor(rng.normal(size=shape))
    return lambda out: T.tsum(T.mul(out, r))


class TestOpGradients:
    """Each op's reverse rule matches central differences at random small shapes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        proj = random_projection(rng, (3, 2))
        check(lambda: proj(T.matmul(a, b)), [("a", a), ("b", b)])

    @pytest.mark.parametrize("seed", range(5))
    def test_transpose(self, seed):
        # the gradient reaching a 2-D operand that matmul reads transposed
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        proj = random_projection(rng, (2, 3))
        check(lambda: proj(T.matmul(a, x, transpose_b=True)), [("a", a), ("x", x)])

    @pytest.mark.parametrize("seed", range(5))
    def test_softmax(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        proj = random_projection(rng, (3, 5))
        check(lambda: proj(T.softmax(x)), [("x", x)])

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm(self, seed):
        # the gradient reaches both summands of the residual
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        r = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        gain = Tensor(rng.normal(size=6), requires_grad=True)
        bias = Tensor(rng.normal(size=6), requires_grad=True)
        proj = random_projection(rng, (4, 6))
        check(lambda: proj(T.layer_norm(x, r, gain, bias)),
              [("x", x), ("r", r), ("gain", gain), ("bias", bias)])

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
    @pytest.mark.parametrize("seed", range(5))
    def test_linear(self, seed, x_grad):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=x_grad)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        proj = random_projection(rng, (3, 2))
        params = [("x", x)] * x_grad + [("w", w), ("b", b)]
        check(lambda: proj(T.linear(x, w, b)), params)

    @pytest.mark.parametrize("seed", range(5))
    def test_elementwise_chain(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def f():
            return T.tmean(T.mul(T.add(T.mul(x, y), b), T.sigmoid(x)))

        check(f, [("x", x), ("y", y), ("b", b)])

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
    @pytest.mark.parametrize("seed", range(5))
    def test_relu_away_from_kink(self, seed, x_grad):
        # linear's ReLU, with about half the units active
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=x_grad)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        # every pre-activation is clear of the non-differentiable point by far more than h
        assert np.abs(x.data @ w.data + b.data).min() > 1e-2
        proj = random_projection(rng, (3, 5))
        params = [("x", x)] * x_grad + [("w", w), ("b", b)]
        check(lambda: proj(T.linear(x, w, b, relu=True)), params)

    @pytest.mark.parametrize("seed", range(5))
    def test_log(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(0.5, 2.0, size=(2, 4)), requires_grad=True)
        proj = random_projection(rng, (2, 4))
        check(lambda: proj(T.log(x)), [("x", x)])

    @pytest.mark.parametrize("seed", range(5))
    def test_concat_and_slice(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        proj = random_projection(rng, (3, 2))

        def f():
            joined = T.concat([a, b])
            return proj(T.slice_cols(joined, 1, 3))

        check(f, [("a", a), ("b", b)])

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_axes(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check(lambda: T.tmean(x), [("x", x)])

    @pytest.mark.parametrize("seed", range(5))
    def test_sub_neg_scale_clip(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-0.8, 0.8, size=(3, 3)), requires_grad=True)
        y = Tensor(rng.uniform(-0.8, 0.8, size=(3, 3)), requires_grad=True)

        def f():
            # all values stay strictly inside the clip range: differentiable
            return T.tsum(T.clip(T.mul(T.sub(x, T.neg(y)), 0.25), -1.0, 1.0))

        check(f, [("x", x), ("y", y)])

    @pytest.mark.parametrize("t_q, t_k", [(4, 4), (3, 5)], ids=["self", "cross"])
    @pytest.mark.parametrize("seed", range(3))
    def test_attention(self, seed, t_q, t_k):
        # 2 sequences, 3 heads of width 2; "cross" has fewer query than key steps
        rng = np.random.default_rng(seed)
        q, k, v = (Tensor(rng.normal(size=(2 * t, 3 * 2)), requires_grad=True)
                   for t in (t_q, t_k, t_k))
        proj = random_projection(rng, (2 * t_q, 3 * 2))
        check(lambda: proj(T.attention(q, k, v, 3, 2)), [("q", q), ("k", k), ("v", v)])

    @pytest.mark.parametrize("seed", range(3))
    def test_row_mean(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3 * 4, 5)), requires_grad=True)
        proj = random_projection(rng, (3, 5))
        check(lambda: proj(T.row_mean(x, 3)), [("x", x)])


class TestGradcheckTool:
    def test_linear_function_is_exact(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        report = finite_diff_gradcheck(lambda: T.tsum(T.mul(x, 5.0)), [("x", x)], h=1e-5)
        assert report.max_rel_err < 1e-9

    def test_cubic_scalar(self):
        x = Tensor(1.0, requires_grad=True)
        report = finite_diff_gradcheck(lambda: T.mul(T.mul(x, x), x), [("x", x)], h=1e-5)
        assert report.max_rel_err < 1e-9

    def test_nonfinite_probe_is_reported_with_location(self):
        x = Tensor([0.0], requires_grad=True)  # log(0 - h) is NaN
        with np.errstate(invalid="ignore"):
            report = finite_diff_gradcheck(lambda: T.tsum(T.log(T.add(x, 1.0))),
                                           [("x", x)], h=2.0)
        assert not report.passed
        assert any("x[0]" in msg for msg in report.failures)

    def test_rejects_nonpositive_step(self):
        x = Tensor(1.0, requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_gradcheck(lambda: T.mul(x, x), [("x", x)], h=0.0)
