"""Finite-difference verification of every differentiable op in isolation."""

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.gradcheck import finite_diff_gradcheck
from bcfusion.tensor import Tensor
from oracles import identity_projections, total


def check(make_scalar, params, tol=1e-4):
    report = finite_diff_gradcheck(make_scalar, params, h=1e-5, tol=tol)
    assert report.passed, (report.per_param, report.failures)
    return report


def random_projection(rng, shape):
    """Fixed random weighting that turns any op output into a scalar."""
    r = Tensor(rng.normal(size=shape))
    return lambda out: total(T.mul(out, r))


class TestOpGradients:
    """Each op's reverse rule matches central differences at random small shapes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm(self, seed):
        # the gradient reaches both summands of the residual
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        r = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        gain = Tensor(rng.normal(size=6), requires_grad=True)
        bias = Tensor(rng.normal(size=6), requires_grad=True)
        proj = random_projection(rng, (4, 6))
        params = [("x", x), ("r", r), ("gain", gain), ("bias", bias)]
        check(lambda: proj(T.layer_norm(x, r, gain, bias)), params)
        # with the residual dropped by a keep-mask that keeps some entries and drops others
        keep = rng.random((4, 6)) >= 0.5
        assert keep.any() and not keep.all()
        check(lambda: proj(T.layer_norm(x, r, gain, bias, keep, 0.5)), params)

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
            # x - (-y), in the losses' forms: a negation is a product with -1 and a
            # difference a sum with the negated operand; all values stay strictly
            # inside the clip range, so the clip is differentiable
            return total(T.clip(T.mul(T.add(x, T.mul(T.mul(y, -1.0), -1.0)), 0.25), -1.0, 1.0))

        check(f, [("x", x), ("y", y)])

    @pytest.mark.parametrize("t_q, t_k", [(4, 4), (3, 5)], ids=["self", "cross"])
    @pytest.mark.parametrize("seed", range(3))
    def test_attention(self, seed, t_q, t_k):
        # 2 sequences, 3 heads of width 2; "cross" has fewer query than key steps
        rng = np.random.default_rng(seed)
        x_q, x_kv = (Tensor(rng.normal(size=(2 * t, 6)), requires_grad=True) for t in (t_q, t_k))
        weights = [Tensor(rng.normal(size=(6, 6)), requires_grad=True) for _ in range(4)]
        proj = random_projection(rng, (2 * t_q, 6))
        check(lambda: proj(T.attention(x_q, x_kv, *weights, 3, 2)),
              [("x_q", x_q), ("x_kv", x_kv)] + list(zip(("wq", "wk", "wv", "wo"), weights)))

    @pytest.mark.parametrize("seed", range(5))
    def test_attention_weights(self, seed):
        # the softmax inside attention on its own: 3 sequences, each one width-1
        # query against 5 width-1 keys, so the scores are q·k; identity
        # projections and values return the (3, 5) weight matrix itself
        rng = np.random.default_rng(seed)
        x_q, x_kv, *weights = (Tensor(a) for a in identity_projections(
            rng.normal(size=(3, 1)), rng.normal(size=(3 * 5, 1)), np.tile(np.eye(5), (3, 1))))
        x_q.requires_grad = x_kv.requires_grad = True
        proj = random_projection(rng, (3, 5))
        check(lambda: proj(T.attention(x_q, x_kv, *weights, 1, 3)), [("x_q", x_q), ("x_kv", x_kv)])

    @pytest.mark.parametrize("seed", range(3))
    def test_row_mean(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3 * 4, 5)), requires_grad=True)
        proj = random_projection(rng, (3, 5))
        check(lambda: proj(T.row_mean(x, 3)), [("x", x)])


class TestGradcheckTool:
    def test_linear_function_is_exact(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        report = finite_diff_gradcheck(lambda: total(T.mul(x, 5.0)), [("x", x)], h=1e-5)
        assert report.max_rel_err < 1e-9

    def test_cubic_scalar(self):
        x = Tensor(1.0, requires_grad=True)
        report = finite_diff_gradcheck(lambda: T.mul(T.mul(x, x), x), [("x", x)], h=1e-5)
        assert report.max_rel_err < 1e-9

    def test_nonfinite_probe_is_reported_with_location(self):
        x = Tensor([0.0], requires_grad=True)  # log(0 - h) is NaN
        with np.errstate(invalid="ignore"):
            report = finite_diff_gradcheck(lambda: total(T.log(T.add(x, 1.0))),
                                           [("x", x)], h=2.0)
        assert not report.passed
        assert any("x[0]" in msg for msg in report.failures)

    def test_rejects_nonpositive_step(self):
        x = Tensor(1.0, requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_gradcheck(lambda: T.mul(x, x), [("x", x)], h=0.0)
