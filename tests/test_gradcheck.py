"""Finite-difference verification of every differentiable op in isolation."""

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.gradcheck import finite_diff_gradcheck
from bcfusion.tensor import Tensor
from oracles import identity_projections, squared_error, weighted_loss_reference


def check(make_scalar, params, tol=1e-4):
    report = finite_diff_gradcheck(make_scalar, params, h=1e-5, tol=tol)
    assert report.passed, (report.per_param, report.failures)
    return report


def random_projection(rng, shape):
    """Squared error against a fixed random target: turns any op output into a scalar
    whose gradient reaches every element."""
    target = rng.normal(size=shape)
    return lambda out: squared_error(out, target)


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
        proj = random_projection(rng, (2, 3))

        def f():
            # x reaches the output by two paths
            return proj(T.add(T.add(x, y), T.add(x, b)))

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
    def test_concat_and_slice(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        proj = random_projection(rng, (3, 2))

        def f():
            joined = T.concat([a, b])
            return proj(T.slice_cols(joined, 1, 3))

        check(f, [("a", a), ("b", b)])

    @pytest.mark.parametrize("kind", ["bce", "mse"])
    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_loss(self, seed, kind):
        # 1 to 4 heads of (3, 2) predictions under unequal weights.  The cross
        # entropy's logits reach ±20, where a confidently wrong head must keep
        # its full gradient; the closed form's gradient must match as well
        rng = np.random.default_rng(seed)
        n_heads = seed % 4 + 1
        weights = list(rng.uniform(0.1, 1.0, size=n_heads))
        if kind == "bce":
            y = rng.integers(0, 2, size=(3, 2)).astype(float)
            arrays = [rng.uniform(-20.0, 20.0, size=(3, 2)) for _ in range(n_heads)]
        else:
            y = rng.normal(size=(3, 2))
            arrays = [rng.normal(size=(3, 2)) for _ in range(n_heads)]
        preds = [Tensor(a, requires_grad=True) for a in arrays]
        check(lambda: T.weighted_loss(preds, y, weights, kind),
              [(f"pred{k}", p) for k, p in enumerate(preds)])
        _, expected = weighted_loss_reference(arrays, y, weights, kind)
        for k, (p, g) in enumerate(zip(preds, expected)):
            np.testing.assert_allclose(p.grad, g, rtol=1e-12, atol=1e-15, err_msg=f"pred{k}")

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
        x = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
        w, b = Tensor(np.full((3, 1), 5.0)), Tensor([0.0])
        report = finite_diff_gradcheck(lambda: T.linear(x, w, b), [("x", x)], h=1e-5)
        assert report.max_rel_err < 1e-9

    def test_cubic_scalar(self):
        # x·x·x as two (1, 1) products, x the weight of both
        x, b = Tensor([[1.0]], requires_grad=True), Tensor([0.0])
        report = finite_diff_gradcheck(lambda: T.linear(T.linear(x, x, b), x, b), [("x", x)],
                                       h=1e-5)
        assert report.max_rel_err < 1e-9

    def test_nonfinite_probe_is_reported_with_location(self):
        x = Tensor([[0.0]], requires_grad=True)  # (0 ± h)·1e308 overflows
        with np.errstate(over="ignore"):
            report = finite_diff_gradcheck(lambda: T.linear(x, Tensor([[1e308]]), Tensor([0.0])),
                                           [("x", x)], h=2.0)
        assert not report.passed
        assert any("x[0]" in msg for msg in report.failures)

    def test_rejects_nonpositive_step(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_gradcheck(lambda: squared_error(x, [0.0]), [("x", x)], h=0.0)
