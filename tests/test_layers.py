"""Attention, positional encoding, transformer layer, and pooling contracts."""

import math

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.gradcheck import finite_diff_gradcheck
from bcfusion.layers import (Linear, MultiHeadAttention, TransformerLayer,
                             scaled_dot_product_attention, sinusoidal_positional_encoding)
from bcfusion.tensor import ShapeError, Tensor


def sdpa_reference(q, k, v):
    """Explicit softmax-then-weighted-sum oracle."""
    scores = q @ k.T / math.sqrt(q.shape[1])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    return attn @ v


class TestScaledDotProductAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(4, 3))
        k = rng.normal(size=(1, 3))
        v = rng.normal(size=(1, 5))
        out = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(out, np.tile(v, (4, 1)), atol=1e-15)

    def test_orthogonal_queries_give_mean_of_values(self):
        # zero queries score every key equally -> uniform attention
        k = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        v = np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        out = scaled_dot_product_attention(Tensor(np.zeros((2, 2))), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-15)

    def test_matches_two_step_reference(self):
        rng = np.random.default_rng(1)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
        out = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(out, sdpa_reference(q, k, v), rtol=0, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q, k = rng.normal(size=(4, 6)), rng.normal(size=(7, 6))
            attn = T.softmax(Tensor(q @ k.T / math.sqrt(6))).data
            np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-9)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            scaled_dot_product_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                                         Tensor(np.zeros((2, 2))))
        with pytest.raises(ShapeError):
            scaled_dot_product_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))),
                                         Tensor(np.zeros((5, 2))))


class TestMultiHeadAttention:
    def test_single_head_identity_projections_equal_sdpa(self):
        rng = np.random.default_rng(2)
        d = 5
        mha = MultiHeadAttention(d, 1, rng)
        for w in (mha.wq, mha.wk, mha.wv, mha.wo):
            w.data = np.eye(d)
        x = rng.normal(size=(6, d))
        out = mha(Tensor(x), Tensor(x)).data
        ref = scaled_dot_product_attention(Tensor(x), Tensor(x), Tensor(x)).data
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    def test_two_heads_with_block_projections_match_independent_sdpa(self):
        # block-diagonal projections confine each head to its own half of the
        # features, so the pre-output concat must equal two separate attentions
        rng = np.random.default_rng(3)
        d, h = 6, 2
        mha = MultiHeadAttention(d, h, rng)
        for w in (mha.wq, mha.wk, mha.wv):
            w.data = np.eye(d)
        mha.wo.data = np.eye(d)
        x = rng.normal(size=(4, d))
        out = mha(Tensor(x), Tensor(x)).data
        lo, hi = x[:, :3], x[:, 3:]
        ref = np.hstack([sdpa_reference(lo, lo, lo), sdpa_reference(hi, hi, hi)])
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    def test_cross_attention_output_shape(self):
        rng = np.random.default_rng(4)
        mha = MultiHeadAttention(8, 2, rng)
        out = mha(Tensor(rng.normal(size=(2, 8))), Tensor(rng.normal(size=(5, 8))))
        assert out.shape == (2, 8)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ShapeError):
            MultiHeadAttention(7, 2, np.random.default_rng(0))

    def test_rejects_width_mismatch(self):
        rng = np.random.default_rng(5)
        mha = MultiHeadAttention(4, 2, rng)
        with pytest.raises(ShapeError):
            mha(Tensor(np.zeros((3, 5))), Tensor(np.zeros((3, 4))))


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = sinusoidal_positional_encoding(4, 8).data
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-15)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-15)

    def test_frequency_index_zero_is_unit_wavelength(self):
        pe = sinusoidal_positional_encoding(10, 6).data
        pos = np.arange(10)
        np.testing.assert_allclose(pe[:, 0], np.sin(pos), atol=1e-15)
        np.testing.assert_allclose(pe[:, 1], np.cos(pos), atol=1e-15)

    def test_bounded(self):
        pe = sinusoidal_positional_encoding(1000, 64).data
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_rejects_odd_width(self):
        with pytest.raises(ValueError):
            sinusoidal_positional_encoding(4, 7)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sinusoidal_positional_encoding(0, 4)


class TestTransformerLayer:
    def test_deterministic_without_dropout(self):
        rng = np.random.default_rng(6)
        layer = TransformerLayer(6, 2, rng, dropout_rate=0.5)
        x = Tensor(rng.normal(size=(5, 6)))
        a = layer.forward(x, training=False).data
        b = layer.forward(x, training=False).data
        np.testing.assert_array_equal(a, b)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        layer = TransformerLayer(6, 2, rng)
        x = rng.normal(size=(5, 6))
        perm = rng.permutation(5)
        out = layer.forward(Tensor(x), training=False).data
        out_perm = layer.forward(Tensor(x[perm]), training=False).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)

    def test_dropout_changes_training_output(self):
        rng = np.random.default_rng(8)
        layer = TransformerLayer(6, 2, rng, dropout_rate=0.5)
        x = Tensor(rng.normal(size=(4, 6)))
        eval_out = layer.forward(x, training=False).data
        noise = np.random.default_rng(0).random((1, 2, 4, 6))
        train_out = layer.forward(x, training=True, noise=noise).data
        assert not np.allclose(eval_out, train_out)

    def test_training_dropout_requires_rng(self):
        rng = np.random.default_rng(9)
        layer = TransformerLayer(4, 2, rng, dropout_rate=0.1)
        with pytest.raises(ValueError):
            layer.forward(Tensor(np.zeros((2, 4))), training=True)

    def test_gradcheck_toy_dims(self):
        rng = np.random.default_rng(10)
        layer = TransformerLayer(8, 4, rng, dropout_rate=0.0)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        r = Tensor(rng.normal(size=(4, 8)))

        def f():
            return T.tsum(T.mul(layer.forward(x, training=False), r))

        params = [("x", x)] + list(layer.named_parameters())
        report = finite_diff_gradcheck(f, params, h=1e-5, tol=1e-4)
        assert report.passed, report.per_param

    def test_rejects_wrong_width(self):
        layer = TransformerLayer(6, 2, np.random.default_rng(11))
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros((3, 5))))


class TestMeanPool:
    def test_constant_sequence(self):
        v = np.array([2.0, -1.0, 3.0])
        out = T.row_mean(Tensor(np.tile(v, (6, 1))), 1).data[0]
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_hand_example(self):
        out = T.row_mean(Tensor([[1.0, 2.0], [3.0, 4.0]]), 1).data[0]
        np.testing.assert_array_equal(out, [2.0, 3.0])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(7, 4))
        naive = np.zeros(4)
        for row in x:
            naive += row
        naive /= 7
        np.testing.assert_allclose(T.row_mean(Tensor(x), 1).data[0], naive, rtol=0, atol=1e-12)

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            T.row_mean(Tensor(np.zeros((0, 3))), 1)


class TestLinear:
    def test_parameter_shapes_and_count(self):
        lin = Linear(2, 3, np.random.default_rng(13))
        assert lin.w.shape == (2, 3) and lin.b.shape == (3,)
        assert sum(p.size for _, p in lin.named_parameters()) == 9
