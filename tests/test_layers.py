"""Attention, positional encoding, transformer layer, and pooling contracts."""

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.gradcheck import finite_diff_gradcheck
from bcfusion.layers import Linear, TransformerLayer, sinusoidal_positional_encoding
from bcfusion.tensor import ShapeError, Tape, Tensor, backward
from oracles import attention_core, sdpa_reference, squared_error


def single_head_attention(q, k, v):
    """One sequence, one head: ``tensor.attention`` on plain 2-D arrays q, k and v."""
    return attention_core(q, k, v, 1, 1)


class TestSingleHeadAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(4, 3))
        k = rng.normal(size=(1, 3))
        v = rng.normal(size=(1, 5))
        np.testing.assert_allclose(single_head_attention(q, k, v), np.tile(v, (4, 1)),
                                   atol=1e-15)

    def test_orthogonal_queries_give_mean_of_values(self):
        # zero queries score every key equally -> uniform attention
        k = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        v = np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        out = single_head_attention(np.zeros((2, 2)), k, v)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-15)

    def test_matches_two_step_reference(self):
        rng = np.random.default_rng(1)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
        np.testing.assert_allclose(single_head_attention(q, k, v), sdpa_reference(q, k, v),
                                   rtol=0, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        # identity values return the attention matrix itself
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q, k = rng.normal(size=(4, 6)), rng.normal(size=(7, 6))
            attn = single_head_attention(q, k, np.eye(7))
            np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-9)


class TestMultiHeadAttention:
    def test_single_head_identity_projections_equal_sdpa(self):
        rng = np.random.default_rng(2)
        d = 5
        eye = Tensor(np.eye(d))
        x = rng.normal(size=(6, d))
        out = T.attention(Tensor(x), Tensor(x), eye, eye, eye, eye, 1, 1).data
        np.testing.assert_allclose(out, sdpa_reference(x, x, x), rtol=0, atol=1e-12)

    def test_two_heads_with_block_projections_match_independent_sdpa(self):
        # block-diagonal projections confine each head to its own half of the
        # features, so the pre-output concat must equal two separate attentions
        rng = np.random.default_rng(3)
        d, h = 6, 2
        eye = Tensor(np.eye(d))
        x = rng.normal(size=(4, d))
        out = T.attention(Tensor(x), Tensor(x), eye, eye, eye, eye, h, 1).data
        lo, hi = x[:, :3], x[:, 3:]
        ref = np.hstack([sdpa_reference(lo, lo, lo), sdpa_reference(hi, hi, hi)])
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    def test_cross_attention_output_shape(self):
        rng = np.random.default_rng(4)
        layer = TransformerLayer(8, 2, rng)
        out = T.attention(Tensor(rng.normal(size=(2, 8))), Tensor(rng.normal(size=(5, 8))),
                          layer.wq, layer.wk, layer.wv, layer.wo, layer.n_heads, 1)
        assert out.shape == (2, 8)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ShapeError):
            TransformerLayer(7, 2, np.random.default_rng(0))

    def test_rejects_width_mismatch(self):
        rng = np.random.default_rng(5)
        layer = TransformerLayer(4, 2, rng)
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros((3, 4))), x_q=Tensor(np.zeros((3, 5))))


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
        a = layer.forward(x).data
        b = layer.forward(x).data
        np.testing.assert_array_equal(a, b)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        layer = TransformerLayer(6, 2, rng)
        x = rng.normal(size=(5, 6))
        perm = rng.permutation(5)
        out = layer.forward(Tensor(x)).data
        out_perm = layer.forward(Tensor(x[perm])).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)

    def test_dropout_changes_training_output(self):
        rng = np.random.default_rng(8)
        layer = TransformerLayer(6, 2, rng, dropout_rate=0.5)
        x = Tensor(rng.normal(size=(4, 6)))
        eval_out = layer.forward(x).data
        keep = np.random.default_rng(0).random((2, 4, 6)) >= 0.5
        train_out = layer.forward(x, keep=keep).data
        assert not np.allclose(eval_out, train_out)

    def test_gradcheck_toy_dims(self):
        rng = np.random.default_rng(10)
        layer = TransformerLayer(8, 4, rng, dropout_rate=0.0)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        target = rng.normal(size=(4, 8))

        def f():
            return squared_error(layer.forward(x), target)

        params = [("x", x)] + list(layer.named_parameters())
        report = finite_diff_gradcheck(f, params, h=1e-5, tol=1e-4)
        assert report.passed, report.per_param

    @pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
    def test_training_forward_writes_five_records(self, cross):
        # attention from the inputs to the output projection, two layer norms
        # (each with its dropout keep-mask) and the two feed-forward maps
        rng = np.random.default_rng(14)
        layer = TransformerLayer(6, 2, rng, dropout_rate=0.3)
        x, x_q = (Tensor(rng.normal(size=(2 * 5, 6)), requires_grad=True) for _ in range(2))
        keep = rng.random((2, 2 * 5, 6)) >= 0.3
        with Tape() as tape:
            layer.forward(x, x_q if cross else None, batch=2, keep=keep)
        assert len(tape.records) == 5

    def test_rejects_wrong_width(self):
        layer = TransformerLayer(6, 2, np.random.default_rng(11))
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros((3, 5))))

    def test_rejects_query_rows_other_than_the_inputs(self):
        # the query stream supplies the rows of the residual sum
        layer = TransformerLayer(6, 2, np.random.default_rng(11))
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros((4, 6))), x_q=Tensor(np.zeros((2, 6))), batch=2)


def record_arrays(record):
    """Every array a tape record holds: its inputs, its output and what its rule closes over."""
    inputs, out, rule = record
    cells = [c.cell_contents for c in rule.__closure__ or ()]
    held = [t.data for t in (*inputs, out)] + [c.data if isinstance(c, Tensor) else c
                                               for c in cells]
    return [a for a in held if isinstance(a, np.ndarray)]


class TestFusedDropout:
    """Training-mode dropout is a boolean keep-mask inside the residual layer_norm,
    bit for bit the product with a float mask that it replaced."""

    RATE = 0.3

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_product_with_float_mask_bitwise(self, dtype):
        rng = np.random.default_rng(12)
        shape = (6, 8)
        keep = rng.random(shape) >= self.RATE
        assert keep.any() and not keep.all()
        values = {"x": rng.normal(size=shape), "a": rng.normal(size=shape),
                  "gain": rng.normal(size=8), "bias": rng.normal(size=8)}
        target = rng.normal(size=shape)

        def run(fused):
            ts = {n: Tensor(v.astype(dtype), requires_grad=True) for n, v in values.items()}
            with Tape() as tape:
                if fused:
                    out = T.layer_norm(ts["x"], ts["a"], ts["gain"], ts["bias"], keep, self.RATE)
                else:
                    # the product with the float mask and its backward rule, g times the mask
                    mask = (keep / (1.0 - self.RATE)).astype(dtype)
                    dropped = Tensor(ts["a"].data * mask, requires_grad=True)
                    out = T.layer_norm(ts["x"], dropped, ts["gain"], ts["bias"])
                loss = squared_error(out, target)
            backward(loss, tape)
            if not fused:
                ts["a"].grad = dropped.grad * mask
            return [out.data] + [ts[n].grad for n in values]

        for old, new in zip(run(fused=False), run(fused=True)):
            assert new.dtype == old.dtype == dtype
            np.testing.assert_array_equal(new, old)
            assert new.tobytes() == old.tobytes()  # signed zeros of dropped entries too

    def test_training_adds_no_record_and_keeps_bool_masks(self):
        rng = np.random.default_rng(13)
        layer = TransformerLayer(6, 2, rng, dropout_rate=self.RATE)
        x = Tensor(rng.normal(size=(2 * 5, 6)), requires_grad=True)
        keep = rng.random((2, 2 * 5, 6)) >= self.RATE
        records = {}
        for training in (False, True):
            with Tape() as tape:
                layer.forward(x, batch=2, keep=keep if training else None)
            records[training] = tape.records
        assert len(records[True]) == len(records[False])
        held = [a for record in records[True] for a in record_arrays(record)]
        masks = [a for a in held if a.dtype == np.bool_ and a.shape == x.shape]
        assert len(masks) == 2
        scale = np.float64(1.0) / (1.0 - self.RATE)
        assert not any(a.dtype.kind == "f" and a.shape == x.shape and np.isin(a, (0.0, scale)).all()
                       for a in held)


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
