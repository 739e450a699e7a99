"""Tensor op semantics, tape behavior, and backward-pass contracts."""

import re

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.config import ConfigError, TrainConfig
from bcfusion.layers import scaled_dot_product_attention
from bcfusion.tensor import Tape, Tensor, ShapeError, backward


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference, independent of numpy's matmul path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_projector_selects_rows(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(T.matmul(p, b).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data,
                                   naive_matmul(a, b), rtol=0, atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_associativity(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a, b, c = rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=(5, 2))
            left = T.matmul(T.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
            right = T.matmul(Tensor(a), T.matmul(Tensor(b), Tensor(c))).data
            np.testing.assert_allclose(left, right, rtol=0, atol=1e-8)

    def test_rejects_vector_operand(self):
        with pytest.raises(ShapeError, match="2-D @ 2-D"):
            T.matmul(Tensor(np.ones(4)), Tensor(np.ones((4, 3))))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = T.softmax(Tensor([1000.0, 1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_matches_high_precision_reference(self):
        # frozen from an extended-precision exp/sum evaluation of softmax([1, 2, 3])
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        ref = np.exp(np.array([1, 2, 3], dtype=np.longdouble))
        ref = (ref / ref.sum()).astype(np.float64)
        np.testing.assert_allclose(ref, expected, rtol=0, atol=1e-16)
        np.testing.assert_allclose(T.softmax(Tensor([1.0, 2.0, 3.0])).data, expected,
                                   rtol=0, atol=1e-12)

    def test_rows_sum_to_one(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            out = T.softmax(Tensor(rng.normal(size=(6, 9)) * 10)).data
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 7))
            c = rng.normal() * 100
            np.testing.assert_allclose(T.softmax(Tensor(x)).data,
                                       T.softmax(Tensor(x + c)).data, atol=1e-9)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        out = T.layer_norm(Tensor([[2.0, 2.0, 2.0]]), Tensor([[3.0, 3.0, 3.0]]),
                           Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_already_normalized(self):
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.zeros((1, 2))), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_normalizes_the_residual_sum(self):
        rng = np.random.default_rng(1)
        x, r = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        gain, bias = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
        s = x + r
        expected = (s - s.mean(axis=-1, keepdims=True)) / np.sqrt(s.var(axis=-1, keepdims=True)
                                                                  + 1e-5) * gain.data + bias.data
        np.testing.assert_allclose(T.layer_norm(Tensor(x), Tensor(r), gain, bias).data,
                                   expected, rtol=0, atol=1e-12)
        with pytest.raises(ShapeError, match="residual"):
            T.layer_norm(Tensor(x), Tensor(r[:2]), gain, bias)

    def test_output_moments(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 64)) * 3 + 7
        eps = 1e-5
        out = T.layer_norm(Tensor(x), Tensor(np.zeros_like(x)), Tensor(np.ones(64)),
                           Tensor(np.zeros(64)), eps=eps).data
        assert abs(out.mean()) < 1e-10
        # normalization divides by sqrt(var + eps), shrinking the output variance
        target = x.var() / (x.var() + eps)
        assert abs(out.var() - target) < 1e-6
        assert abs(out.var() - 1.0) < 2e-6

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            T.layer_norm(Tensor([[1.0]]), Tensor([[0.0]]), Tensor([1.0]), Tensor([0.0]), eps=0.0)


class TestLinear:
    def test_linear_bias_broadcast(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        w = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            out = T.tsum(T.linear(x, w, b))
        backward(out, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))
        np.testing.assert_array_equal(w.grad, np.full((2, 2), 3.0))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_relu_zeroes_negative_pre_activations_and_their_gradient(self):
        x = Tensor([[1.0, -2.0], [-0.5, 3.0]], requires_grad=True)
        w, b = Tensor(np.eye(2)), Tensor([0.25, 0.0])
        with Tape() as tape:
            h = T.linear(x, w, b, relu=True)
            out = T.tsum(h)
        backward(out, tape)
        np.testing.assert_array_equal(h.data, [[1.25, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_one_tape_record(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        with Tape() as tape:
            T.linear(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), relu=True)
        assert len(tape.records) == 1

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((4,), (4, 3), (3,)), ((2, 4), (5, 3), (3,)), ((2, 4), (4, 3), (4,)),
        ((2, 4), (4, 3), (2, 3)),
    ], ids=["vector_input", "inner_mismatch", "bias_width", "bias_not_a_row"])
    def test_shape_errors_name_all_shapes(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError, match=re.escape(f"{x_shape} @ {w_shape} + {b_shape}")):
            T.linear(*(Tensor(np.zeros(s)) for s in (x_shape, w_shape, b_shape)))


class TestElementwise:
    def test_add_rejects_mismatched_shapes(self):
        for b_shape in ((3, 2), (3,)):  # a bias row enters through linear, not add
            with pytest.raises(ShapeError):
                T.add(Tensor(np.ones((2, 3))), Tensor(np.ones(b_shape)))

    def test_clip_blocks_gradient_outside_range(self):
        x = Tensor([0.5, 2.0, -1.0], requires_grad=True)
        with Tape() as tape:
            out = T.tsum(T.clip(x, 0.0, 1.0))
        backward(out, tape)
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    def test_sigmoid_extreme_inputs_finite(self):
        out = T.sigmoid(Tensor([-1000.0, 0.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_concat_slice_round_trip(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
        joined = T.concat([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(T.slice_cols(joined, 0, 3).data, a)
        np.testing.assert_array_equal(T.slice_cols(joined, 3, 8).data, b)

    def test_concat_takes_2d_parts_with_equal_rows(self):
        for parts in ([np.ones(2), np.ones(3)], [np.ones((2, 3)), np.ones((3, 3))]):
            with pytest.raises(ShapeError, match="equal row counts"):
                T.concat([Tensor(p) for p in parts])


class TestBatchedOps:
    @pytest.mark.parametrize("a_shape, b_shape, transpose_b", [
        ((4,), (4, 3), False), ((2, 4), (3, 4, 5), False), ((2, 3, 4), (3, 4, 5), False),
        ((3, 4), (5, 4), False), ((3, 4), (5, 3), True),
    ], ids=["vector_operand", "2d_at_3d", "unequal_stacks", "inner_mismatch",
            "inner_mismatch_transpose_b"])
    def test_matmul_shape_errors_name_both_shapes(self, a_shape, b_shape, transpose_b):
        pattern = r"\(" + ", ".join(map(str, a_shape)) + ".*" + ", ".join(map(str, b_shape))
        with pytest.raises(ShapeError, match=pattern):
            T.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)), transpose_b=transpose_b)

    def test_heads_are_column_blocks_of_each_sequence(self):
        # 2 sequences, 3 heads of width 2, 4 query and 5 key/value steps each:
        # head h of sequence b attends with column block h of that sequence's rows
        rng = np.random.default_rng(0)
        q, k, v = (rng.normal(size=(2 * t, 3 * 2)) for t in (4, 5, 5))
        out = T.attention(Tensor(q), Tensor(k), Tensor(v), 3, 2).data
        assert out.shape == (2 * 4, 3 * 2)
        for b in range(2):
            for h in range(3):
                cols = slice(2 * h, 2 * h + 2)
                ref = scaled_dot_product_attention(
                    Tensor(q[b * 4:(b + 1) * 4, cols]), Tensor(k[b * 5:(b + 1) * 5, cols]),
                    Tensor(v[b * 5:(b + 1) * 5, cols])).data
                np.testing.assert_allclose(out[b * 4:(b + 1) * 4, cols], ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("q_shape, k_shape, v_shape, pattern", [
        ((8, 6), (10, 9), (10, 6), "q/k widths differ"),
        ((8, 6), (10, 6), (8, 6), "k/v rows differ"),
        ((7, 6), (10, 6), (10, 6), r"q \(7, 6\) is not 2 sequences"),
        ((8, 5), (10, 5), (10, 5), "is not 2 sequences of 3 equal heads"),
    ], ids=["qk_widths", "kv_rows", "rows_not_batch_multiple", "width_not_head_multiple"])
    def test_attention_shape_errors(self, q_shape, k_shape, v_shape, pattern):
        with pytest.raises(ShapeError, match=pattern):
            T.attention(*(Tensor(np.zeros(s)) for s in (q_shape, k_shape, v_shape)), 3, 2)

    def test_row_mean_per_block(self):
        x = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(T.row_mean(Tensor(x), 2).data,
                                      [x[:3].mean(axis=0), x[3:].mean(axis=0)])
        with pytest.raises(ShapeError):
            T.row_mean(Tensor(x), 4)


class TestBackward:
    def test_square_derivative(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        backward(y, tape)
        np.testing.assert_allclose(x.grad, 6.0, atol=1e-15)

    def test_softmax_sum_has_zero_gradient(self):
        x = Tensor([0.3, -1.2, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.tsum(T.softmax(x))
        backward(y, tape)
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    def test_requires_scalar_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_fanout_gradients_accumulate_additively(self):
        # gradient of f(x) + g(x) equals grad f + grad g computed separately
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=5)

        def path_a(x):
            return T.tsum(T.mul(x, x))

        def path_b(x):
            return T.tsum(T.mul(x, 3.0))

        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            y = T.add(path_a(x), path_b(x))
        backward(y, tape)
        combined = x.grad.copy()

        grads = []
        for path in (path_a, path_b):
            xi = Tensor(x0.copy(), requires_grad=True)
            with Tape() as tape:
                y = path(xi)
            backward(y, tape)
            grads.append(xi.grad)
        np.testing.assert_allclose(combined, grads[0] + grads[1], atol=1e-12)

    def test_untouched_branch_is_skipped(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            T.mul(z, z)  # dead op: never reaches the output
            y = T.tsum(x)
        backward(y, tape)
        assert z.grad is None
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_first_write_does_not_alias_another_gradient(self):
        # add hands one output gradient to both operands; each must get its own array
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = T.tsum(T.add(a, b))
        backward(y, tape)
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        a.grad[0] = 7.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_operand_used_twice_accumulates_both_paths(self):
        x0 = np.array([0.5, -2.0, 3.0])
        for op, expected in ((T.add, np.full(3, 2.0)), (T.mul, 2.0 * x0)):
            x = Tensor(x0.copy(), requires_grad=True)
            with Tape() as tape:
                y = T.tsum(op(x, x))
            backward(y, tape)
            np.testing.assert_array_equal(x.grad, expected, err_msg=op.__name__)

    def test_only_leaves_keep_gradients(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            h = T.linear(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), relu=True)
            y = T.tsum(T.mul(h, h))
        backward(y, tape)
        assert all(out.grad is None for _, out, _ in tape.records)
        np.testing.assert_array_equal(x.grad, np.tile(4.0 * np.array([[3.0], [12.0]]), (1, 3)))


class TestTape:
    def test_records_in_topological_order(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            a = T.mul(x, 2.0)
            b = T.add(a, x)
            T.tsum(b)
        produced_at = {}
        for idx, (inputs, out, _) in enumerate(tape.records):
            for t in inputs:
                if id(t) in produced_at:
                    assert produced_at[id(t)] < idx
            produced_at[id(out)] = idx

    def test_backward_visits_each_op_once_in_reverse(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.tsum(T.mul(T.add(x, 1.0), x))
        visited = []
        original = list(tape.records)

        def spy(fn, i):
            def wrapped(g):
                visited.append(i)
                fn(g)
            return wrapped

        tape.records = [(inputs, out, spy(fn, i))
                        for i, (inputs, out, fn) in enumerate(original)]
        backward(y, tape)
        assert visited == sorted(visited, reverse=True)
        assert len(visited) == len(set(visited)) == len(original)

    def test_no_tape_means_no_gradients(self):
        x = Tensor([1.0], requires_grad=True)
        out = T.mul(x, x)
        assert out.requires_grad is False

    def test_independent_tapes_nest(self):
        x = Tensor(2.0, requires_grad=True)
        with Tape() as outer:
            a = T.mul(x, x)
            with Tape() as inner:
                b = T.mul(x, 3.0)
            backward(b, inner)
        inner_grad = x.grad.copy()
        x.zero_grad()
        backward(a, outer)
        np.testing.assert_allclose(inner_grad, 3.0)
        np.testing.assert_allclose(x.grad, 4.0)


class TestDtype:
    def test_float32_selectable(self):
        x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]], dtype=np.float32), requires_grad=True)
        gain = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            h = T.layer_norm(T.add(T.matmul(x, x, transpose_b=True), 1.0), x, gain, bias)
            out = T.tmean(T.mul(T.sigmoid(T.softmax(T.linear(h, x, bias, relu=True))), 0.5))
        backward(out, tape)
        assert out.data.dtype == np.float32
        assert {t.grad.dtype for t in (x, gain, bias)} == {np.dtype(np.float32)}

    def test_non_float_data_becomes_float64(self):
        assert Tensor(1.0).data.dtype == np.float64
        assert Tensor([1, 2]).data.dtype == np.float64
        assert Tensor(np.array([True])).data.dtype == np.float64

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ConfigError, match="float16"):
            TrainConfig(dtype="float16").validate()


class TestFiniteness:
    def test_ops_stay_finite_on_finite_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=(4, 6)) * 10.0 ** rng.integers(0, 4)
            for out in (T.softmax(Tensor(x)), T.sigmoid(Tensor(x)),
                        T.linear(Tensor(x), Tensor(np.eye(6)), Tensor(np.zeros(6)), relu=True),
                        T.layer_norm(Tensor(x), Tensor(x), Tensor(np.ones(6)),
                                     Tensor(np.zeros(6)))):
                assert np.all(np.isfinite(out.data))
