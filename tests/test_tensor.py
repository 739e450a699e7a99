"""Tensor op semantics, tape behavior, and backward-pass contracts."""

import math
import re
import weakref

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.config import ConfigError, TrainConfig
from bcfusion.gradcheck import finite_diff_gradcheck
from bcfusion.tensor import Tape, Tensor, ShapeError, backward
from oracles import (attention_core, attention_weights, identity_projections,
                     sdpa_reference, squared_error, sum_of_squares, unit_gradient_loss,
                     weighted_loss_reference)


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


def product(a, b) -> np.ndarray:
    """``a @ b`` through :func:`tensor.linear` with a zero bias."""
    return T.linear(Tensor(a), Tensor(b), Tensor(np.zeros(np.shape(b)[-1]))).data


class TestLinearProduct:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(product(np.eye(2), a), a)

    def test_projector_selects_rows(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(product(p, b), [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        np.testing.assert_allclose(product(a, b), naive_matmul(a, b), rtol=0, atol=1e-12)

    def test_associativity(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a, b, c = rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=(5, 2))
            np.testing.assert_allclose(product(product(a, b), c), product(a, product(b, c)),
                                       rtol=0, atol=1e-8)


class TestAttentionWeights:
    """The softmax inside ``attention``, read off with an identity value matrix."""

    def test_symmetry(self):
        np.testing.assert_allclose(attention_weights([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = attention_weights([[1000.0, 1000.0, 1000.0]])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_large_inputs_do_not_overflow_on_long_rows(self):
        # rows longer than SHORT_ROWS take their max from the rows themselves
        n = T.SHORT_ROWS + 1
        out = attention_weights(np.full((2, n), 1000.0))
        np.testing.assert_allclose(out, 1 / n, rtol=1e-15)

    def test_matches_high_precision_reference(self):
        # frozen from an extended-precision exp/sum evaluation of softmax([1, 2, 3])
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        ref = np.exp(np.array([1, 2, 3], dtype=np.longdouble))
        ref = (ref / ref.sum()).astype(np.float64)
        np.testing.assert_allclose(ref, expected, rtol=0, atol=1e-16)
        np.testing.assert_allclose(attention_weights([[1.0, 2.0, 3.0]]), [expected],
                                   rtol=0, atol=1e-12)

    def test_rows_sum_to_one(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            out = attention_weights(rng.normal(size=(6, 9)) * 10)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 7))
            c = rng.normal() * 100
            np.testing.assert_allclose(attention_weights(x), attention_weights(x + c), atol=1e-9)


# (T_q, T_k) per attention kernel path: score rows that take their max as a
# running maximum over the key columns (short) or row by row (long), for self-
# and cross-attention
ROW_PATHS = {"short_self": (5, 5), "short_cross": (3, 6),
             "long_self": (T.SHORT_ROWS + 2, T.SHORT_ROWS + 2),
             "long_cross": (4, T.SHORT_ROWS + 3)}


def attention_case(rows: str, d_head: int, dtype=np.float64):
    """x_q, x_kv and wq, wk, wv, wo for a kernel path: 2 heads of width ``d_head``;
    2 sequences on short rows, 1 on long ones."""
    t_q, t_k = ROW_PATHS[rows]
    batch = 2 if rows.startswith("short") else 1
    rng = np.random.default_rng([t_q, t_k, d_head])
    d = 2 * d_head
    arrays = [rng.normal(size=(batch * t_q, d)), rng.normal(size=(batch * t_k, d))]
    arrays += [rng.normal(size=(d, d)) for _ in range(4)]
    return [Tensor(a.astype(dtype), requires_grad=True) for a in arrays], batch


KERNEL_PATHS = [(rows, d_head) for rows in ROW_PATHS for d_head in (1, 2)]
KERNEL_IDS = [f"{rows}-d_head{d_head}" for rows, d_head in KERNEL_PATHS]


class TestAttentionKernelPaths:
    """Each head kernel that the operand shapes can select: short and long key
    rows, d_head = 1 and > 1, self- and cross-attention."""

    @pytest.mark.parametrize("rows, d_head", KERNEL_PATHS, ids=KERNEL_IDS)
    def test_gradients_match_finite_differences(self, rows, d_head):
        params, batch = attention_case(rows, d_head)
        target = np.random.default_rng(1).normal(size=(params[0].shape[0], 2 * d_head))
        report = finite_diff_gradcheck(lambda: squared_error(T.attention(*params, 2, batch),
                                                             target),
                                       list(zip(("x_q", "x_kv", "wq", "wk", "wv", "wo"), params)),
                                       h=1e-5, tol=1e-4)
        assert report.passed, (report.per_param, report.failures)

    @pytest.mark.parametrize("rows, d_head", KERNEL_PATHS, ids=KERNEL_IDS)
    def test_matches_projections_and_reference(self, rows, d_head):
        (x_q, x_kv, wq, wk, wv, wo), batch = attention_case(rows, d_head)
        q, k, v = x_q.data @ wq.data, x_kv.data @ wk.data, x_kv.data @ wv.data
        t_q, t_k = q.shape[0] // batch, k.shape[0] // batch

        def block(a, t, b, h):
            return a[b * t:(b + 1) * t, h * d_head:(h + 1) * d_head]

        ctx = np.vstack([np.hstack([sdpa_reference(block(q, t_q, b, h), block(k, t_k, b, h),
                                                   block(v, t_k, b, h)) for h in range(2)])
                         for b in range(batch)])
        np.testing.assert_allclose(T.attention(x_q, x_kv, wq, wk, wv, wo, 2, batch).data,
                                   ctx @ wo.data, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rows, d_head", KERNEL_PATHS, ids=KERNEL_IDS)
    def test_float32_in_float32_out(self, rows, d_head):
        params, batch = attention_case(rows, d_head, np.float32)
        with Tape() as tape:
            out = T.attention(*params, 2, batch)
            loss = squared_error(out, np.zeros(out.shape, np.float32))
        backward(loss, tape)
        assert out.data.dtype == np.float32
        assert [p.grad.dtype for p in params] == [np.dtype(np.float32)] * 6


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        out = T.layer_norm(Tensor([[2.0, 2.0, 2.0]]), Tensor([[3.0, 3.0, 3.0]]),
                           Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_already_normalized(self):
        # unit variance already: only the epsilon moves the row
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.zeros((1, 2))), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]] / np.sqrt(1.0 + T.LAYER_NORM_EPS),
                                   rtol=1e-15)

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
        eps = T.LAYER_NORM_EPS
        out = T.layer_norm(Tensor(x), Tensor(np.zeros_like(x)), Tensor(np.ones(64)),
                           Tensor(np.zeros(64))).data
        assert abs(out.mean()) < 1e-10
        # normalization divides by sqrt(var + eps), shrinking the output variance
        target = x.var() / (x.var() + eps)
        assert abs(out.var() - target) < 1e-6
        assert abs(out.var() - 1.0) < 2e-6

    def test_rejects_a_keep_mask_that_is_not_bool_of_the_residual_shape(self):
        x, gain, bias = Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3))
        for keep in (np.ones((2, 3)), np.ones((2, 2), dtype=bool)):
            with pytest.raises(ShapeError, match="keep must be a bool array of shape"):
                T.layer_norm(x, x, gain, bias, keep, 0.1)
        with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
            T.layer_norm(x, x, gain, bias, np.ones((2, 3), dtype=bool), 1.0)


class TestLinear:
    def test_linear_bias_broadcast(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        w = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            out = unit_gradient_loss(T.linear(x, w, b))
        backward(out, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))
        np.testing.assert_array_equal(w.grad, np.full((2, 2), 3.0))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_relu_zeroes_negative_pre_activations_and_their_gradient(self):
        x = Tensor([[1.0, -2.0], [-0.5, 3.0]], requires_grad=True)
        w, b = Tensor(np.eye(2)), Tensor([0.25, 0.0])
        with Tape() as tape:
            h = T.linear(x, w, b, relu=True)
            out = unit_gradient_loss(h)
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
        ((2, 4), (4, 3), (2, 3)), ((2, 4), (3, 4, 5), (5,)), ((2, 3, 4), (3, 4, 5), (5,)),
    ], ids=["vector_input", "inner_mismatch", "bias_width", "bias_not_a_row", "2d_at_3d",
            "unequal_stacks"])
    def test_shape_errors_name_all_shapes(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError, match=re.escape(f"{x_shape} @ {w_shape} + {b_shape}")):
            T.linear(*(Tensor(np.zeros(s)) for s in (x_shape, w_shape, b_shape)))


class TestElementwise:
    def test_add_rejects_mismatched_shapes(self):
        for b_shape in ((3, 2), (3,)):  # a bias row enters through linear, not add
            with pytest.raises(ShapeError):
                T.add(Tensor(np.ones((2, 3))), Tensor(np.ones(b_shape)))

    @pytest.mark.parametrize("case", ["widths_3_5", "random_cuts"])
    def test_concat_slice_round_trip(self, case):
        if case == "widths_3_5":
            rng = np.random.default_rng(3)
            pairs = [(rng.normal(size=(4, 3)), rng.normal(size=(4, 5)))]
        else:  # 100 seeded widths, cuts and row counts, one row included
            pairs = []
            for seed in range(100):
                rng = np.random.default_rng(seed)
                w = int(rng.integers(2, 12))
                cut = int(rng.integers(1, w))
                x = rng.normal(size=(int(rng.integers(1, 6)), w))
                pairs.append((x[:, :cut], x[:, cut:]))
        for a, b in pairs:
            joined = T.concat([Tensor(a), Tensor(b)])
            np.testing.assert_array_equal(joined.data, np.hstack([a, b]))
            cut, width = a.shape[1], joined.shape[1]
            np.testing.assert_array_equal(T.slice_cols(joined, 0, cut).data, a)
            np.testing.assert_array_equal(T.slice_cols(joined, cut, width).data, b)

    @pytest.mark.parametrize("start, stop", [(4, 4), (0, 0), (-1, 2), (2, 5), (3, 1)])
    def test_slice_out_of_range_rejected(self, start, stop):
        with pytest.raises(ShapeError, match="out of range for width 4"):
            T.slice_cols(Tensor(np.zeros((2, 4))), start, stop)

    def test_concat_takes_2d_parts_with_equal_rows(self):
        for parts in ([np.ones(2), np.ones(3)], [np.ones((2, 3)), np.ones((3, 3))]):
            with pytest.raises(ShapeError, match="equal row counts"):
                T.concat([Tensor(p) for p in parts])


class TestWeightedLoss:
    """The training objective: Σₖ wₖ · mean loss of head k, one tape record."""

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("kind", ["bce", "mse"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_closed_form_oracle(self, seed, kind, dtype, rtol):
        # three heads of logits (or regressions) over [-50, 50], the ends included
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=(6, 1)).astype(float) if kind == "bce" else \
            rng.normal(size=(6, 1))
        arrays = [rng.uniform(-50.0, 50.0, size=(6, 1)).astype(dtype) for _ in range(3)]
        arrays[0][:2, 0] = [-50.0, 50.0]
        weights = [0.2, 0.5, 0.3]
        preds = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            loss = T.weighted_loss(preds, y, weights, kind)
        backward(loss, tape)
        value, grads = weighted_loss_reference(arrays, y, weights, kind)
        assert loss.data.shape == () and loss.data.dtype == dtype
        np.testing.assert_allclose(loss.data, value, rtol=rtol)
        for p, g in zip(preds, grads):
            assert p.grad.dtype == dtype
            np.testing.assert_allclose(p.grad, g, rtol=rtol, atol=rtol * 1e-3)

    def test_confidently_wrong_logits_keep_their_gradient(self):
        # the cross entropy saturates only where the answer is right: a wrong logit
        # of size 20 to 1000 gets (almost exactly) the full gradient ±1/n, a right
        # one almost none, and the value stays finite
        z = Tensor([-20.0, 20.0, -1000.0, 1000.0, 20.0, -1000.0], requires_grad=True)
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        with Tape() as tape:
            out = T.weighted_loss([z], y, [1.0], "bce")
        backward(out, tape)
        tail = math.log1p(math.exp(-20.0))  # of the three logits of size 20
        assert out.data.item() == pytest.approx((2040.0 + 3 * tail) / 6, rel=1e-15)
        np.testing.assert_allclose(z.grad * 6, [-1.0, 1.0, -1.0, 1.0, 0.0, 0.0], atol=3e-9)

    def test_mse_gradient_is_exactly_twice_the_scaled_difference(self):
        # g·w/n · 2d is the sum gₛd + gₛd bit for bit: doubling is exact
        rng = np.random.default_rng(3)
        p, y = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
        x = Tensor(p, requires_grad=True)
        with Tape() as tape:
            out = T.weighted_loss([x], y, [0.3], "mse")
        backward(out, tape)
        gs = 0.3 / 5
        np.testing.assert_array_equal(x.grad, gs * (p - y) + gs * (p - y))

    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_one_record_for_any_number_of_heads(self, kind):
        for n_heads in range(1, 5):
            preds = [Tensor(np.full((2, 1), 0.25), requires_grad=True) for _ in range(n_heads)]
            with Tape() as tape:
                out = T.weighted_loss(preds, np.ones((2, 1)), [1.0 / n_heads] * n_heads, kind)
            [(inputs, record_out, _)] = tape.records
            assert record_out is out and list(inputs) == preds

    def test_rejects_bad_operands(self):
        p = Tensor(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="kind must be one of"):
            T.weighted_loss([p], np.zeros((2, 1)), [1.0], "hinge")
        with pytest.raises(ValueError, match="2 weights for 1 predictions"):
            T.weighted_loss([p], np.zeros((2, 1)), [0.5, 0.5], "mse")
        with pytest.raises(ValueError, match="0 weights for 0 predictions"):
            T.weighted_loss([], np.zeros((2, 1)), [], "mse")
        with pytest.raises(ShapeError, match=re.escape("[(2, 1), (3, 1)] do not all match "
                                                       "label shape (2, 1)")):
            T.weighted_loss([p, Tensor(np.zeros((3, 1)))], np.zeros((2, 1)), [0.5, 0.5], "mse")


class TestBatchedOps:
    def test_heads_are_column_blocks_of_each_sequence(self):
        # 2 sequences, 3 heads of width 2, 4 query and 5 key/value steps each:
        # head h of sequence b attends with column block h of that sequence's rows
        rng = np.random.default_rng(0)
        q, k, v = (rng.normal(size=(2 * t, 3 * 2)) for t in (4, 5, 5))
        out = attention_core(q, k, v, 3, 2)
        assert out.shape == (2 * 4, 3 * 2)
        for b in range(2):
            for h in range(3):
                cols = slice(2 * h, 2 * h + 2)
                ref = sdpa_reference(q[b * 4:(b + 1) * 4, cols], k[b * 5:(b + 1) * 5, cols],
                                     v[b * 5:(b + 1) * 5, cols])
                np.testing.assert_allclose(out[b * 4:(b + 1) * 4, cols], ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shapes", [
        {"wq": (6, 9)}, {"x_kv": (8, 6)}, {"x_q": (7, 6)}, {"wq": (6, 5), "wk": (6, 5)},
        {"wv": (6, 5), "wo": (5, 6)}, {"wo": (5, 6)}, {"x_q": (9,)},
    ], ids=["qk_widths", "kv_rows_not_batch_multiple", "q_rows_not_batch_multiple",
            "qk_width_not_head_multiple", "v_width_not_head_multiple", "ctx_wo_widths",
            "vector_input"])
    def test_attention_shape_errors_name_every_shape(self, shapes):
        # 3 sequences of 3 query and 4 key steps, width 6, 2 heads
        shapes = {"x_q": (9, 6), "x_kv": (12, 6), "wq": (6, 6), "wk": (6, 6), "wv": (6, 6),
                  "wo": (6, 6), **shapes}
        with pytest.raises(ShapeError, match="is not 3 sequences of 2 equal heads") as err:
            T.attention(*(Tensor(np.zeros(s)) for s in shapes.values()), 2, 3)
        for name, shape in shapes.items():
            assert f"{name} {shape}" in str(err.value)

    def test_row_mean_per_block(self):
        x = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(T.row_mean(Tensor(x), 2).data,
                                      [x[:3].mean(axis=0), x[3:].mean(axis=0)])
        with pytest.raises(ShapeError):
            T.row_mean(Tensor(x), 4)


class TestBackward:
    def test_square_derivative(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            y = sum_of_squares(x)
        backward(y, tape)
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_softmax_sum_has_zero_gradient(self):
        # the attention weights of one query always sum to 1 (identity values
        # return them), so no key moves that sum: the key column of x_kv and the
        # key projection get no gradient
        x_q, x_kv, *weights = (Tensor(a, requires_grad=True) for a in identity_projections(
            np.ones((1, 1)), np.array([[0.3], [-1.2], [2.0]]), np.eye(3)))
        with Tape() as tape:
            y = unit_gradient_loss(T.attention(x_q, x_kv, *weights, 1, 1))
        backward(y, tape)
        np.testing.assert_allclose(x_kv.grad[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(weights[1].grad, 0.0, atol=1e-12)

    def test_requires_scalar_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.add(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_fanout_gradients_accumulate_additively(self):
        # gradient of f(x) + g(x) equals grad f + grad g computed separately
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=5)

        def path_a(x):
            return sum_of_squares(x)

        def path_b(x):
            return T.weighted_loss([x], x0 > 0, [1.0], "bce")

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
            T.add(z, z)  # dead op: never reaches the output
            y = unit_gradient_loss(x)
        backward(y, tape)
        assert z.grad is None
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_first_write_does_not_alias_another_gradient(self):
        # add hands one output gradient to both operands; each must get its own array
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = unit_gradient_loss(T.add(a, b))
        backward(y, tape)
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        a.grad[0] = 7.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_operand_used_twice_accumulates_both_paths(self):
        # x + x, and x @ x + 0 (x as the input and the weight of one product)
        x0 = np.array([[0.5, -2.0], [3.0, 1.0]])
        ones = np.ones((2, 2))
        for op, expected in ((T.add, np.full((2, 2), 2.0)),
                             (lambda a, b: T.linear(a, b, Tensor(np.zeros(2))),
                              ones @ x0.T + x0.T @ ones)):
            x = Tensor(x0.copy(), requires_grad=True)
            with Tape() as tape:
                y = unit_gradient_loss(op(x, x))
            backward(y, tape)
            np.testing.assert_array_equal(x.grad, expected)

    def test_only_leaves_keep_gradients(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            h = T.linear(x, Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), relu=True)
            y = sum_of_squares(h)
        records = list(tape.records)
        backward(y, tape)
        assert all(out.grad is None for _, out, _ in records)
        np.testing.assert_array_equal(x.grad, np.tile(4.0 * np.array([[3.0], [12.0]]), (1, 3)))


class TestTape:
    def test_records_in_topological_order(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            a = T.add(x, x)
            b = T.add(a, x)
            unit_gradient_loss(b)
        produced_at = {}
        for idx, (inputs, out, _) in enumerate(tape.records):
            for t in inputs:
                if id(t) in produced_at:
                    assert produced_at[id(t)] < idx
            produced_at[id(out)] = idx

    def test_backward_visits_each_op_once_in_reverse(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = sum_of_squares(T.add(T.add(x, x), x))
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

    def test_backward_consumes_the_tape(self):
        # each record is dropped once replayed, so an op output only the tape
        # referenced dies during backward
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            h = T.add(x, x)
            y = unit_gradient_loss(h)
        h_data = weakref.ref(h.data)
        del h
        backward(y, tape)
        assert tape.records == []
        assert h_data() is None
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))

    def test_no_tape_means_no_gradients(self):
        x = Tensor([1.0], requires_grad=True)
        out = T.add(x, x)
        assert out.requires_grad is False

    def test_independent_tapes_nest(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as outer:
            a = sum_of_squares(x)
            with Tape() as inner:
                b = unit_gradient_loss(x)
            backward(b, inner)
        inner_grad = x.grad.copy()
        x.zero_grad()
        backward(a, outer)
        np.testing.assert_array_equal(inner_grad, [1.0])
        np.testing.assert_array_equal(x.grad, [4.0])


class TestDtype:
    def test_float32_selectable(self):
        x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]], dtype=np.float32), requires_grad=True)
        gain = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            h = T.layer_norm(T.add(T.linear(x, x, bias), x), x, gain, bias)
            s = T.linear(h, x, bias, relu=True)
            weights = T.attention(s, s, x, x, x, x, 1, 1)
            out = T.weighted_loss([weights], np.eye(2), [0.5], "bce")
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
            for out in (attention_weights(x), T.weighted_loss([Tensor(x)], x > 0, [1.0], "bce").data,
                        T.linear(Tensor(x), Tensor(np.eye(6)), Tensor(np.zeros(6)), relu=True).data,
                        T.layer_norm(Tensor(x), Tensor(x), Tensor(np.ones(6)),
                                     Tensor(np.zeros(6))).data):
                assert np.all(np.isfinite(out))
