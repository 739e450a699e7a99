"""Losses, weight tables, Adam, and the training loop."""

import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bcfusion import training
from bcfusion.config import ConfigError, ModelConfig, TrainConfig, toy_model_config
from bcfusion.data import SynthSpec, load_corpus, synth_generate
from bcfusion.models import (ALL_TOPOLOGIES, ForwardOutput, FusionModel, FusionTopology,
                             build_model, load_checkpoint, save_checkpoint)
from bcfusion.tensor import Tape, Tensor, backward
from bcfusion.training import (AdamState, adam_step, combined_loss, evaluate_metrics,
                               loss_weights_for, metrics_record, minibatch_backward,
                               run_training, write_history_csv)


def bce_loss(z, y) -> Tensor:
    """The detection loss of a single-layer model whose final logit is ``z``."""
    return combined_loss(ForwardOutput(final=Tensor(z), intermediates=[]), y, [1.0], "detection")


def mse_loss(pred, y) -> Tensor:
    """The agreement loss of a single-layer model whose final prediction is ``pred``."""
    return combined_loss(ForwardOutput(final=Tensor(pred), intermediates=[]), y, [1.0],
                         "agreement")


def oracle_adam_step(params, grads, state, lr, weight_decay=0.0):
    """The out-of-place Adam update that :func:`adam_step` must match bit for bit."""
    state.step += 1
    bc1 = 1.0 - training.ADAM_BETA1 ** state.step
    bc2 = 1.0 - training.ADAM_BETA2 ** state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        if weight_decay != 0.0:
            g = g + weight_decay * p.data
        m = np.zeros_like(p.data) if state.m[i] is None else state.m[i]
        v = np.zeros_like(p.data) if state.v[i] is None else state.v[i]
        state.m[i] = training.ADAM_BETA1 * m + (1.0 - training.ADAM_BETA1) * g
        state.v[i] = training.ADAM_BETA2 * v + (1.0 - training.ADAM_BETA2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)


def oracle_taking_grads(params, state, lr, weight_decay=0.0):
    """:func:`oracle_adam_step` in :func:`adam_step`'s signature: it takes the
    parameters' gradients over (zeros where there is none), as ``adam_step`` does."""
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    for p in params:
        p.grad = None
    oracle_adam_step(params, grads, state, lr, weight_decay)


def adam_with(params, grads, state, lr, weight_decay=0.0):
    """:func:`adam_step` with copies of ``grads`` handed over as the parameters' gradients."""
    for p, g in zip(params, grads):
        p.grad = g.copy()
    adam_step(params, state, lr, weight_decay)


class TestBceLoss:
    def test_coin_flip_prediction(self):
        loss = bce_loss([0.0], 1.0).data.item()
        assert abs(loss - math.log(2)) < 1e-12

    def test_perfect_predictions_vanish(self):
        assert bce_loss([40.0], 1.0).data.item() < 1e-6
        assert bce_loss([-40.0], 0.0).data.item() < 1e-6

    def test_matches_formula_oracle_on_batch(self):
        # the cross entropy of the probabilities the logits stand for
        rng = np.random.default_rng(0)
        z = rng.normal(scale=3.0, size=8)
        p = 1.0 / (1.0 + np.exp(-z))
        y = rng.integers(0, 2, size=8).astype(float)
        expected = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        got = bce_loss(z, y).data.item()
        assert abs(got - expected) < 1e-12

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            bce_loss([0.5], 0.7)

    def test_extreme_logits_score_their_size(self):
        # softplus(z) - y·z: a wrong logit of 1000 costs 1000, not an infinite log
        assert bce_loss([1000.0], 0.0).data.item() == 1000.0
        assert bce_loss([-1000.0], 1.0).data.item() == 1000.0

    def test_confidently_wrong_final_head_keeps_its_gradient(self):
        # a label-1 sample at logit -20 is pulled back up with (almost) the full
        # gradient -1, where a clipped probability would give it none
        z = Tensor([[-20.0]], requires_grad=True)
        with Tape() as tape:
            loss = combined_loss(ForwardOutput(final=z, intermediates=[]), 1.0, [1.0],
                                 "detection")
        backward(loss, tape)
        assert loss.data.item() == pytest.approx(20.0, rel=1e-8)
        assert z.grad.item() == pytest.approx(-1.0, rel=1e-8)


class TestMseLoss:
    def test_equal_inputs(self):
        assert mse_loss([0.3, -0.1], np.array([0.3, -0.1])).data.item() == 0.0

    def test_unit_error(self):
        assert mse_loss([0.0], 1.0).data.item() == 1.0

    def test_hand_computed_batch(self):
        assert mse_loss([0.0, 1.0], np.array([1.0, 1.0])).data.item() == 0.5


class TestLossWeights:
    def test_every_default_table_sums_to_exactly_one(self):
        for topology in ALL_TOPOLOGIES:
            weights = loss_weights_for(topology)
            assert sum(weights) == 1.0, topology

    def test_single_layer_topologies_have_final_only(self):
        for name in ("one_stream", "face_only", "pose_only", "cross_attention"):
            assert loss_weights_for(name) == [1.0]

    def test_stacked_tables(self):
        assert loss_weights_for("one_to_one") == [0.35, 0.35, 0.3]
        assert loss_weights_for("one_to_two") == [0.35, 0.175, 0.175, 0.3]
        assert loss_weights_for("two_to_one") == [0.175, 0.175, 0.35, 0.3]
        assert loss_weights_for("cross_to_one") == [0.175, 0.175, 0.35, 0.3]


class TestCombinedLoss:
    def test_convex_combination_of_equal_losses(self):
        # every component loss equals 1 -> total is exactly 1
        out = ForwardOutput(final=Tensor([1.0]),
                            intermediates=[("tf1", Tensor([1.0])), ("tf2", Tensor([1.0])),
                                           ("tf3", Tensor([1.0]))])
        total = combined_loss(out, 0.0, loss_weights_for("one_to_two"), "agreement")
        assert total.data.item() == 1.0

    def test_first_stage_only_gives_exactly_its_weight(self):
        # component losses (1, 0, 0, 0) over (tf1, tf2, tf3, final)
        out = ForwardOutput(final=Tensor([0.0]),
                            intermediates=[("tf1", Tensor([1.0])), ("tf2", Tensor([0.0])),
                                           ("tf3", Tensor([0.0]))])
        total = combined_loss(out, 0.0, loss_weights_for("one_to_two"), "agreement")
        assert total.data.item() == 0.35

    def test_single_layer_equals_task_loss(self):
        # the logit of probability 0.73
        out = ForwardOutput(final=Tensor([math.log(0.73 / 0.27)]), intermediates=[])
        total = combined_loss(out, 1.0, [1.0], "detection")
        assert total.data.item() == pytest.approx(-math.log(0.73), rel=1e-15, abs=0)

    def test_gradient_is_weighted_sum_of_component_gradients(self):
        x1 = Tensor([0.4], requires_grad=True)
        x2 = Tensor([-0.2], requires_grad=True)
        with Tape() as tape:
            out = ForwardOutput(final=x2, intermediates=[("tf1", x1)])
            total = combined_loss(out, 0.0, [0.3, 0.7], "agreement")
        backward(total, tape)
        np.testing.assert_allclose(x1.grad, 0.3 * 2 * 0.4, atol=1e-15)
        np.testing.assert_allclose(x2.grad, 0.7 * 2 * -0.2, atol=1e-15)

    def test_weight_length_mismatch_rejected(self):
        # one weight per prediction: the intermediates plus the final head
        out = ForwardOutput(final=Tensor([0.0]), intermediates=[])
        with pytest.raises(ValueError, match="^weighted_loss: 2 weights for 1 predictions$"):
            combined_loss(out, 0.0, [0.5, 0.5], "agreement")


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = AdamState.for_params([p])
        adam_with([p], [np.zeros(2)], state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=4), requires_grad=True)
        before = p.data.copy()
        state = AdamState.for_params([p])
        adam_with([p], [rng.normal(size=4)], state, lr=0.0, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_closed_form(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.for_params([p])
        adam_with([p], [np.array([1.0])], state, lr=0.1, weight_decay=0.0)
        expected = 1.0 - 0.1 * 1.0 / (1.0 + training.ADAM_EPS)
        assert abs(p.data[0] - expected) < 1e-15
        assert abs(p.data[0] - 0.9) < 1e-7

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.for_params([p])
        for _ in range(500):
            adam_with([p], [2.0 * p.data], state, lr=0.1, weight_decay=0.0)
        assert abs(p.data[0]) < 1e-3

    def test_weight_decay_shrinks_parameters(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        state = AdamState.for_params([p])
        adam_with([p], [np.zeros(1)], state, lr=0.1, weight_decay=0.01)
        assert p.data[0] < 5.0

    @pytest.mark.parametrize("order, grads, match", [
        ("ab", [np.ones(2), np.zeros(2)],
         r"^parameter 1: gradient shape \(2,\) != parameter shape \(3,\)$"),
        ("ab", [np.ones(2), np.zeros(3)],
         r"^parameter 1: gradient dtype float64 != parameter dtype float32$"),
        # a state whose moments were allocated for other parameters
        ("ca", [np.ones(3), np.ones(2)],
         r"^parameter 0: moment shape \(2,\) != parameter shape \(3,\)$"),
        ("ac", [np.ones(2), np.ones(3)],
         r"^parameter 1: moment dtype float32 != parameter dtype float64$"),
    ], ids=["shape", "dtype", "moment-shape", "moment-dtype"])
    def test_rejected_step_writes_nothing(self, order, grads, match):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        c = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState.for_params([a, b])
        adam_with([a, b], [np.ones(2), np.ones(3, np.float32)], state, lr=0.1)
        params = [{"a": a, "b": b, "c": c}[k] for k in order]
        for p, g in zip(params, grads):
            p.grad = g
        before = [t.grad for t in (a, b, c)] + [a.data, b.data, c.data, *state.m, *state.v]
        snapshot = [None if x is None else x.copy() for x in before]
        with pytest.raises(ValueError, match=match):
            adam_step(params, state, lr=0.1)
        after = [t.grad for t in (a, b, c)] + [a.data, b.data, c.data, *state.m, *state.v]
        assert state.step == 1 and all(x is y for x, y in zip(after, before))
        assert all(x is None or x.tobytes() == y.tobytes() for x, y in zip(after, snapshot))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_mid_bucket_writes_nothing(self, bad):
        params = [Tensor(np.full(n, 1.0), requires_grad=True) for n in (3, 4, 5)]
        state = AdamState.for_params(params)
        adam_with(params, [np.ones(n) for n in (3, 4, 5)], state, lr=0.1)
        for p in params:
            p.grad = np.ones(p.data.size)
        params[1].grad[2] = bad
        assert [len(offsets) - 1 for _, offsets in training._buckets(params, state)] == [3]
        before = [p.grad for p in params] + [p.data for p in params] + state.m + state.v
        snapshot = [x.tobytes() for x in before]
        with pytest.raises(FloatingPointError, match=r"^non-finite gradient of parameter 1$"):
            adam_step(params, state, lr=0.1)
        after = [p.grad for p in params] + [p.data for p in params] + state.m + state.v
        assert state.step == 1 and all(x is y for x, y in zip(after, before))
        assert [x.tobytes() for x in after] == snapshot

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("layout", ["one bucket", "several buckets", "misplaced views"])
    def test_bitwise_equal_to_out_of_place_update(self, dtype, weight_decay, layout):
        rng = np.random.default_rng(4)
        other = np.float32 if dtype == np.float64 else np.float64
        cap = training.ADAM_BUCKET_ELEMENTS
        shapes = [((3, 8), dtype), (5, dtype)]
        if layout == "several buckets":
            # a tensor above the cap; two that fill a bucket up to 20 short of it and
            # one that would straddle it; then a tensor of the other dtype between two
            shapes += [(cap + 3, dtype), (cap // 2, dtype), (cap // 2 - 20, dtype), (30, dtype),
                       (4, other), ((6, 2), dtype)]
        if layout == "misplaced views":
            # views of the last step's bucket array at the wrong offsets: two swapped
            # before the third step, one replaced by a copy before the fourth
            shapes += [(5, dtype), ((2, 3), dtype)]
        start = [rng.normal(size=shape).astype(t) for shape, t in shapes]
        ours = [Tensor(a.copy(), requires_grad=True) for a in start]
        theirs = [Tensor(a.copy(), requires_grad=True) for a in start]
        ours_state, their_state = AdamState.for_params(ours), AdamState.for_params(theirs)
        sizes = [len(o) - 1 for _, o in training._buckets(ours, ours_state)]
        assert sizes == {"one bucket": [2], "several buckets": [2, 1, 2, 1, 1, 1],
                         "misplaced views": [4]}[layout]
        for step in range(5):
            if layout == "misplaced views" and step == 2:
                for ps in (ours, theirs):
                    ps[1].data, ps[2].data = ps[2].data, ps[1].data
            if layout == "misplaced views" and step == 3:
                for ps in (ours, theirs):
                    ps[3].data = ps[3].data.copy()
            grads = [rng.normal(size=a.shape).astype(a.dtype) for a in start]
            for g in grads:
                info = np.finfo(g.dtype)
                special = np.array([0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                                    info.tiny, 1e3, -1e30, info.max], g.dtype)
                if g.size >= special.size:
                    g.flat[:special.size] = special
                else:
                    g.flat[:] = special[[0, 1, 2, 5, 6, 4][:g.size]]
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                adam_with(ours, grads, ours_state, 0.01, weight_decay)
                oracle_adam_step(theirs, grads, their_state, 0.01, weight_decay)
            assert all(p.grad is None for p in ours)
            for got, want in [([p.data for p in ours], [p.data for p in theirs]),
                              (ours_state.m, their_state.m), (ours_state.v, their_state.v)]:
                assert [(a.dtype, a.tobytes()) for a in got] == \
                    [(a.dtype, a.tobytes()) for a in want]
        assert ours_state.step == their_state.step == 5

    def test_a_toy_model_is_one_bucket(self):
        params = build_model("one_to_one", "agreement", toy_model_config(7, 5)).parameters()
        buckets = training._buckets(params, AdamState.for_params(params))
        assert [(first, len(offsets) - 1) for first, offsets in buckets] == [(0, len(params))]

    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_paper_width_buckets(self, topology):
        # an undrawn skeleton has the paper's shapes at no cost in memory
        params = FusionModel(FusionTopology(topology), "detection", ModelConfig(),
                             rng=None).parameters()
        buckets = training._buckets(params, AdamState.for_params(params))
        cap = training.ADAM_BUCKET_ELEMENTS
        stops = list(np.cumsum([len(o) - 1 for _, o in buckets]))
        assert [first for first, _ in buckets] == [0] + stops[:-1] and stops[-1] == len(params)
        for first, offsets in buckets:
            group = params[first:first + len(offsets) - 1]
            assert offsets == [0] + list(np.cumsum([p.data.size for p in group]))
            assert len(group) == 1 or offsets[-1] <= cap
        assert all(len(o) == 2 for first, o in buckets if params[first].data.size > cap)
        assert any(len(o) > 2 for _, o in buckets)

    def test_no_bucket_mixes_dtypes(self):
        dtypes = [np.float64, np.float64, np.float32, np.float32, np.float64]
        params = [Tensor(np.zeros(3, t), requires_grad=True) for t in dtypes]
        buckets = training._buckets(params, AdamState.for_params(params))
        assert [(first, len(o) - 1) for first, o in buckets] == [(0, 2), (2, 2), (4, 1)]

    def test_moments_are_allocated_at_the_first_update_and_kept(self):
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        state = AdamState.for_params([p])
        assert state.m == [None] and state.v == [None]
        arrays = [(p.data, None, None)]
        for _ in range(3):
            adam_with([p], [np.full((2, 3), 0.5)], state, lr=0.1)
            arrays.append((p.data, state.m[0], state.v[0]))
        params, ms, vs = zip(*arrays)
        assert len({id(a) for a in params}) == 4
        assert params[0].tobytes() == np.ones((2, 3)).tobytes()
        assert all(m is ms[1] for m in ms[1:]) and all(v is vs[1] for v in vs[1:])

    def test_moments_held_as_separate_arrays_are_taken_over(self):
        # as a state restored from a file would hold them: adam_step copies them into
        # its bucket buffer once and goes on bit for bit as the out-of-place update does
        rng = np.random.default_rng(6)
        start = [rng.normal(size=shape) for shape in [(2, 3), 4, (3, 1)]]
        ours = [Tensor(a.copy(), requires_grad=True) for a in start]
        theirs = [Tensor(a.copy(), requires_grad=True) for a in start]
        ours_state, their_state = AdamState.for_params(ours), AdamState.for_params(theirs)
        grads = [rng.normal(size=a.shape) for a in start]
        oracle_adam_step(ours, grads, ours_state, 0.01)
        oracle_adam_step(theirs, grads, their_state, 0.01)
        for _ in range(2):
            grads = [rng.normal(size=a.shape) for a in start]
            adam_with(ours, grads, ours_state, 0.01)
            oracle_adam_step(theirs, grads, their_state, 0.01)
        for got, want in [([p.data for p in ours], [p.data for p in theirs]),
                          (ours_state.m, their_state.m), (ours_state.v, their_state.v)]:
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert len({id(m.base) for m in ours_state.m}) == 1 and ours_state.step == 3

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_update_peaks_at_two_scratch_arrays(self, weight_decay):
        rng = np.random.default_rng(5)
        p = Tensor(rng.normal(size=(1000, 1000)), requires_grad=True)
        grad = rng.normal(size=(1000, 1000))
        state = AdamState.for_params([p])
        adam_with([p], [grad], state, 1e-3, weight_decay)
        p.grad = grad
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            adam_step([p], state, 1e-3, weight_decay)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / p.data.nbytes <= 3.0

    def test_an_accepted_step_releases_every_gradient(self):
        # a bucket of two tensors and two of one: no gradient outlives the step
        cap = training.ADAM_BUCKET_ELEMENTS
        params = [Tensor(np.ones(n), requires_grad=True) for n in (3, 4, cap, cap + 1)]
        state = AdamState.for_params(params)
        assert [len(o) - 1 for _, o in training._buckets(params, state)] == [2, 1, 1]
        for step in range(2):
            for p in params:
                p.grad = np.full(p.data.size, 0.5)
            refs = [weakref.ref(p.grad) for p in params]
            adam_step(params, state, lr=0.1)
            assert all(p.grad is None for p in params) and all(r() is None for r in refs)

    def test_a_parameter_without_a_gradient_steps_with_zeros(self):
        # in a bucket with others and in one of its own, at the first and a later step
        rng = np.random.default_rng(7)
        cap = training.ADAM_BUCKET_ELEMENTS
        start = [rng.normal(size=n) for n in (3, 4, cap)]
        ours = [Tensor(a.copy(), requires_grad=True) for a in start]
        theirs = [Tensor(a.copy(), requires_grad=True) for a in start]
        ours_state, their_state = AdamState.for_params(ours), AdamState.for_params(theirs)
        for missing in (1, 2, 0):
            grads = [rng.normal(size=a.shape) for a in start]
            for i, (p, g) in enumerate(zip(ours, grads)):
                p.grad = None if i == missing else g.copy()
            grads[missing] = np.zeros_like(start[missing])
            adam_step(ours, ours_state, 0.01, 5e-4)
            oracle_adam_step(theirs, grads, their_state, 0.01, 5e-4)
            for got, want in [([p.data for p in ours], [p.data for p in theirs]),
                              (ours_state.m, their_state.m), (ours_state.v, their_state.v)]:
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_a_first_step_never_holds_all_gradients_and_moments(self):
        # six one-tensor buckets: each bucket's gradient is dropped as it is applied,
        # so the new moments replace the gradients instead of joining them
        n, buckets = training.ADAM_BUCKET_ELEMENTS, 6
        tracemalloc.start()
        try:
            params = [Tensor(np.ones(n), requires_grad=True) for _ in range(buckets)]
            for p in params:
                p.grad = np.full(n, 0.5)
            state = AdamState.for_params(params)
            adam_step(params, state, lr=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # parameters, gradients and both moments: what the step would hold at its end
        # if it dropped no gradient
        assert peak < 4 * buckets * params[0].data.nbytes


class _StubModel:
    """Duck-typed model returning scripted predictions keyed by sample id, one
    (B, 1) row per sample of a (B, T, features) batch."""

    max_width = 1
    config = toy_model_config(face_dim=2, pose_dim=2)

    def __init__(self, predictions, task="detection"):
        self.predictions = predictions
        self.task = task

    def forward(self, face_seq, pose_seq, keep=None):
        keys = face_seq.data[:, 0, 0]
        return ForwardOutput(final=Tensor([[self.predictions[k.item()]] for k in keys]),
                             intermediates=[])


def stub_samples(labels):
    from bcfusion.data import ProcessedSample
    samples = []
    for i, label in enumerate(labels):
        face = np.full((3, 2), float(i))
        pose = np.zeros((3, 2))
        samples.append(ProcessedSample(f"s{i}", face, pose, float(label), "validation"))
    return samples


class TestEvaluateMetrics:
    def test_all_correct_accuracy(self):
        # detection predictions are logits: a logit of 0 or more is a backchannel
        samples = stub_samples([1, 0, 1, 0, 1, 0])
        model = _StubModel({0.0: 2.2, 1.0: -2.2, 2.0: 1.4, 3.0: -1.4, 4.0: 0.0, 5.0: -1e-300})
        assert evaluate_metrics(model, samples, "detection")["value"] == 1.0

    def test_half_correct_on_ten(self):
        samples = stub_samples([1] * 10)
        model = _StubModel({float(i): (2.2 if i < 5 else -2.2) for i in range(10)})
        metrics = evaluate_metrics(model, samples, "detection")
        assert metrics["value"] == 0.5 and metrics["n"] == 10

    def test_exact_regression_gives_zero_mse(self):
        samples = stub_samples([0.25, -0.5])
        model = _StubModel({0.0: 0.25, 1.0: -0.5}, "agreement")
        metrics = evaluate_metrics(model, samples, "agreement")
        assert metrics["value"] == 0.0 and metrics["metric_name"] == "mse"

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            evaluate_metrics(_StubModel({}), [], "detection")

    @pytest.mark.parametrize("built, scored", [("detection", "agreement"),
                                               ("agreement", "detection")])
    def test_another_task_than_the_models_is_rejected_before_any_forward(self, built, scored,
                                                                         monkeypatch):
        # scored as agreement, a detection model's logits would come back as an mse
        model = build_model("one_stream", built, toy_model_config(face_dim=2, pose_dim=2),
                            rng_seed=0)
        monkeypatch.setattr(model, "forward", None)  # a forward would be a TypeError
        with pytest.raises(ValueError, match=f"^cannot score a {built} model as {scored}$"):
            evaluate_metrics(model, stub_samples([0, 1, 0]), scored)

    @pytest.mark.parametrize("task", ["detection", "agreement"])
    def test_non_finite_prediction_names_the_first_such_sample(self, task):
        # a NaN would count as class 0 in accuracy and poison the mean squared error
        samples = stub_samples([1, 0, 1, 0])
        model = _StubModel({0.0: 0.9, 1.0: np.nan, 2.0: 0.8, 3.0: np.inf}, task)
        with pytest.raises(FloatingPointError, match="^non-finite prediction on sample s1$"):
            evaluate_metrics(model, samples, task)

    def test_overflowing_squared_error_is_not_a_score(self):
        samples = stub_samples([0.0, 1.0])
        model = _StubModel({0.0: 1e200, 1.0: 0.5}, "agreement")
        with pytest.raises(FloatingPointError, match=r"^non-finite mse \(inf\)$"):
            evaluate_metrics(model, samples, "agreement")


class TestMetricsRecord:
    @pytest.mark.parametrize("task, topology", [("detection", "one_to_one"),
                                                ("agreement", "cross_to_one")])
    def test_topology_is_written_by_value(self, task, topology):
        # the task and the topology are the model's
        model = build_model(topology, task, toy_model_config(), rng_seed=0)
        metrics = {"metric_name": "accuracy", "value": 0.5, "n": 4}
        record = metrics_record(model, "validation", metrics)
        assert record == {"task": task, "topology": topology, "split": "validation",
                          "metric_name": "accuracy", "value": 0.5, "n": 4}


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    spec = SynthSpec(n_samples=8, t_raw=15, fps=5.0, kind="redundant", noise=0.05,
                     seed=21, face_dim=6, pose_dim=4, val_frac=0.25)
    manifest = synth_generate(spec, root)
    return load_corpus(manifest, "detection", 3.0, face_dim=6, pose_dim=4)


def tiny_config(**overrides):
    defaults = dict(task="detection", topology="one_stream", epochs=1, batch_size=4,
                    learning_rate=0.01, weight_decay=0.0, seed=0,
                    model=toy_model_config(face_dim=7, pose_dim=5))
    defaults.update(overrides)
    return TrainConfig(**defaults)


def spy_on_work(monkeypatch) -> list[str]:
    """Record every model build, forward pass and Adam step ``run_training`` makes."""
    calls = []
    for owner, name in [(training, "build_model"), (FusionModel, "forward"),
                        (training, "adam_step")]:
        def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return calls


class TestFailFast:
    """A sample that breaks the sample contract anywhere in either split stops
    ``run_training`` before the model is built: no forward, no Adam step."""

    def test_spies_see_a_clean_run(self, tiny_corpus, monkeypatch):
        calls = spy_on_work(monkeypatch)
        run_training(tiny_corpus, tiny_config())
        assert set(calls) == {"build_model", "forward", "adam_step"}

    @pytest.mark.parametrize("fault", ["pose_width", "label"])
    @pytest.mark.parametrize("split, position", [("train", 0), ("train", 3), ("train", -1),
                                                 ("validation", 0), ("validation", -1)])
    def test_bad_sample_raises_before_any_work(self, tiny_corpus, split, position, fault,
                                               monkeypatch):
        corpus = {name: list(samples) for name, samples in tiny_corpus.items()}
        s = corpus[split][position]
        t = len(s.face_seq)
        if fault == "pose_width":
            corpus[split][position] = replace(s, pose_seq=s.pose_seq[:, :-1])
            message = (f"sample {s.id} cannot be batched: face ({t}, 7) and pose ({t}, 4) "
                       f"are not (T, 7) and (T, 5) with T >= 1")
        else:
            corpus[split][position] = replace(s, label=0.5)
            message = f"sample {s.id}: detection label must be 0 or 1, got 0.5"
        calls = spy_on_work(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_training(corpus, tiny_config())
        assert calls == []


class TestRunTraining:
    def test_single_epoch_contract(self, tiny_corpus):
        result = run_training(tiny_corpus, tiny_config())
        assert len(result.history) == 1
        epoch, train_loss, val_metric = result.history[0]
        assert epoch == 1 and np.isfinite(train_loss) and 0.0 <= val_metric <= 1.0
        assert result.best_epoch == 1

    def test_same_seed_reproduces_history_bitwise(self, tiny_corpus):
        a = run_training(tiny_corpus, tiny_config(epochs=3))
        b = run_training(tiny_corpus, tiny_config(epochs=3))
        assert a.history == b.history
        for (_, pa), (_, pb) in zip(a.model.named_parameters(), b.model.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self, tiny_corpus):
        a = run_training(tiny_corpus, tiny_config(epochs=2, seed=0))
        b = run_training(tiny_corpus, tiny_config(epochs=2, seed=1))
        assert a.history != b.history

    def test_empty_validation_rejected(self, tiny_corpus):
        corpus = {"train": tiny_corpus["train"], "validation": [], "test": []}
        with pytest.raises(ConfigError, match="split"):
            run_training(corpus, tiny_config())

    def test_corpus_width_mismatch_rejected(self, tiny_corpus):
        # every sample is checked against the model config, and the first is named
        cfg = tiny_config(model=toy_model_config(face_dim=9, pose_dim=5))
        first = tiny_corpus["train"][0]
        t = len(first.face_seq)
        with pytest.raises(ValueError, match=re.escape(
                f"sample {first.id} cannot be batched: face ({t}, 7) and pose ({t}, 5) are not "
                f"(T, 9) and (T, 5) with T >= 1")):
            run_training(tiny_corpus, cfg)

    def test_nan_validation_label_is_the_samples_error_not_a_divergence(self, tiny_corpus):
        val = list(tiny_corpus["validation"])
        val[1] = replace(val[1], label=math.nan)
        corpus = {"train": tiny_corpus["train"], "validation": val}
        with pytest.raises(ValueError, match=re.escape(
                f"sample {val[1].id}: agreement label must be in [-1, 1], got nan")):
            run_training(corpus, tiny_config(task="agreement"))

    def test_divergence_aborts_with_epoch_index(self, tmp_path):
        spec = SynthSpec(n_samples=6, t_raw=15, fps=5.0, kind="redundant", noise=0.05,
                         seed=22, task="agreement", face_dim=6, pose_dim=4, val_frac=0.0)
        corpus = load_corpus(synth_generate(spec, tmp_path), "agreement", 3.0, 6, 4)
        corpus = {"train": corpus["train"], "validation": corpus["train"], "test": []}
        cfg = tiny_config(task="agreement", epochs=5, batch_size=2, learning_rate=1e200)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="epoch"):
            run_training(corpus, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_prediction_is_divergence(self, tiny_corpus):
        val = list(tiny_corpus["validation"])
        val[1] = replace(val[1], face_seq=np.full_like(val[1].face_seq, np.inf))
        corpus = {"train": tiny_corpus["train"], "validation": val}
        with pytest.raises(RuntimeError, match=f"^training diverged at epoch 1: non-finite "
                                               f"prediction on sample {val[1].id}$"):
            run_training(corpus, tiny_config())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_features_name_epoch_and_samples(self, tiny_corpus):
        train = list(tiny_corpus["train"])
        bad = train[1]
        train[1] = replace(bad, face_seq=bad.face_seq * 1e200)
        corpus = {"train": train, "validation": tiny_corpus["validation"]}
        with pytest.raises(RuntimeError, match="at epoch 1: non-finite loss on samples") as exc:
            run_training(corpus, tiny_config(batch_size=2))
        batch = str(exc.value).rpartition("samples ")[2].split(", ")
        assert bad.id in batch and len(batch) == 2

    def test_non_finite_gradient_stops_before_the_update(self, tiny_corpus, monkeypatch):
        # adam_step finds the NaN before it writes: the parameters stay byte for byte
        # those the poisoned step started from, and no step or moment is taken
        built, states, before = [], [], []
        for_params = AdamState.for_params.__func__

        def keep_model(*args, **kwargs):
            built.append(build_model(*args, **kwargs))
            return built[-1]

        def spy_state(cls, params):
            states.append(for_params(cls, params))
            return states[-1]

        def poisoned_backward(output, tape):
            backward(output, tape)
            params = built[0].parameters()
            before[:] = [(p.data, p.data.tobytes()) for p in params]
            params[-1].grad[...] = np.nan

        monkeypatch.setattr(training, "build_model", keep_model)
        monkeypatch.setattr(AdamState, "for_params", classmethod(spy_state))
        monkeypatch.setattr(training, "backward", poisoned_backward)
        with pytest.raises(RuntimeError) as exc:
            run_training(tiny_corpus, tiny_config())
        after = built[0].parameters()
        assert str(exc.value).startswith(f"training diverged at epoch 1: non-finite gradient "
                                         f"of parameter {len(after) - 1} on samples ")
        assert len(after) == len(before) and \
            all(p.data is a and p.data.tobytes() == b for p, (a, b) in zip(after, before))
        [state] = states
        assert state.step == 0 and all(m is None for m in state.m + state.v)

    def test_best_epoch_is_restored_bitwise(self, tiny_corpus, monkeypatch):
        # guards keeping the best epoch by reference: Adam must not write into old arrays
        scripted = iter([0.5, 0.9, 0.7])
        seen = []

        def scripted_metrics(model, samples, task):
            seen.append([p.data.copy() for p in model.parameters()])
            return {"metric_name": "accuracy", "value": next(scripted), "n": len(samples)}

        monkeypatch.setattr(training, "evaluate_metrics", scripted_metrics)
        result = run_training(tiny_corpus, tiny_config(epochs=3))
        assert result.best_epoch == 2 and result.best_val_metric == 0.9
        restored = [p.data for p in result.model.parameters()]
        assert [(a.dtype, a.tobytes()) for a in restored] == \
            [(a.dtype, a.tobytes()) for a in seen[1]]
        assert any(not np.array_equal(a, b) for a, b in zip(restored, seen[2]))

    def test_no_gradient_outlives_its_adam_step(self, tiny_corpus, monkeypatch):
        # checked at every chunk's training forward: 6 training samples of one length
        # run as 2 steps of 3, each one chunk, 2 + 1, or three of 1
        handed, alive_at_forward = [], []
        build = training.build_model

        def spy_adam(params, *args, **kwargs):
            handed.append([weakref.ref(p.grad) for p in params if p.grad is not None])
            adam_step(params, *args, **kwargs)
            assert all(p.grad is None for p in params)

        def spied_model(*args, **kwargs):
            model = build(*args, **kwargs)
            forward = model.forward

            def spy_forward(face, pose, keep=None):
                if keep is not None:
                    alive_at_forward.append(
                        sum(ref() is not None for step in handed for ref in step))
                return forward(face, pose, keep=keep)

            model.forward = spy_forward
            return model

        monkeypatch.setattr(training, "adam_step", spy_adam)
        monkeypatch.setattr(training, "build_model", spied_model)
        rows = len(tiny_corpus["train"][0].face_seq) * \
            build("one_to_one", "detection", toy_model_config(7, 5)).max_width
        for per_chunk, chunks in [(3, 1), (2, 2), (1, 3)]:
            handed.clear()
            alive_at_forward.clear()
            monkeypatch.setattr(training, "TRAIN_CHUNK_ELEMENTS", per_chunk * rows)
            run_training(tiny_corpus, tiny_config(topology="one_to_one", batch_size=3))
            assert len(handed) == 2 and alive_at_forward == [0] * 2 * chunks

    def test_no_moment_lives_under_the_first_tape(self, tiny_corpus, monkeypatch):
        # under none of the first step's chunk tapes; every later backward sees them all
        states, moments_at_backward = [], []
        for_params = AdamState.for_params.__func__

        def spy_state(cls, params):
            states.append(for_params(cls, params))
            return states[-1]

        def spy_backward(output, tape):
            moments = states[-1].m + states[-1].v
            moments_at_backward.append(sum(isinstance(a, np.ndarray) for a in moments))
            return backward(output, tape)

        monkeypatch.setattr(AdamState, "for_params", classmethod(spy_state))
        monkeypatch.setattr(training, "backward", spy_backward)
        for budget, chunks in [(training.TRAIN_CHUNK_ELEMENTS, 1), (1, 3)]:
            moments_at_backward.clear()
            monkeypatch.setattr(training, "TRAIN_CHUNK_ELEMENTS", budget)
            run_training(tiny_corpus, tiny_config(batch_size=3))  # 6 training samples: 2 steps
            assert moments_at_backward == [0] * chunks + [2 * len(states[-1].m)] * chunks

    def test_non_finite_loss_in_a_later_chunk_stops_before_the_update(self, tiny_corpus,
                                                                      monkeypatch):
        # the first chunk's backward has run, the second chunk's loss is NaN: the error
        # names the whole batch, and Adam never runs
        built, states, batches, losses = [], [], [], []
        for_params = AdamState.for_params.__func__

        def keep_model(*args, **kwargs):
            built.append(build_model(*args, **kwargs))
            return built[-1]

        def spy_state(cls, params):
            states.append(for_params(cls, params))
            return states[-1]

        def spy_step(model, batch, *args):
            batches.append([s.id for s in batch])
            return minibatch_backward(model, batch, *args)

        def poisoned_loss(out, y, weights, task):
            # the second chunk's loss record weights its heads by NaN
            weights = [np.nan] * len(weights) if len(losses) == 1 else weights
            losses.append(combined_loss(out, y, weights, task))
            return losses[-1]

        monkeypatch.setattr(training, "build_model", keep_model)
        monkeypatch.setattr(AdamState, "for_params", classmethod(spy_state))
        monkeypatch.setattr(training, "minibatch_backward", spy_step)
        monkeypatch.setattr(training, "combined_loss", poisoned_loss)
        monkeypatch.setattr(training, "TRAIN_CHUNK_ELEMENTS", 1)
        start = build_model("one_stream", "detection", toy_model_config(7, 5), rng_seed=0)
        with pytest.raises(RuntimeError) as exc:
            run_training(tiny_corpus, tiny_config(batch_size=3))
        [batch] = batches
        assert str(exc.value) == ("training diverged at epoch 1: non-finite loss on samples "
                                  + ", ".join(batch))
        assert len(batch) == 3 and len(losses) == 2
        params = built[0].parameters()
        assert any(p.grad is not None for p in params)  # the first chunk's backward ran
        assert [p.data.tobytes() for p in params] == [p.data.tobytes() for p in start.parameters()]
        [state] = states
        assert state.step == 0 and all(m is None for m in state.m + state.v)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_training_matches_the_out_of_place_update_bitwise(self, tiny_corpus, monkeypatch,
                                                             dtype):
        def trained(topology):
            result = run_training(tiny_corpus, tiny_config(topology=topology, epochs=3,
                                                           dtype=dtype, weight_decay=5e-4))
            return result.history, [(p.data.dtype, p.data.tobytes())
                                    for p in result.model.parameters()]

        in_place = [trained(topology) for topology in ALL_TOPOLOGIES]
        monkeypatch.setattr(training, "adam_step", oracle_taking_grads)
        assert [trained(topology) for topology in ALL_TOPOLOGIES] == in_place

    def test_best_model_restored(self, tiny_corpus):
        result = run_training(tiny_corpus, tiny_config(epochs=4))
        recomputed = evaluate_metrics(result.model, tiny_corpus["validation"], "detection")
        assert recomputed["value"] == result.best_val_metric


class TestPrecision:
    """A model computes in its parameters' dtype; no run changes another's precision."""

    @pytest.fixture(scope="class")
    def agreement_corpus(self, tmp_path_factory):
        spec = SynthSpec(n_samples=16, t_raw=15, fps=5.0, kind="redundant", noise=0.05, seed=3,
                         task="agreement", face_dim=6, pose_dim=4, val_frac=0.25)
        manifest = synth_generate(spec, tmp_path_factory.mktemp("agreement"))
        return load_corpus(manifest, "agreement", 3.0, face_dim=6, pose_dim=4)

    def test_float32_checkpoint_scores_as_in_training(self, agreement_corpus, tmp_path):
        cfg = dict(task="agreement", topology="one_to_one", epochs=3)
        before = run_training(agreement_corpus, tiny_config(**cfg))
        f32 = run_training(agreement_corpus, tiny_config(dtype="float32", **cfg))
        after = run_training(agreement_corpus, tiny_config(**cfg))
        assert before.history == after.history
        assert Tensor(1.0).data.dtype == np.float64

        save_checkpoint(f32.model, tmp_path / "f32.npz")
        model, _ = load_checkpoint(tmp_path / "f32.npz")
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        val = agreement_corpus["validation"]
        assert evaluate_metrics(model, val, "agreement")["value"] == f32.best_val_metric
        out = model.forward(Tensor(val[0].face_seq), Tensor(val[0].pose_seq))
        assert {p.data.dtype for p in [out.final] + [p for _, p in out.intermediates]} \
            == {np.dtype(np.float32)}


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        history = [(1, 0.5, 0.75), (2, 0.25, 1.0)]
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_metric"
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert parsed == [(1.0, 0.5, 0.75), (2.0, 0.25, 1.0)]
