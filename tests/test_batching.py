"""The batched engine against the per-sample loop it replaced.

A mini-batch runs as stacked (B·T, d) rows through one forward and one
backward pass.  The reference here is the loop the engine replaced: one
forward per sample, its dropout masks drawn in batch order, the combined
losses summed and divided by the batch size.  Batching changes only the
order of floating-point sums, so the two agree to float64 rounding noise.
"""

from dataclasses import replace

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion import training
from bcfusion.config import toy_model_config
from bcfusion.data import ProcessedSample
from bcfusion.gradcheck import finite_diff_gradcheck
from bcfusion.layers import add_positional_encoding
from bcfusion.models import ALL_TOPOLOGIES, build_model
from bcfusion.tensor import Tape, Tensor, backward
from bcfusion.training import (combined_loss, evaluate_metrics, loss_weights_for,
                               minibatch_loss)

CFG = toy_model_config(face_dim=7, pose_dim=5)
ATOL = 1e-12


def make_samples(lengths, task, seed=0, cfg=CFG):
    rng = np.random.default_rng(seed)
    samples = []
    for i, t in enumerate(lengths):
        label = float(i % 2) if task == "detection" else float(rng.uniform(-1.0, 1.0))
        samples.append(ProcessedSample(f"s{i}", rng.normal(size=(t, cfg.face_dim)),
                                       rng.normal(size=(t, cfg.pose_dim)), label, "train"))
    return samples


def loop_loss(model, batch, weights, task, rng):
    """The per-sample loop: one forward and one combined loss per sample, each
    weighted by 1 / batch size."""
    total = None
    for s in batch:
        out = model.forward(Tensor(s.face_seq), Tensor(s.pose_seq),
                            keep=model.dropout_masks(len(s.face_seq), rng))
        loss = combined_loss(out, s.label, [w / len(batch) for w in weights], task)
        total = loss if total is None else T.add(total, loss)
    return total


def loss_and_grads(model, make_loss):
    for p in model.parameters():
        p.zero_grad()
    with Tape() as tape:
        loss = make_loss()
    backward(loss, tape)
    return loss.data.item(), {name: p.grad.copy() for name, p in model.named_parameters()}


class TestBatchedStep:
    @pytest.mark.parametrize("task", ["detection", "agreement"])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_mixed_length_batch_matches_per_sample_loop(self, topology, task):
        model = build_model(topology, task, CFG, rng_seed=1)
        assert model.config.dropout > 0
        batch = make_samples([6, 9, 6, 6, 9], task)
        weights = loss_weights_for(topology)
        batched, batched_grads = loss_and_grads(
            model, lambda: minibatch_loss(model, batch, weights, task, np.random.default_rng(5)))
        looped, looped_grads = loss_and_grads(
            model, lambda: loop_loss(model, batch, weights, task, np.random.default_rng(5)))
        np.testing.assert_allclose(batched, looped, rtol=0, atol=ATOL)
        for name, g in looped_grads.items():
            np.testing.assert_allclose(batched_grads[name], g, rtol=0, atol=ATOL, err_msg=name)

    def test_one_length_adds_no_weighting_op(self):
        model = build_model("one_stream", "agreement", CFG, rng_seed=1)
        weights = loss_weights_for("one_stream")
        batch = make_samples([6, 6, 6], "agreement")
        with Tape() as batched:
            minibatch_loss(model, batch, weights, "agreement", np.random.default_rng(0))
        [keep] = model.dropout_masks(3 * 6, np.random.default_rng(0))
        with Tape() as plain:
            out = model.forward(Tensor(np.stack([s.face_seq for s in batch])),
                                Tensor(np.stack([s.pose_seq for s in batch])), keep=[keep])
            combined_loss(out, np.array([[s.label] for s in batch]), weights, "agreement")
        assert len(batched.records) == len(plain.records)

    @pytest.mark.parametrize("task", ["detection", "agreement"])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_one_length_step_writes_one_loss_record(self, topology, task):
        # the loss is the tape's last record and its only scalar one; it reads every
        # supervised prediction, and the final head's output directly, so a
        # single-layer topology writes no weighting record after its head
        model = build_model(topology, task, CFG, rng_seed=1)
        weights = loss_weights_for(topology)
        with Tape() as tape:
            loss = minibatch_loss(model, make_samples([6, 6, 6], task), weights, task,
                                  np.random.default_rng(0))
        assert [out for _, out, _ in tape.records if out.data.ndim == 0] == [loss]
        (inputs, out, _), (_, final, _) = tape.records[-1], tape.records[-2]
        assert out is loss and len(inputs) == len(weights) and inputs[-1] is final

    def test_dropout_masks_follow_per_stage_draws(self):
        # a one-sample forward takes one (2, T, d) thresholded draw per layer, one
        # after another, attention then feed-forward
        model = build_model("one_to_one", "agreement", CFG, rng_seed=2)
        comp = model._components
        [s] = make_samples([8], "agreement", seed=3)
        face, pose = Tensor(s.face_seq), Tensor(s.pose_seq)
        out = model.forward(face, pose, keep=model.dropout_masks(8, np.random.default_rng(9)))
        rng = np.random.default_rng(9)
        h = add_positional_encoding(T.concat([comp["face_proj"](face), comp["pose_proj"](pose)]))
        for layer in (comp["tf1"], comp["tf2"]):
            h = layer.forward(h, keep=rng.random((2, 8, layer.d_model)) >= CFG.dropout)
        final = comp["final"](T.row_mean(h, 1))
        assert out.final.data.tobytes() == final.data.tobytes()

    def test_dropout_masks_are_the_flat_draw_split_by_stage(self):
        # the seed stream checkpoints and histories depend on: one sample's masks are
        # the thresholded slices of one flat draw of length * 2 * (sum of stage widths)
        # uniforms, stage by stage, each (2, length, width)
        model = build_model("one_to_two", "agreement", CFG, rng_seed=0)
        widths = [model._components[st.name].d_model for st in model.spec.stages]
        assert len(set(widths)) > 1
        masks = model.dropout_masks(7, np.random.default_rng(11))
        flat = np.random.default_rng(11).random(7 * 2 * sum(widths)) >= CFG.dropout
        parts = np.split(flat, np.cumsum([2 * 7 * w for w in widths])[:-1])
        assert len(masks) == len(widths)
        for mask, part, w in zip(masks, parts, widths):
            assert mask.dtype == np.bool_ and mask.shape == (2, 7, w)
            np.testing.assert_array_equal(mask, part.reshape(2, 7, w))

    def test_zero_rate_draws_nothing_and_trains_without_masks(self):
        model = build_model("cross_to_one", "agreement", replace(CFG, dropout=0.0), rng_seed=1)
        batch = make_samples([6, 6, 6], "agreement")
        weights = loss_weights_for("cross_to_one")
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert model.dropout_masks(6, rng) == []
        loss = minibatch_loss(model, batch, weights, "agreement", rng)
        assert rng.bit_generator.state == state
        out = model.forward(Tensor(np.stack([s.face_seq for s in batch])),
                            Tensor(np.stack([s.pose_seq for s in batch])))
        plain = combined_loss(out, np.array([[s.label] for s in batch]), weights, "agreement")
        assert loss.data.tobytes() == plain.data.tobytes()

    @pytest.mark.parametrize("dropout, n_masks", [(0.1, 0), (0.1, 1), (0.1, 3), (0.0, 2)])
    def test_keep_list_of_wrong_length_is_rejected(self, dropout, n_masks):
        # one stack per stage, as dropout_masks draws them: two at a nonzero rate, none at 0
        model = build_model("one_to_one", "agreement", replace(CFG, dropout=dropout))
        [s] = make_samples([4], "agreement")
        keep = [np.ones((2, 4, model.max_width), dtype=bool)] * n_masks
        with pytest.raises(ValueError, match=f"keep holds {n_masks} mask stacks; "
                                             f"dropout_masks draws {2 if dropout else 0}"):
            model.forward(Tensor(s.face_seq), Tensor(s.pose_seq), keep=keep)


class TestTrainingLossGradients:
    """The backward pass training runs, against finite differences of the loss it means."""

    @pytest.mark.parametrize("task", ["detection", "agreement"])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_minibatch_loss_matches_finite_differences_of_per_sample_loop(self, topology, task):
        # dropout on, its noise fixed by reseeding; two lengths, so the length-share
        # weighting is on the tape; 8 seeded elements of every parameter at most.
        # The fused stream is 20 wide for its 10 heads, so every stage has d_head >= 2
        # and the attention scale 1/sqrt(d_head) is not 1 anywhere
        cfg = replace(toy_model_config(face_dim=3, pose_dim=3), d_fused_face=16, d_fused_pose=4)
        model = build_model(topology, task, cfg, rng_seed=4)
        assert model.config.dropout > 0
        batch = make_samples([3, 5, 3], task, seed=6, cfg=cfg)
        weights = loss_weights_for(topology)
        report = finite_diff_gradcheck(
            lambda: minibatch_loss(model, batch, weights, task, np.random.default_rng(8)),
            list(model.named_parameters()),
            reference=lambda: loop_loss(model, batch, weights, task, np.random.default_rng(8)),
            max_elements=8)
        assert report.passed, (report.per_param, report.failures)


class TestBatchedEval:
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_batch_matches_single_forwards(self, topology):
        model = build_model(topology, "detection", CFG, rng_seed=0)
        samples = make_samples([7] * 4, "detection", seed=1)
        out = model.forward(Tensor(np.stack([s.face_seq for s in samples])),
                            Tensor(np.stack([s.pose_seq for s in samples])))
        assert out.final.shape == (4, 1)
        for b, s in enumerate(samples):
            single = model.forward(Tensor(s.face_seq), Tensor(s.pose_seq))
            np.testing.assert_allclose(out.final.data[b], single.final.data[0], rtol=0, atol=ATOL)
            for (tag, p), (single_tag, q) in zip(out.intermediates, single.intermediates):
                assert tag == single_tag
                np.testing.assert_allclose(p.data[b], q.data[0], rtol=0, atol=ATOL)

    @pytest.mark.parametrize("budget", ["default", "one_sample", "uneven"])
    @pytest.mark.parametrize("task", ["detection", "agreement"])
    def test_evaluate_metrics_equals_per_sample_predictions(self, task, budget, monkeypatch):
        model = build_model("cross_to_one", task, CFG, rng_seed=3)
        samples = make_samples([5, 8, 5, 8, 8, 3, 8, 8], task, seed=2)
        # "uneven": at most 4 samples of 8 steps per forward, so the five of that length
        # run as the fewest equal chunks, 3 + 2
        chunk_elements = {"default": training.EVAL_CHUNK_ELEMENTS, "one_sample": 1,
                          "uneven": 4 * 8 * model.max_width}[budget]
        monkeypatch.setattr(training, "EVAL_CHUNK_ELEMENTS", chunk_elements)
        preds = np.array([model.forward(Tensor(s.face_seq), Tensor(s.pose_seq)).final.data.item()
                          for s in samples])
        labels = np.array([s.label for s in samples])
        sizes = []
        forward = model.forward

        def counted_forward(face, pose, **kwargs):
            sizes.append(face.shape[:2])
            return forward(face, pose, **kwargs)

        monkeypatch.setattr(model, "forward", counted_forward)
        metrics = evaluate_metrics(model, samples, task)
        expected_sizes = {"default": [(2, 5), (5, 8), (1, 3)],
                          "one_sample": [(1, 5)] * 2 + [(1, 8)] * 5 + [(1, 3)],
                          "uneven": [(2, 5), (3, 8), (2, 8), (1, 3)]}[budget]
        assert sizes == expected_sizes
        if task == "detection":
            assert metrics["value"] == np.mean((preds >= 0.0) == (labels == 1.0))
        else:
            np.testing.assert_allclose(metrics["value"], np.mean((preds - labels) ** 2),
                                       rtol=0, atol=ATOL)
        assert metrics["n"] == len(samples)
