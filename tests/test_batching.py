"""The batched engine against the per-sample loop it replaced.

A mini-batch runs as stacked (B·T, d) rows through one forward and one
backward pass.  The reference here is the loop the engine replaced: one
forward per sample, its dropout noise drawn in batch order, the combined
losses summed and divided by the batch size.  Batching changes only the
order of floating-point sums, so the two agree to float64 rounding noise.
"""

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
    """The per-sample loop: one forward and one combined loss per sample."""
    total = None
    for s in batch:
        out = model.forward(Tensor(s.face_seq), Tensor(s.pose_seq), training=True,
                            noise=model.dropout_noise(len(s.face_seq), rng)[None])
        loss = combined_loss(out, s.label, weights, task)
        total = loss if total is None else T.add(total, loss)
    return T.mul(total, 1.0 / len(batch))


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
        noise = np.stack([model.dropout_noise(6, np.random.default_rng(0)) for _ in batch])
        with Tape() as plain:
            out = model.forward(Tensor(np.stack([s.face_seq for s in batch])),
                                Tensor(np.stack([s.pose_seq for s in batch])),
                                training=True, noise=noise)
            combined_loss(out, np.array([[s.label] for s in batch]), weights, "agreement")
        assert len(batched.records) == len(plain.records)

    def test_dropout_masks_follow_per_stage_draws(self):
        # a one-sample forward cuts its masks from one block that equals one
        # (1, 2, T, d) draw per layer, one after another, attention then feed-forward
        model = build_model("one_to_one", "agreement", CFG, rng_seed=2)
        comp = model._components
        [s] = make_samples([8], "agreement", seed=3)
        face, pose = Tensor(s.face_seq), Tensor(s.pose_seq)
        out = model.forward(face, pose, training=True,
                            noise=model.dropout_noise(8, np.random.default_rng(9))[None])
        rng = np.random.default_rng(9)
        h = add_positional_encoding(T.concat([comp["face_proj"](face), comp["pose_proj"](pose)]))
        for layer in (comp["tf1"], comp["tf2"]):
            h = layer.forward(h, training=True, noise=rng.random((1, 2, 8, layer.d_model)))
        final = comp["final"](T.row_mean(h, 1))
        assert out.final.data.tobytes() == final.data.tobytes()

    def test_training_forward_without_noise_is_rejected(self):
        model = build_model("one_stream", "agreement", CFG, rng_seed=0)
        [s] = make_samples([4], "agreement")
        with pytest.raises(ValueError, match="noise"):
            model.forward(Tensor(s.face_seq), Tensor(s.pose_seq), training=True)


class TestTrainingLossGradients:
    """The backward pass training runs, against finite differences of the loss it means."""

    @pytest.mark.parametrize("task", ["detection", "agreement"])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_minibatch_loss_matches_finite_differences_of_per_sample_loop(self, topology, task):
        # dropout on, its noise fixed by reseeding; two lengths, so the length-share
        # weighting is on the tape; 8 seeded elements of every parameter at most
        cfg = toy_model_config(face_dim=3, pose_dim=3)
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

    @pytest.mark.parametrize("chunk_elements", [training.EVAL_CHUNK_ELEMENTS, 1])
    @pytest.mark.parametrize("task", ["detection", "agreement"])
    def test_evaluate_metrics_equals_per_sample_predictions(self, task, chunk_elements,
                                                            monkeypatch):
        monkeypatch.setattr(training, "EVAL_CHUNK_ELEMENTS", chunk_elements)
        model = build_model("cross_to_one", task, CFG, rng_seed=3)
        samples = make_samples([5, 8, 5, 8, 8, 3], task, seed=2)
        preds = np.array([model.forward(Tensor(s.face_seq), Tensor(s.pose_seq)).final.data.item()
                          for s in samples])
        labels = np.array([s.label for s in samples])
        metrics = evaluate_metrics(model, samples, task)
        if task == "detection":
            assert metrics["value"] == np.mean((preds >= 0.5) == (labels == 1.0))
        else:
            np.testing.assert_allclose(metrics["value"], np.mean((preds - labels) ** 2),
                                       rtol=0, atol=ATOL)
        assert metrics["n"] == len(samples)
