"""The batched engine against the per-sample loop it replaced.

A mini-batch runs as stacked (B·T, d) rows through forward and backward
passes, one per chunk of equally long samples.  The references here are the
loop the engine replaced (one forward per sample, its dropout masks drawn in
batch order, the combined losses summed and divided by the batch size) and
the one-tape step (one forward per length).  They yield one loss at a time,
each taped and backed on its own, so that the gradients add up on the
parameters as those of one summed loss would.  Batching and chunking change
only the order of floating-point sums, so they agree to float64 rounding
noise.
"""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion import training
from bcfusion.config import ModelConfig, toy_model_config
from bcfusion.data import ProcessedSample
from bcfusion.gradcheck import finite_diff_gradcheck
from bcfusion.layers import add_positional_encoding
from bcfusion.models import ALL_TOPOLOGIES, FusionModel, FusionTopology, build_model
from bcfusion.tensor import ShapeError, Tape, Tensor, backward
from bcfusion.training import (combined_loss, evaluate_metrics, loss_weights_for,
                               minibatch_backward)

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
    weighted by 1 / batch size.  Yields the losses one at a time, each built
    on whatever tape is active when it is asked for."""
    for s in batch:
        out = model.forward(Tensor(s.face_seq), Tensor(s.pose_seq),
                            keep=model.dropout_masks(len(s.face_seq), rng))
        yield combined_loss(out, s.label, [w / len(batch) for w in weights], task)


def one_tape_loss(model, batch, weights, task, rng):
    """The one-tape step: masks drawn sample by sample in batch order, one forward
    per length, each length's loss weights scaled by its share.  Yields the
    lengths' losses one at a time, as :func:`loop_loss` does."""
    masks = [model.dropout_masks(len(s.face_seq), rng) for s in batch]
    for steps in dict.fromkeys(len(s.face_seq) for s in batch):
        group = [i for i, s in enumerate(batch) if len(s.face_seq) == steps]
        keep = [np.concatenate(stage, axis=1) for stage in zip(*(masks[i] for i in group))]
        out = model.forward(Tensor(np.stack([batch[i].face_seq for i in group])),
                            Tensor(np.stack([batch[i].pose_seq for i in group])), keep=keep)
        share = len(group) / len(batch)
        yield combined_loss(out, np.array([[batch[i].label] for i in group]),
                            [w * share for w in weights], task)


def loss_and_grads(model, make_losses):
    """The sum of the losses ``make_losses()`` yields and its gradient on the
    parameters: each loss is built on a tape of its own and backward adds its
    gradient to the parameters' before the next one is built."""
    for p in model.parameters():
        p.zero_grad()
    losses, total = make_losses(), 0.0
    while True:
        with Tape() as tape:
            loss = next(losses, None)
        if loss is None:
            return total, {name: p.grad.copy() for name, p in model.named_parameters()}
        backward(loss, tape)
        total += loss.data.item()


def step_loss_and_grads(model, batch, weights, task, rng):
    """The loss training's step returns and the gradients it leaves on the parameters."""
    for p in model.parameters():
        p.zero_grad()
    loss = minibatch_backward(model, batch, weights, task, rng)
    return loss, {name: p.grad.copy() for name, p in model.named_parameters()}


def taped_losses(monkeypatch):
    """Spy on training's backward: (loss, the tape's records) per chunk, as backward gets them."""
    seen = []

    def spy(output, tape):
        seen.append((output, list(tape.records)))
        backward(output, tape)

    monkeypatch.setattr(training, "backward", spy)
    return seen


def counted_forwards(model, monkeypatch):
    """Record the (batch, steps) of every forward ``model`` runs."""
    sizes = []
    forward = model.forward

    def counted(face, pose, **kwargs):
        sizes.append(face.shape[:2])
        return forward(face, pose, **kwargs)

    monkeypatch.setattr(model, "forward", counted)
    return sizes


class TestBatchedStep:
    @pytest.mark.parametrize("task", ["detection", "agreement"])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_mixed_length_batch_matches_per_sample_loop(self, topology, task):
        model = build_model(topology, task, CFG, rng_seed=1)
        assert model.config.dropout > 0
        batch = make_samples([6, 9, 6, 6, 9], task)
        weights = loss_weights_for(topology)
        batched, batched_grads = step_loss_and_grads(model, batch, weights, task,
                                                     np.random.default_rng(5))
        looped, looped_grads = loss_and_grads(
            model, lambda: loop_loss(model, batch, weights, task, np.random.default_rng(5)))
        np.testing.assert_allclose(batched, looped, rtol=0, atol=ATOL)
        for name, g in looped_grads.items():
            np.testing.assert_allclose(batched_grads[name], g, rtol=0, atol=ATOL, err_msg=name)

    @pytest.mark.parametrize("budget", ["one_sample", "uneven"])
    @pytest.mark.parametrize("task", ["detection", "agreement"])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_chunked_step_matches_one_tape_step(self, topology, task, budget, monkeypatch):
        # each chunk on its own tape, its backward adding to the parameters' gradients:
        # the loss and every gradient are the one-tape step's, up to summation order
        model = build_model(topology, task, CFG, rng_seed=1)
        assert model.config.dropout > 0
        batch = make_samples([5, 8, 5, 8, 8, 3, 8, 8], task, seed=2)
        weights = loss_weights_for(topology)
        one_tape, one_tape_grads = loss_and_grads(
            model, lambda: one_tape_loss(model, batch, weights, task, np.random.default_rng(5)))
        # "uneven": at most 4 samples of 8 steps per chunk, so the five of that length
        # run as the fewest near-equal chunks, 3 + 2, the larger first
        monkeypatch.setattr(training, "TRAIN_CHUNK_ELEMENTS",
                            {"one_sample": 1, "uneven": 4 * 8 * model.max_width}[budget])
        sizes = counted_forwards(model, monkeypatch)
        chunked, chunked_grads = step_loss_and_grads(model, batch, weights, task,
                                                     np.random.default_rng(5))
        assert sizes == {"one_sample": [(1, 5)] * 2 + [(1, 8)] * 5 + [(1, 3)],
                         "uneven": [(2, 5), (3, 8), (2, 8), (1, 3)]}[budget]
        np.testing.assert_allclose(chunked, one_tape, rtol=0, atol=ATOL)
        assert chunked_grads.keys() == one_tape_grads.keys()
        for name, g in one_tape_grads.items():
            np.testing.assert_allclose(chunked_grads[name], g, rtol=0, atol=ATOL, err_msg=name)

    def test_default_paper_batch_is_one_chunk(self):
        # a batch of 32 windows of 89 frames is one chunk at every paper width, so a
        # default run keeps its bits; at the widest, 128 run as four chunks of 32
        fits = {t: training.TRAIN_CHUNK_ELEMENTS // (89 * FusionModel(
                    FusionTopology(t), "detection", ModelConfig(), rng=None).max_width)
                for t in ALL_TOPOLOGIES}
        assert min(fits.values()) >= 32 and min(fits.values()) * 3 < 128, fits

    def test_one_length_adds_no_weighting_op(self, monkeypatch):
        model = build_model("one_stream", "agreement", CFG, rng_seed=1)
        weights = loss_weights_for("one_stream")
        batch = make_samples([6, 6, 6], "agreement")
        taped = taped_losses(monkeypatch)
        minibatch_backward(model, batch, weights, "agreement", np.random.default_rng(0))
        [(_, batched)] = taped
        [keep] = model.dropout_masks(3 * 6, np.random.default_rng(0))
        with Tape() as plain:
            out = model.forward(Tensor(np.stack([s.face_seq for s in batch])),
                                Tensor(np.stack([s.pose_seq for s in batch])), keep=[keep])
            combined_loss(out, np.array([[s.label] for s in batch]), weights, "agreement")
        assert len(batched) == len(plain.records)

    @pytest.mark.parametrize("task", ["detection", "agreement"])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_one_length_step_writes_one_loss_record(self, topology, task, monkeypatch):
        # the loss is the tape's last record and its only loss one (a record holds
        # slots, not arrays: the op that owns its rule tells it apart); it reads
        # every supervised prediction, and the final head's output directly, so
        # a single-layer topology writes no weighting record after its head
        model = build_model(topology, task, CFG, rng_seed=1)
        weights = loss_weights_for(topology)
        taped = taped_losses(monkeypatch)
        minibatch_backward(model, make_samples([6, 6, 6], task), weights, task,
                           np.random.default_rng(0))
        [(loss, records)] = taped
        assert loss.data.ndim == 0
        assert [out for _, out, rule in records
                if rule.__qualname__.startswith("weighted_loss.")] == [loss.slot]
        (inputs, out, _), (_, final, _) = records[-1], records[-2]
        assert out is loss.slot and len(inputs) == len(weights) and inputs[-1] is final

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
        loss = minibatch_backward(model, batch, weights, "agreement", rng)
        assert rng.bit_generator.state == state
        out = model.forward(Tensor(np.stack([s.face_seq for s in batch])),
                            Tensor(np.stack([s.pose_seq for s in batch])))
        plain = combined_loss(out, np.array([[s.label] for s in batch]), weights, "agreement")
        assert np.float64(loss).tobytes() == plain.data.tobytes()

    @pytest.mark.parametrize("dropout, n_masks", [(0.1, 0), (0.1, 1), (0.1, 3), (0.0, 2)])
    def test_keep_list_of_wrong_length_is_rejected(self, dropout, n_masks):
        # one stack per stage, as dropout_masks draws them: two at a nonzero rate, none at 0
        model = build_model("one_to_one", "agreement", replace(CFG, dropout=dropout))
        [s] = make_samples([4], "agreement")
        keep = [np.ones((2, 4, model.max_width), dtype=bool)] * n_masks
        with pytest.raises(ValueError, match=f"keep holds {n_masks} mask stacks; "
                                             f"dropout_masks draws {2 if dropout else 0}"):
            model.forward(Tensor(s.face_seq), Tensor(s.pose_seq), keep=keep)


class TestUnbatchableSample:
    """A sample that breaks the frame rule fails for every topology, also in
    the stream a topology does not read (``face_only`` x ``narrower_pose``,
    ``pose_only`` x ``wider_face``): on the one batching path, naming the
    sample and its shapes before any forward runs, and as a stacked forward,
    naming both shapes."""

    SHAPES = {"wider_face": ((4, 8), (4, 5)), "fewer_pose_frames": ((4, 7), (3, 5)),
              "empty": ((0, 7), (0, 5)), "not_2d": ((4, 7, 1), (4, 5)),
              "narrower_pose": ((4, 7), (4, 4))}

    @pytest.mark.parametrize("path", ["training", "scoring"])
    @pytest.mark.parametrize("case", SHAPES)
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_names_the_sample_and_its_shapes(self, topology, case, path, monkeypatch):
        model = build_model(topology, "agreement", CFG, rng_seed=1)
        face, pose = self.SHAPES[case]
        bad = ProcessedSample("bad", np.zeros(face), np.zeros(pose), 0.5, "train")
        samples = make_samples([4], "agreement") + [bad]
        sizes = counted_forwards(model, monkeypatch)
        message = (f"sample bad cannot be batched: face {face} and pose {pose} are not "
                   f"(T, 7) and (T, 5) with T >= 1")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if path == "training":
                minibatch_backward(model, samples, loss_weights_for(topology),
                                   "agreement", np.random.default_rng(0))
            else:
                evaluate_metrics(model, samples, "agreement")
        assert sizes == []

    @pytest.mark.parametrize("case", SHAPES)
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_stacked_forward_names_both_shapes(self, topology, case):
        model = build_model(topology, "agreement", CFG, rng_seed=1)
        face, pose = ((1, *shape) for shape in self.SHAPES[case])
        message = (f"face {face} and pose {pose} are not (B, T, 7) and (B, T, 5) stacks "
                   f"with B, T >= 1")
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            model.forward(Tensor(np.zeros(face)), Tensor(np.zeros(pose)))


class TestOutOfDomainLabel:
    """Training and scoring check every label against its task's domain, naming
    the sample before any forward runs: unchecked, detection labels of 0.5
    and 2.0 scored as accuracy 1.0."""

    @pytest.mark.parametrize("path", ["training", "scoring"])
    @pytest.mark.parametrize("task, label", [("detection", 0.5), ("detection", 2.0),
                                             ("agreement", 5.0), ("agreement", np.nan)])
    def test_names_the_sample_before_any_forward(self, task, label, path, monkeypatch):
        model = build_model("one_to_one", task, CFG, rng_seed=1)
        samples = make_samples([4, 4, 4], task)
        samples[1] = replace(samples[1], id="bad", label=label)
        sizes = counted_forwards(model, monkeypatch)
        domain = "0 or 1" if task == "detection" else "in [-1, 1]"
        message = f"sample bad: {task} label must be {domain}, got {label}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if path == "training":
                minibatch_backward(model, samples, loss_weights_for("one_to_one"), task,
                                   np.random.default_rng(0))
            else:
                evaluate_metrics(model, samples, task)
        assert sizes == []


class TestChunkMemory:
    # what a step may hold beyond its first chunk's peak, besides gradients and masks
    SLACK = 64 << 10

    def test_step_peak_follows_the_chunk_not_the_batch(self, monkeypatch):
        # 16 samples under a budget of 4 run as four chunks, one tape each: the step
        # peaks no higher than a 4-sample step plus one set of parameter gradients
        # (accumulated while later chunks run) and the batch's one-byte keep-masks.
        # A whole-batch tape peaks at about 3.5 times the 4-sample step here
        cfg = replace(toy_model_config(face_dim=7, pose_dim=5), d_fused_face=64, d_fused_pose=16)
        model = build_model("one_to_one", "agreement", cfg, rng_seed=0)
        steps = 20
        batch = make_samples([steps] * 16, "agreement", cfg=cfg)
        weights = loss_weights_for("one_to_one")
        monkeypatch.setattr(training, "TRAIN_CHUNK_ELEMENTS", 4 * steps * model.max_width)

        def step_peak(samples):
            for p in model.parameters():
                p.zero_grad()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                minibatch_backward(model, samples, weights, "agreement", np.random.default_rng(1))
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        step_peak(batch[:4])  # fills the positional-encoding cache
        four = step_peak(batch[:4])
        sixteen = step_peak(batch)
        grads = sum(p.data.nbytes for p in model.parameters())
        masks = len(batch) * 2 * steps * sum(model._stage_widths)
        assert sixteen <= four + grads + masks + self.SLACK, (four, sixteen, grads, masks)


class TestTrainingLossGradients:
    """The backward pass training runs, against finite differences of the loss it means."""

    @pytest.mark.parametrize("task", ["detection", "agreement"])
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_minibatch_loss_matches_finite_differences_of_per_sample_loop(self, topology, task,
                                                                          monkeypatch):
        # dropout on, its noise fixed by reseeding; two lengths, and at most two samples
        # of 3 steps per chunk, so the step runs as chunks [0, 2], [3] and [1], each
        # weighted by its share; 8 seeded elements of every parameter at most.
        # The fused stream is 20 wide for its 10 heads, so every stage has d_head >= 2
        # and the attention scale 1/sqrt(d_head) is not 1 anywhere
        cfg = replace(toy_model_config(face_dim=3, pose_dim=3), d_fused_face=16, d_fused_pose=4)
        model = build_model(topology, task, cfg, rng_seed=4)
        assert model.config.dropout > 0
        batch = make_samples([3, 5, 3, 3], task, seed=6, cfg=cfg)
        weights = loss_weights_for(topology)
        monkeypatch.setattr(training, "TRAIN_CHUNK_ELEMENTS", 2 * 3 * model.max_width)
        sizes = counted_forwards(model, monkeypatch)
        # the step leaves the gradients it accumulated on the parameters, which the
        # check reads after its own (empty) backward of the returned constant
        report = finite_diff_gradcheck(
            lambda: Tensor(minibatch_backward(model, batch, weights, task,
                                              np.random.default_rng(8))),
            list(model.named_parameters()),
            reference=lambda: Tensor(sum(loss.data.item() for loss in loop_loss(
                model, batch, weights, task, np.random.default_rng(8)))),
            max_elements=8)
        assert report.passed, (report.per_param, report.failures)
        assert sizes[:3] == [(2, 3), (1, 3), (1, 5)]


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
        sizes = counted_forwards(model, monkeypatch)
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

    @pytest.mark.parametrize("task", ["detection", "agreement"])
    def test_metric_is_np_mean_of_the_scored_predictions_bitwise(self, task):
        model = build_model("one_to_two", task, CFG, rng_seed=3)
        samples = make_samples([5, 8, 5, 8, 8, 3, 8, 8, 5], task, seed=4)
        preds = np.empty(len(samples))
        chunks = training._chunks(model, samples, task, training.EVAL_CHUNK_ELEMENTS)
        for run, face, pose in chunks:
            preds[run] = model.forward(face, pose).final.data[:, 0]
        labels = np.array([s.label for s in samples])
        expected = np.mean((preds >= 0.0) == (labels == 1.0)) if task == "detection" else \
            np.mean((preds - labels) ** 2)
        value = evaluate_metrics(model, samples, task)["value"]
        assert type(value) is float and value == float(expected)
