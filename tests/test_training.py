"""Losses, weight tables, Adam, and the training loop."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bcfusion import training
from bcfusion.config import ConfigError, TrainConfig, toy_model_config
from bcfusion.data import SynthSpec, load_corpus, synth_generate
from bcfusion.models import (ALL_TOPOLOGIES, ForwardOutput, FusionTopology, build_model,
                             load_checkpoint, save_checkpoint)
from bcfusion.tensor import Tape, Tensor, backward
from bcfusion.training import (AdamState, adam_step, combined_loss, evaluate_metrics,
                               loss_weights_for, metrics_record, minibatch_loss, run_training,
                               write_history_csv)


def bce_loss(z, y) -> Tensor:
    """The detection loss of a single-layer model whose final logit is ``z``."""
    return combined_loss(ForwardOutput(final=Tensor(z), intermediates=[]), y, [1.0], "detection")


def mse_loss(pred, y) -> Tensor:
    """The agreement loss of a single-layer model whose final prediction is ``pred``."""
    return combined_loss(ForwardOutput(final=Tensor(pred), intermediates=[]), y, [1.0],
                         "agreement")


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
        out = ForwardOutput(final=Tensor([0.0]), intermediates=[])
        with pytest.raises(ConfigError):
            combined_loss(out, 0.0, [0.5, 0.5], "agreement")


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(2)], state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=4), requires_grad=True)
        before = p.data.copy()
        state = AdamState.for_params([p])
        adam_step([p], [rng.normal(size=4)], state, lr=0.0, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_closed_form(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [np.array([1.0])], state, lr=0.1, weight_decay=0.0)
        expected = 1.0 - 0.1 * 1.0 / (1.0 + training.ADAM_EPS)
        assert abs(p.data[0] - expected) < 1e-15
        assert abs(p.data[0] - 0.9) < 1e-7

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.for_params([p])
        for _ in range(500):
            adam_step([p], [2.0 * p.data], state, lr=0.1, weight_decay=0.0)
        assert abs(p.data[0]) < 1e-3

    def test_weight_decay_shrinks_parameters(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(1)], state, lr=0.1, weight_decay=0.01)
        assert p.data[0] < 5.0

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(ValueError):
            adam_step([p], [np.zeros(2)], state, lr=0.1)


class _StubModel:
    """Duck-typed model returning scripted predictions keyed by sample id, one
    (B, 1) row per sample of a (B, T, features) batch."""

    max_width = 1

    def __init__(self, predictions):
        self.predictions = predictions

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
        model = _StubModel({0.0: 0.25, 1.0: -0.5})
        metrics = evaluate_metrics(model, samples, "agreement")
        assert metrics["value"] == 0.0 and metrics["metric_name"] == "mse"

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            evaluate_metrics(_StubModel({}), [], "detection")

    @pytest.mark.parametrize("task", ["detection", "agreement"])
    def test_non_finite_prediction_names_the_first_such_sample(self, task):
        # a NaN would count as class 0 in accuracy and poison the mean squared error
        samples = stub_samples([1, 0, 1, 0])
        model = _StubModel({0.0: 0.9, 1.0: np.nan, 2.0: 0.8, 3.0: np.inf})
        with pytest.raises(FloatingPointError, match="^non-finite prediction on sample s1$"):
            evaluate_metrics(model, samples, task)

    def test_overflowing_squared_error_is_not_a_score(self):
        samples = stub_samples([0.0, 1.0])
        model = _StubModel({0.0: 1e200, 1.0: 0.5})
        with pytest.raises(FloatingPointError, match=r"^non-finite mse \(inf\)$"):
            evaluate_metrics(model, samples, "agreement")


class TestMetricsRecord:
    @pytest.mark.parametrize("topology", [FusionTopology.ONE_TO_ONE, "one_to_one"],
                             ids=["enum", "str"])
    def test_topology_is_written_by_value(self, topology):
        metrics = {"metric_name": "accuracy", "value": 0.5, "n": 4}
        record = metrics_record("detection", topology, "validation", metrics)
        assert record == {"task": "detection", "topology": "one_to_one", "split": "validation",
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
        cfg = tiny_config(model=toy_model_config(face_dim=9, pose_dim=5))
        with pytest.raises(ConfigError, match="width"):
            run_training(tiny_corpus, cfg)

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
        built = []

        def keep_model(*args, **kwargs):
            built.append(build_model(*args, **kwargs))
            return built[-1]

        def poisoned_backward(output, tape):
            backward(output, tape)
            built[0].parameters()[-1].grad[...] = np.nan

        monkeypatch.setattr(training, "build_model", keep_model)
        monkeypatch.setattr(training, "backward", poisoned_backward)
        monkeypatch.setattr(training, "adam_step", lambda *a, **k: pytest.fail("Adam ran"))
        with pytest.raises(RuntimeError, match="at epoch 1: non-finite gradient on samples "):
            run_training(tiny_corpus, tiny_config())

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
        handed, alive_at_forward = [], []

        def spy_adam(params, grads, *args, **kwargs):
            handed.append([weakref.ref(g) for g in grads])
            return adam_step(params, grads, *args, **kwargs)

        def spy_loss(*args, **kwargs):
            alive_at_forward.append(sum(ref() is not None for step in handed for ref in step))
            return minibatch_loss(*args, **kwargs)

        monkeypatch.setattr(training, "adam_step", spy_adam)
        monkeypatch.setattr(training, "minibatch_loss", spy_loss)
        run_training(tiny_corpus, tiny_config(batch_size=3))  # 6 training samples: 2 steps
        assert len(handed) == 2 and alive_at_forward == [0, 0]

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
