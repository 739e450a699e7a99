"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything here is seeded and deterministic.
"""

import json
import time

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.cli import run_command
from bcfusion.config import TrainConfig, toy_model_config
from bcfusion.data import (SynthSpec, load_corpus, preprocess, read_matrix_csv,
                           synth_generate, write_matrix_csv)
from bcfusion.data import RawSample
from bcfusion.layers import TransformerLayer
from bcfusion.models import (ALL_TOPOLOGIES, ForwardOutput, build_model, load_checkpoint,
                             save_checkpoint)
from bcfusion.tensor import Tensor
from bcfusion.training import (combined_loss, evaluate_metrics, loss_weights_for,
                               run_training)
from oracles import attention_weights, sdpa_reference

TOY = toy_model_config()


def report(number: int, description: str) -> None:
    print(f"\n[acceptance] criterion {number}: PASS - {description}")


def make_corpus(tmp_path, **spec_kwargs):
    spec = SynthSpec(**spec_kwargs)
    manifest = synth_generate(spec, tmp_path)
    return load_corpus(manifest, spec.task, window_seconds=3.0,
                       face_dim=spec.face_dim, pose_dim=spec.pose_dim)


def overfit_config(task: str, topology: str, epochs: int) -> TrainConfig:
    return TrainConfig(task=task, topology=topology, epochs=epochs, batch_size=16,
                       learning_rate=0.01, weight_decay=0.0, seed=0,
                       model=toy_model_config(face_dim=7, pose_dim=5))


class TestCriterion1Gradients:
    def test_gradcheck_all_topologies(self, capsys):
        started = time.perf_counter()
        exit_code = run_command(["gradcheck", "--all"])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out.strip().splitlines()
        assert exit_code == 0
        assert len(out) == 8
        worst = 0.0
        for line in out:
            name, status, err = line.split()
            assert status == "PASS", line
            worst = max(worst, float(err))
        assert worst <= 1e-4
        assert elapsed < 120.0, f"gradcheck took {elapsed:.1f}s"
        report(1, f"all 8 topologies gradcheck at tol 1e-4 "
                  f"(worst {worst:.2e}, {elapsed:.1f}s)")


@pytest.fixture(scope="module")
def detection_corpus(tmp_path_factory):
    corpus = make_corpus(tmp_path_factory.mktemp("ov_det"), n_samples=16, t_raw=20,
                         fps=5.0, kind="redundant", noise=0.05, seed=31,
                         task="detection", face_dim=6, pose_dim=4, val_frac=0.0)
    return {"train": corpus["train"], "validation": corpus["train"], "test": []}


@pytest.fixture(scope="module")
def agreement_corpus(tmp_path_factory):
    corpus = make_corpus(tmp_path_factory.mktemp("ov_agr"), n_samples=16, t_raw=20,
                         fps=5.0, kind="redundant", noise=0.05, seed=32,
                         task="agreement", face_dim=6, pose_dim=4, val_frac=0.0)
    return {"train": corpus["train"], "validation": corpus["train"], "test": []}


@pytest.fixture(scope="module")
def xor_corpus(tmp_path_factory):
    return make_corpus(tmp_path_factory.mktemp("xor"), n_samples=1000, t_raw=20,
                       fps=5.0, kind="xor-cross-modal", noise=0.05, seed=7,
                       task="detection", face_dim=6, pose_dim=4, val_frac=0.2)


class TestCriterion2OverfitCapacity:
    @pytest.mark.parametrize("topology", [t.value for t in ALL_TOPOLOGIES])
    def test_detection_reaches_full_train_accuracy(self, detection_corpus, topology):
        started = time.perf_counter()
        result = run_training(detection_corpus, overfit_config("detection", topology, 40))
        elapsed = time.perf_counter() - started
        accuracy = evaluate_metrics(result.model, detection_corpus["train"], "detection")
        assert accuracy["value"] == 1.0, f"{topology}: train accuracy {accuracy['value']}"
        assert elapsed < 300.0
        report(2, f"{topology} detection train accuracy 1.0 "
                  f"(epoch {result.best_epoch}, {elapsed:.0f}s)")

    @pytest.mark.parametrize("topology", [t.value for t in ALL_TOPOLOGIES])
    def test_agreement_overfits_below_1e3_mse(self, agreement_corpus, topology):
        started = time.perf_counter()
        result = run_training(agreement_corpus, overfit_config("agreement", topology, 400))
        elapsed = time.perf_counter() - started
        mse = evaluate_metrics(result.model, agreement_corpus["train"], "agreement")
        assert mse["value"] < 1e-3, f"{topology}: train MSE {mse['value']}"
        assert elapsed < 300.0
        report(2, f"{topology} agreement train MSE {mse['value']:.1e} ({elapsed:.0f}s)")


class TestCriterion3FusionAdvantage:
    def test_fused_beats_single_modalities(self, xor_corpus):
        def train_topology(topology):
            cfg = TrainConfig(task="detection", topology=topology, epochs=15, batch_size=32,
                              learning_rate=0.005, weight_decay=0.0005, seed=0,
                              model=toy_model_config(face_dim=7, pose_dim=5))
            return run_training(xor_corpus, cfg).best_val_metric

        fused = train_topology("one_stream")
        face_only = train_topology("face_only")
        pose_only = train_topology("pose_only")
        assert fused >= 0.9, f"fused validation accuracy {fused}"
        assert face_only <= 0.65, f"face-only validation accuracy {face_only}"
        assert pose_only <= 0.65, f"pose-only validation accuracy {pose_only}"
        report(3, f"xor corpus: fused {fused:.3f} vs face {face_only:.3f} / "
                  f"pose {pose_only:.3f}")


class TestCriterion4LossWeightExactness:
    def test_first_stage_weight_is_exact(self):
        output = ForwardOutput(final=Tensor([0.0]),
                               intermediates=[("tf1", Tensor([1.0])),
                                              ("tf2", Tensor([0.0])),
                                              ("tf3", Tensor([0.0]))])
        total = combined_loss(output, 0.0, loss_weights_for("one_to_two"), "agreement")
        assert total.data.item() == 0.35

    def test_all_weight_tables_sum_to_exactly_one(self):
        for topology in ALL_TOPOLOGIES:
            assert sum(loss_weights_for(topology)) == 1.0, topology
        report(4, "stacked-supervision weights exact: first stage 0.35, tables sum to 1.0")


class TestCriterion5PreprocessingContract:
    def test_constant_input_yields_zero_features(self):
        raw = RawSample("c", np.full((120, 5), 3.0), np.full((120, 3), -2.0),
                        30.0, 1.0, "train")
        out = preprocess(raw, window_seconds=3.0)
        assert np.all(out.face_seq[:, :-1] == 0.0)
        assert np.all(out.pose_seq[:, :-1] == 0.0)

    def test_three_seconds_at_30fps_gives_89_steps(self):
        raw = RawSample("w", np.zeros((95, 4)), np.zeros((95, 2)), 30.0, 0.0, "train")
        out = preprocess(raw, window_seconds=3.0)
        assert out.face_seq.shape[0] == 89
        assert out.pose_seq.shape[0] == 89

    def test_nonnegative_over_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            t = int(rng.integers(8, 30))
            raw = RawSample(f"p{seed}", rng.normal(size=(t, 4)), rng.normal(size=(t, 2)),
                            float(rng.integers(2, 8)), 0.0, "train")
            out = preprocess(raw, window_seconds=1.0)
            assert np.all(out.face_seq >= 0.0) and np.all(out.pose_seq >= 0.0)
        report(5, "preprocess: zero features on constant input, length 89 at 3s/30fps, "
                  "non-negative outputs (100 seeds)")


class TestCriterion6Determinism:
    def test_identical_seeded_train_runs_are_bitwise_identical(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.cfg"
        spec_file.write_text("n_samples = 8\nt_raw = 15\nfps = 5\nkind = redundant\n"
                             "seed = 13\nface_dim = 6\npose_dim = 4\nval_frac = 0.25\n")
        corpus_dir = tmp_path / "corpus"
        assert run_command(["synth", "--spec", str(spec_file), "--out", str(corpus_dir)]) == 0
        config = tmp_path / "train.cfg"
        config.write_text("face_dim = 7\npose_dim = 5\nd_face = 8\nd_pose = 8\n"
                          "d_fused_face = 8\nd_fused_pose = 2\nd_cross = 8\nff_hidden = 8\n"
                          "epochs = 3\nbatch_size = 4\nlearning_rate = 0.01\n")
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            args = ["train", "--manifest", str(corpus_dir / "manifest.csv"),
                    "--topology", "one_to_two", "--task", "detection",
                    "--config", str(config), "--out", str(out), "--seed", "5"]
            assert run_command(args) == 0
            outputs.append(out)
        capsys.readouterr()
        hist_a = (outputs[0] / "history.csv").read_bytes()
        hist_b = (outputs[1] / "history.csv").read_bytes()
        metrics_a = (outputs[0] / "metrics.json").read_bytes()
        metrics_b = (outputs[1] / "metrics.json").read_bytes()
        assert hist_a == hist_b
        assert metrics_a == metrics_b
        report(6, "two seeded CLI train runs: history and metrics bitwise identical")


class TestCriterion7RoundTrips:
    def test_checkpoint_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(17)
        face = Tensor(rng.normal(size=(8, TOY.face_dim)))
        pose = Tensor(rng.normal(size=(8, TOY.pose_dim)))
        for topology in ALL_TOPOLOGIES:
            model = build_model(topology, "detection", TOY, rng_seed=2)
            before = model.forward(face, pose)
            save_checkpoint(model, tmp_path / f"{topology.value}.npz")
            loaded, _ = load_checkpoint(tmp_path / f"{topology.value}.npz")
            after = loaded.forward(face, pose)
            assert before.final.data.item() == after.final.data.item(), topology
            for (_, pa), (_, pb) in zip(before.intermediates, after.intermediates):
                assert pa.data.item() == pb.data.item()

    def test_corpus_write_read_is_exact(self, tmp_path):
        rng = np.random.default_rng(18)
        arr = rng.standard_normal((60, 9)) * 10.0 ** rng.integers(-9, 9, (60, 9)).astype(float)
        write_matrix_csv(tmp_path / "m.csv", arr)
        np.testing.assert_array_equal(read_matrix_csv(tmp_path / "m.csv"), arr)
        report(7, "checkpoint save/load and corpus write/read round-trip bitwise")


class TestCriterion8StructuralInvariants:
    def test_softmax_row_sums(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            out = attention_weights(rng.normal(size=(5, 11)) * 20)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    def test_transformer_layer_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        layer = TransformerLayer(8, 2, rng, dropout_rate=0.0)
        x = rng.normal(size=(7, 8))
        perm = rng.permutation(7)
        base = layer.forward(Tensor(x)).data
        permuted = layer.forward(Tensor(x[perm])).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-9)

    def test_single_head_identity_mha_equals_sdpa(self):
        rng = np.random.default_rng(20)
        d = 6
        eye = Tensor(np.eye(d))
        x = rng.normal(size=(5, d))
        out = T.attention(Tensor(x), Tensor(x), eye, eye, eye, eye, 1, 1).data
        np.testing.assert_allclose(out, sdpa_reference(x, x, x), rtol=0, atol=1e-12)
        report(8, "attention rows sum to 1, layer permutation-equivariant, "
                  "single-head identity attention matches the numpy reference")
