"""The settable surface: which knobs the configuration and the layers expose."""

import inspect
import re
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.config import (MODEL_RULES, TASKS, TRAIN_RULES, ConfigError, ModelConfig,
                             TrainConfig, dataclass_from_mapping, parse_config_file,
                             toy_model_config)
from bcfusion.data import SPEC_RULES, CorpusError, ProcessedSample, SynthSpec
from bcfusion.layers import TransformerLayer
from bcfusion.models import ALL_TOPOLOGIES, FusionModel, Topology
from bcfusion.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, evaluate_metrics,
                               run_training)


class TestSettableSurface:
    """A new setting is a visible edit here, so it is added on purpose."""

    def test_model_config_fields(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "face_dim", "pose_dim", "d_face", "d_pose", "d_fused_face", "d_fused_pose",
            "d_cross", "ff_hidden", "dropout"]

    def test_train_config_fields(self):
        assert [f.name for f in fields(TrainConfig)] == [
            "learning_rate", "weight_decay", "epochs", "batch_size", "window_seconds", "seed",
            "task", "topology", "dtype", "model"]

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = re.search(r"Training keys are(.*?)any other key", readme, re.S)
        listed = [name for name in re.findall(r"`(\w+)`", section.group(1))
                  if name not in ("TrainConfig", "ModelConfig")]
        keys = [f.name for cls in (TrainConfig, ModelConfig) for f in fields(cls)
                if f.name != "model"]
        assert sorted(listed) == sorted(keys)

    def test_transformer_layer_arguments(self):
        params = inspect.signature(TransformerLayer.__init__).parameters
        assert list(params) == ["self", "d_model", "n_heads", "rng", "dropout_rate"]

    def test_tensor_ops_take_the_batched_forms_only(self):
        assert T.__all__ == [
            "Tensor", "Tape", "ShapeError", "as_tensor", "backward", "linear", "add",
            "layer_norm", "concat", "slice_cols", "attention", "row_mean", "weighted_loss"]
        assert all(hasattr(T, name) for name in T.__all__)
        # one form each: one affine op (with the ReLU), one op for multi-head attention
        # from the layer inputs to the output projection (its softmax included), layer
        # norm of a residual sum (its residual optionally dropped by a keep-mask),
        # feature-axis concat, and one op for the weighted per-head training loss
        for op, args in ((T.concat, ["parts"]),
                         (T.linear, ["x", "w", "b", "relu"]),
                         (T.layer_norm, ["x", "r", "gain", "bias", "keep", "rate"]),
                         (T.attention, ["x_q", "x_kv", "wq", "wk", "wv", "wo", "n_heads",
                                        "batch"]),
                         (T.weighted_loss, ["preds", "y", "weights", "kind"])):
            assert list(inspect.signature(op).parameters) == args, op.__name__
        # a training forward takes its dropout keep-masks; there is no training flag
        params = inspect.signature(TransformerLayer.forward).parameters
        assert list(params) == ["self", "x", "x_q", "batch", "keep"]
        params = inspect.signature(FusionModel.forward).parameters
        assert list(params) == ["self", "face_seq", "pose_seq", "keep"]
        # whether a topology concatenates its projections is read off its stages
        assert [f.name for f in fields(Topology)] == ["streams", "stages", "pooled", "ff_head"]

    def test_adam_takes_only_parameters(self):
        assert list(inspect.signature(AdamState.for_params).parameters) == ["params"]
        assert [f.name for f in fields(AdamState)] == ["m", "v", "step"]
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)

    def test_training_and_eval_call_every_op(self, monkeypatch):
        # an op in the package's op set that no training or eval path calls is dead code
        ops = [name for name in T.__all__
               if name not in ("Tensor", "Tape", "ShapeError", "as_tensor", "backward")]
        called = set()

        def counted(name, op):
            def wrapper(*args, **kwargs):
                called.add(name)
                return op(*args, **kwargs)
            return wrapper

        for name in ops:
            monkeypatch.setattr(T, name, counted(name, getattr(T, name)))
        rng = np.random.default_rng(0)
        cfg = toy_model_config(face_dim=7, pose_dim=5)
        for task in TASKS:
            corpus = {split: [ProcessedSample(f"{split}{i}", rng.normal(size=(4, 7)),
                                              rng.normal(size=(4, 5)), float(i % 2), split)
                              for i in range(n)]
                      for split, n in (("train", 4), ("validation", 2))}
            for topology in ALL_TOPOLOGIES:
                result = run_training(corpus, TrainConfig(epochs=1, batch_size=2, task=task,
                                                          topology=topology.value, model=cfg))
                evaluate_metrics(result.model, corpus["validation"], task)
        assert [name for name in ops if name not in called] == []


OWNERS = [(ModelConfig, MODEL_RULES, ConfigError), (TrainConfig, TRAIN_RULES, ConfigError),
          (SynthSpec, SPEC_RULES, CorpusError)]


def wrong_typed_values(kind, default):
    """Values a library caller might set by mistake: the text of a number, a bool
    for a number, a whole float for an int (which the width arithmetic would
    take), and a number or text for the rest."""
    if kind is str:
        return [1, True]
    wrong = [str(default), True]
    return wrong + [float(default)] if kind is int else wrong


WRONG_TYPED = [pytest.param(cls, error, name, value, id=f"{cls.__name__}.{name}={value!r}")
               for cls, _, error in OWNERS
               for name, kind in get_type_hints(cls).items() if name != "model"
               for value in wrong_typed_values(kind, getattr(cls(), name))]


# Text in a config file that does not parse as its field's type, per owner and field:
# a flat train config file sets ModelConfig fields too
UNPARSABLE = [pytest.param(file_cls, rules, error, name, text,
                           id=f"{file_cls.__name__}.{name}={text}")
              for cls, rules, error in OWNERS
              for file_cls in [SynthSpec if cls is SynthSpec else TrainConfig]
              for name, kind in get_type_hints(cls).items() if kind in (int, float)
              for text in (["3.0", "x"] if kind is int else ["x"])]


class TestRuleTables:
    """Every field is checked by its class's rule table, whoever set the value."""

    @pytest.mark.parametrize("cls, rules, error, name, text", UNPARSABLE)
    def test_unparsable_file_value_names_file_line_and_rule(self, tmp_path, cls, rules, error,
                                                           name, text):
        path = tmp_path / "settings.cfg"
        other = "task = detection" if name == "seed" else "seed = 1"  # a key appears once
        path.write_text(f"# settings\n{other}\n{name} = {text}\n")
        with pytest.raises(error, match=rf"^{re.escape(str(path))}:3: config key '{name}' must "
                                        rf"be {re.escape(rules[name].text)}, got '{text}'$"):
            dataclass_from_mapping(cls, parse_config_file(path))

    @pytest.mark.parametrize("cls, error, name, value", WRONG_TYPED)
    def test_wrong_typed_value_is_an_error_naming_the_key(self, cls, error, name, value):
        with pytest.raises(error, match=rf"^config key '{name}' must be .*, got "
                                        rf"{re.escape(repr(value))}$"):
            cls(**{name: value}).validate()

    @pytest.mark.parametrize("cls, rules", [(cls, rules) for cls, rules, _ in OWNERS],
                             ids=[cls.__name__ for cls, _, _ in OWNERS])
    def test_table_names_every_field(self, cls, rules):
        assert list(rules) == [f.name for f in fields(cls) if f.name != "model"]

    @pytest.mark.parametrize("value", [8, np.int64(8)])
    def test_integral_and_real_numbers_are_accepted(self, value):
        model = toy_model_config(dropout=0)
        TrainConfig(epochs=value, learning_rate=value, model=model).validate()
        replace(toy_model_config(), d_face=value, dropout=np.float32(0.5)).validate()

    def test_int_too_large_for_a_float_is_compared_exactly(self):
        # no OverflowError from converting it to a float
        TrainConfig(window_seconds=10**400, model=toy_model_config()).validate()
        with pytest.raises(ConfigError, match=r"^config key 'weight_decay' must be a finite "):
            TrainConfig(weight_decay=-10**400).validate()


def old_width_table_accepts(c: ModelConfig) -> bool:
    """The hand-written width/head table ModelConfig.validate held before the
    head counts moved into TOPOLOGIES (face 4, pose 2, fused 10, late 8 heads)."""
    checks = [(c.d_face, 4), (c.d_pose, 2), (c.d_fused_face, 4), (c.d_fused_pose, 2),
              (c.d_fused_face + c.d_fused_pose, 10), (c.d_cross, 4), (c.d_cross, 2),
              (2 * c.d_cross, 8), (c.d_face + c.d_pose, 8)]
    return all(width >= heads and width % heads == 0 for width, heads in checks)


class TestWidthRule:
    WIDTHS = ("d_face", "d_pose", "d_fused_face", "d_fused_pose", "d_cross")

    def test_derived_rule_accepts_what_the_old_table_accepted(self):
        # Uniform widths almost never pass every check, so each width is drawn
        # from the multiples of 4 most of the time: the sample then holds many
        # accepted configs and many that miss by one width.
        rng = np.random.default_rng(0)
        outcomes = []
        for _ in range(3000):
            widths = {name: int(4 * rng.integers(1, 7) if rng.random() < 0.8
                                else rng.integers(1, 25)) for name in self.WIDTHS}
            cfg = ModelConfig(**widths)
            try:
                cfg.validate()
                accepted = True
            except ConfigError:
                accepted = False
            assert accepted == old_width_table_accepts(cfg), widths
            outcomes.append(accepted)
        assert 100 <= sum(outcomes) <= len(outcomes) - 100

    def test_error_names_the_fields_that_make_up_the_width(self):
        with pytest.raises(ConfigError, match=r"^d_fused_face \+ d_fused_pose \(11\) must be "
                                              r"a positive multiple of 10 heads$"):
            ModelConfig(d_fused_face=9, d_fused_pose=2).validate()

    def test_width_read_from_a_file_names_its_line(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("d_fused_face = 9\nepochs = 1\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:1: d_fused_face \+ "
                                              r"d_fused_pose \(83\) must be a positive multiple"):
            mapping = parse_config_file(path)
            dataclass_from_mapping(TrainConfig, mapping).validate(mapping.origin)
