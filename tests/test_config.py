"""The settable surface: which knobs the configuration and the layers expose."""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bcfusion import tensor as T
from bcfusion.config import ConfigError, ModelConfig, TrainConfig
from bcfusion.layers import TransformerLayer
from bcfusion.training import AdamState


class TestSettableSurface:
    """A new setting is a visible edit here, so it is added on purpose."""

    def test_model_config_fields(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "face_dim", "pose_dim", "d_face", "d_pose", "d_fused_face", "d_fused_pose",
            "d_cross", "ff_hidden", "dropout", "use_positional_encoding"]

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
            "Tensor", "Tape", "ShapeError", "as_tensor", "backward", "matmul", "linear", "add",
            "sub", "neg", "mul", "sigmoid", "log", "clip", "softmax", "layer_norm", "tsum",
            "tmean", "concat", "slice_cols", "attention", "row_mean"]
        assert all(hasattr(T, name) for name in T.__all__)
        # one form each: one product op for 2-D operands, one affine op (with the ReLU),
        # one op for multi-head attention, layer norm of a residual sum, softmax over the
        # last axis, all-element mean, feature-axis concat
        for op, args in ((T.matmul, ["a", "b", "transpose_b"]), (T.concat, ["parts"]),
                         (T.linear, ["x", "w", "b", "relu"]),
                         (T.layer_norm, ["x", "r", "gain", "bias", "eps"]),
                         (T.attention, ["q", "k", "v", "n_heads", "batch"]),
                         (T.softmax, ["x"]), (T.tmean, ["x"])):
            assert list(inspect.signature(op).parameters) == args, op.__name__
        # training dropout takes its masks from ``noise``; there is no generator fallback
        params = inspect.signature(TransformerLayer.forward).parameters
        assert list(params) == ["self", "x", "x_q", "training", "batch", "noise"]

    def test_adam_takes_only_parameters(self):
        assert list(inspect.signature(AdamState.for_params).parameters) == ["params"]
        state = AdamState.for_params([])
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)


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
