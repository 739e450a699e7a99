"""The settable surface: which knobs the configuration and the layers expose."""

import inspect
from dataclasses import fields

from bcfusion.config import ModelConfig, TrainConfig
from bcfusion.layers import TransformerLayer
from bcfusion.training import AdamState


class TestSettableSurface:
    """A new setting is a visible edit here, so it is added on purpose."""

    def test_model_config_fields(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "face_dim", "pose_dim", "d_face", "d_pose", "d_fused_face", "d_fused_pose",
            "d_cross", "face_heads", "pose_heads", "fused_heads", "late_heads", "ff_hidden",
            "dropout", "use_positional_encoding"]

    def test_train_config_fields(self):
        assert [f.name for f in fields(TrainConfig)] == [
            "learning_rate", "weight_decay", "epochs", "batch_size", "window_seconds", "seed",
            "task", "topology", "dtype", "loss_weights", "model"]

    def test_transformer_layer_arguments(self):
        params = inspect.signature(TransformerLayer.__init__).parameters
        assert list(params) == ["self", "d_model", "n_heads", "rng", "dropout_rate"]

    def test_adam_takes_only_parameters(self):
        assert list(inspect.signature(AdamState.for_params).parameters) == ["params"]
        state = AdamState.for_params([])
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)
