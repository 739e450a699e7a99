"""bcfusion: multi-modal transformer fusion for backchannel analysis.

A numpy-based library for detecting backchannels (short listener feedback)
and estimating the agreement they express, from per-frame face and body-pose
feature sequences.  Ships its own tape-based reverse-mode autodiff core,
eight fusion topologies, a per-layer supervision training scheme, and a
synthetic-corpus harness for verification at desk scale.
"""

from .config import ConfigError, ModelConfig, TrainConfig, toy_model_config
from .data import (CorpusError, ProcessedSample, RawSample, SampleDescriptor, SynthSpec,
                   load_corpus, load_manifest, load_sample_features, preprocess,
                   synth_generate)
from .gradcheck import GradcheckReport, finite_diff_gradcheck
from .layers import Linear, MultiHeadAttention, TransformerLayer, sinusoidal_positional_encoding
from .models import (ALL_TOPOLOGIES, ForwardOutput, FusionModel, FusionTopology,
                     build_model, load_checkpoint, parameter_breakdown, parameter_count,
                     save_checkpoint, split_streams)
from .tensor import Tape, Tensor, ShapeError, backward
from .training import (AdamState, TrainResult, adam_step, combined_loss,
                       evaluate_metrics, loss_weights_for, run_training)

__version__ = "0.1.0"
