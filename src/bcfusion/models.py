"""The eight model wirings that combine face and pose feature streams.

``TOPOLOGIES`` is the one place a topology is described: its stream
projections, its transformer stages and how they connect, and the stages
pooled into its final head.  Model construction, the forward pass, the
per-layer prediction heads and (in :mod:`bcfusion.training`) the loss
weights are all derived from it.

Six fused topologies plus the two single-modality ablations:

* ``one_stream``      per-stream projections concatenated per frame, one
                      transformer layer, mean-pool, linear head.
* ``one_to_one``      one_stream body with a second transformer layer stacked
                      on the first layer's output sequence.
* ``one_to_two``      fused first layer, split back into face/pose channels,
                      one transformer layer per channel, pooled features
                      joined by a small feed-forward head.
* ``two_to_one``      independent per-stream transformer layers, outputs
                      concatenated per frame, one fusing transformer layer.
* ``cross_attention`` two parallel streams where each layer's queries come
                      from the other stream's embedded sequence.
* ``cross_to_one``    cross_attention streams concatenated per frame and fed
                      through an additional fusing transformer layer.
* ``face_only`` / ``pose_only``   single-modality single-layer baselines.

Multi-layer topologies expose intermediate predictions (one small pooled
linear head per supervised layer) alongside the final prediction so the
training loss can supervise every layer.  Detection heads end in a sigmoid;
agreement (regression) heads are linear.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .config import ConfigError, ModelConfig
from .layers import (Linear, TransformerLayer, add_positional_encoding, mean_pool)
from .tensor import ShapeError, Tensor

CHECKPOINT_FORMAT = "bcfusion-checkpoint"
CHECKPOINT_VERSION = 1


class FusionTopology(str, Enum):
    ONE_STREAM = "one_stream"
    ONE_TO_ONE = "one_to_one"
    ONE_TO_TWO = "one_to_two"
    TWO_TO_ONE = "two_to_one"
    CROSS_ATTENTION = "cross_attention"
    CROSS_TO_ONE = "cross_to_one"
    FACE_ONLY = "face_only"
    POSE_ONLY = "pose_only"


ALL_TOPOLOGIES = tuple(FusionTopology)


@dataclass(frozen=True)
class Stage:
    """One transformer layer of a topology.

    ``inputs`` are concatenated per frame, in order.  Each is an embedded
    stream (``face``, ``pose``, or ``fused`` for their per-frame concat), an
    earlier stage, or one stream's channel of a split fused stage
    (``tf1:face``).  ``heads`` names the ModelConfig field holding the head
    count; ``query`` names the input whose rows supply cross-attention queries.
    """

    name: str
    inputs: tuple[str, ...]
    heads: str
    query: Optional[str] = None


@dataclass(frozen=True)
class Topology:
    """One wiring: stream projections (stream -> ModelConfig width field), whether
    they are concatenated per frame before positional encoding, the transformer
    stages in order, and the stages mean-pooled into the final head, which is
    a two-layer feed-forward head when ``ff_head`` is set."""

    streams: dict[str, str]
    fused: bool
    stages: tuple[Stage, ...]
    pooled: tuple[str, ...]
    ff_head: bool = False

    def depths(self) -> dict[str, int]:
        """Stage name -> number of transformer layers on its longest input path."""
        depth: dict[str, int] = {}
        for st in self.stages:
            depth[st.name] = 1 + max(depth.get(ref.partition(":")[0], 0) for ref in st.inputs)
        return depth

    @cached_property
    def supervised(self) -> tuple[str, ...]:
        """Stages with their own prediction head: all of them once layers are stacked."""
        depth = self.depths()
        return tuple(depth) if max(depth.values()) > 1 else ()


_FUSED = {"face": "d_fused_face", "pose": "d_fused_pose"}
_LATE = {"face": "d_face", "pose": "d_pose"}
_CROSS = {"face": "d_cross", "pose": "d_cross"}
_TF1 = Stage("tf1", ("fused",), "fused_heads")
_TF_X = (Stage("tf1x", ("face",), "face_heads", query="pose"),
         Stage("tf2x", ("pose",), "pose_heads", query="face"))
_TF_FACE, _TF_POSE = Stage("tf1", ("face",), "face_heads"), Stage("tf1", ("pose",), "pose_heads")

TOPOLOGIES: dict[FusionTopology, Topology] = {
    FusionTopology.ONE_STREAM: Topology(_FUSED, True, (_TF1,), ("tf1",)),
    FusionTopology.ONE_TO_ONE: Topology(
        _FUSED, True, (_TF1, Stage("tf2", ("tf1",), "fused_heads")), ("tf2",)),
    FusionTopology.ONE_TO_TWO: Topology(
        _FUSED, True, (_TF1, Stage("tf2", ("tf1:face",), "face_heads"),
                       Stage("tf3", ("tf1:pose",), "pose_heads")), ("tf2", "tf3"), ff_head=True),
    FusionTopology.TWO_TO_ONE: Topology(
        _LATE, False, (_TF_FACE, Stage("tf2", ("pose",), "pose_heads"),
                       Stage("tf3", ("tf1", "tf2"), "late_heads")), ("tf3",)),
    FusionTopology.CROSS_ATTENTION: Topology(_CROSS, False, _TF_X, ("tf1x", "tf2x")),
    FusionTopology.CROSS_TO_ONE: Topology(
        _CROSS, False, _TF_X + (Stage("tf3", ("tf1x", "tf2x"), "late_heads"),), ("tf3",)),
    FusionTopology.FACE_ONLY: Topology({"face": "d_face"}, False, (_TF_FACE,), ("tf1",)),
    FusionTopology.POSE_ONLY: Topology({"pose": "d_pose"}, False, (_TF_POSE,), ("tf1",)),
}


@dataclass
class ForwardOutput:
    """Final prediction plus per-supervised-layer intermediate predictions.

    Each entry is (layer tag, size-1 tensor); for detection every prediction
    is a probability in (0, 1).
    """

    final: Tensor
    intermediates: list[tuple[str, Tensor]]


def split_streams(x: Tensor, d_a: int) -> tuple[Tensor, Tensor]:
    """Split (T, d_a + d_b) at feature index d_a; exact inverse of concat."""
    if x.data.ndim != 2:
        raise ShapeError(f"split_streams expects a 2-D tensor, got {x.shape}")
    width = x.shape[1]
    if not 0 < d_a < width:
        raise ShapeError(f"split index {d_a} out of range for width {width}")
    return T.slice_cols(x, 0, d_a), T.slice_cols(x, d_a, width)


class PredictionHead:
    """Linear map from a pooled feature vector to one output; squashed for detection."""

    def __init__(self, d_in: int, rng: np.random.Generator, sigmoid_output: bool):
        self.fc = Linear(d_in, 1, rng)
        self.sigmoid_output = sigmoid_output

    def __call__(self, features: Tensor) -> Tensor:
        out = self.fc(features)
        return T.sigmoid(out) if self.sigmoid_output else out

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield from self.fc.named_parameters(prefix)


class FeedForwardHead:
    """Two-layer perceptron head used where a single linear map is not enough."""

    def __init__(self, d_in: int, hidden: int, rng: np.random.Generator, sigmoid_output: bool):
        self.fc1 = Linear(d_in, hidden, rng)
        self.fc2 = Linear(hidden, 1, rng)
        self.sigmoid_output = sigmoid_output

    def __call__(self, features: Tensor) -> Tensor:
        out = self.fc2(T.relu(self.fc1(features)))
        return T.sigmoid(out) if self.sigmoid_output else out

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield from self.fc1.named_parameters(f"{prefix}fc1.")
        yield from self.fc2.named_parameters(f"{prefix}fc2.")


class FusionModel:
    """A built topology: input projections, transformer layers, prediction heads.

    Instances are constructed through :func:`build_model`.  A model is
    single-writer during training; concurrent read-only inference is safe.
    """

    def __init__(self, topology: FusionTopology, task: str, config: ModelConfig,
                 rng: np.random.Generator):
        config.validate()
        if task not in ("detection", "agreement"):
            raise ConfigError(f"task must be 'detection' or 'agreement', got {task!r}")
        self.topology = topology
        self.task = task
        self.config = config
        self.spec = spec = TOPOLOGIES[topology]
        c, sig = config, task == "detection"
        # creation order (projections, stages, heads, final) fixes seeded weights and checkpoints
        self._components = comp = {}
        width = {s: getattr(c, field) for s, field in spec.streams.items()}
        for s in spec.streams:
            comp[f"{s}_proj"] = Linear(getattr(c, f"{s}_dim"), width[s], rng)
        width["fused"] = sum(width.values())
        for st in spec.stages:
            # a channel such as "tf1:face" is as wide as that stream's projection
            width[st.name] = d = sum(width[ref.rpartition(":")[2]] for ref in st.inputs)
            comp[st.name] = TransformerLayer(d, getattr(c, st.heads), rng, d_ff=c.ffn_mult * d,
                                             dropout_rate=c.dropout, pre_norm=c.pre_norm)
        for name in spec.supervised:
            comp[f"head_{name}"] = PredictionHead(width[name], rng, sig)
        d = sum(width[name] for name in spec.pooled)
        comp["final"] = FeedForwardHead(d, c.ff_hidden, rng, sig) if spec.ff_head \
            else PredictionHead(d, rng, sig)

    # -- forward ------------------------------------------------------------

    def _check_inputs(self, face_seq: Tensor, pose_seq: Tensor) -> None:
        c = self.config
        if face_seq.data.ndim != 2 or pose_seq.data.ndim != 2:
            raise ShapeError("inputs must be (T, features) sequences")
        if face_seq.shape[0] != pose_seq.shape[0]:
            raise ShapeError(
                f"modalities are not frame-aligned: face T={face_seq.shape[0]}, "
                f"pose T={pose_seq.shape[0]}")
        if face_seq.shape[0] < 1:
            raise ValueError("empty sequence: at least one time step required")
        if "face" in self.spec.streams and face_seq.shape[1] != c.face_dim:
            raise ShapeError(f"face width {face_seq.shape[1]} != configured {c.face_dim}")
        if "pose" in self.spec.streams and pose_seq.shape[1] != c.pose_dim:
            raise ShapeError(f"pose width {pose_seq.shape[1]} != configured {c.pose_dim}")

    def _pe(self, x: Tensor) -> Tensor:
        return add_positional_encoding(x) if self.config.use_positional_encoding else x

    def forward(self, face_seq: Tensor, pose_seq: Tensor, training: bool = False,
                rng: Optional[np.random.Generator] = None) -> ForwardOutput:
        """Walk the topology's table; positional encoding enters first-layer inputs only."""
        dtype = next(self.named_parameters())[1].data.dtype
        face_seq, pose_seq = (x if x.data.dtype == dtype else Tensor(x.data.astype(dtype))
                              for x in (T.as_tensor(face_seq), T.as_tensor(pose_seq)))
        self._check_inputs(face_seq, pose_seq)
        spec, comp, kw = self.spec, self._components, {"training": training, "rng": rng}
        raw = {"face": face_seq, "pose": pose_seq}
        seq = {s: comp[f"{s}_proj"](raw[s]) for s in spec.streams}
        if spec.fused:
            seq = {"fused": T.concat(list(seq.values()), axis=1)}
        seq = {s: self._pe(x) for s, x in seq.items()}
        for st in spec.stages:
            for s in dict.fromkeys(ref.partition(":")[0] for ref in st.inputs if ref not in seq):
                seq[s + ":face"], seq[s + ":pose"] = split_streams(seq[s], comp["face_proj"].d_out)
            xs = [seq[ref] for ref in st.inputs]
            x = T.concat(xs, axis=1) if len(xs) > 1 else xs[0]
            seq[st.name] = comp[st.name].forward(x, x_q=seq.get(st.query), **kw)
        intermediates = [(name, comp[f"head_{name}"](mean_pool(seq[name])))
                         for name in spec.supervised]
        pooled = [mean_pool(seq[name]) for name in spec.pooled]
        final = comp["final"](T.concat(pooled, axis=0) if len(pooled) > 1 else pooled[0])
        return ForwardOutput(final=final, intermediates=intermediates)

    __call__ = forward

    # -- parameters -----------------------------------------------------------

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name, component in self._components.items():
            yield from component.named_parameters(f"{name}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]


def build_model(topology: FusionTopology | str, task: str, config: ModelConfig,
                rng_seed: int = 0) -> FusionModel:
    """Construct a topology with seeded, deterministic weight initialization."""
    topology = FusionTopology(topology)
    rng = np.random.default_rng(rng_seed)
    return FusionModel(topology, task, config, rng)


def parameter_count(model: FusionModel) -> int:
    """Total scalar parameter count across all registered tensors."""
    return sum(p.size for _, p in model.named_parameters())


def parameter_breakdown(model: FusionModel) -> dict[str, int]:
    """Scalar parameter count per top-level sub-component."""
    out: dict[str, int] = {}
    for name, p in model.named_parameters():
        top = name.split(".", 1)[0]
        out[top] = out.get(top, 0) + p.size
    return out


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(model: FusionModel, path: str | Path,
                    extra_meta: Optional[dict] = None) -> None:
    """Write a versioned npz container with topology, config, and all parameters."""
    from dataclasses import asdict
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "topology": model.topology.value,
        "task": model.task,
        "model_config": asdict(model.config),
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = {f"param:{name}": p.data for name, p in model.named_parameters()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with io.BytesIO() as buf:
        np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                 **arrays)
        path.write_bytes(buf.getvalue())


def load_checkpoint(path: str | Path) -> tuple[FusionModel, dict]:
    """Rebuild a model in its stored precision; forward outputs reproduce bitwise."""
    path = Path(path)
    with np.load(path) as z:
        if "__meta__" not in z:
            raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
        meta = json.loads(bytes(z["__meta__"]).decode("utf-8"))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: unexpected format {meta.get('format')!r}")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported version {meta.get('version')!r}")
        arrays = {k[len("param:"):]: z[k] for k in z.files if k.startswith("param:")}
    config = ModelConfig(**meta["model_config"])
    model = build_model(meta["topology"], meta["task"], config, rng_seed=0)
    names = dict(model.named_parameters())
    if set(names) != set(arrays):
        missing = set(names) ^ set(arrays)
        raise ValueError(f"{path}: parameter set mismatch: {sorted(missing)[:5]}")
    dtype = arrays[next(iter(names))].dtype
    for name, p in names.items():
        stored = arrays[name]
        if stored.shape != p.data.shape:
            raise ValueError(f"{path}: shape mismatch for {name}")
        if stored.dtype != dtype or dtype not in (np.float64, np.float32):
            raise ValueError(f"{path}: {name} is {stored.dtype}; need all float64 or all float32")
        p.data = stored
    return model, meta
