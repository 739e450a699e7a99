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
training loss can supervise every layer.  Every head is a linear map (the
``one_to_two`` final head a two-layer perceptron); for detection the forward
pass squashes each prediction with a sigmoid, for agreement (regression) it
leaves them linear.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, get_type_hints

import numpy as np

from . import tensor as T
from .config import TASKS, ConfigError, ModelConfig
from .layers import Linear, TransformerLayer, add_positional_encoding
from .tensor import ShapeError, Tensor

CHECKPOINT_FORMAT = "bcfusion-checkpoint"
CHECKPOINT_VERSION = 1
# ModelConfig keys of version-1 files that are no settings now (constants, or head
# counts in TOPOLOGIES), with the one value each may take.
_RETIRED_MODEL_KEYS = {"pre_norm": False, "ffn_mult": 2, "face_heads": 4, "pose_heads": 2,
                       "fused_heads": 10, "late_heads": 8}


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
    (``tf1:face``).  ``heads`` is the layer's attention head count; ``query``
    names the input whose rows supply cross-attention queries.
    """

    name: str
    inputs: tuple[str, ...]
    heads: int
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

    @cached_property
    def width_fields(self) -> dict[str, tuple[str, ...]]:
        """Stream, ``fused`` and stage name -> the ModelConfig width fields it sums;
        a channel such as ``tf1:face`` is as wide as that stream's projection."""
        fields = {s: (field,) for s, field in self.streams.items()}
        fields["fused"] = tuple(self.streams.values())
        for st in self.stages:
            fields[st.name] = sum((fields[ref.rpartition(":")[2]] for ref in st.inputs), ())
        return fields

    def widths(self, config: ModelConfig) -> dict[str, int]:
        return {name: sum(getattr(config, f) for f in fields)
                for name, fields in self.width_fields.items()}

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
# head counts: 10 on the fused stream, 4 on face, 2 on pose, 8 on late fusion
_TF1 = Stage("tf1", ("fused",), 10)
_TF_X = (Stage("tf1x", ("face",), 4, query="pose"), Stage("tf2x", ("pose",), 2, query="face"))
_TF_FACE, _TF_POSE = Stage("tf1", ("face",), 4), Stage("tf1", ("pose",), 2)

TOPOLOGIES: dict[FusionTopology, Topology] = {
    FusionTopology.ONE_STREAM: Topology(_FUSED, True, (_TF1,), ("tf1",)),
    FusionTopology.ONE_TO_ONE: Topology(
        _FUSED, True, (_TF1, Stage("tf2", ("tf1",), 10)), ("tf2",)),
    FusionTopology.ONE_TO_TWO: Topology(
        _FUSED, True, (_TF1, Stage("tf2", ("tf1:face",), 4), Stage("tf3", ("tf1:pose",), 2)),
        ("tf2", "tf3"), ff_head=True),
    FusionTopology.TWO_TO_ONE: Topology(
        _LATE, False, (_TF_FACE, Stage("tf2", ("pose",), 2), Stage("tf3", ("tf1", "tf2"), 8)),
        ("tf3",)),
    FusionTopology.CROSS_ATTENTION: Topology(_CROSS, False, _TF_X, ("tf1x", "tf2x")),
    FusionTopology.CROSS_TO_ONE: Topology(
        _CROSS, False, _TF_X + (Stage("tf3", ("tf1x", "tf2x"), 8),), ("tf3",)),
    FusionTopology.FACE_ONLY: Topology({"face": "d_face"}, False, (_TF_FACE,), ("tf1",)),
    FusionTopology.POSE_ONLY: Topology({"pose": "d_pose"}, False, (_TF_POSE,), ("tf1",)),
}


@dataclass
class ForwardOutput:
    """Final prediction plus per-supervised-layer intermediate predictions.

    Each prediction is a (B, 1) tensor, one row per sample of the batch; each
    intermediate is paired with its layer tag.  For detection every prediction
    is a probability in (0, 1).
    """

    final: Tensor
    intermediates: list[tuple[str, Tensor]]


def split_streams(x: Tensor, d_a: int) -> tuple[Tensor, Tensor]:
    """Split rows (B·T, d_a + d_b) at feature index d_a; exact inverse of concat."""
    if x.data.ndim != 2:
        raise ShapeError(f"split_streams expects a 2-D tensor, got {x.shape}")
    width = x.shape[1]
    if not 0 < d_a < width:
        raise ShapeError(f"split index {d_a} out of range for width {width}")
    return T.slice_cols(x, 0, d_a), T.slice_cols(x, d_a, width)


class FeedForwardHead:
    """Two-layer perceptron head used where a single linear map is not enough."""

    def __init__(self, d_in: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(d_in, hidden, rng)
        self.fc2 = Linear(hidden, 1, rng)

    def __call__(self, features: Tensor) -> Tensor:
        return self.fc2(self.fc1(features, relu=True))

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
        if task not in TASKS:
            raise ConfigError(f"task must be 'detection' or 'agreement', got {task!r}")
        self.topology = topology
        self.task = task
        self.config = config
        self.spec = spec = TOPOLOGIES[topology]
        c = config
        # creation order (projections, stages, heads, final) fixes seeded weights and checkpoints
        self._components = comp = {}
        width = spec.widths(c)
        for s in spec.streams:
            comp[f"{s}_proj"] = Linear(getattr(c, f"{s}_dim"), width[s], rng)
        for st in spec.stages:
            comp[st.name] = TransformerLayer(width[st.name], st.heads, rng, dropout_rate=c.dropout)
        for name in spec.supervised:
            comp[f"head_{name}"] = Linear(width[name], 1, rng)
        d = sum(width[name] for name in spec.pooled)
        comp["final"] = FeedForwardHead(d, c.ff_hidden, rng) if spec.ff_head else Linear(d, 1, rng)
        self._stage_widths = [width[st.name] for st in spec.stages]
        self.max_width = max(self._stage_widths)

    # -- forward ------------------------------------------------------------

    def _check_inputs(self, face: np.ndarray, pose: np.ndarray) -> None:
        c = self.config
        if face.ndim != 3 or pose.ndim != 3:
            raise ShapeError("inputs must be (T, features) sequences or (B, T, features) stacks")
        if face.shape[:2] != pose.shape[:2]:
            raise ShapeError(
                f"modalities are not frame-aligned: (batch, steps) face {face.shape[:2]}, "
                f"pose {pose.shape[:2]}")
        if face.shape[0] < 1 or face.shape[1] < 1:
            raise ValueError("empty sequence: at least one time step required")
        if "face" in self.spec.streams and face.shape[2] != c.face_dim:
            raise ShapeError(f"face width {face.shape[2]} != configured {c.face_dim}")
        if "pose" in self.spec.streams and pose.shape[2] != c.pose_dim:
            raise ShapeError(f"pose width {pose.shape[2]} != configured {c.pose_dim}")

    def dropout_noise(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the uniforms one sample's training-mode dropout masks are cut from.

        They come in the order a forward pass over that sample alone used to
        draw them: per stage, the attention mask and then the feed-forward
        mask, each (length, stage width).  Empty, drawing nothing, when the
        dropout rate is zero.
        """
        per_step = 2 * sum(self._stage_widths) if self.config.dropout > 0.0 else 0
        return rng.random(length * per_step)

    def forward(self, face_seq, pose_seq, training: bool = False,
                noise: Optional[np.ndarray] = None) -> ForwardOutput:
        """Walk the topology's table over a batch of equally long sequences.

        ``face_seq`` and ``pose_seq`` are (B, T, features) stacks, or one
        (T, features) sequence each, a batch of one.  The B·T frames run as
        stacked rows; positional encoding enters first-layer inputs only.  In
        training, row b of ``noise`` is :meth:`dropout_noise` of sample b.
        """
        dtype = next(self.named_parameters())[1].data.dtype
        face, pose = (np.asarray(T.as_tensor(x).data, dtype=dtype) for x in (face_seq, pose_seq))
        if face.ndim == 2 and pose.ndim == 2:
            face, pose = face[None], pose[None]
        self._check_inputs(face, pose)
        batch, steps = face.shape[:2]
        spec, comp = self.spec, self._components
        drop = training and self.config.dropout > 0.0
        noise_parts = [None] * len(spec.stages)
        if drop:
            sizes = [2 * steps * w for w in self._stage_widths]
            if noise is None or noise.shape != (batch, sum(sizes)):
                raise ValueError(f"training with dropout needs ({batch}, {sum(sizes)}) noise "
                                 f"from dropout_noise, got {getattr(noise, 'shape', None)}")
            noise_parts = np.split(noise, np.cumsum(sizes)[:-1], axis=1)
        raw = {"face": Tensor(face.reshape(batch * steps, -1)),
               "pose": Tensor(pose.reshape(batch * steps, -1))}
        seq = {s: comp[f"{s}_proj"](raw[s]) for s in spec.streams}
        if spec.fused:
            seq = {"fused": T.concat(list(seq.values()))}
        if self.config.use_positional_encoding:
            seq = {s: add_positional_encoding(x, batch) for s, x in seq.items()}
        for st, part in zip(spec.stages, noise_parts):
            for s in dict.fromkeys(ref.partition(":")[0] for ref in st.inputs if ref not in seq):
                seq[s + ":face"], seq[s + ":pose"] = split_streams(seq[s], comp["face_proj"].d_out)
            xs = [seq[ref] for ref in st.inputs]
            x = T.concat(xs) if len(xs) > 1 else xs[0]
            if part is not None:
                part = part.reshape(batch, 2, steps, -1)
            seq[st.name] = comp[st.name].forward(x, x_q=seq.get(st.query), training=drop,
                                                 batch=batch, noise=part)
        squash = T.sigmoid if self.task == "detection" else (lambda x: x)
        intermediates = [(name, squash(comp[f"head_{name}"](T.row_mean(seq[name], batch))))
                         for name in spec.supervised]
        pooled = [T.row_mean(seq[name], batch) for name in spec.pooled]
        final = comp["final"](T.concat(pooled) if len(pooled) > 1 else pooled[0])
        return ForwardOutput(final=squash(final), intermediates=intermediates)

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
    for key, allowed in (("topology", [t.value for t in FusionTopology]), ("task", TASKS),
                         ("model_config", None)):
        if key not in meta:
            raise ValueError(f"{path}: checkpoint meta has no {key!r}")
        if allowed is not None and meta[key] not in allowed:
            raise ValueError(f"{path}: checkpoint meta key {key!r}: {meta[key]!r} is not one "
                             f"of {', '.join(allowed)}")
    if not isinstance(meta["model_config"], dict):
        raise ValueError(f"{path}: checkpoint meta key 'model_config' must be an object, "
                         f"got {meta['model_config']!r}")
    stored = dict(meta["model_config"])
    for key, value in _RETIRED_MODEL_KEYS.items():
        if stored.pop(key, value) != value:
            raise ValueError(f"{path}: model_config key {key!r} must be {value!r}, "
                             f"got {meta['model_config'][key]!r}")
    kinds = get_type_hints(ModelConfig)
    for key, value in sorted(stored.items()):
        if key not in kinds:
            raise ValueError(f"{path}: unknown model_config key {key!r}")
        # JSON keeps the type: an int is also a valid float, but a bool is no number
        allowed = (int, float) if kinds[key] is float else kinds[key]
        if not isinstance(value, allowed) or (isinstance(value, bool) and kinds[key] is not bool):
            raise ValueError(f"{path}: model_config key {key!r}: expected "
                             f"{kinds[key].__name__}, got {value!r}")
    config = ModelConfig(**stored)
    try:
        config.validate()
    except ConfigError as exc:
        raise ValueError(f"{path}: model_config: {exc}") from None
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
        if not np.isfinite(stored).all():
            raise ValueError(f"{path}: parameter {name} holds a non-finite value")
        p.data = stored
    return model, meta
