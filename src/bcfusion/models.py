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
``one_to_two`` final head a two-layer perceptron), and the forward pass is
the same for both tasks: a detection prediction is a logit, which the loss
and the accuracy read as such, and an agreement prediction is the regressed
value itself.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .config import MODEL_RULES, TRAIN_RULES, ConfigError, FusionTopology, ModelConfig, check
from .layers import Linear, TransformerLayer, add_positional_encoding
from .tensor import ShapeError, Tensor

CHECKPOINT_FORMAT = "bcfusion-checkpoint"
CHECKPOINT_VERSION = 1
# ModelConfig keys of version-1 files that are no settings now (constants, head
# counts in TOPOLOGIES, or always on), with the one value each may take.
_RETIRED_MODEL_KEYS = {"pre_norm": False, "ffn_mult": 2, "face_heads": 4, "pose_heads": 2,
                       "fused_heads": 10, "late_heads": 8, "use_positional_encoding": True}


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
    """One wiring: stream projections (stream -> ModelConfig width field), the
    transformer stages in order, and the stages mean-pooled into the final
    head, which is a two-layer feed-forward head when ``ff_head`` is set."""

    streams: dict[str, str]
    stages: tuple[Stage, ...]
    pooled: tuple[str, ...]
    ff_head: bool = False

    @cached_property
    def fused(self) -> bool:
        """Whether the projections are concatenated per frame before positional
        encoding: exactly when a stage reads the ``fused`` stream."""
        return any("fused" in st.inputs for st in self.stages)

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
    FusionTopology.ONE_STREAM: Topology(_FUSED, (_TF1,), ("tf1",)),
    FusionTopology.ONE_TO_ONE: Topology(_FUSED, (_TF1, Stage("tf2", ("tf1",), 10)), ("tf2",)),
    FusionTopology.ONE_TO_TWO: Topology(
        _FUSED, (_TF1, Stage("tf2", ("tf1:face",), 4), Stage("tf3", ("tf1:pose",), 2)),
        ("tf2", "tf3"), ff_head=True),
    FusionTopology.TWO_TO_ONE: Topology(
        _LATE, (_TF_FACE, Stage("tf2", ("pose",), 2), Stage("tf3", ("tf1", "tf2"), 8)),
        ("tf3",)),
    FusionTopology.CROSS_ATTENTION: Topology(_CROSS, _TF_X, ("tf1x", "tf2x")),
    FusionTopology.CROSS_TO_ONE: Topology(
        _CROSS, _TF_X + (Stage("tf3", ("tf1x", "tf2x"), 8),), ("tf3",)),
    FusionTopology.FACE_ONLY: Topology({"face": "d_face"}, (_TF_FACE,), ("tf1",)),
    FusionTopology.POSE_ONLY: Topology({"pose": "d_pose"}, (_TF_POSE,), ("tf1",)),
}


@dataclass
class ForwardOutput:
    """Final prediction plus per-supervised-layer intermediate predictions.

    Each prediction is a (B, 1) tensor, one row per sample of the batch; each
    intermediate is paired with its layer tag.  For detection every prediction
    is a logit: the backchannel probability is its sigmoid.
    """

    final: Tensor
    intermediates: list[tuple[str, Tensor]]


class FeedForwardHead:
    """Two-layer perceptron head used where a single linear map is not enough."""

    def __init__(self, d_in: int, hidden: int, rng: Optional[np.random.Generator]):
        self.fc1 = Linear(d_in, hidden, rng)
        self.fc2 = Linear(hidden, 1, rng)

    def __call__(self, features: Tensor) -> Tensor:
        return self.fc2(self.fc1(features, relu=True))

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield from self.fc1.named_parameters(f"{prefix}fc1.")
        yield from self.fc2.named_parameters(f"{prefix}fc2.")


class FusionModel:
    """A built topology: input projections, transformer layers, prediction heads.

    Instances are constructed through :func:`build_model`, or with ``rng=None``
    as the undrawn skeleton :func:`load_checkpoint` binds stored arrays into.
    A model is single-writer during training; concurrent read-only inference
    is safe.
    """

    def __init__(self, topology: FusionTopology, task: str, config: ModelConfig,
                 rng: Optional[np.random.Generator]):
        config.validate()
        check("task", task, TRAIN_RULES["task"])
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

    def dropout_masks(self, length: int, rng: np.random.Generator) -> list[np.ndarray]:
        """Draw one sample's training-mode dropout keep-masks.

        Per stage, in order, one (2, length, stage width) bool array: the
        attention-branch mask, then the feed-forward-branch mask.  An entry is
        kept where its uniform is at least the dropout rate.  Empty, drawing
        nothing, when the rate is zero.
        """
        rate = self.config.dropout
        if rate == 0.0:
            return []
        return [rng.random((2, length, w)) >= rate for w in self._stage_widths]

    def forward(self, face_seq, pose_seq,
                keep: Optional[list[np.ndarray]] = None) -> ForwardOutput:
        """Walk the topology's table over a batch of equally long sequences.

        ``face_seq`` and ``pose_seq`` are (B, T, features) stacks, or one
        (T, features) sequence each, a batch of one.  The B·T frames run as
        stacked rows; positional encoding enters first-layer inputs only.  A
        training forward with dropout passes ``keep``: per stage, the
        (2, B·T, stage width) masks of :meth:`dropout_masks`, the samples'
        rows stacked in batch order as the frames are.
        """
        dtype = next(self.named_parameters())[1].data.dtype
        face, pose = (np.asarray(T.as_tensor(x).data, dtype=dtype) for x in (face_seq, pose_seq))
        if face.ndim == 2 and pose.ndim == 2:
            face, pose = face[None], pose[None]
        self._check_inputs(face, pose)
        batch, steps = face.shape[:2]
        spec, comp = self.spec, self._components
        n_masks = len(spec.stages) if self.config.dropout > 0.0 else 0
        if keep is not None and len(keep) != n_masks:
            raise ValueError(f"keep holds {len(keep)} mask stacks; dropout_masks draws "
                             f"{n_masks} for this model")
        raw = {"face": Tensor(face.reshape(batch * steps, -1)),
               "pose": Tensor(pose.reshape(batch * steps, -1))}
        seq = {s: comp[f"{s}_proj"](raw[s]) for s in spec.streams}
        if spec.fused:
            seq = {"fused": T.concat(list(seq.values()))}
        seq = {s: add_positional_encoding(x, batch) for s, x in seq.items()}
        for st, masks in zip(spec.stages, keep or [None] * len(spec.stages)):
            for s in dict.fromkeys(ref.partition(":")[0] for ref in st.inputs if ref not in seq):
                cut = comp["face_proj"].d_out
                seq[s + ":face"] = T.slice_cols(seq[s], 0, cut)
                seq[s + ":pose"] = T.slice_cols(seq[s], cut, seq[s].shape[1])
            xs = [seq[ref] for ref in st.inputs]
            x = T.concat(xs) if len(xs) > 1 else xs[0]
            seq[st.name] = comp[st.name].forward(x, x_q=seq.get(st.query), batch=batch,
                                                 keep=masks)
        mean = {name: T.row_mean(seq[name], batch)
                for name in dict.fromkeys(spec.supervised + spec.pooled)}
        intermediates = [(name, comp[f"head_{name}"](mean[name])) for name in spec.supervised]
        pooled = [mean[name] for name in spec.pooled]
        final = comp["final"](T.concat(pooled) if len(pooled) > 1 else pooled[0])
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
    """Write a versioned npz container with topology, config, and all parameters.

    The archive is streamed into a temporary sibling of ``path``, which then
    replaces ``path`` in one rename: no copy of the parameters is buffered in
    memory, and a save that fails or is interrupted leaves any previous file
    at ``path`` as it was.  (The rename is atomic; the data is not synced to
    disk, so a power loss may still lose a just-written file.)
    """
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
    meta_bytes = json.dumps(meta, allow_nan=False).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(meta_bytes, dtype=np.uint8), **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[FusionModel, dict]:
    """Rebuild a model in its stored precision; forward outputs reproduce bitwise.

    The stored arrays are read once and bound into a model skeleton whose
    parameters were never drawn, so a load holds one copy of the parameters.
    The model is returned only when every parameter is bound, with the
    stored topology, task and config and a finite float64 or float32 array
    of the right shape for each.  The stored topology, task and
    ``model_config`` obey the rules a config file does.  A file that is no
    readable npz archive (truncated, corrupted, empty, a bare ``.npy``)
    raises ``ValueError`` naming it, as does every check that fails.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:  # closed however the archive fails to read
            z = np.load(fh)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise TypeError("a bare .npy array, not an npz archive")
            with z:
                meta = (json.loads(bytes(z["__meta__"]).decode("utf-8"))
                        if "__meta__" in z else None)
                arrays = {k[len("param:"):]: z[k] for k in z.files if k.startswith("param:")}
    except (zipfile.BadZipFile, zlib.error, EOFError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a readable {CHECKPOINT_FORMAT} file "
                         f"({type(exc).__name__}: {exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unexpected format {meta.get('format')!r}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported version {meta.get('version')!r}")
    for key in ("topology", "task", "model_config"):
        if key not in meta:
            raise ValueError(f"{path}: checkpoint meta has no {key!r}")
    for key in ("topology", "task"):
        check(key, meta[key], TRAIN_RULES[key], {key: path}, ValueError)
    if not isinstance(meta["model_config"], dict):
        raise ValueError(f"{path}: checkpoint meta key 'model_config' must be an object, "
                         f"got {meta['model_config']!r}")
    stored = dict(meta["model_config"])
    for key, value in _RETIRED_MODEL_KEYS.items():
        if stored.pop(key, value) != value:
            raise ValueError(f"{path}: model_config key {key!r} must be {value!r}, "
                             f"got {meta['model_config'][key]!r}")
    unknown = sorted(set(stored) - set(MODEL_RULES))
    if unknown:
        raise ValueError(f"{path}: unknown model_config key {unknown[0]!r}")
    config = ModelConfig(**stored)
    try:
        config.validate()
    except ConfigError as exc:
        raise ValueError(f"{path}: model_config: {exc}") from None
    model = FusionModel(FusionTopology(meta["topology"]), meta["task"], config, rng=None)
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
