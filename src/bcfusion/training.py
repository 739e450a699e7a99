"""Losses, Adam, the per-layer supervision scheme, and the training loop.

Multi-layer topologies are trained with one task loss per supervised
transformer layer plus one on the final head.  The default weights are
derived from the topology's stage table: 0.35 per stage depth, split evenly
across the parallel stages at that depth, and 0.3 for the final head, so
they always sum to exactly 1.0.  Single-layer topologies put all weight on
the final prediction.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import tensor as T
from .config import ConfigError, TrainConfig
from .data import ProcessedSample
from .models import TOPOLOGIES, ForwardOutput, FusionModel, FusionTopology, build_model
from .tensor import Tape, Tensor, backward

STAGE_WEIGHT = 0.35
FINAL_WEIGHT = 0.3


def loss_weights_for(topology: FusionTopology | str) -> list[float]:
    """Weight list over (supervised layers..., final head); sums to exactly 1.0."""
    spec = TOPOLOGIES[FusionTopology(topology)]
    depth = spec.depths()
    parallel = Counter(depth[name] for name in spec.supervised)
    weights = [STAGE_WEIGHT / parallel[depth[name]] for name in spec.supervised]
    weights.append(FINAL_WEIGHT if weights else 1.0)
    return weights


def combined_loss(output: ForwardOutput, y, weights: Sequence[float], task: str) -> Tensor:
    """Task loss on every intermediate prediction and the final one, mixed by ``weights``.

    ``weights`` is ordered (supervised layers..., final); its length must be
    one more than the number of intermediates.  ``y`` is a scalar label or an
    array of the predictions' shape; detection labels must be 0 or 1.  The
    mix is one :func:`tensor.weighted_loss` record: binary cross entropy on
    the logits for detection, squared error for agreement.
    """
    if len(weights) != len(output.intermediates) + 1:
        raise ConfigError(
            f"expected {len(output.intermediates) + 1} loss weights "
            f"({len(output.intermediates)} intermediates + final), got {len(weights)}")
    y = np.asarray(y, dtype=output.final.data.dtype)
    if y.shape == ():
        y = np.full(output.final.shape, y)
    if task == "detection" and not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"detection labels must be 0 or 1, got {np.unique(y)}")
    preds = [p for _, p in output.intermediates] + [output.final]
    return T.weighted_loss(preds, y, weights, "bce" if task == "detection" else "mse")


# -- Adam ------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Most elements in one Adam bucket: a run of consecutive parameters of one dtype
# that one pass of the update's ufuncs covers, gathered into flat arrays, so a
# toy model's step takes a few numpy calls, not 14 per tensor.  A larger
# parameter is a bucket of its own, updated through views without a copy.
ADAM_BUCKET_ELEMENTS = 1 << 16


@dataclass
class AdamState:
    """First/second moment buffers and the shared step counter.

    A parameter's moments are ``None`` until its first :func:`adam_step`, so
    they take no memory under the first step's tape.  From then on ``m[i]``
    and ``v[i]`` are views, shaped like parameter ``i``, of one flat buffer
    per bucket (see ``ADAM_BUCKET_ELEMENTS``), which every step updates in
    place.
    """

    m: list[Optional[np.ndarray]]
    v: list[Optional[np.ndarray]]
    step: int = 0

    @classmethod
    def for_params(cls, params: Sequence[Tensor]) -> "AdamState":
        return cls(m=[None] * len(params), v=[None] * len(params))


def _buckets(params: Sequence[Tensor], grads: Sequence[np.ndarray],
             state: AdamState) -> list[tuple[int, list[int]]]:
    """Check every gradient and allocated moment against its parameter's shape
    and dtype, and split the parameters, in order, into buckets.

    A bucket is (first, offsets): parameter ``first + j`` spans
    ``offsets[j]:offsets[j + 1]`` of the bucket's flat arrays.
    """
    buckets: list[tuple[int, list[int]]] = []
    offsets, dtype = [], None
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        data = p.data
        shape = data.shape
        if g.shape != shape or g.dtype != data.dtype or (m is not None and (
                m.shape != shape or m.dtype != data.dtype or
                v.shape != shape or v.dtype != data.dtype)):
            for what, a in (("gradient", g), ("moment", m), ("moment", v)):
                part = "shape" if a.shape != shape else "dtype"
                if getattr(a, part) != getattr(data, part):
                    raise ValueError(f"parameter {i}: {what} {part} {getattr(a, part)} "
                                     f"!= parameter {part} {getattr(data, part)}")
        if buckets and data.dtype == dtype and offsets[-1] + data.size <= ADAM_BUCKET_ELEMENTS:
            offsets.append(offsets[-1] + data.size)
        else:
            offsets, dtype = [0, data.size], data.dtype
            buckets.append((i, offsets))
    return buckets


def _moment_buffer(moments: list[Optional[np.ndarray]], first: int, group: Sequence[Tensor],
                   offsets: list[int]) -> np.ndarray:
    """The flat buffer of which ``moments[first:first + len(group)]`` are views.

    At a bucket's first update, or if the moments are not views of one buffer
    of the bucket's size, they are copied (``None`` as zeros) into a new
    buffer and rebound to views of it.
    """
    span = range(first, first + len(group))
    base = getattr(moments[first], "base", None)
    if base is not None and base.shape == (offsets[-1],) and \
            all(getattr(moments[i], "base", None) is base for i in span):
        return base
    buf = np.zeros(offsets[-1], group[0].data.dtype)
    for i, p, lo, hi in zip(span, group, offsets, offsets[1:]):
        if moments[i] is not None:
            buf[lo:hi] = moments[i].reshape(-1)
        moments[i] = buf[lo:hi].reshape(p.data.shape)
    return buf


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: AdamState,
              lr: float, weight_decay: float = 0.0) -> None:
    """One bias-corrected Adam update; weight decay enters the gradient (coupled L2).

    The parameters are updated in buckets (see ``ADAM_BUCKET_ELEMENTS``): one
    pass of the update over each bucket's flat gradient and parameters, with
    two scratch arrays.  Before anything is written, every gradient and
    allocated moment is checked against its parameter's shape and dtype
    (``ValueError``), and every gradient for non-finite values
    (``FloatingPointError``); both name the parameter's position.  So a
    rejected step leaves parameters, moments and the step count as they
    were.  The moments are allocated at a bucket's first update and then
    updated in place.  Each bucket gets a new array, and each parameter is
    rebound to its view of it: the old ``p.data`` is never written into, so
    a caller may keep it as a snapshot.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.v):
        raise ValueError("params, grads, and optimizer state are misaligned")
    buckets = _buckets(params, grads, state)
    flat_grads = []
    for first, offsets in buckets:
        stop = first + len(offsets) - 1
        g = grads[first].reshape(-1) if stop - first == 1 else \
            np.concatenate([g.reshape(-1) for g in grads[first:stop]])
        if not np.isfinite(g).all():
            i = next(i for i in range(first, stop) if not np.isfinite(grads[i]).all())
            raise FloatingPointError(f"parameter {i}: non-finite gradient")
        flat_grads.append(g)
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for (first, offsets), g in zip(buckets, flat_grads):
        group = params[first:first + len(offsets) - 1]
        old = group[0].data.reshape(-1) if len(group) == 1 else \
            np.concatenate([p.data.reshape(-1) for p in group])
        m = _moment_buffer(state.m, first, group, offsets)
        v = _moment_buffer(state.v, first, group, offsets)
        # The operations, in order, of g + wd·p, m = b1·m + (1−b1)·g,
        # v = b2·v + (1−b2)·(g·g) and p − (lr·(m/bc1)) / (sqrt(v/bc2) + eps),
        # so the result is bit for bit that of the out-of-place expressions.
        if weight_decay != 0.0:
            g = np.add(g, np.multiply(weight_decay, old))
        scratch = np.multiply(1.0 - ADAM_BETA1, g)
        np.multiply(ADAM_BETA1, m, out=m)
        np.add(m, scratch, out=m)
        np.multiply(g, g, out=scratch)
        del g  # frees a decayed copy before the third array is made
        np.multiply(1.0 - ADAM_BETA2, scratch, out=scratch)
        np.multiply(ADAM_BETA2, v, out=v)
        np.add(v, scratch, out=v)
        step = np.divide(m, bc1)
        np.multiply(lr, step, out=step)
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        np.add(scratch, ADAM_EPS, out=scratch)
        np.divide(step, scratch, out=step)
        new = np.subtract(old, step, out=scratch)
        for p, lo, hi in zip(group, offsets, offsets[1:]):
            p.data = new[lo:hi].reshape(p.data.shape)


# -- evaluation --------------------------------------------------------------------

METRIC_NAMES = {"detection": "accuracy", "agreement": "mse"}

# Most activation elements (rows x widest stage width) one forward holds.  Evaluation
# keeps 4 MiB per widest float64 activation, several hundred GEMM rows at paper widths.
# Training keeps a batch of 32 windows of 89 frames as one chunk at every paper width
# (widest stage 752), so a default run keeps its bits.  A batch of 128 runs as four
# chunks of 32 where the widest stage is 608-752, as two of 64 at 304 (cross_attention)
# and as one at 76 (pose_only).
EVAL_CHUNK_ELEMENTS = 1 << 19
TRAIN_CHUNK_ELEMENTS = 32 * 89 * 752


def _chunks(model: FusionModel, samples: Sequence[ProcessedSample],
            budget: int) -> Iterator[tuple[list[int], Tensor, Tensor]]:
    """The forward passes a set of samples runs as: (indices, face, pose) per chunk.

    Samples are grouped by sequence length, in order of first appearance,
    each group in sample order.  A group is cut into the fewest runs whose
    rows x ``model.max_width`` stay within ``budget`` elements, or one sample
    each; run sizes differ by at most one, the larger first.  An empty
    sequence counts as one step, so that the forward rejects it.  ``face``
    and ``pose`` are the run's stacked (B, T, features) inputs, built only
    as the run is reached.
    """
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        groups.setdefault(len(s.face_seq), []).append(i)
    for steps, group in groups.items():
        n = -(-len(group) // max(1, budget // (max(steps, 1) * model.max_width)))
        size, extra = divmod(len(group), n)
        lo = 0
        for k in range(n):
            run = group[lo:lo + size + (k < extra)]
            lo += len(run)
            yield (run, Tensor(np.stack([samples[i].face_seq for i in run])),
                   Tensor(np.stack([samples[i].pose_seq for i in run])))


def evaluate_metrics(model: FusionModel, samples: Sequence[ProcessedSample],
                     task: str) -> dict:
    """Accuracy (detection) or mean squared error (agreement).

    A detection prediction is a logit, and a logit of at least 0 counts as
    a backchannel.  That is a sigmoid of at least 0.5, except for logits just
    below 0 (above about −4.5e-17 in float64, −4.1e-8 in float32), whose
    sigmoid rounds to exactly 0.5.

    The samples are scored in the chunks of :func:`_chunks` under
    ``EVAL_CHUNK_ELEMENTS``, so memory stays flat at paper widths.  A
    non-finite prediction raises FloatingPointError naming the first sample
    that has one; so does a non-finite metric, such as finite predictions
    whose squared error overflows.
    """
    if not samples:
        raise ValueError("cannot evaluate an empty split")
    preds = np.empty(len(samples))
    for run, face, pose in _chunks(model, samples, EVAL_CHUNK_ELEMENTS):
        preds[run] = model.forward(face, pose).final.data[:, 0]
    bad = np.flatnonzero(~np.isfinite(preds))
    if bad.size:
        raise FloatingPointError(f"non-finite prediction on sample {samples[bad[0]].id}")
    labels = np.array([s.label for s in samples])
    name = METRIC_NAMES[task]
    if task == "detection":
        value = float(np.mean((preds >= 0.0) == (labels == 1.0)))
    else:
        with np.errstate(over="ignore"):  # an overflow is reported just below
            value = float(np.mean((preds - labels) ** 2))
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite {name} ({value})")
    return {"metric_name": name, "value": value, "n": len(samples)}


# -- training loop -------------------------------------------------------------------

def minibatch_backward(model: FusionModel, batch: Sequence[ProcessedSample],
                       weights: Sequence[float], task: str, rng: np.random.Generator) -> float:
    """Accumulate the gradient of the batch's mean combined loss on the parameters.

    The dropout keep-masks are drawn first, sample by sample in batch order,
    so a sample's masks do not depend on how the batch is cut.  The batch
    then runs in the chunks of :func:`_chunks` under ``TRAIN_CHUNK_ELEMENTS``,
    each on a tape of its own: the forward with its samples' masks stacked
    per stage, :func:`combined_loss` with the loss weights scaled by the
    chunk's share of the batch, a finite-loss check, then backward.  The
    gradients add up on the parameters, and only one chunk's activations
    live at a time.  Returns the batch loss, the sum of the chunk losses; a
    non-finite chunk loss raises FloatingPointError before its backward.
    """
    masks = {i: model.dropout_masks(len(s.face_seq), rng) for i, s in enumerate(batch)}
    total = 0.0
    for run, face, pose in _chunks(model, batch, TRAIN_CHUNK_ELEMENTS):
        keep = [np.concatenate(stage, axis=1) for stage in zip(*(masks.pop(i) for i in run))]
        share = len(run) / len(batch)
        with Tape() as tape:
            out = model.forward(face, pose, keep=keep)
            loss = combined_loss(out, np.array([[batch[i].label] for i in run]),
                                 [w * share for w in weights], task)
        del keep  # the tape alone holds the masks, and backward frees them as it goes
        value = loss.data.item()
        if not np.isfinite(value):
            raise FloatingPointError("non-finite loss")
        backward(loss, tape)
        total += value
    return total


def _diverged(epoch: int, what: str, batch: Sequence[ProcessedSample]) -> RuntimeError:
    return RuntimeError(f"training diverged at epoch {epoch}: non-finite {what} "
                        f"on samples {', '.join(s.id for s in batch)}")


@dataclass
class TrainResult:
    model: FusionModel
    history: list[tuple[int, float, float]]
    best_epoch: int
    best_val_metric: float


def run_training(corpus: dict[str, list[ProcessedSample]], config: TrainConfig) -> TrainResult:
    """Train one topology; returns the model restored to its best-validation epoch.

    Mini-batches are reshuffled every epoch from a seeded generator.  Each runs
    forward and backward chunk by chunk, one tape per chunk, the gradients
    adding up on the parameters, and then takes one Adam step (see
    :func:`minibatch_backward`).  A default batch at paper widths is one
    chunk, and the chunk budget, not ``batch_size``, bounds a step's memory.
    After every epoch the validation metric decides whether to keep the
    parameters (higher accuracy / lower MSE wins; ties keep the earlier epoch);
    the metric is always finite, so the first epoch is always kept.  The history
    holds one (epoch, train_loss, val_metric) row per epoch.  The new parameters
    are cast to ``config.dtype``, which the model and its checkpoint keep.
    A non-finite loss (checked per chunk before its backward) or gradient
    (checked by :func:`adam_step` before it writes anything) raises
    RuntimeError naming the epoch and the whole batch's sample ids, with no
    Adam step taken; so does a non-finite validation
    prediction (naming the sample) or metric.

    Memory follows liveness: ``backward`` consumes each chunk's tape and the
    step's gradients are dropped after the Adam update, so neither lives on
    through the next step's forward.  The Adam moments are allocated at the
    first update, once that step's tape is spent, and updated in place from
    then on, one flat buffer per bucket.  The best epoch is kept by reference
    to its parameter arrays, not by a copy: :func:`adam_step` binds the
    parameters to views of new bucket arrays and never writes into the old
    ones, so only an epoch that has since been beaten holds a second set of
    parameters.
    """
    config.validate()
    train = corpus.get("train") or []
    val = corpus.get("validation") or []
    if not train or not val:
        raise ConfigError("training needs nonempty 'train' and 'validation' splits")
    sample = train[0]
    if sample.face_seq.shape[1] != config.model.face_dim or \
            sample.pose_seq.shape[1] != config.model.pose_dim:
        raise ConfigError(
            f"corpus widths (face {sample.face_seq.shape[1]}, pose {sample.pose_seq.shape[1]}) "
            f"do not match model config ({config.model.face_dim}, {config.model.pose_dim})")

    model = build_model(config.topology, config.task, config.model, rng_seed=config.seed)
    weights = loss_weights_for(config.topology)
    params = model.parameters()
    for p in params:
        p.data = p.data.astype(config.dtype, copy=False)
    state = AdamState.for_params(params)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    dropout_rng = np.random.default_rng([config.seed, 2])

    detection = config.task == "detection"
    best_metric = -np.inf if detection else np.inf
    best_epoch = 0
    best_params: list[np.ndarray] = []
    history: list[tuple[int, float, float]] = []

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train))
        loss_sum, n_seen = 0.0, 0
        for lo in range(0, len(order), config.batch_size):
            batch = [train[i] for i in order[lo:lo + config.batch_size]]
            try:
                value = minibatch_backward(model, batch, weights, config.task, dropout_rng)
            except FloatingPointError:  # a non-finite chunk loss, found before its backward
                raise _diverged(epoch, "loss", batch) from None
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
            try:
                adam_step(params, grads, state, config.learning_rate, config.weight_decay)
            except FloatingPointError:  # a non-finite gradient, found before any write
                raise _diverged(epoch, "gradient", batch) from None
            del grads
            for p in params:
                p.zero_grad()
            loss_sum += value * len(batch)
            n_seen += len(batch)
        train_loss = loss_sum / n_seen
        try:
            val_metric = evaluate_metrics(model, val, config.task)["value"]
        except FloatingPointError as exc:
            raise RuntimeError(f"training diverged at epoch {epoch}: {exc}") from None
        history.append((epoch, train_loss, val_metric))
        improved = val_metric > best_metric if detection else val_metric < best_metric
        if improved:
            best_metric = val_metric
            best_epoch = epoch
            best_params = [p.data for p in params]

    for p, snap in zip(params, best_params):
        p.data = snap
    return TrainResult(model=model, history=history, best_epoch=best_epoch,
                       best_val_metric=float(best_metric))


def write_history_csv(path: str | Path, history: Sequence[tuple[int, float, float]]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,train_loss,val_metric\n")
        for epoch, train_loss, val_metric in history:
            fh.write("%d,%.17g,%.17g\n" % (epoch, train_loss, val_metric))


def metrics_record(task: str, topology: FusionTopology | str, split: str,
                   metrics: dict) -> dict:
    return {"task": task, "topology": FusionTopology(topology).value, "split": split,
            "metric_name": metrics["metric_name"], "value": metrics["value"],
            "n": metrics["n"]}


def write_metrics_json(path: str | Path, record: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
