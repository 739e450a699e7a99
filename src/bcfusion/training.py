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
from typing import Optional, Sequence

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


@dataclass
class AdamState:
    """First/second moment buffers and the shared step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: Sequence[Tensor]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: AdamState,
              lr: float, weight_decay: float = 0.0) -> None:
    """One bias-corrected Adam update; weight decay enters the gradient (coupled L2).

    Each parameter gets a new array: the old ``p.data`` is never written into,
    so a caller may keep it as a snapshot.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and optimizer state are misaligned")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
        if weight_decay != 0.0:
            g = g + weight_decay * p.data
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- evaluation --------------------------------------------------------------------

METRIC_NAMES = {"detection": "accuracy", "agreement": "mse"}

# Most activation elements (rows x widest stage width) one evaluation forward holds:
# 4 MiB per widest float64 activation, several hundred GEMM rows at paper widths.
EVAL_CHUNK_ELEMENTS = 1 << 19


def _length_groups(samples: Sequence[ProcessedSample]) -> list[list[int]]:
    """Indices of ``samples`` grouped by sequence length, each group in sample order."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        groups.setdefault(len(s.face_seq), []).append(i)
    return list(groups.values())


def _stacked(samples: Sequence[ProcessedSample]) -> tuple[Tensor, Tensor]:
    return (Tensor(np.stack([s.face_seq for s in samples])),
            Tensor(np.stack([s.pose_seq for s in samples])))


def evaluate_metrics(model: FusionModel, samples: Sequence[ProcessedSample],
                     task: str) -> dict:
    """Accuracy (detection) or mean squared error (agreement).

    A detection prediction is a logit, and a logit of at least 0 counts as
    a backchannel.  That is a sigmoid of at least 0.5, except for logits just
    below 0 (above about −4.5e-17 in float64, −4.1e-8 in float32), whose
    sigmoid rounds to exactly 0.5.

    Samples of one sequence length are scored together, split into the fewest
    equal forward passes (sizes differ by at most one) whose rows x
    ``model.max_width`` stay within ``EVAL_CHUNK_ELEMENTS``, or one sample
    each, so memory stays flat at paper widths.  A non-finite prediction
    raises FloatingPointError naming the first sample that has one; so does
    a non-finite metric, such as finite predictions whose squared error
    overflows.
    """
    if not samples:
        raise ValueError("cannot evaluate an empty split")
    preds = np.empty(len(samples))
    for group in _length_groups(samples):
        steps = len(samples[group[0]].face_seq)
        chunk = max(1, EVAL_CHUNK_ELEMENTS // (steps * model.max_width))
        for part in np.array_split(group, -(-len(group) // chunk)):
            out = model.forward(*_stacked([samples[i] for i in part]))
            preds[part] = out.final.data[:, 0]
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

def minibatch_loss(model: FusionModel, batch: Sequence[ProcessedSample],
                   weights: Sequence[float], task: str, rng: np.random.Generator) -> Tensor:
    """Training-mode mean of the samples' combined losses.

    The batch runs as one forward pass per sequence length in it (usually
    one), each length's mean loss weighted by its share of the batch.  The
    dropout keep-masks are drawn first, sample by sample in batch order, so
    a sample's masks do not depend on how the batch splits by length; each
    length's forward takes them stacked per stage.  A length's share of the
    batch scales its loss weights, so one length writes one loss record.
    """
    masks = [model.dropout_masks(len(s.face_seq), rng) for s in batch]
    total: Optional[Tensor] = None
    for group in _length_groups(batch):
        samples = [batch[i] for i in group]
        keep = [np.concatenate(stage, axis=1) for stage in zip(*(masks[i] for i in group))]
        out = model.forward(*_stacked(samples), keep=keep)
        share = len(group) / len(batch)
        loss = combined_loss(out, np.array([[s.label] for s in samples]),
                             [w * share for w in weights], task)
        total = loss if total is None else T.add(total, loss)
    return total


@dataclass
class TrainResult:
    model: FusionModel
    history: list[tuple[int, float, float]]
    best_epoch: int
    best_val_metric: float


def run_training(corpus: dict[str, list[ProcessedSample]], config: TrainConfig) -> TrainResult:
    """Train one topology; returns the model restored to its best-validation epoch.

    Mini-batches are reshuffled every epoch from a seeded generator; each takes
    one tape, one backward pass and one Adam step (see :func:`minibatch_loss`).
    After every epoch the validation metric decides whether to keep the
    parameters (higher accuracy / lower MSE wins; ties keep the earlier epoch);
    the metric is always finite, so the first epoch is always kept.  The history
    holds one (epoch, train_loss, val_metric) row per epoch.  The new parameters
    are cast to ``config.dtype``, which the model and its checkpoint keep.
    A non-finite batch loss or gradient raises RuntimeError before the Adam step,
    naming the epoch and the batch's sample ids; so does a non-finite validation
    prediction (naming the sample) or metric.

    Memory follows liveness: ``backward`` consumes the step's tape and the
    step's gradients are dropped after the Adam update, so neither lives on
    through the next step's forward.  The best epoch is kept by reference to
    its parameter arrays, not by a copy: :func:`adam_step` binds new arrays to
    the parameters and never writes into the old ones, so only an epoch that
    has since been beaten holds a second set of parameters.
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
            with Tape() as tape:
                batch_loss = minibatch_loss(model, batch, weights, config.task, dropout_rng)
            value = batch_loss.data.item()
            if np.isfinite(value):
                backward(batch_loss, tape)
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
            if not (np.isfinite(value) and all(np.isfinite(g).all() for g in grads)):
                what = "gradient" if np.isfinite(value) else "loss"
                raise RuntimeError(f"training diverged at epoch {epoch}: non-finite {what} "
                                   f"on samples {', '.join(s.id for s in batch)}")
            adam_step(params, grads, state, config.learning_rate, config.weight_decay)
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
