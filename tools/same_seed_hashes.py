#!/usr/bin/env python3
"""One SHA-256 and one tape size per seeded training run: the same-seed check of two trees.

Trains every topology for both tasks in float64 and float32 at toy widths
(7/5 inputs): 3 epochs at batch 3 over 8 training samples of mixed
lengths, weight decay 5e-4, and prints one line per run,

    <topology> <task> <dtype> <sha256> <tape bytes>

where the hash covers the run's history (epoch, train loss, validation
metric, floats by their exact hex form) and every parameter's name, dtype,
shape and bytes after training, and the tape bytes are those of the
distinct arrays that the rules of the run's first tape (the first chunk
of its first step) close over before backward, directly or inside tuples
and lists.  A change that claims to keep the numerics bit for bit, and
what the tape saves, must print the same lines as its parent; run this
copy of the script in both trees::

    python3 tools/same_seed_hashes.py > change.txt
    cp tools/same_seed_hashes.py ../parent/tools/
    (cd ../parent && python3 tools/same_seed_hashes.py) > parent.txt
    diff parent.txt change.txt

It imports ``bcfusion`` from the ``src`` directory beside it, so each
checkout hashes its own code.  It takes a few seconds.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bcfusion import TrainConfig, run_training, tensor, toy_model_config, training  # noqa: E402
from bcfusion.config import TASKS  # noqa: E402
from bcfusion.data import ProcessedSample  # noqa: E402
from bcfusion.models import FusionTopology  # noqa: E402

FACE_DIM, POSE_DIM = 7, 5
TRAIN_LENGTHS = (5, 8, 5, 8, 8, 3, 8, 6)
VALIDATION_LENGTHS = (5, 8, 3)


def corpus(task: str) -> dict:
    """Seeded samples of mixed lengths: labels 0/1 for detection, in [-1, 1] otherwise."""
    rng = np.random.default_rng(20230601)
    splits = {}
    for split, lengths in (("train", TRAIN_LENGTHS), ("validation", VALIDATION_LENGTHS)):
        splits[split] = [
            ProcessedSample(f"{split}{i}", rng.normal(size=(t, FACE_DIM)),
                            rng.normal(size=(t, POSE_DIM)),
                            float(i % 2) if task == "detection" else float(rng.uniform(-1, 1)),
                            split)
            for i, t in enumerate(lengths)]
    return splits


def saved_bytes(tape: tensor.Tape) -> int:
    """Bytes of the distinct arrays that the rules on ``tape`` close over, held
    directly or inside tuples and lists, however deeply nested."""
    arrays = {}
    values = []
    for _, _, rule in tape.records:
        for cell in rule.__closure__ or ():
            try:
                values.append(cell.cell_contents)
            except ValueError:  # a variable the op never bound
                pass
    while values:
        value = values.pop()
        if isinstance(value, np.ndarray):
            arrays[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            values.extend(value)
    return sum(arrays.values())


def run_hash(topology: str, task: str, dtype: str, samples: dict) -> tuple[str, int]:
    """The run's hash and its first tape's bytes."""
    config = TrainConfig(task=task, topology=topology, dtype=dtype, epochs=3, batch_size=3,
                         learning_rate=0.01, weight_decay=5e-4, seed=0,
                         model=toy_model_config(face_dim=FACE_DIM, pose_dim=POSE_DIM))
    tape_bytes = []

    def backward(loss, tape):
        if not tape_bytes:
            tape_bytes.append(saved_bytes(tape))
        tensor.backward(loss, tape)

    training.backward = backward
    try:
        result = run_training(samples, config)
    finally:
        training.backward = tensor.backward
    h = hashlib.sha256()
    for epoch, loss, metric in result.history:
        h.update(f"{epoch} {float(loss).hex()} {float(metric).hex()}\n".encode())
    for name, p in result.model.named_parameters():
        h.update(f"{name} {p.data.dtype} {p.data.shape}\n".encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest(), tape_bytes[0]


def main() -> None:
    for task in TASKS:
        samples = corpus(task)
        for topology in FusionTopology:
            for dtype in ("float64", "float32"):
                print(topology.value, task, dtype, *run_hash(topology.value, task, dtype, samples),
                      flush=True)


if __name__ == "__main__":
    main()
