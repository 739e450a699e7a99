#!/usr/bin/env python3
"""One SHA-256 per seeded training run: the same-seed bitwise check of two trees.

Trains every topology for both tasks in float64 and float32 at toy widths
(7/5 inputs): 3 epochs at batch 3 over 8 training samples of mixed
lengths, weight decay 5e-4, and prints one line per run,

    <topology> <task> <dtype> <sha256>

where the hash covers the run's history (epoch, train loss, validation
metric, floats by their exact hex form) and every parameter's name, dtype,
shape and bytes after training.  A change that claims to keep the numerics
bit for bit must print the same lines as its parent::

    python3 tools/same_seed_hashes.py > change.txt
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

from bcfusion import TrainConfig, run_training, toy_model_config  # noqa: E402
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


def run_hash(topology: str, task: str, dtype: str, samples: dict) -> str:
    config = TrainConfig(task=task, topology=topology, dtype=dtype, epochs=3, batch_size=3,
                         learning_rate=0.01, weight_decay=5e-4, seed=0,
                         model=toy_model_config(face_dim=FACE_DIM, pose_dim=POSE_DIM))
    result = run_training(samples, config)
    h = hashlib.sha256()
    for epoch, loss, metric in result.history:
        h.update(f"{epoch} {float(loss).hex()} {float(metric).hex()}\n".encode())
    for name, p in result.model.named_parameters():
        h.update(f"{name} {p.data.dtype} {p.data.shape}\n".encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def main() -> None:
    for task in TASKS:
        samples = corpus(task)
        for topology in FusionTopology:
            for dtype in ("float64", "float32"):
                print(topology.value, task, dtype, run_hash(topology.value, task, dtype, samples),
                      flush=True)


if __name__ == "__main__":
    main()
