"""Known-answer cases that check the program's outputs independently of the seed.

The timed work of a run depends on ``--seed``, so its outputs cannot be
compared with stored values.  Each workload therefore also runs one small,
fixed case through the same public API and compares its result with the
values in ``reference.json``:

* ``paper_train``: final training loss per topology at paper widths (675/77),
  two samples of T = 9 at batch 1 for one epoch, so the second half of the
  compared loss comes after one Adam step.
* ``toy_sweep``: at the acceptance-suite widths (7/5, T = 14), four samples
  at batch 2 for two epochs, so the compared loss comes after two steps.
* ``corpus_eval``: the agreement MSE of seeded ``one_to_one`` and
  ``cross_to_one`` models at paper widths on four samples of T = 29.

The relative tolerance admits a change in summation order (float64 noise of
about 1e-13 after a few steps) and catches a wrong gradient, which moves the
loss after the first Adam step by far more.

Run ``python3 perfbench/reference.py`` from the repository root to print the
values the current code gives, for review before replacing the stored ones.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 20230601
TOPOLOGIES = ("one_stream", "one_to_one", "one_to_two", "two_to_one",
              "cross_attention", "cross_to_one", "face_only", "pose_only")
EVAL_TOPOLOGIES = ("one_to_one", "cross_to_one")


def render_raw_samples(bc, rng: np.random.Generator, n: int, t_raw: int, fps: float,
                       face_dim: int, pose_dim: int, task: str, split: str) -> list:
    """``n`` frame-aligned recordings with a movement burst whose size follows the label."""
    samples = []
    for i in range(n):
        label = float(i % 2) if task == "detection" else float(rng.uniform(-1.0, 1.0))
        strength = label if task == "detection" else (label + 1.0) / 2.0
        seg = max(2, t_raw // 3)
        wave = 0.5 * strength * (-1.0) ** np.arange(seg)
        streams = []
        for dim in (face_dim, pose_dim):
            frames = rng.normal(0.0, 1.0, size=(1, dim)) + rng.normal(0.0, 0.05, size=(t_raw, dim))
            frames[-seg:] += wave[:, None]
            streams.append(frames)
        samples.append(bc.data.RawSample(f"r{i:04d}", streams[0], streams[1], fps, label, split))
    return samples


def _processed(bc, n, t_raw, fps, face_dim, pose_dim, task, window_seconds):
    rng = np.random.default_rng(REFERENCE_SEED)
    raws = render_raw_samples(bc, rng, n, t_raw, fps, face_dim, pose_dim, task, "train")
    return [bc.data.preprocess(r, window_seconds) for r in raws]


def _final_losses(bc, samples, model_config, **train_kw) -> dict[str, float]:
    corpus = {"train": samples, "validation": samples[:1]}
    out = {}
    for topology in TOPOLOGIES:
        cfg = bc.config.TrainConfig(topology=topology, model=model_config, seed=0, **train_kw)
        out[topology] = bc.training.run_training(corpus, cfg).history[-1][1]
    return out


def paper_train_case(bc) -> dict[str, float]:
    samples = _processed(bc, 2, 10, 10.0, 674, 76, "detection", 1.0)
    return _final_losses(bc, samples, bc.config.ModelConfig(), task="detection",
                         epochs=1, batch_size=1)


def toy_sweep_case(bc) -> dict[str, float]:
    samples = _processed(bc, 4, 20, 5.0, 6, 4, "agreement", 3.0)
    return _final_losses(bc, samples, bc.config.toy_model_config(face_dim=7, pose_dim=5),
                         task="agreement", epochs=2, batch_size=2, learning_rate=0.01,
                         weight_decay=0.0)


def corpus_eval_case(bc) -> dict[str, float]:
    samples = _processed(bc, 4, 40, 10.0, 674, 76, "agreement", 3.0)
    out = {}
    for topology in EVAL_TOPOLOGIES:
        model = bc.models.build_model(topology, "agreement", bc.config.ModelConfig(), rng_seed=0)
        out[topology] = bc.training.evaluate_metrics(model, samples, "agreement")["value"]
    return out


CASES = {"paper_train": paper_train_case, "toy_sweep": toy_sweep_case,
         "corpus_eval": corpus_eval_case}


def check(bc, workload: str) -> list[str]:
    """Run the workload's known-answer case; return one message per mismatch."""
    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    rtol = stored["rtol"]
    expected = stored["values"][workload]
    got = CASES[workload](bc)
    problems = []
    for key, want in expected.items():
        have = got.get(key)
        if have is None or not math.isfinite(have) or not math.isclose(have, want, rel_tol=rtol):
            problems.append(f"{workload} reference {key}: got {have!r}, expected {want!r} "
                            f"(rtol {rtol})")
    return problems


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import bcfusion.config
    import bcfusion.data
    import bcfusion.models
    import bcfusion.training
    values = {name: case(bcfusion) for name, case in CASES.items()}
    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")) if REFERENCE_FILE.exists() \
        else {"rtol": 1e-9}
    print(json.dumps({"rtol": stored["rtol"], "values": values}, indent=2))


if __name__ == "__main__":
    main()
