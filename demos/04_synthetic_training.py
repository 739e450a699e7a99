#!/usr/bin/env python3
"""Why fusion matters, in one runnable experiment.

The xor-cross-modal generator plants one independent motion burst per
modality and labels each sample with the XOR of the two burst flags.  By
construction neither modality alone predicts the label above chance, so a
single-modality model is stuck near 0.5 while a fused one can solve the
task outright.  (A scaled-down version of the acceptance experiment; takes
a few seconds.)
"""

import tempfile
from pathlib import Path

from bcfusion import (SynthSpec, TrainConfig, load_corpus, run_training,
                      synth_generate, toy_model_config)

work = Path(tempfile.mkdtemp(prefix="bcfusion_demo_"))
spec = SynthSpec(n_samples=400, t_raw=20, fps=5.0, kind="xor-cross-modal",
                 noise=0.05, seed=7, task="detection", face_dim=6, pose_dim=4,
                 val_frac=0.2)
manifest = synth_generate(spec, work)
corpus = load_corpus(manifest, "detection", window_seconds=3.0,
                     face_dim=spec.face_dim, pose_dim=spec.pose_dim)
print(f"corpus at {work}: {len(corpus['train'])} train / "
      f"{len(corpus['validation'])} validation")

for topology in ("one_stream", "face_only", "pose_only"):
    cfg = TrainConfig(task="detection", topology=topology, epochs=10, batch_size=32,
                      learning_rate=0.005, seed=0,
                      model=toy_model_config(face_dim=7, pose_dim=5))
    result = run_training(corpus, cfg)
    print(f"{topology:12s} best validation accuracy: {result.best_val_metric:.3f} "
          f"(epoch {result.best_epoch})")
