#!/usr/bin/env python3
"""Build all eight fusion wirings and compare their shape and size.

Face and pose features arrive as frame-synchronized sequences; the
topologies differ in where the two streams meet: at the input (one_stream),
after per-stream encoding (two_to_one), via exchanged queries
(cross_attention), or not at all (face_only / pose_only).
"""

import numpy as np

from bcfusion import (ALL_TOPOLOGIES, Tensor, build_model, parameter_breakdown,
                      parameter_count, toy_model_config)

cfg = toy_model_config()          # face 12 / pose 6 wide inputs, small widths
rng = np.random.default_rng(0)
face = Tensor(rng.normal(size=(8, cfg.face_dim)))
pose = Tensor(rng.normal(size=(8, cfg.pose_dim)))

# every wiring is one entry of bcfusion.models.TOPOLOGIES; multi-layer wirings
# also expose the per-layer predictions their training losses supervise
print(f"{'topology':16s} {'params':>7s}  final   supervised layers")
for topology in ALL_TOPOLOGIES:
    model = build_model(topology, "detection", cfg, rng_seed=0)
    out = model.forward(face, pose)
    print(f"{topology.value:16s} {parameter_count(model):>7d}  {out.final.data.item():.4f}  "
          f"{[tag for tag, _ in out.intermediates]}")
    print(f"{'':16s} per component: {parameter_breakdown(model)}")

# changing the pose input moves a cross-attention prediction even when the
# face input is frozen: the face stream's queries come from the pose stream
model = build_model("cross_attention", "detection", cfg, rng_seed=0)
base = model.forward(face, pose).final.data.item()
moved = model.forward(face, Tensor(pose.data + 0.25)).final.data.item()
print("\ncross_attention sensitivity to pose: %.3e" % abs(moved - base))
