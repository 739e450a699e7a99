"""Finite-difference verification of reverse-mode gradients.

``finite_diff_gradcheck`` compares the tape's gradients for a scalar
function against central differences, parameter by parameter.  The
relative error metric is |g - g_fd| / max(1, |g|, |g_fd|), so tiny
gradients are judged on absolute error and large ones on relative error.
``gradcheck_topology`` runs it on a whole model under the training loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .config import NON_NEGATIVE, POSITIVE, toy_model_config
from .models import FusionTopology, build_model
from .tensor import Tape, Tensor, backward
from .training import combined_loss, loss_weights_for


@dataclass
class GradcheckReport:
    """Per-parameter worst relative error between autodiff and central differences."""

    per_param: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    tol: float = 1e-4

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return not self.failures and self.max_rel_err <= self.tol


def finite_diff_gradcheck(f: Callable[[], Tensor],
                          params: Sequence[tuple[str, Tensor]],
                          h: float = 1e-5,
                          tol: float = 1e-4,
                          reference: Optional[Callable[[], Tensor]] = None,
                          max_elements: Optional[int] = None) -> GradcheckReport:
    """Check d(f)/d(param) for every element of every named parameter.

    ``f`` must be deterministic and return a size-1 tensor built from the
    ``params`` tensors.  One taped evaluation collects the reverse-mode
    gradients; each parameter element is then perturbed in place by +-h for
    the central-difference estimate.  Non-finite values of ``f`` at a
    perturbed point are reported as failures naming the location.  The step
    ``h`` must be finite and positive and ``tol`` finite and non-negative;
    anything else is a ``ValueError`` before any evaluation.

    ``reference``, when given, is differenced instead of ``f``: another
    formulation of the same function, so that the check covers how ``f``
    computes its value as well as its backward rules.  ``max_elements``
    checks only that many elements of each parameter (all of a smaller one),
    drawn by a generator of fixed seed.
    """
    if not POSITIVE.admits(h):
        raise ValueError(f"gradcheck: step h must be {POSITIVE.text}, got {h}")
    if not NON_NEGATIVE.admits(tol):
        raise ValueError(f"gradcheck: tol must be {NON_NEGATIVE.text}, got {tol}")
    reference = reference or f
    rng = np.random.default_rng(0)
    params = list(params)
    for _, p in params:
        p.zero_grad()
    with Tape() as tape:
        out = f()
    backward(out, tape)
    auto = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
            for name, p in params}

    report = GradcheckReport(tol=tol)
    for name, p in params:
        flat = p.data.reshape(-1)
        worst = 0.0
        elements = range(flat.size)
        if max_elements is not None and flat.size > max_elements:
            elements = np.sort(rng.choice(flat.size, max_elements, replace=False))
        for i in elements:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = reference().data.item()
            flat[i] = orig - h
            f_minus = reference().data.item()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                report.failures.append(f"{name}[{i}]: non-finite value at perturbed point")
                continue
            g_fd = (f_plus - f_minus) / (2.0 * h)
            g = auto[name].reshape(-1)[i]
            rel = abs(g - g_fd) / max(1.0, abs(g), abs(g_fd))
            worst = max(worst, rel)
        report.per_param[name] = worst
    return report


def gradcheck_topology(topology: FusionTopology | str, tol: float = 1e-4,
                       h: float = 1e-5, seed: int = 0) -> GradcheckReport:
    """Full-model gradient check at toy dimensions, detection task, default loss weights."""
    topology = FusionTopology(topology)
    cfg = toy_model_config()
    model = build_model(topology, "detection", cfg, rng_seed=seed)
    rng = np.random.default_rng([seed, 7])
    face = Tensor(rng.normal(size=(8, cfg.face_dim)))
    pose = Tensor(rng.normal(size=(8, cfg.pose_dim)))
    weights = loss_weights_for(topology)

    def f():
        return combined_loss(model.forward(face, pose), 1.0, weights, model.task)

    return finite_diff_gradcheck(f, list(model.named_parameters()), h=h, tol=tol)
