"""The benchmark's tracer still reads the tape's record format.

``perfbench/tracing.py`` wraps ``Tape.record`` by name, unpacks records as
``(inputs, out, rule)`` triples and sums the bytes a tape keeps alive.  This
guard installs it on the package for one toy training step, in a second
rather than the minutes ``python3 -m pytest perfbench`` takes.  The
benchmark's files are only imported, with bytecode writing off.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bcfusion import data, layers, models, tensor, training
from bcfusion.config import toy_model_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing
    return tracing


def saved_bytes(tape) -> int:
    """Bytes of the distinct arrays that the records' rules close over."""
    arrays = {}
    for _, _, rule in tape.records:
        for cell in getattr(rule, "__wrapped__", rule).__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # a variable the op never bound
                continue
            if isinstance(value, np.ndarray):
                arrays[id(value)] = value.nbytes
    return sum(arrays.values())


def training_step(topology: str):
    """One dropout training step of a toy batch: the tape bytes the tracer's scan
    reads and the byte sum of what the rules save, both taken before backward,
    then the gradients."""
    model = models.build_model(topology, "detection", toy_model_config(), rng_seed=0)
    rng = np.random.default_rng(1)
    batch, steps = 2, 6
    face = rng.normal(size=(batch, steps, model.config.face_dim))
    pose = rng.normal(size=(batch, steps, model.config.pose_dim))
    keep = model.dropout_masks(batch * steps, rng)
    with tensor.Tape() as tape:
        out = model.forward(face, pose, keep=keep)
        loss = training.combined_loss(out, np.array([[1.0], [0.0]]),
                                      training.loss_weights_for(topology), "detection")
    records, saved = len(tape.records), saved_bytes(tape)
    tensor.backward(loss, tape)
    return records, saved, {n: p.grad for n, p in model.named_parameters()}


@pytest.mark.parametrize("topology", ["one_to_one", "one_to_two", "cross_to_one"])
def test_tracer_counts_the_arrays_the_rules_save(tracing, topology):
    _, _, plain = training_step(topology)
    bc = SimpleNamespace(data=data, layers=layers, models=models, tensor=tensor,
                         training=training)
    record = vars(tensor.Tape)["record"]
    tracer = tracing.Tracer([t.value for t in models.ALL_TOPOLOGIES])
    tracer.install(bc)
    try:
        records, saved, traced = training_step(topology)
    finally:
        tracer.uninstall()
    assert vars(tensor.Tape)["record"] is record
    # the scan before backward, outside any forward: set-up phase, no topology tag
    assert tracer.maxima == {(tracing.SETUP, "tape_bytes", -1): saved,
                             (tracing.SETUP, "grad_bytes", -1): 0}
    assert saved > 0
    assert sum(v for (_, kind, *_), v in tracer.counts.items() if kind == "records") == records
    for name, g in plain.items():
        assert traced[name].tobytes() == g.tobytes(), name
