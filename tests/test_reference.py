"""The benchmark's known answers (``perfbench/reference.json``, rtol 1e-9) hold.

Each workload's small fixed case trains or scores through the public API and
must reproduce the stored losses and metrics, so a change that claims
unchanged numerics fails here as well as in the benchmark.
"""

import types
from pathlib import Path

import pytest

import bcfusion.config
import bcfusion.data
import bcfusion.models
import bcfusion.training

REFERENCE_PY = Path(__file__).parents[1] / "perfbench" / "reference.py"


def load_reference() -> types.ModuleType:
    """``perfbench/reference.py`` as a module, executed from its source so no
    bytecode is written next to it."""
    module = types.ModuleType("perfbench_reference")
    module.__file__ = str(REFERENCE_PY)
    exec(compile(REFERENCE_PY.read_text(encoding="utf-8"), str(REFERENCE_PY), "exec"),
         module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["paper_train", "toy_sweep", "corpus_eval"])
def test_known_answers_match(workload):
    assert load_reference().check(bcfusion, workload) == []
