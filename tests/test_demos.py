"""The quick narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcfusion

DEMOS = Path(__file__).resolve().parent.parent / "demos"
QUICK_DEMOS = ["01_autodiff_basics.py", "02_attention_and_layers.py", "03_fusion_topologies.py",
               "04_synthetic_training.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_cleanly(demo):
    src = str(Path(bcfusion.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 0, result.stderr
