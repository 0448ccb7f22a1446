"""Every demo runs to the end. Demos 03 and 04 train for a minute or two each,
so here they run with DEMO_STEPS=2."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamperloc

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_feature_views", "02_autodiff_engine", "03_train_localizer", "04_robustness_bench", "05_synthetic_corpus", "06_file_formats"],
)
def test_demo_exits_0(tmp_path, name):
    # the demos write through tempfile, so TMPDIR keeps their files in tmp_path, and they remove them
    src = str(Path(tamperloc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), TMPDIR=str(tmp_path), DEMO_STEPS="2")
    done = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
