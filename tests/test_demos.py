import os
import subprocess
import sys
from pathlib import Path

import ssgpfa

ROOT = Path(__file__).resolve().parent.parent


def test_kernel_algebra_demo_runs():
    # The demo parses the printed sum expression back and asserts that the
    # state dimension survives the round trip.
    src = str(Path(ssgpfa.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "kernel_algebra.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert ("  matern32(lengthscale=2.0, variance=1.5) + cosine(period=8.0, variance=0.6): "
            "state dim 4\n") in proc.stdout
