import os
import subprocess
import sys
from pathlib import Path

import ssgpfa

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    """Run ``demos/<name>`` against this checkout's package; return its stdout."""
    src = str(Path(ssgpfa.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_kernel_algebra_demo_runs():
    # The demo parses the printed sum expression back and asserts that the
    # state dimension survives the round trip.
    assert ("  matern32(lengthscale=2.0, variance=1.5) + cosine(period=8.0, variance=0.6): "
            "state dim 4\n") in run_demo("kernel_algebra.py")


def test_robust_univariate_demo_runs():
    # L-BFGS-B fit, then gated scoring: the spike, the whole burst and the
    # first points of the level shift are refused.
    assert ("robust gate skipped 7 points: [75, 150, 151, 152, 225, 226, 227]\n"
            in run_demo("robust_univariate.py"))


def test_latent_attribution_demo_runs():
    # Orthogonal EM, then per-latent scoring: every point of the spike
    # injected into generating latent 0 blames the fitted column carrying it.
    out = run_demo("latent_attribution.py")
    assert "generating latent -> fitted latent: [2, 1, 0]\n" in out
    line = next(row for row in out.splitlines() if row.startswith("spike in latent 0"))
    assert "counts [0, 0, 15]" in line


def test_benchmark_pipeline_demo_runs():
    # Train, score and evaluate two streams through the CLI in a temporary tree.
    out = run_demo("benchmark_pipeline.py")
    assert "exit code 0\n" in out
    assert any(line.startswith("mean f1 across cases: ") for line in out.splitlines())
