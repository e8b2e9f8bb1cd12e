"""The evaluation harness end to end, from CSV files to a report.

Builds a miniature benchmark in the paired train/test layout in a
temporary directory, then drives the command line exactly as a shell
user would: train on each train file, score the matching test file,
sweep the threshold and aggregate. The same flow accepts flat CSV
directories (--dataset-layout csv), nested labeled trees (nab) and
paired layouts (nasa, smd).

Run it:

    python demos/benchmark_pipeline.py
"""

import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from ssgpfa import cli
from ssgpfa.data import LabeledSeries, gen_univariate, write_csv

with tempfile.TemporaryDirectory(prefix="ssgpfa_demo_") as tmp:
    root = Path(tmp)
    (root / "data" / "train").mkdir(parents=True)
    (root / "data" / "test").mkdir(parents=True)

    # two streams, each with a short labeled burst in its test span
    for name, seed in (("engine_a", 3), ("engine_b", 4)):
        base = gen_univariate(160, seed)
        values = base.values.copy()
        labels = np.zeros(160, dtype=np.int8)
        burst = slice(100, 104)
        values[0, burst] += 6.0 * float(values.std())
        labels[burst] = 1
        train = LabeledSeries(base.timestamps[:40], values[:, :40])
        test = LabeledSeries(base.timestamps[40:], values[:, 40:], labels=labels[40:])
        write_csv(train, root / "data" / "train" / f"{name}.csv")
        write_csv(test, root / "data" / "test" / f"{name}.csv")

    print(f"benchmark tree under {root}/data")
    for path in sorted((root / "data").rglob("*.csv")):
        print(f"  {path.relative_to(root)}")

    # --- run the pipeline through the CLI ------------------------------------

    out_dir = root / "results"
    argv = [
        "pipeline",
        "--input", str(root / "data"),
        "--dataset-layout", "nasa",
        "--output", str(out_dir),
        "--kernels", "matern32(lengthscale=10.0)",
        "--seed", "0",
    ]
    print(f"\n$ ssgpfa {' '.join(argv)}")
    buffer, log = StringIO(), StringIO()
    with redirect_stdout(buffer), redirect_stderr(log):
        code = cli.main(argv)
    for line in log.getvalue().splitlines():
        print(f"  {line}")
    payload = json.loads(buffer.getvalue())
    print(f"exit code {code}")

    print("\nper-case reports")
    for case in payload["cases"]:
        rep = case["report"]
        print(f"  {case['name']}: train {case['n_train']} pts, test {case['n_test']} pts, "
              f"f1={rep['f1']:.3f} precision={rep['precision']:.3f} "
              f"recall={rep['recall']:.3f} at threshold {rep['threshold']:.2f}")
    print(f"mean f1 across cases: {payload['mean_f1']:.3f}")

    print("\nartifacts written next to the report")
    for path in sorted(out_dir.iterdir()):
        print(f"  {path.name}")
