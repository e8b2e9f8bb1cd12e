"""One benchmark episode in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR [SPANS_PATH]

MODE is ``plain`` (untraced; ``cli_batch`` runs the CLI as
subprocesses), ``inprocess`` (untraced; ``cli_batch`` calls
``ssgpfa.cli.main``) or ``traced`` (as ``inprocess``, with every traced
library function wrapped). The worker imports ssgpfa, builds the inputs,
prints ``ready`` (the parent times set-up up to that line), runs the
episode, checks its outputs and prints one JSON line with the results.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import traceback
from pathlib import Path

from tracing import Tracer, span
import workloads


def _episode(name, seed, mode, workdir, spans_path):
    import ssgpfa

    root = Path(__file__).resolve().parent.parent
    if Path(ssgpfa.__file__).resolve().parent != root / "src" / "ssgpfa":
        raise RuntimeError(f"imported ssgpfa from {ssgpfa.__file__}, not from {root / 'src'}")
    wl = workloads.WORKLOADS[name]
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install(ssgpfa)
    try:
        with span(tracer, "bench.setup"):
            inputs = wl.setup(ssgpfa, seed, workdir)
        print("ready", flush=True)
        out = wl.run(ssgpfa, inputs, mode != "plain", tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Read before the check, which holds a second set of outputs.
    # cli_batch's work runs in the CLI processes; the others run here.
    who = resource.RUSAGE_CHILDREN if name == "cli_batch" and mode == "plain" \
        else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    problems = wl.check(ssgpfa, inputs, out)
    out["failed"] += sum(n for n, _ in problems)
    out["problems"] = [msg for _, msg in problems]
    if tracer is not None:
        out["trace"] = tracer.summary()
        if spans_path:
            tracer.write_spans(spans_path)
    return {k: v for k, v in out.items() if not k.startswith("_")}


def main(argv) -> int:
    name, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    Path(workdir).mkdir(parents=True, exist_ok=True)
    try:
        out = _episode(name, seed, mode, workdir, spans_path)
    except Exception:
        traceback.print_exc()
        out = {"attempted": 1, "failed": 1, "problems": ["episode raised; see stderr"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
