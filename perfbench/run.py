"""ssgpfa benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload uni_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare OLD NEW

A run repeats episodes of the workload, each in a fresh interpreter
(``worker.py``), until ``--seconds`` are used, and reports medians over
the episodes. ``--trace 0`` gives the end-to-end metrics; ``--trace 1``
alternates untraced and traced episodes and gives the per-layer metrics,
including the tracing overhead. Every metric is printed by name with its
unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run also writes a record to ``.perfbench_runs/`` at the repository
root (traced runs add their spans). ``--compare OLD NEW`` reads two sets
of records (files or directories) and prints each workload's metrics
side by side with the ratio and whether the change is inside the bound
set in ``BENCHMARK.json``.

Workers run with ``OPENBLAS_NUM_THREADS=1`` (one client on one core) and
the library from ``src/`` of this checkout. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

DEFAULT_SEED = 1
# Never used while the benchmark or a change was developed; re-check a
# claimed gain on it.
HELD_OUT_SEED = 7411

# A run must end within 180 s: no episode starts after MAX_RUN_S and a
# stuck one is killed after EPISODE_TIMEOUT_S.
MIN_EPISODES = 3
MAX_RUN_S = 100.0
EPISODE_TIMEOUT_S = 60.0
CALIBRATION_ITERS = 100_000
IMPORT_REPEATS = 3

sys.path.insert(0, str(HERE))
from compare import compare, median_or_zero  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


# --- environment record and calibration ---------------------------------------


def calibrate() -> float:
    """Fixed loop of small numpy calls and Python arithmetic, the same mix
    as the filter's per-step work. Its time tells host drift apart from
    program changes."""
    import numpy as np

    a = np.array([[0.5, 0.1], [0.0, 0.5]])
    v = np.ones(2)
    start = time.perf_counter()
    for _ in range(CALIBRATION_ITERS):
        v = a @ v + 1.0
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "ssgpfa").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
        **THREAD_ENV,
        "machine": platform.machine(),
    }


# --- episodes -----------------------------------------------------------------


def run_episode(workload: str, seed: int, mode: str, tag: str, index: int,
                spans_path: Path | None = None) -> dict:
    """Start one worker; time its set-up up to ``ready``; return its result."""
    workdir = RUNS / "work" / tag / str(index)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(workdir)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    with open(RUNS / f"{tag}.stderr.log", "a", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=worker_env(), cwd=ROOT)
        watchdog = threading.Timer(EPISODE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = [ln for ln in (first + rest).splitlines() if ln.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"attempted": 1, "failed": 1,
                  "problems": [f"worker exited {proc.returncode} without a result"]}
    if proc.returncode != 0:
        result["failed"] = max(result.get("failed", 1), 1)
        result.setdefault("problems", []).append(f"worker exited {proc.returncode}")
    result["mode"] = mode
    if first.strip() == "ready":
        result["setup_s"] = ready - start
    return result


def episode_modes(workload: str, trace: int):
    """Untraced runs repeat ``plain`` episodes. Traced runs alternate
    untraced and traced in-process episodes; ``cli_batch`` first runs one
    ``plain`` episode for the subprocess wall times."""
    if not trace:
        return itertools.repeat("plain"), MIN_EPISODES
    first = ["plain"] if workload == "cli_batch" else []
    return itertools.chain(first, itertools.cycle(["inprocess", "traced"])), len(first) + 4


def run_episodes(workload, seed, seconds, trace, tag):
    """Run episodes until the time is used and at least the minimum ran."""
    modes, min_episodes = episode_modes(workload, trace)
    episodes = []
    start = time.perf_counter()
    for mode in modes:
        spans = None
        if mode == "traced" and not any(e["mode"] == "traced" for e in episodes):
            spans = RUNS / f"{tag}.spans.csv.gz"
        episodes.append(run_episode(workload, seed, mode, tag, len(episodes), spans))
        elapsed = time.perf_counter() - start
        per_episode = elapsed / len(episodes)
        if len(episodes) >= min_episodes and (elapsed + per_episode > seconds
                                              or elapsed > MAX_RUN_S):
            return episodes


# --- metrics --------------------------------------------------------------------


def end_to_end(episodes) -> tuple[dict, dict]:
    """Medians over the episodes; latency percentiles are taken per
    episode first, so one episode that met a slow spell of the host does
    not set them."""
    values = {
        "setup_s": statistics.median(e["setup_s"] for e in episodes),
        "train_s": statistics.median(e["train_s"] for e in episodes),
        "score_pts_per_s": statistics.median(e["n_points"] / e["score_s"] for e in episodes),
        "score_p50_us": statistics.median(e["score_p50_us"] for e in episodes),
        "total_s": statistics.median(e["total_s"] for e in episodes),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in episodes),
    }
    samples = f"{episodes[0]['latency_samples']} points x {len(episodes)} episodes"
    notes = {"score_p50_us": samples, "setup_s": f"median of {len(episodes)}"}
    return values, notes


def _import_times() -> dict:
    """Cumulative import times from ``python -X importtime``, and the wall
    time of a process that imports the CLI module."""
    found = {"ssgpfa": [], "scipy.linalg": []}
    starts = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ssgpfa"],
                              capture_output=True, text=True, env=worker_env(), cwd=ROOT,
                              timeout=60, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ssgpfa.cli"], env=worker_env(),
                       cwd=ROOT, timeout=60, check=True)
        starts.append(time.perf_counter() - t0)
    return {
        "import.ssgpfa_s": statistics.median(found["ssgpfa"]),
        "import.scipy_linalg_s": median_or_zero(found["scipy.linalg"]),
        "cli.process_start_s": statistics.median(starts),
    }


def _counts(trace: dict) -> tuple:
    """A trace summary without its times."""
    return ({name: {k: v for k, v in entry.items() if k != "self_ns"}
             for name, entry in trace["per_name"].items()}, trace["derived"])


def per_layer(episodes, problems) -> dict:
    traced = [e for e in episodes if e["mode"] == "traced"]
    untraced = [e for e in episodes if e["mode"] == "inprocess"]
    plain = [e for e in episodes if e["mode"] == "plain"]
    first = traced[0]["trace"]
    if any(_counts(e["trace"]) != _counts(first) for e in traced[1:]):
        problems.append("call counts differ between traced episodes")

    def count(name, field="calls"):
        return first["per_name"].get(name, {}).get(field, 0)

    def self_s(name):
        return statistics.median(e["trace"]["per_name"].get(name, {}).get("self_ns", 0) / 1e9
                                 for e in traced)

    derived = first["derived"]
    gets = count("kalman.transition_cache.get")
    out = {}
    for name in ("kernels.discretize", "kernels.parse_kernel", "kalman.predict", "kalman.update",
                 "kalman.observation_log_likelihood", "kalman.rts_smooth", "model.e_step",
                 "model.m_step", "explain.scalar_nll", "explain.reconstruction_error",
                 "explain.project_latents"):
        out[f"{name}.calls"] = count(name)
        out[f"{name}.self_s"] = self_s(name)
    out["kalman.updates_per_point"] = derived["updates_in_scoring"] / traced[0]["n_points"]
    out["kalman.robust_filter.passes"] = count("kalman.robust_filter")
    out["kalman.robust_filter.self_s"] = self_s("kalman.robust_filter")
    out["model.fit_em.iterations"] = derived["e_steps_in_fit_em"]
    out["kalman.transition_cache.gets"] = gets
    out["kalman.transition_cache.hit_ratio"] = (gets - derived["cache_misses"]) / gets \
        if gets else 0.0
    for name in ("model.fit_univariate", "model.score_online", "metrics.best_f1_sweep",
                 "metrics.standardize", "data.iter_csv_rows", "data.load_csv", "data.write_csv",
                 "model.save_model", "model.load_model"):
        out[f"{name}.self_s"] = self_s(name)
    out["metrics.best_f1"] = traced[0]["best_f1"]
    out["model.score_online.p99_us"] = statistics.median(
        e["score_p99_us"] for e in episodes if e["mode"] != "traced")
    out["model.score_online.gated_frac"] = traced[0]["gated_frac"]
    out["model.score_online.longest_gated_run"] = traced[0]["longest_gated_run"]
    out["data.iter_csv_rows.rows"] = count("data.iter_csv_rows", "items")
    for cmd in ("train", "score", "eval"):
        out[f"cli.{cmd}.wall_s"] = median_or_zero([e["cli_wall_s"][cmd] for e in plain])
    out.update(_import_times())
    out["trace.overhead_frac"] = (statistics.median(e["total_s"] for e in traced)
                                  / statistics.median(e["total_s"] for e in untraced) - 1.0)
    return out


# --- main -------------------------------------------------------------------------


def _print_metrics(title, values, specs, notes):
    print(f"-- {title}")
    for spec in specs:
        name = spec["name"]
        note = notes.get(name, "")
        print(f"   {name:40s} {values[name]:>14.6g} {spec['unit']:10s} {note}")


def run(args, spec) -> int:
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    env = environment()
    env["calibration_s"] = calibrate()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))

    try:
        episodes = run_episodes(args.workload, args.seed, args.seconds, args.trace, tag)
    finally:
        shutil.rmtree(RUNS / "work" / tag, ignore_errors=True)

    attempted = sum(e.get("attempted", 1) for e in episodes)
    failed = sum(e.get("failed", 1) for e in episodes)
    problems = [p for e in episodes for p in e.get("problems", [])]
    if len({e.get("digest") for e in episodes}) != 1:
        problems.append("episodes of the same inputs gave different outputs")
    if len({e.get("best_f1") for e in episodes}) != 1:
        problems.append("episodes of the same inputs gave different best F1")

    values = {}
    notes = {}
    if failed == 0 and not problems:
        if args.trace:
            values = per_layer(episodes, problems)
            env["episodes"] = {m: sum(e["mode"] == m for e in episodes)
                               for m in ("plain", "inprocess", "traced")}
        else:
            values, notes = end_to_end(episodes)
        for s in specs:
            value = values.get(s["name"])
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"metric {s['name']} was not measured")

    correct = failed == 0 and not problems
    for p in problems:
        print(f"FAILED CHECK: {p}")
    if values and not problems:
        _print_metrics(f"{'per-layer' if args.trace else 'end-to-end'} metrics, "
                       f"{len(episodes)} episodes", values, specs, notes)
    if values and not args.trace:
        p99 = statistics.median(e["score_p99_us"] for e in episodes)
        print(f"   {'score_p99_us':40s} {p99:>14.6g} {'us':10s} {notes['score_p50_us']}; "
              "reported as model.score_online.p99_us by traced runs")
    if episodes[0].get("best_f1") is not None:
        print(f"   {'best_f1':40s} {episodes[0]['best_f1']:>14.6g} {'ratio':10s} "
              "range-adjusted, same in every episode")
    print(f"   {'failed_frac':40s} {failed / attempted:>14.6g} {'ratio':10s} "
          f"({failed}/{attempted} operations)")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "correct": correct, "attempted": attempted,
        "failed": failed, "problems": problems, "metrics": values,
        "episodes": [{k: v for k, v in e.items() if k != "trace"} for e in episodes],
    }
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if not correct:
        return 1
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed "
                             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two sets of run records")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ssgpfa" / "__init__.py").is_file():
        print(f"error: no ssgpfa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]), spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload != "all":
        return run(args, spec)
    status = 0
    for name in WORKLOADS:
        status = max(status, run(argparse.Namespace(**{**vars(args), "workload": name}), spec))
    return status


if __name__ == "__main__":
    sys.exit(main())
