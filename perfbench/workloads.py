"""The four benchmark workloads: inputs, the timed episode, output checks.

Every workload builds its inputs from the seed alone, so one seed gives
the same inputs in every process. An episode trains, scores the test
stream as a closed loop with one client (the next point is asked for
only after the previous one has been yielded) and evaluates the scores.
The sizes keep one episode at a few seconds on a 2-core host, so that a
run of 20 seconds holds several episodes and reports their medians.

Each workload is a ``Workload`` of three functions:

``setup(ss, seed, workdir)``
    builds (or, for ``cli_batch``, writes) the inputs; timed as set-up.
``run(ss, inputs, inprocess, tracer)``
    the timed episode; returns its timings and outputs.
``check(ss, inputs, out)``
    the output check, outside the timed region; returns a list of
    ``(failed_operations, message)``.

``ss`` is the imported ``ssgpfa`` package. Library functions are looked
up on it at call time, so the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

import numpy as np

from tracing import span

# uni_stream: fit on a clean prefix, then score a long stream with events.
UNI_TRAIN = 100
UNI_TRAIN_SEED = 0
UNI_STREAM = 4000
UNI_EVENT_EVERY = 150
UNI_SHIFT_LEN = 25
UNI_DROP = 0.10
UNI_RHO = 1e-3

# mv_orth / mv_joint / cli_batch: SMD-shaped data.
MV_DIMS = 38
MV_LATENTS = 4
MV_TRAIN = 400
MV_TEST = 3000
MV_EM_ITERS = 4
MV_MISSING = 0.10
MV_EVENT_EVERY = 100
# Gate threshold for orthogonal scoring. The default rho=1e-12 is a joint
# likelihood over all 38 dimensions, which every clean point falls below,
# so the gate would reject every point and the filter would never update.
# exp(-80) rejects a few percent, the injected anomalies among them.
MV_LOG_RHO = -80.0

CLI_TRAIN = 300
CLI_TEST = 1500
CLI_EM_ITERS = 3

# Output-check tolerances.
DENSE_GP_RTOL = 1e-6
JOINT_MATCH_RTOL = 1e-9
# Largest EM log-likelihood drop counted as round-off, as in the
# acceptance test of unconstrained EM.
EM_MONOTONE_ATOL = 1e-8


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


# --- shared episode pieces ---------------------------------------------------


def _score(ss, model, stream, **kwargs):
    """Closed-loop scoring: time each ``next()`` on the generator.

    Returns the points, the wall time of the whole pass, and the median,
    99th percentile and count of the per-point times in microseconds.
    """
    latencies = []
    points = []
    start = perf_counter_ns()
    gen = ss.score_online(model, stream, **kwargs)
    while True:
        t0 = perf_counter_ns()
        try:
            point = next(gen)
        except StopIteration:
            break
        latencies.append(perf_counter_ns() - t0)
        points.append(point)
    wall = (perf_counter_ns() - start) / 1e9
    p50, p99 = np.percentile(latencies, [50, 99]) / 1e3
    return points, wall, {"score_p50_us": float(p50), "score_p99_us": float(p99),
                          "latency_samples": len(latencies)}


def _gate_stats(accepted: np.ndarray) -> tuple[float, int]:
    gated = ~accepted
    longest = run = 0
    for g in gated:
        run = run + 1 if g else 0
        longest = max(longest, run)
    return float(gated.mean()), int(longest)


def _bad_points(points, observed_rows: np.ndarray) -> int:
    """Points with a non-finite score on a row with any observed value."""
    return sum(1 for p, obs in zip(points, observed_rows)
               if obs and not math.isfinite(p.score))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _in_process_episode(ss, train, test, tracer, train_kwargs, score_kwargs):
    out = {}
    t_start = perf_counter()
    with span(tracer, "bench.train"):
        model = ss.train_series(train, **train_kwargs)
    out["train_s"] = perf_counter() - t_start
    with span(tracer, "bench.score"):
        points, score_s, latency = _score(ss, model, test, **score_kwargs)
    with span(tracer, "bench.eval"):
        scores = np.array([p.score for p in points])
        report = ss.best_f1_sweep(scores, test.labels)
    out["total_s"] = perf_counter() - t_start
    accepted = np.array([p.accepted for p in points])
    out["gated_frac"], out["longest_gated_run"] = _gate_stats(accepted)
    out.update(latency)
    out.update(score_s=score_s, n_points=len(points),
               best_f1=report.f1, digest=_digest(scores, accepted),
               attempted=len(points) + 1,
               failed=_bad_points(points, test.mask.any(axis=0)))
    out["_model"], out["_scores"], out["_accepted"] = model, scores, accepted
    return out


# --- uni_stream ----------------------------------------------------------------


def uni_setup(ss, seed, workdir):
    """A clean reference prefix to train on, then a stream with periodic
    spikes, bursts and level shifts and about 10% of points dropped.

    The training prefix does not depend on the seed: L-BFGS-B makes a
    data-dependent number of filter passes, so a seeded prefix would make
    the training work differ from seed to seed. The seed draws the noise
    of the stream that continues it.
    """
    train = ss.gen_univariate(UNI_TRAIN, UNI_TRAIN_SEED)
    full = ss.gen_univariate(UNI_TRAIN + UNI_STREAM, seed)
    t = full.timestamps[UNI_TRAIN:]
    y = full.values[0, UNI_TRAIN:].copy()
    labels = np.zeros(UNI_STREAM, dtype=np.int8)
    rng = _rng(seed, 1)
    for n, start in enumerate(range(UNI_EVENT_EVERY // 2, UNI_STREAM - 40, UNI_EVENT_EVERY)):
        kind = n % 3
        sign = 1.0 if n % 2 else -1.0
        if kind == 0:  # spike
            y[start] += 4.0 * sign
            labels[start] = 1
        elif kind == 1:  # burst of large deviations
            y[start:start + 6] += 3.0 * rng.choice([-1.0, 1.0], size=6)
            labels[start:start + 6] = 1
        else:  # level shift that the filter coasts through
            y[start:start + UNI_SHIFT_LEN] += 2.5 * sign
            labels[start:start + UNI_SHIFT_LEN] = 1
    keep = rng.random(UNI_STREAM) >= UNI_DROP
    stream = ss.LabeledSeries(t[keep], y[keep][None, :], labels=labels[keep])
    return {"train": train, "stream": stream}


def uni_run(ss, inputs, inprocess, tracer):
    return _in_process_episode(ss, inputs["train"], inputs["stream"], tracer,
                               {}, {"rho": UNI_RHO})


def _dense_cov(ss, kernel, t):
    """Prior covariance matrix of a kernel tree at times ``t``: stationary
    nodes through ``prior_covariance``, Brownian leaves from their start."""
    if kernel.stationary:
        lags = np.abs(t[:, None] - t[None, :])
        uniq, inverse = np.unique(lags, return_inverse=True)
        values = np.array([ss.prior_covariance(kernel, tau) for tau in uniq])
        return values[inverse].reshape(lags.shape)
    if kernel.parts is not None:
        return sum(_dense_cov(ss, part, t) for part in kernel.parts)
    if "diffusion" in kernel.params:
        return kernel.params["diffusion"] * (np.minimum.outer(t, t) - t[0])
    raise ValueError(f"no dense covariance rule for {kernel.expression}")


def uni_check(ss, inputs, out):
    """Streamed log-likelihood of the trained kernel on the training prefix
    equals the dense GP log-likelihood."""
    model = out["_model"]
    train = inputs["train"]
    kernel, nv = model.kernels[0], float(model.noise[0])
    t = train.timestamps
    y = (train.values[0] - model.input_mean[0]) / model.input_std[0]
    obs = ss.univariate_observation_model(kernel, nv)
    streamed = sum(step.log_likelihood
                   for step in ss.robust_filter(t, y, kernel, obs, robust=False))
    cov = _dense_cov(ss, kernel, t) + nv * np.eye(t.size)
    chol = np.linalg.cholesky(cov)
    alpha = np.linalg.solve(chol, y)
    dense = float(-0.5 * t.size * math.log(2 * math.pi) - np.log(np.diag(chol)).sum()
                  - 0.5 * alpha @ alpha)
    rel = abs(streamed - dense) / abs(dense)
    if not rel < DENSE_GP_RTOL:
        return [(1, f"streamed log-likelihood {streamed!r} vs dense GP {dense!r} "
                    f"(rel {rel:.2e} >= {DENSE_GP_RTOL:g})")]
    return []


# --- mv_orth / mv_joint ----------------------------------------------------------


def _mv_injections(ss, start, stop):
    """Latent-targeted and sensor-targeted anomalies, one every
    ``MV_EVENT_EVERY`` points of the test part."""
    Inj = ss.Injection
    kinds = (
        lambda s: Inj("spike", start=s, duration=3, magnitude=4.0, latent=0),
        lambda s: Inj("sensor_offset", start=s, duration=15, magnitude=2.5, dims=(3, 17, 29)),
        lambda s: Inj("amplitude_scale", start=s, duration=20, magnitude=3.0, latent=1),
        lambda s: Inj("spike", start=s, duration=2, magnitude=5.0, dims=(8,)),
        lambda s: Inj("damping", start=s, duration=25, magnitude=0.05, latent=2),
        lambda s: Inj("spike", start=s, duration=4, magnitude=-4.0, latent=3),
    )
    return tuple(kinds[n % len(kinds)](s)
                 for n, s in enumerate(range(start + MV_EVENT_EVERY // 2, stop - 30,
                                             MV_EVENT_EVERY)))


def _mv_series(ss, seed, n_train, n_test):
    spec = ss.SyntheticSpec(length=n_train + n_test, seed=seed,
                            injections=_mv_injections(ss, n_train, n_train + n_test))
    kernels = ss.default_multivariate_kernels(MV_LATENTS)
    series, _, _ = ss.gen_multivariate(spec, MV_DIMS, kernels)
    return series


def mv_orth_setup(ss, seed, workdir):
    """Regular timestamps, every value observed."""
    series = _mv_series(ss, seed, MV_TRAIN, MV_TEST)
    return {"train": series.slice(0, MV_TRAIN), "test": series.slice(MV_TRAIN, series.length)}


def mv_joint_setup(ss, seed, workdir):
    """About 10% of entries missing and 10% of time steps dropped, so the
    timestamps are irregular."""
    series = _mv_series(ss, seed, MV_TRAIN, MV_TEST)
    rng = _rng(seed, 2)
    mask = rng.random(series.values.shape) >= MV_MISSING
    values = np.where(mask, series.values, np.nan)
    keep = rng.random(series.length) >= MV_MISSING
    out = {}
    for name, lo, hi in (("train", 0, MV_TRAIN), ("test", MV_TRAIN, series.length)):
        cols = np.arange(lo, hi)[keep[lo:hi]]
        out[name] = ss.LabeledSeries(series.timestamps[cols], values[:, cols], mask[:, cols],
                                     series.labels[cols])
    return out


def _mv_train_kwargs(ss, mode):
    return {"kernels": ss.default_multivariate_kernels(MV_LATENTS), "mode": mode,
            "max_iters": MV_EM_ITERS, "tol": 0.0}


def mv_orth_run(ss, inputs, inprocess, tracer):
    return _in_process_episode(ss, inputs["train"], inputs["test"], tracer,
                               _mv_train_kwargs(ss, "orthogonal"), {"log_rho": MV_LOG_RHO})


def mv_joint_run(ss, inputs, inprocess, tracer):
    return _in_process_episode(ss, inputs["train"], inputs["test"], tracer,
                               _mv_train_kwargs(ss, "unconstrained"),
                               {"robust_scope": "per_dim"})


def mv_orth_check(ss, inputs, out):
    """Scores equal those of the same model run through the joint filter."""
    joint = replace(out["_model"], mode="unconstrained")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = list(ss.score_online(joint, inputs["test"], log_rho=MV_LOG_RHO))
    ref_scores = np.array([p.score for p in ref])
    ref_accepted = np.array([p.accepted for p in ref])
    scores = out["_scores"]
    bad = ~(np.abs(scores - ref_scores) <= JOINT_MATCH_RTOL * np.maximum(1.0, np.abs(ref_scores)))
    bad |= ref_accepted != out["_accepted"]
    if bad.any():
        gap = float(np.nanmax(np.abs(scores - ref_scores)))
        return [(int(bad.sum()), f"{int(bad.sum())} orthogonal scores differ from the joint "
                                 f"filter (max abs diff {gap:.3e})")]
    return []


def mv_joint_check(ss, inputs, out):
    """EM in unconstrained mode never lowers the log-likelihood."""
    log = np.array(out["_model"].training_log)
    if len(log) != MV_EM_ITERS:
        return [(1, f"training_log has {len(log)} entries, expected {MV_EM_ITERS}")]
    if np.diff(log).min() < -EM_MONOTONE_ATOL:
        return [(1, f"training_log decreases: {log.tolist()}")]
    return []


# --- cli_batch -------------------------------------------------------------------


def cli_setup(ss, seed, workdir):
    """A short unlabelled train CSV and a long labelled test CSV."""
    series = _mv_series(ss, seed, CLI_TRAIN, CLI_TEST)
    train = series.slice(0, CLI_TRAIN)
    train = ss.LabeledSeries(train.timestamps, train.values)
    test = series.slice(CLI_TRAIN, series.length)
    paths = {name: str(Path(workdir) / f"{name}") for name in
             ("train.csv", "test.csv", "model.json", "scores.csv")}
    ss.write_csv(train, paths["train.csv"])
    ss.write_csv(test, paths["test.csv"])
    return {"paths": paths, "n_test": test.length}


def _cli_commands(p):
    return {
        "train": ["train", "--input", p["train.csv"], "--model", p["model.json"],
                  "--latents", str(MV_LATENTS), "--max-iters", str(CLI_EM_ITERS), "--tol", "0"],
        "score": ["score", "--input", p["test.csv"], "--model", p["model.json"],
                  "--log-rho", str(MV_LOG_RHO), "--output", p["scores.csv"]],
        "eval": ["eval", "--input", p["scores.csv"], "--labels", p["test.csv"], "--sweep"],
    }


def cli_run(ss, inputs, inprocess, tracer):
    """``train``, ``score`` and ``eval`` one after another: as
    subprocesses, or through ``ssgpfa.cli.main`` in this process."""
    import ssgpfa.cli

    commands = _cli_commands(inputs["paths"])
    walls = {}
    stdout = {}
    failed = 0
    t_start = perf_counter()
    for name, argv in commands.items():
        t0 = perf_counter()
        if inprocess:
            buf = io.StringIO()
            with span(tracer, f"bench.cli.{name}"), contextlib.redirect_stdout(buf):
                code = ssgpfa.cli.main(argv)
            text = buf.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "ssgpfa.cli", *argv],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=50)
            code, text = proc.returncode, proc.stdout
            if code != 0:
                sys.stderr.write(proc.stderr[-2000:])
        walls[name] = perf_counter() - t0
        stdout[name] = text
        failed += code != 0
    total = perf_counter() - t_start
    out = {"train_s": walls["train"], "score_s": walls["score"], "total_s": total,
           "cli_wall_s": walls, "n_points": inputs["n_test"],
           "attempted": len(commands), "failed": failed}
    if failed:
        return out
    out["best_f1"] = json.loads(stdout["eval"])["report"]["f1"]
    out["digest"] = hashlib.sha256(Path(inputs["paths"]["scores.csv"]).read_bytes()).hexdigest()
    return out


def cli_check(ss, inputs, out):
    """The score CSV equals in-process ``score_online`` on the same model
    and rows, field for field, and the eval F1 equals in-process
    ``best_f1_sweep``. The in-process pass is timed per point and gives
    this workload's latency figures."""
    if out["failed"]:
        return [(0, "a CLI command exited non-zero")]
    p = inputs["paths"]
    model = ss.load_model(p["model.json"])
    rows = ((t, y, m) for t, y, m, _ in ss.iter_csv_rows(p["test.csv"]))
    points, _, latency = _score(ss, model, rows, log_rho=MV_LOG_RHO)
    out.update(latency)
    out["gated_frac"], out["longest_gated_run"] = _gate_stats(
        np.array([pt.accepted for pt in points]))
    out["attempted"] += len(points)
    problems = []
    nonfinite = sum(1 for pt in points if not math.isfinite(pt.score))
    if nonfinite:
        problems.append((nonfinite, f"{nonfinite} non-finite scores"))
    with open(p["scores.csv"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    mismatched = abs(len(lines) - len(points))
    for line, pt in zip(lines, points):
        expect = ([pt.timestamp, pt.score, *pt.marginal_nlls, 1.0 if pt.accepted else 0.0,
                   *pt.latent_nlls, pt.reconstruction_error])
        got = [float(x) for x in line.split(",")]
        if len(got) != len(expect) or not all(a == b or (math.isnan(a) and math.isnan(b))
                                              for a, b in zip(got, expect)):
            mismatched += 1
    if mismatched:
        problems.append((mismatched, f"{mismatched} score CSV rows differ from in-process "
                                     "score_online"))
    scores = np.array([pt.score for pt in points])
    labels = ss.load_csv(p["test.csv"]).labels
    f1 = ss.best_f1_sweep(scores, labels).f1
    if f1 != out["best_f1"]:
        problems.append((1, f"eval F1 {out['best_f1']!r} != in-process {f1!r}"))
    return problems


WORKLOADS = {
    "uni_stream": Workload(uni_setup, uni_run, uni_check),
    "mv_orth": Workload(mv_orth_setup, mv_orth_run, mv_orth_check),
    "mv_joint": Workload(mv_joint_setup, mv_joint_run, mv_joint_check),
    "cli_batch": Workload(cli_setup, cli_run, cli_check),
}
