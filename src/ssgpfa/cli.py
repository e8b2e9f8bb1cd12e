"""Command-line interface: train, score, eval, synth and pipeline.

Every command prints a machine-readable summary (JSON, or CSV rows for
``score``) to stdout and logs progress to stderr. Exit codes: 0 on
success, 2 for configuration or input problems, 3 for numerical
failures, 4 for evaluation-domain errors (such as label sets with no
positives).

Flags beat config-file entries, which beat the flags' defaults. The
config file is JSON whose keys mirror the long flag names with
underscores (for example ``{"max_iters": 10, "mode": "orthogonal"}``);
each value goes through its flag's own type and choices.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import model as model_mod
from .errors import (
    ConfigError,
    EvaluationError,
    InputError,
    NumericalError,
    SsgpfaError,
)
from .kalman import DEFAULT_RHO, _log_threshold
from .metrics import EvalReport, _label_runs, best_f1_sweep, range_adjusted_metrics, sweep_curve

__all__ = ["main", "build_parser"]

log = logging.getLogger("ssgpfa")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build():
    """The ``ssgpfa`` parser, its subcommand parsers by name, and the
    action of every option by destination. A destination means the same
    in every subcommand, so its action also reads config-file values."""
    options = {}

    def option(owner, *flags, **kwargs):
        action = owner.add_argument(*flags, **kwargs)
        options[action.dest] = action

    config = argparse.ArgumentParser(add_help=False)
    option(config, "--config", help="JSON config file; flags override its entries")

    gate = argparse.ArgumentParser(add_help=False)
    group = gate.add_mutually_exclusive_group()
    option(group, "--rho", type=float, default=DEFAULT_RHO,
           help="robust acceptance threshold (default: %(default)s)")
    option(group, "--log-rho", type=float, help="log-space robust threshold; overrides --rho")
    option(gate, "--robust", type=_parse_bool, metavar="{true,false}",
           help="toggle the robust gate; unset, training is ungated and scoring gated")

    fit = argparse.ArgumentParser(add_help=False)
    option(fit, "--kernels", help="semicolon-separated kernel expressions")
    option(fit, "--latents", type=int, help="number of latent processes")
    option(fit, "--mode", choices=["orthogonal", "unconstrained"], default="orthogonal",
           help="loading constraint (default: %(default)s)")
    option(fit, "--max-iters", type=int, default=50, help="EM iteration cap (default: %(default)s)")
    option(fit, "--tol", type=float, default=1e-6,
           help="relative log-likelihood tolerance (default: %(default)s)")

    draw = argparse.ArgumentParser(add_help=False)
    option(draw, "--scenario", choices=sorted(data_mod.SCENARIOS),
           help="synthetic dataset to generate")
    option(draw, "--length", type=int, default=300, help="series length (default: %(default)s)")
    option(draw, "--dims", type=int, default=8,
           help="observed dimensions, explain scenario (default: %(default)s)")
    option(draw, "--seed", type=int, default=0, help="RNG seed (default: %(default)s)")

    parser = argparse.ArgumentParser(
        prog="ssgpfa",
        description="Linear-time online anomaly detection with latent GP factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[config, *parents])
        p.set_defaults(func=func)
        commands[name] = p
        return p

    p = command("train", cmd_train, "fit a model from a training CSV", fit, gate)
    option(p, "--input", help="training CSV")
    option(p, "--model", help="where to write the model JSON")

    p = command("score", cmd_score, "stream anomaly scores for a CSV", gate)
    option(p, "--input", help="CSV to score")
    option(p, "--model", help="model JSON from train")
    option(p, "--output", help="score CSV path (default: stdout)")
    option(p, "--robust-scope", choices=["joint", "per_dim"], default="joint",
           help="gate whole points or single dimensions (default: %(default)s)")

    p = command("eval", cmd_eval, "range-adjusted metrics for a score CSV")
    option(p, "--input", help="score CSV from the score command")
    option(p, "--labels", help="CSV whose is_anomaly column supplies labels")
    group = p.add_mutually_exclusive_group()
    option(group, "--threshold", type=float, help="fixed decision threshold")
    option(group, "--sweep", action="store_true", help="search the best-F1 threshold (default)")
    option(p, "--curve", help="also write the full threshold curve CSV here")

    p = command("synth", cmd_synth, "generate a labeled synthetic dataset", draw)
    option(p, "--output", help="CSV path for the series")

    p = command("pipeline", cmd_pipeline, "synth/load, train, score and evaluate in one run",
                draw, fit, gate)
    option(p, "--input", help="dataset root or CSV (alternative to --scenario)")
    option(p, "--dataset-layout", choices=["csv", "nab", "nasa", "smd"], default="csv",
           help="directory layout under --input (default: %(default)s)")
    option(p, "--output", help="directory for models and score files")
    option(p, "--threshold", type=float, help="fixed threshold instead of the best-F1 sweep")
    # config keys with no pipeline flag, read like one; split_train_test checks the range
    p.set_defaults(train_fraction=0.2, robust_scope="joint")
    options["train_fraction"] = argparse.Action([], "train_fraction", type=float)

    return parser, commands, options


def _read_config(args: argparse.Namespace, options: dict) -> dict:
    """The config file's entries, each converted and checked by the option
    of its name; a key must name an option of the chosen subcommand, and a
    null leaves the option at its default."""
    path = args.config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(loaded.keys() - (vars(args).keys() - {"command", "func"}))
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    values = {key: _config_value(options[key], key, value) if key in options else value
              for key, value in loaded.items() if value is not None}
    if "rho" in values and "log_rho" in values:
        raise ConfigError("config sets both rho and log_rho; pick one")
    if "threshold" in values and values.get("sweep"):
        raise ConfigError("config sets both threshold and sweep; pick one")
    return values


def _config_value(action: argparse.Action, key: str, value):
    """``value`` read as its flag reads text: a string as it is, anything
    else as its JSON text."""
    text = value if isinstance(value, str) else json.dumps(value)
    convert = action.type or (_parse_bool if action.nargs == 0 else str)
    try:
        value = convert(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise ConfigError(f"config key {key}: invalid value {text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key}: {value!r} is not one of "
                          f"{', '.join(action.choices)}")
    return value


def _kernel_list(cfg: dict):
    if cfg["kernels"] is None:
        if cfg["latents"] is not None:
            return model_mod.default_multivariate_kernels(cfg["latents"])
        return None
    exprs = [part.strip() for part in cfg["kernels"].split(";") if part.strip()]
    if not exprs:
        raise ConfigError("no kernel expressions given")
    if cfg["latents"] is not None and cfg["latents"] != len(exprs):
        raise ConfigError(
            f"--latents {cfg['latents']} does not match {len(exprs)} kernel expressions"
        )
    return exprs


def _require(cfg: dict, key: str, flag: str):
    if cfg[key] in (None, ""):
        raise ConfigError(f"missing required option {flag}")
    return cfg[key]


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, np.integer):
        return int(value)
    return value


def _emit(payload: dict) -> None:
    json.dump(_json_ready(payload), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _train_model(series, cfg: dict):
    robust_log_rho = None
    if cfg["robust"]:
        robust_log_rho = _log_threshold(cfg["rho"], cfg["log_rho"])
    return model_mod.train_series(
        series,
        kernels=_kernel_list(cfg),
        mode=cfg["mode"],
        max_iters=cfg["max_iters"],
        tol=cfg["tol"],
        robust_log_rho=robust_log_rho,
    )


def cmd_train(cfg: dict) -> int:
    input_path = _require(cfg, "input", "--input")
    model_path = _require(cfg, "model", "--model")
    series = data_mod.load_csv(input_path)
    log.info("training on %s: %d dims, %d points", input_path, series.n_dims, series.length)
    model = _train_model(series, cfg)
    model_mod.save_model(model, model_path)
    final_ll = model.training_log[-1] if model.training_log else None
    log.info("saved model to %s", model_path)
    _emit({
        "model": str(model_path),
        "mode": model.mode,
        "n_dims": model.n_dims,
        "n_latents": model.n_latents,
        "iterations": len(model.training_log),
        "final_log_likelihood": final_ll,
    })
    return 0


def _scoring_kwargs(cfg: dict) -> dict:
    return {
        "rho": cfg["rho"],
        "log_rho": cfg["log_rho"],
        "robust": cfg["robust"] if cfg["robust"] is not None else True,
        "robust_scope": cfg["robust_scope"],
    }


def _render_float(x: float) -> str:
    return repr(float(x))


def _write_scores(out, model, points) -> int:
    """Write ``points`` as a score CSV to the open file ``out``; returns
    the row count."""
    header = (["timestamp", "score"]
              + [f"marginal_nll_{i}" for i in range(model.n_dims)]
              + ["accepted"]
              + [f"latent_nll_{k}" for k in range(model.n_latents)]
              + ["reconstruction_error"])
    out.write(",".join(header) + "\n")
    n = 0
    for point in points:
        fields = [data_mod._render_number(point.timestamp),
                  _render_float(point.score)]
        fields += [_render_float(x) for x in point.marginal_nlls]
        fields.append("1" if point.accepted else "0")
        fields += [_render_float(x) for x in point.latent_nlls]
        fields.append(_render_float(point.reconstruction_error))
        out.write(",".join(fields) + "\n")
        n += 1
    return n


def cmd_score(cfg: dict) -> int:
    input_path = _require(cfg, "input", "--input")
    model_path = _require(cfg, "model", "--model")
    model = model_mod.load_model(model_path)
    rows = ((t, y, m) for t, y, m, _ in data_mod.iter_csv_rows(input_path))
    points = model_mod.score_online(model, rows, **_scoring_kwargs(cfg))
    if cfg["output"] in (None, "-"):
        n = _write_scores(sys.stdout, model, points)
    else:
        with open(cfg["output"], "w", encoding="utf-8", newline="") as out:
            n = _write_scores(out, model, points)
    log.info("scored %d points from %s", n, input_path)
    return 0


def _read_score_column(path) -> np.ndarray:
    scores = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        try:
            col = header.index("score")
        except ValueError:
            raise InputError(f"{path}: no 'score' column in header") from None
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split(",")
            if col >= len(fields):
                raise InputError(f"{path}: line {line_no}: missing score field")
            try:
                scores.append(float(fields[col]))
            except ValueError:
                raise InputError(
                    f"{path}: line {line_no}: bad score {fields[col]!r}"
                ) from None
    if not scores:
        raise InputError(f"{path}: no score rows")
    return np.array(scores)


def _read_labels(path) -> np.ndarray:
    series = data_mod.load_csv(path)
    if series.labels is None:
        raise InputError(f"{path}: no is_anomaly column to evaluate against")
    return series.labels


def _write_curve(path, reports) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("threshold,precision,recall,f1,true_positives,false_positives,"
                 "false_negatives\n")
        for r in reports:
            fh.write(",".join([
                _render_float(r.threshold),
                _render_float(r.precision),
                _render_float(r.recall),
                _render_float(r.f1),
                str(r.true_positives),
                str(r.false_positives),
                str(r.false_negatives),
            ]) + "\n")


def cmd_eval(cfg: dict) -> int:
    input_path = _require(cfg, "input", "--input")
    labels_path = _require(cfg, "labels", "--labels")
    scores = _read_score_column(input_path)
    labels = _read_labels(labels_path)
    if labels.shape != scores.shape:
        raise InputError(
            f"scores ({scores.size}) and labels ({labels.size}) differ in length"
        )
    report = _evaluate(scores, labels, cfg)
    if cfg["curve"]:
        _write_curve(cfg["curve"], sweep_curve(scores, labels))
        log.info("wrote threshold curve to %s", cfg["curve"])
    _emit({"report": asdict(report), "n_points": int(scores.size)})
    return 0


def _evaluate(scores: np.ndarray, labels: np.ndarray, cfg: dict) -> EvalReport:
    """Metrics at the configured threshold, else at the best-F1 threshold."""
    if cfg["threshold"] is not None:
        return range_adjusted_metrics(scores, labels, cfg["threshold"])
    return best_f1_sweep(scores, labels)


def _generate(cfg: dict):
    scenario = _require(cfg, "scenario", "--scenario")
    fn = data_mod.SCENARIOS[scenario]
    if scenario == "explain":
        series, _, _ = fn(seed=cfg["seed"], length=cfg["length"], n_dims=cfg["dims"])
    else:
        series = fn(seed=cfg["seed"], length=cfg["length"])
    return scenario, series


def cmd_synth(cfg: dict) -> int:
    output = _require(cfg, "output", "--output")
    scenario, series = _generate(cfg)
    data_mod.write_csv(series, output)
    windows = [] if series.labels is None else zip(*_label_runs(series.labels.astype(bool)))
    _emit({
        "output": str(output),
        "scenario": scenario,
        "length": series.length,
        "n_dims": series.n_dims,
        "anomaly_windows": [[int(a), int(b)] for a, b in windows],
    })
    return 0


def _pipeline_case(name, train, test, cfg, out_dir):
    model = _train_model(train, cfg)
    points = list(model_mod.score_online(model, test, **_scoring_kwargs(cfg)))
    scores = np.array([p.score for p in points])
    if test.labels is None:
        raise EvaluationError(f"case {name!r} has no labels to evaluate against")
    report = _evaluate(scores, test.labels, cfg)
    if out_dir is not None:
        model_mod.save_model(model, out_dir / f"{name}_model.json")
        with open(out_dir / f"{name}_scores.csv", "w", encoding="utf-8", newline="") as out:
            _write_scores(out, model, points)
    return {
        "name": name,
        "n_train": train.length,
        "n_test": test.length,
        "report": asdict(report),
    }


def cmd_pipeline(cfg: dict) -> int:
    if cfg["scenario"] is not None and cfg["input"] is not None:
        raise ConfigError("pass either --scenario or --input, not both")
    out_dir = None
    if cfg["output"]:
        out_dir = Path(cfg["output"])
        out_dir.mkdir(parents=True, exist_ok=True)

    if cfg["input"] is not None:
        cases = data_mod.load_benchmark_layout(cfg["input"], cfg["dataset_layout"],
                                               cfg["train_fraction"])
        results = []
        for case in cases:
            log.info("pipeline case %s: train %d, test %d points",
                     case.name, case.train.length, case.test.length)
            results.append(_pipeline_case(case.name, case.train, case.test, cfg, out_dir))
        mean_f1 = float(np.mean([r["report"]["f1"] for r in results]))
        _emit({
            "dataset_layout": cfg["dataset_layout"],
            "cases": results,
            "mean_f1": mean_f1,
        })
        return 0

    scenario, series = _generate(cfg)
    train, test = data_mod.split_train_test(series, cfg["train_fraction"])
    result = _pipeline_case(scenario, train, test, cfg, out_dir)
    _emit({"scenario": scenario, **result})
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser, commands, options = _build()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # flags beat config entries, which beat the flags' defaults
            commands[args.command].set_defaults(**_read_config(args, options))
            args = parser.parse_args(argv)
        return args.func(vars(args))
    except EvaluationError as exc:
        log.error("%s", exc)
        return 4
    except NumericalError as exc:
        log.error("%s", exc)
        return 3
    except (SsgpfaError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
