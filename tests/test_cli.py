import json
import math
import tracemalloc

import numpy as np
import pytest

from ssgpfa import cli, load_model, save_model, fit_univariate
from ssgpfa.data import (
    LabeledSeries,
    SyntheticSpec,
    gen_multivariate,
    gen_univariate,
    load_csv,
    write_csv,
)


def run(capsys, *argv):
    """Invoke the CLI in process; error details land in caplog, not stderr."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def univariate_csv(tmp_path):
    path = tmp_path / "train_uni.csv"
    write_csv(gen_univariate(80, seed=1), path)
    return path


@pytest.fixture
def multivariate_csv(tmp_path):
    series, _, _ = gen_multivariate(SyntheticSpec(length=120, seed=2), n_dims=4)
    path = tmp_path / "train_multi.csv"
    write_csv(series, path)
    return path


class TestTrain:
    def test_multivariate_train_writes_model(self, tmp_path, capsys, multivariate_csv):
        model_path = tmp_path / "model.json"
        payload = run_json(capsys, "train", "--input", str(multivariate_csv),
                           "--model", str(model_path), "--latents", "2",
                           "--max-iters", "3", "--tol", "0")
        assert payload["n_dims"] == 4
        assert payload["n_latents"] == 2
        assert payload["iterations"] == 3
        assert payload["mode"] == "orthogonal"
        model = load_model(model_path)
        C = model.loading
        np.testing.assert_allclose(C.T @ C, np.eye(2), atol=1e-8)
        assert payload["final_log_likelihood"] == pytest.approx(model.training_log[-1])

    def test_explicit_kernel_expressions(self, tmp_path, capsys, multivariate_csv):
        model_path = tmp_path / "model.json"
        run_json(capsys, "train", "--input", str(multivariate_csv),
                 "--model", str(model_path), "--kernels",
                 "matern32(lengthscale=20.0); cosine(period=24.0)",
                 "--max-iters", "2")
        model = load_model(model_path)
        assert [k.expression.split("(")[0] for k in model.kernels] == [
            "matern32", "cosine"]

    def test_latents_kernel_count_conflict(self, tmp_path, capsys, caplog,
                                           multivariate_csv):
        code, _, _ = run(capsys, "train", "--input", str(multivariate_csv),
                         "--model", str(tmp_path / "m.json"),
                         "--kernels", "matern32(lengthscale=20.0)",
                         "--latents", "3")
        assert code == 2
        assert "does not match" in caplog.text

    def test_missing_input_flag(self, capsys, caplog, tmp_path):
        code, _, _ = run(capsys, "train", "--model", str(tmp_path / "m.json"))
        assert code == 2
        assert "--input" in caplog.text

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "train",
                           "--input", str(tmp_path / "absent.csv"),
                           "--model", str(tmp_path / "m.json"))
        assert code == 2

    def test_config_file_precedence(self, tmp_path, capsys, multivariate_csv):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"max_iters": 2, "latents": 2, "tol": 0.0}))
        model_path = tmp_path / "m.json"
        # config supplies latents and tol; the flag overrides max_iters
        payload = run_json(capsys, "train", "--input", str(multivariate_csv),
                           "--model", str(model_path),
                           "--config", str(config), "--max-iters", "3")
        assert payload["iterations"] == 3
        assert payload["n_latents"] == 2

    def test_unknown_config_key(self, tmp_path, capsys, caplog, multivariate_csv):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"iterations": 5}))
        code, _, _ = run(capsys, "train", "--input", str(multivariate_csv),
                         "--model", str(tmp_path / "m.json"),
                         "--config", str(config))
        assert code == 2
        assert "iterations" in caplog.text

    def test_config_rho_conflict(self, tmp_path, capsys, multivariate_csv):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rho": 1e-9, "log_rho": -5.0}))
        code, _, err = run(capsys, "train", "--input", str(multivariate_csv),
                           "--model", str(tmp_path / "m.json"),
                           "--config", str(config))
        assert code == 2

    def test_robust_training_takes_log_threshold(self, tmp_path, capsys, multivariate_csv):
        # exp(-800) underflows to 0; the log threshold must reach the gate
        # as it is, and a gate at -800 accepts every row
        args = ("--input", str(multivariate_csv), "--latents", "2",
                "--max-iters", "3", "--tol", "0")
        plain, robust = tmp_path / "plain.json", tmp_path / "robust.json"
        run_json(capsys, "train", *args, "--model", str(plain))
        run_json(capsys, "train", *args, "--model", str(robust),
                 "--robust", "true", "--log-rho", "-800")
        assert robust.read_bytes() == plain.read_bytes()


def quick_model(path, train_csv):
    series = load_csv(train_csv)
    model = fit_univariate(series.values[0], series.timestamps,
                           "matern32(lengthscale=8.0)", optimize=False)
    save_model(model, path)
    return model


class TestScore:
    def test_scores_to_file(self, tmp_path, capsys, univariate_csv):
        model_path = tmp_path / "m.json"
        quick_model(model_path, univariate_csv)
        out_path = tmp_path / "scores.csv"
        code, out, err = run(capsys, "score", "--input", str(univariate_csv),
                             "--model", str(model_path),
                             "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ("timestamp,score,marginal_nll_0,accepted,"
                            "latent_nll_0,reconstruction_error")
        assert len(lines) == 81
        first = lines[1].split(",")
        assert float(first[1]) == float(first[2])  # joint == marginal when D=1

    def test_scores_to_stdout(self, tmp_path, capsys, univariate_csv):
        model_path = tmp_path / "m.json"
        quick_model(model_path, univariate_csv)
        code, out, _ = run(capsys, "score", "--input", str(univariate_csv),
                           "--model", str(model_path))
        assert code == 0
        assert out.splitlines()[0].startswith("timestamp,score")
        assert len(out.splitlines()) == 81

    def test_robust_flag_matches_on_clean_data(self, tmp_path, capsys, univariate_csv):
        model_path = tmp_path / "m.json"
        quick_model(model_path, univariate_csv)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out_path, flag in ((a, "true"), (b, "false")):
            code, _, _ = run(capsys, "score", "--input", str(univariate_csv),
                             "--model", str(model_path),
                             "--robust", flag, "--output", str(out_path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dimension_mismatch_exit_code(self, tmp_path, capsys, multivariate_csv):
        model_path = tmp_path / "m.json"
        uni = tmp_path / "uni.csv"
        write_csv(gen_univariate(30, seed=3), uni)
        quick_model(model_path, uni)
        code, _, err = run(capsys, "score", "--input", str(multivariate_csv),
                           "--model", str(model_path))
        assert code == 2

    def test_nonfinite_model_parameter_exit_code(self, tmp_path, capsys, univariate_csv):
        # The model file is input from outside: a NaN in it is a usage error,
        # not a run that scores NaN on every row.
        model_path = tmp_path / "m.json"
        quick_model(model_path, univariate_csv)
        doc = json.loads(model_path.read_text())
        doc["loading"][0][0] = math.nan
        model_path.write_text(json.dumps(doc))
        out_path = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "score", "--input", str(univariate_csv),
                         "--model", str(model_path), "--output", str(out_path))
        assert code == 2
        assert not out_path.exists()

    def test_rho_and_log_rho_mutually_exclusive(self, tmp_path, univariate_csv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["score", "--input", str(univariate_csv),
                      "--model", str(tmp_path / "m.json"),
                      "--rho", "1e-9", "--log-rho", "-20"])
        assert exc.value.code == 2

    def test_streaming_memory_stays_flat(self, tmp_path, capsys):
        short_csv = tmp_path / "short.csv"
        long_csv = tmp_path / "long.csv"
        write_csv(gen_univariate(1500, seed=4), short_csv)
        write_csv(gen_univariate(9000, seed=4), long_csv)
        model_path = tmp_path / "m.json"
        quick_model(model_path, short_csv)

        def peak(input_path):
            tracemalloc.start()
            code = cli.main(["score", "--input", str(input_path),
                             "--model", str(model_path),
                             "--output", str(tmp_path / "out.csv")])
            _, high = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert code == 0
            return high

        p_short = peak(short_csv)
        p_long = peak(long_csv)
        # 6x more rows must not mean 6x more memory
        assert p_long < 2.0 * p_short


def write_score_csv(path, scores):
    with open(path, "w") as fh:
        fh.write("timestamp,score\n")
        for i, s in enumerate(scores):
            fh.write(f"{i},{s}\n")


def write_label_csv(path, labels):
    with open(path, "w") as fh:
        fh.write("timestamp,dim_0,is_anomaly\n")
        for i, flag in enumerate(labels):
            fh.write(f"{i},0.0,{flag}\n")


class TestEval:
    def test_sweep_report(self, tmp_path, capsys):
        scores_path = tmp_path / "scores.csv"
        labels_path = tmp_path / "labels.csv"
        write_score_csv(scores_path, [0.0, 0.0, 5.0, 0.0, 1.0])
        write_label_csv(labels_path, [0, 0, 1, 1, 0])
        payload = run_json(capsys, "eval", "--input", str(scores_path),
                           "--labels", str(labels_path))
        rep = payload["report"]
        assert rep["f1"] == 1.0
        assert rep["recall"] == 1.0
        assert payload["n_points"] == 5

    def test_fixed_threshold_echoed(self, tmp_path, capsys):
        scores_path = tmp_path / "scores.csv"
        labels_path = tmp_path / "labels.csv"
        write_score_csv(scores_path, [0.0, 3.0, 0.0])
        write_label_csv(labels_path, [0, 1, 0])
        payload = run_json(capsys, "eval", "--input", str(scores_path),
                           "--labels", str(labels_path), "--threshold", "2.0")
        assert payload["report"]["threshold"] == 2.0
        assert payload["report"]["true_positives"] == 1

    def test_no_positive_labels_exit_4(self, tmp_path, capsys):
        scores_path = tmp_path / "scores.csv"
        labels_path = tmp_path / "labels.csv"
        write_score_csv(scores_path, [0.0, 1.0])
        write_label_csv(labels_path, [0, 0])
        code, _, err = run(capsys, "eval", "--input", str(scores_path),
                           "--labels", str(labels_path))
        assert code == 4

    def test_length_mismatch(self, tmp_path, capsys, caplog):
        scores_path = tmp_path / "scores.csv"
        labels_path = tmp_path / "labels.csv"
        write_score_csv(scores_path, [0.0, 1.0, 2.0])
        write_label_csv(labels_path, [0, 1])
        code, _, _ = run(capsys, "eval", "--input", str(scores_path),
                         "--labels", str(labels_path))
        assert code == 2
        assert "differ in length" in caplog.text

    def test_curve_file(self, tmp_path, capsys):
        scores_path = tmp_path / "scores.csv"
        labels_path = tmp_path / "labels.csv"
        curve_path = tmp_path / "curve.csv"
        write_score_csv(scores_path, [0.5, 2.0, 0.5, 1.0])
        write_label_csv(labels_path, [0, 1, 0, 1])
        run_json(capsys, "eval", "--input", str(scores_path),
                 "--labels", str(labels_path), "--curve", str(curve_path))
        lines = curve_path.read_text().splitlines()
        assert lines[0].startswith("threshold,precision,recall,f1")
        # +inf, three distinct scores, -inf
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "inf"

    def test_threshold_sweep_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--input", "x", "--labels", "y",
                      "--threshold", "1.0", "--sweep"])
        assert exc.value.code == 2

    def test_score_column_required(self, tmp_path, capsys, caplog):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,value\n0,1.0\n")
        labels_path = tmp_path / "labels.csv"
        write_label_csv(labels_path, [1])
        code, _, _ = run(capsys, "eval", "--input", str(bad),
                         "--labels", str(labels_path))
        assert code == 2
        assert "score" in caplog.text


class TestSynth:
    def test_robust_scenario_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        pa = run_json(capsys, "synth", "--scenario", "robust",
                      "--length", "200", "--output", str(a))
        pb = run_json(capsys, "synth", "--scenario", "robust",
                      "--length", "200", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()
        pa.pop("output"), pb.pop("output")
        assert pa == pb
        assert pa["anomaly_windows"] == [[50, 51], [100, 103], [150, 160]]
        assert pa["length"] == 200

    def test_seed_changes_data(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_json(capsys, "synth", "--scenario", "clean", "--output", str(a))
        run_json(capsys, "synth", "--scenario", "clean", "--seed", "5",
                 "--output", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_explain_scenario_multivariate(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        payload = run_json(capsys, "synth", "--scenario", "explain",
                           "--length", "150", "--dims", "5",
                           "--output", str(out))
        assert payload["n_dims"] == 5
        series = load_csv(out)
        assert series.values.shape == (5, 150)
        assert len(payload["anomaly_windows"]) == 2

    def test_scenario_required(self, capsys, caplog, tmp_path):
        code, _, _ = run(capsys, "synth", "--output", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--scenario" in caplog.text


class TestPipeline:
    def test_scenario_end_to_end(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        payload = run_json(capsys, "pipeline", "--scenario", "robust",
                           "--length", "240", "--output", str(out_dir),
                           "--max-iters", "2")
        assert payload["scenario"] == "robust"
        assert payload["n_train"] == 48
        assert payload["n_test"] == 192
        rep = payload["report"]
        assert set(rep) == {"threshold", "precision", "recall", "f1",
                            "true_positives", "false_positives",
                            "false_negatives"}
        assert (out_dir / "robust_model.json").is_file()
        assert (out_dir / "robust_scores.csv").is_file()
        scored = load_csv(out_dir / "robust_scores.csv")
        assert scored.length == 192

    def test_csv_layout_end_to_end(self, tmp_path, capsys):
        series = gen_univariate(150, seed=6)
        labels = np.zeros(150, dtype=np.int8)
        labels[100:103] = 1
        values = series.values.copy()
        values[0, 100:103] += 6.0
        write_csv(LabeledSeries(series.timestamps, values, labels=labels),
                  tmp_path / "case.csv")
        payload = run_json(capsys, "pipeline", "--input", str(tmp_path / "case.csv"),
                           "--dataset-layout", "csv")
        assert payload["dataset_layout"] == "csv"
        assert len(payload["cases"]) == 1
        case = payload["cases"][0]
        assert case["name"] == "case"
        assert payload["mean_f1"] == case["report"]["f1"]
        assert case["report"]["f1"] > 0.5  # obvious spike is found

    def test_scenario_and_input_exclusive(self, tmp_path, capsys, caplog):
        code, _, _ = run(capsys, "pipeline", "--scenario", "robust",
                         "--input", str(tmp_path))
        assert code == 2
        assert "not both" in caplog.text

    def test_unlabeled_case_exit_4(self, tmp_path, capsys):
        write_csv(gen_univariate(100, seed=7), tmp_path / "plain.csv")
        # strip labels entirely
        series = load_csv(tmp_path / "plain.csv")
        write_csv(LabeledSeries(series.timestamps, series.values),
                  tmp_path / "plain.csv")
        code, _, err = run(capsys, "pipeline", "--input",
                           str(tmp_path / "plain.csv"), "--dataset-layout", "csv")
        assert code == 4


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--banana", "1"])
        assert exc.value.code == 2

    def test_bad_robust_value(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["score", "--robust", "maybe", "--input", "x",
                      "--model", "y"])
        assert exc.value.code == 2
