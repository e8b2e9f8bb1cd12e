import math

import numpy as np
import pytest

from ssgpfa import (
    ConfigError,
    InputError,
    ParameterError,
    matern32,
    prior_covariance,
)
from ssgpfa.data import (
    BenchmarkCase,
    Injection,
    LabeledSeries,
    SyntheticSpec,
    gen_multivariate,
    gen_univariate,
    iter_csv_rows,
    load_benchmark_layout,
    load_csv,
    scenario_clean,
    scenario_explain,
    scenario_robust,
    split_train_test,
    write_csv,
)


class TestLabeledSeries:
    def test_univariate_row_coerced_to_matrix(self):
        s = LabeledSeries([0.0, 1.0], [1.0, 2.0])
        assert s.values.shape == (1, 2)
        assert s.n_dims == 1 and s.length == 2

    def test_timestamps_must_increase(self):
        with pytest.raises(InputError, match="index 1"):
            LabeledSeries([0.0, 0.0], [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_timestamps_must_be_finite(self, bad):
        with pytest.raises(InputError, match=r"finite \(index 1\)"):
            LabeledSeries([0.0, bad, 2.0], [[1.0, 2.0, 3.0]])

    def test_mask_defaults_to_finite(self):
        s = LabeledSeries([0.0, 1.0], [[1.0, np.nan]])
        np.testing.assert_array_equal(s.mask, [[True, False]])

    def test_explicit_mask_intersects_finiteness(self):
        s = LabeledSeries([0.0, 1.0], [[np.nan, 2.0]], mask=[[True, True]])
        np.testing.assert_array_equal(s.mask, [[False, True]])

    def test_labels_validated_binary(self):
        with pytest.raises(InputError, match="binary"):
            LabeledSeries([0.0], [[1.0]], labels=[2])
        s = LabeledSeries([0.0], [[1.0]], labels=[True])
        assert s.labels.dtype == np.int8

    def test_label_length_checked(self):
        with pytest.raises(InputError):
            LabeledSeries([0.0, 1.0], [[1.0, 2.0]], labels=[0])

    def test_slice(self):
        s = LabeledSeries([0.0, 1.0, 2.0], [[1.0, 2.0, 3.0]], labels=[0, 1, 0])
        cut = s.slice(1, 3)
        np.testing.assert_array_equal(cut.timestamps, [1.0, 2.0])
        np.testing.assert_array_equal(cut.values, [[2.0, 3.0]])
        np.testing.assert_array_equal(cut.labels, [1, 0])


class TestInjection:
    def test_needs_exactly_one_target(self):
        with pytest.raises(ConfigError):
            Injection("spike", start=0, duration=1, magnitude=1.0,
                      latent=0, dims=(0,))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            Injection("blackout", start=0, duration=1, magnitude=1.0, latent=0)

    def test_window_validation(self):
        with pytest.raises(ParameterError):
            Injection("spike", start=-1, duration=1, magnitude=1.0, latent=0)
        with pytest.raises(ParameterError):
            Injection("spike", start=0, duration=0, magnitude=1.0, latent=0)

    def test_window_must_fit_series(self):
        inj = Injection("spike", start=95, duration=10, magnitude=1.0, latent=0)
        with pytest.raises(ParameterError, match="exceeds"):
            SyntheticSpec(length=100, injections=(inj,))


class TestGenUnivariate:
    def test_noiseless_frozen_values(self):
        s = gen_univariate(16, noiseless=True)
        assert s.values[0, 0] == 0.0
        assert s.values[0, 15] == pytest.approx(0.24070280258417698, abs=1e-12)

    def test_same_seed_bit_identical(self):
        a = gen_univariate(64, seed=7)
        b = gen_univariate(64, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = gen_univariate(64, seed=7)
        b = gen_univariate(64, seed=8)
        assert not np.array_equal(a.values, b.values)

    def test_noise_scale_interpretation(self):
        # 0.15 is the noise variance
        base = gen_univariate(4096, noiseless=True).values[0]
        noise = gen_univariate(4096, seed=3).values[0] - base
        assert np.std(noise) == pytest.approx(math.sqrt(0.15), rel=0.05)

    def test_labels_present_and_clean(self):
        s = gen_univariate(10)
        assert s.labels.sum() == 0


class TestGenMultivariate:
    def test_shapes_and_orthonormal_loading(self):
        spec = SyntheticSpec(length=200, seed=2)
        series, Z, C = gen_multivariate(spec, n_dims=6)
        assert series.values.shape == (6, 200)
        assert Z.shape == (3, 200)
        np.testing.assert_allclose(C.T @ C, np.eye(3), atol=1e-12)
        assert series.labels.sum() == 0

    def test_latent_marginal_variance_matches_kernel(self):
        spec = SyntheticSpec(length=20000, seed=4)
        kernel = matern32(lengthscale=5.0, variance=2.0)
        _, Z, _ = gen_multivariate(spec, n_dims=2, kernels=[kernel])
        assert Z[0].var() == pytest.approx(prior_covariance(kernel, 0.0), rel=0.1)

    def test_sensor_offset_shifts_exact_window(self):
        base_spec = SyntheticSpec(length=100, seed=5)
        inj = Injection("sensor_offset", start=40, duration=10, magnitude=2.5,
                        dims=(1,))
        spec = SyntheticSpec(length=100, seed=5, injections=(inj,))
        clean, _, _ = gen_multivariate(base_spec, n_dims=4)
        hit, _, _ = gen_multivariate(spec, n_dims=4)
        delta = hit.values - clean.values
        np.testing.assert_allclose(delta[1, 40:50], 2.5, atol=1e-12)
        assert np.abs(np.delete(delta, np.s_[40:50], axis=1)).max() == 0.0
        assert np.abs(delta[[0, 2, 3]]).max() == 0.0
        np.testing.assert_array_equal(np.nonzero(hit.labels)[0], np.arange(40, 50))

    def test_latent_injection_before_mixing(self):
        inj = Injection("amplitude_scale", start=10, duration=5, magnitude=3.0,
                        latent=0)
        spec = SyntheticSpec(length=50, seed=6, injections=(inj,))
        base = SyntheticSpec(length=50, seed=6)
        clean, Z0, C = gen_multivariate(base, n_dims=4)
        hit, Z1, _ = gen_multivariate(spec, n_dims=4)
        np.testing.assert_allclose(Z1[0, 10:15], 3.0 * Z0[0, 10:15], atol=1e-12)
        np.testing.assert_array_equal(Z1[1:], Z0[1:])
        # observed delta lies along latent 0's loading column
        delta = (hit.values - clean.values)[:, 12]
        np.testing.assert_allclose(delta, C[:, 0] * (Z1[0, 12] - Z0[0, 12]),
                                   atol=1e-12)

    def test_change_point_persists_past_window(self):
        inj = Injection("change_point", start=20, duration=5, magnitude=1.5,
                        dims=(0,))
        spec = SyntheticSpec(length=60, seed=7, injections=(inj,))
        clean, _, _ = gen_multivariate(SyntheticSpec(length=60, seed=7), n_dims=3)
        hit, _, _ = gen_multivariate(spec, n_dims=3)
        delta = hit.values[0] - clean.values[0]
        np.testing.assert_allclose(delta[20:], 1.5, atol=1e-12)
        assert hit.labels[19] == 0 and hit.labels[20] == 1
        assert hit.labels[25] == 0  # labels cover only the declared window

    def test_sensor_offset_cannot_target_latent(self):
        inj = Injection("sensor_offset", start=0, duration=2, magnitude=1.0,
                        latent=0)
        with pytest.raises(ConfigError):
            gen_multivariate(SyntheticSpec(length=10, injections=(inj,)), n_dims=3)

    def test_dims_bounds_checked(self):
        inj = Injection("spike", start=0, duration=1, magnitude=1.0, dims=(5,))
        with pytest.raises(ConfigError):
            gen_multivariate(SyntheticSpec(length=10, injections=(inj,)), n_dims=3)

    def test_more_latents_than_dims_rejected(self):
        with pytest.raises(ConfigError):
            gen_multivariate(SyntheticSpec(length=10), n_dims=2)


class TestScenarios:
    def test_explain_structure(self):
        series, Z, C = scenario_explain(length=240, n_dims=6)
        assert series.values.shape == (6, 240)
        assert Z.shape == (3, 240)
        assert series.labels[80] == 1  # amplitude window opens at T//3
        assert series.labels[160] == 1  # damping window at 2T//3

    def test_explain_minimum_length_guard(self):
        with pytest.raises(ParameterError, match="120"):
            scenario_explain(length=80)

    def test_robust_has_spikes_and_step(self):
        s = scenario_robust(length=200)
        assert s.n_dims == 1
        on = np.nonzero(s.labels)[0]
        assert 50 in on and 100 in on and 150 in on
        # the step change persists past its labeled window
        clean = scenario_clean(length=200)
        delta = s.values[0] - clean.values[0]
        np.testing.assert_allclose(delta[160:], 2.0, atol=1e-12)

    def test_clean_is_unlabeled_noise(self):
        s = scenario_clean(length=100)
        assert s.labels.sum() == 0


class TestCsv:
    def test_round_trip_byte_identical(self, tmp_path):
        spec = SyntheticSpec(length=40, seed=8)
        series, _, _ = gen_multivariate(spec, n_dims=3)
        values = series.values.copy()
        values[1, 5] = np.nan
        series = LabeledSeries(series.timestamps, values, labels=series.labels)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(series, p1)
        write_csv(load_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_missing_cells(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("timestamp,dim_0,dim_1,is_anomaly\n1,0.5,,0\n2,,1.25,1\n")
        s = load_csv(p)
        np.testing.assert_array_equal(s.mask, [[True, False], [False, True]])
        np.testing.assert_array_equal(s.labels, [0, 1])
        assert s.values[1, 1] == 1.25

    def test_unlabeled_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("timestamp,dim_0\n1,0.5\n2,0.75\n")
        s = load_csv(p)
        assert s.labels is None

    def test_iso_timestamps(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text(
            "timestamp,dim_0\n"
            "2024-01-01T00:00:00Z,1.0\n"
            "2024-01-01T00:05:00+00:00,2.0\n"
            "2024-01-01T00:10:00,3.0\n"  # naive reads as UTC
        )
        s = load_csv(p)
        assert s.timestamps[1] - s.timestamps[0] == pytest.approx(300.0)
        assert s.timestamps[2] - s.timestamps[1] == pytest.approx(300.0)

    def test_malformed_rows_name_the_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("timestamp,dim_0\n1,0.5\n2,zap\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(p)
        p.write_text("timestamp,dim_0\n1,0.5\n2,0.5,9\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(p)
        p.write_text("timestamp,dim_0\n2,0.5\n1,0.5\n")
        with pytest.raises(InputError, match="increasing"):
            load_csv(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_timestamp_names_its_line(self, tmp_path, bad):
        # NaN compares False with its neighbours, so the increasing check
        # alone would blame the next line; inf would pass it.
        p = tmp_path / "x.csv"
        p.write_text(f"timestamp,dim_0\n1,0.5\n{bad},0.5\n3,0.5\n")
        with pytest.raises(InputError, match=f"line 3: timestamp '{bad}' is not finite"):
            load_csv(p)
        with pytest.raises(InputError, match="line 3"):
            list(iter_csv_rows(p))

    def test_bad_headers_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("time,dim_0\n1,2\n")
        with pytest.raises(InputError, match="header"):
            load_csv(p)
        p.write_text("timestamp,value\n1,2\n")
        with pytest.raises(InputError, match="dim_0"):
            load_csv(p)
        p.write_text("timestamp,dim_0,dim_2\n1,2,3\n")
        with pytest.raises(InputError, match="dim_1"):
            load_csv(p)

    def test_bad_label_value(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("timestamp,dim_0,is_anomaly\n1,2,yes\n")
        with pytest.raises(InputError, match="is_anomaly"):
            load_csv(p)

    def test_empty_data_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("timestamp,dim_0\n")
        with pytest.raises(InputError, match="no data"):
            load_csv(p)

    def test_iter_matches_load(self, tmp_path):
        spec = SyntheticSpec(length=25, seed=9)
        series, _, _ = gen_multivariate(spec, n_dims=4)
        p = tmp_path / "x.csv"
        write_csv(series, p)
        rows = list(iter_csv_rows(p))
        loaded = load_csv(p)
        assert len(rows) == loaded.length
        for j, (t, values, mask, label) in enumerate(rows):
            assert t == loaded.timestamps[j]
            np.testing.assert_array_equal(values, loaded.values[:, j])
            assert label == loaded.labels[j]


class TestLayouts:
    @staticmethod
    def write_series(path, length=50, seed=0, labeled=True):
        s = gen_univariate(length, seed=seed)
        if labeled:
            labels = np.zeros(length, dtype=np.int8)
            labels[length // 2] = 1
            s = LabeledSeries(s.timestamps, s.values, labels=labels)
        else:
            s = LabeledSeries(s.timestamps, s.values)
        write_csv(s, path)

    def test_split_fraction(self):
        s = gen_univariate(100)
        train, test = split_train_test(s)
        assert train.length == 20 and test.length == 80
        assert test.timestamps[0] == 20.0

    def test_split_bounds(self):
        with pytest.raises(ParameterError):
            split_train_test(gen_univariate(10), train_fraction=1.5)
        with pytest.raises(InputError):
            split_train_test(gen_univariate(2), train_fraction=0.2)

    def test_csv_single_file(self, tmp_path):
        p = tmp_path / "series.csv"
        self.write_series(p, length=100)
        cases = load_benchmark_layout(p, "csv")
        assert len(cases) == 1
        case = cases[0]
        assert isinstance(case, BenchmarkCase)
        assert case.name == "series"
        assert case.train.length == 20 and case.test.length == 80

    def test_nab_directory_tree(self, tmp_path):
        (tmp_path / "sub").mkdir()
        self.write_series(tmp_path / "a.csv", seed=1)
        self.write_series(tmp_path / "sub" / "b.csv", seed=2)
        cases = load_benchmark_layout(tmp_path, "nab")
        assert [c.name for c in cases] == ["a", "b"]

    def test_nasa_paired_dirs(self, tmp_path):
        (tmp_path / "train").mkdir()
        (tmp_path / "test").mkdir()
        self.write_series(tmp_path / "train" / "m1.csv", seed=3, labeled=False)
        self.write_series(tmp_path / "test" / "m1.csv", seed=4)
        cases = load_benchmark_layout(tmp_path, "nasa")
        assert len(cases) == 1
        assert cases[0].train.labels is None

    def test_nasa_missing_pair(self, tmp_path):
        (tmp_path / "train").mkdir()
        (tmp_path / "test").mkdir()
        self.write_series(tmp_path / "train" / "m1.csv", labeled=False)
        with pytest.raises(InputError, match="missing test file"):
            load_benchmark_layout(tmp_path, "nasa")

    def test_smd_requires_labeled_test(self, tmp_path):
        (tmp_path / "train").mkdir()
        (tmp_path / "test").mkdir()
        self.write_series(tmp_path / "train" / "m1.csv", labeled=False)
        self.write_series(tmp_path / "test" / "m1.csv", labeled=False)
        with pytest.raises(InputError, match="is_anomaly"):
            load_benchmark_layout(tmp_path, "smd")

    def test_unknown_layout(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown dataset layout"):
            load_benchmark_layout(tmp_path, "kaggle")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(InputError, match="no CSV"):
            load_benchmark_layout(tmp_path, "nab")
