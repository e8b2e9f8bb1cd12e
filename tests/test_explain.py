import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssgpfa import (
    ParameterError,
    matern32,
    project_latents,
    reconstruction_error,
    scalar_nll,
)
from ssgpfa import explain
from ssgpfa.model import SsgpfaModel


def make_model(C, mode="orthogonal", offset=None, noise=0.1):
    D, K = np.asarray(C).shape
    return SsgpfaModel(
        kernels=tuple(matern32(10.0) for _ in range(K)),
        loading=C,
        offset=np.zeros(D) if offset is None else offset,
        noise=noise,
        mode=mode,
    )


def orthonormal(D, K, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((D, K)))
    return q


class TestProjectLatents:
    def test_orthogonal_is_transpose(self):
        C = orthonormal(5, 2, seed=1)
        d = np.arange(5.0)
        model = make_model(C, offset=d)
        y = np.linspace(-1, 1, 5)
        np.testing.assert_allclose(project_latents(model, y), C.T @ (y - d))

    def test_unconstrained_warns_and_solves(self):
        C = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = make_model(C, mode="unconstrained")
        v_true = np.array([0.3, -0.7])
        y = C @ v_true
        with pytest.warns(UserWarning, match="least squares"):
            v = project_latents(model, y)
        np.testing.assert_allclose(v, v_true, atol=1e-12)

    def test_missing_dims_use_observed_rows(self):
        C = orthonormal(4, 2, seed=2)
        model = make_model(C)
        v_true = np.array([1.0, -2.0])
        y = C @ v_true
        y[1] = np.nan
        v = project_latents(model, y)
        keep = np.array([True, False, True, True])
        expected, *_ = np.linalg.lstsq(C[keep], y[keep], rcond=None)
        np.testing.assert_allclose(v, expected)

    def test_all_missing_is_nan(self):
        model = make_model(orthonormal(3, 2))
        v = project_latents(model, np.full(3, np.nan))
        assert np.isnan(v).all()

    def test_wrong_length_rejected(self):
        model = make_model(orthonormal(3, 2))
        with pytest.raises(ParameterError):
            project_latents(model, np.zeros(4))


def assert_projection_is_pinv(model, observed):
    M, noise_vars = explain._projection(model, observed)
    M_ref = np.linalg.pinv(model.loading[observed])
    noise_ref = np.einsum("kd,d,kd->k", M_ref, model.noise[observed], M_ref)
    assert np.abs(M - M_ref).max() <= 1e-12 * np.abs(M_ref).max()
    assert np.abs(noise_vars - noise_ref).max() <= 1e-12 * np.abs(noise_ref).max()


class TestProjection:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), orthogonal=st.booleans())
    def test_matches_pinv_on_random_loadings(self, seed, orthogonal):
        # partially observed rows, where the Gram's Cholesky factor is used
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 7))
        D = int(rng.integers(K + 3, 39))
        if orthogonal:
            model = make_model(orthonormal(D, K, seed=seed), noise=rng.uniform(0.1, 1.0))
        else:
            model = make_model(rng.standard_normal((D, K)), mode="unconstrained",
                               noise=rng.uniform(0.1, 1.0, D))
        observed = rng.random(D) < 0.8
        observed[rng.choice(D, K + 2, replace=False)] = True
        assert_projection_is_pinv(model, observed)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["combination", "zero column", "scaled copy", "few rows"]))
    def test_matches_pinv_on_rank_deficient_loadings(self, seed, kind):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 7))
        D = int(rng.integers(K + 3, 39))
        C = rng.standard_normal((D, K))
        observed = np.ones(D, dtype=bool)
        j = int(rng.integers(1, K))
        if kind == "combination":
            C[:, j] = C[:, :j] @ rng.standard_normal(j)
        elif kind == "zero column":
            C[:, j] = 0.0
        elif kind == "scaled copy":
            C[:, j] = rng.uniform(-3.0, 3.0) * C[:, j - 1]
        else:
            observed[rng.choice(D, D - j, replace=False)] = False
        model = make_model(C, mode="unconstrained", noise=rng.uniform(0.1, 1.0, D))
        assert_projection_is_pinv(model, observed)


class TestScalarNll:
    def test_standard_normal_at_mean(self):
        assert scalar_nll(0.0, 0.0, 1.0) == pytest.approx(0.9189385332046727, abs=1e-12)

    def test_quadratic_in_residual(self):
        base = scalar_nll(0.0, 0.0, 2.0)
        assert scalar_nll(2.0, 0.0, 2.0) == pytest.approx(base + 1.0)

    def test_degenerate_variance_is_inf(self):
        assert scalar_nll(1.0, 0.0, 0.0) == math.inf
        assert scalar_nll(1.0, 0.0, -0.5) == math.inf
        assert scalar_nll(1.0, 0.0, math.inf) == math.inf


class TestReconstructionError:
    def test_in_subspace_is_zero(self):
        C = orthonormal(6, 2, seed=3)
        model = make_model(C)
        v = np.array([0.5, 1.5])
        assert reconstruction_error(model, C @ v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_offset_measured_exactly(self):
        C = np.eye(4)[:, :2]
        model = make_model(C)
        y = np.array([0.3, -0.2, 2.0, 0.0])  # third dim outside span(C)
        v = project_latents(model, y)
        assert reconstruction_error(model, y, v) == pytest.approx(2.0)

    def test_nan_when_latents_unavailable(self):
        model = make_model(orthonormal(3, 2))
        assert math.isnan(reconstruction_error(model, np.zeros(3), np.full(2, np.nan)))
