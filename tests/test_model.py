import json
import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ssgpfa import (
    DEFAULT_UNIVARIATE_KERNEL,
    ConfigError,
    InputError,
    LatentPosterior,
    NumericalError,
    ParameterError,
    ScoredPoint,
    SsgpfaModel,
    assemble_joint,
    brownian,
    cosine,
    e_step,
    fa_likelihood,
    fit_em,
    fit_univariate,
    load_model,
    m_step,
    matern32,
    model_from_dict,
    model_to_dict,
    orthogonalize,
    parse_kernel,
    reconstruction_error,
    robust_filter,
    save_model,
    scalar_nll,
    score_online,
    train_series,
    univariate_observation_model,
)
from ssgpfa import explain
from ssgpfa.data import LabeledSeries, gen_multivariate, gen_univariate, SyntheticSpec
from ssgpfa.kalman import _filter_steps, log_likelihood_gradient
from ssgpfa.kernels import _leaf_values, _rebuild
from ssgpfa.metrics import standardize
from ssgpfa.model import _MAX_TRIALS, _minimize
from test_kalman import brownian_matern_gram


def orthonormal(D, K, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((D, K)))
    return q


def toy_data(D=5, K=2, T=120, seed=0, noise=0.1):
    """Latent mixtures through a random orthonormal loading."""
    rng = np.random.default_rng(seed)
    t = np.arange(T, dtype=float)
    Z = np.stack([np.sin(0.07 * t + k) + 0.3 * rng.standard_normal(T)
                  for k in range(K)])
    C = orthonormal(D, K, seed=seed + 1)
    d = rng.standard_normal(D)
    Y = C @ Z + d[:, None] + math.sqrt(noise) * rng.standard_normal((D, T))
    return t, Y, C, d


def toy_model(C, noise=0.1, mode="orthogonal", offset=None):
    D, K = np.asarray(C).shape
    kernels = tuple(matern32(lengthscale=8.0 + 3.0 * k) for k in range(K))
    return SsgpfaModel(kernels, C, np.zeros(D) if offset is None else offset,
                       noise, mode=mode)


class TestModelValidation:
    def test_more_latents_than_dims_rejected(self):
        with pytest.raises(ConfigError, match="latents"):
            toy_model(np.eye(3)[:2])  # 2 dims, 3 latents

    def test_orthogonal_mode_requires_orthonormal_loading(self):
        C = np.array([[1.0, 0.2], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ConfigError, match="orthonormal"):
            toy_model(C)
        toy_model(C, mode="unconstrained")  # same loading is fine here

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            toy_model(orthonormal(3, 2), mode="bayesian")

    def test_scalar_noise_broadcasts(self):
        m = toy_model(orthonormal(4, 2), noise=0.3)
        np.testing.assert_allclose(m.noise, np.full(4, 0.3))
        assert m.sigma2 == pytest.approx(0.3)

    def test_kernel_count_must_match_columns(self):
        with pytest.raises(ConfigError):
            SsgpfaModel((matern32(5.0),), orthonormal(4, 2), np.zeros(4), 0.1)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ParameterError):
            toy_model(orthonormal(3, 2), noise=0.0)

    def test_orthogonal_mode_requires_isotropic_noise(self):
        with pytest.raises(ConfigError, match="isotropic"):
            toy_model(orthonormal(3, 2), noise=[0.1, 5.0, 9.0])
        toy_model(orthonormal(3, 2), noise=[0.1, 5.0, 9.0], mode="unconstrained")

    @pytest.mark.parametrize("mode", ["orthogonal", "unconstrained"])
    @pytest.mark.parametrize("field", ["loading", "offset", "input_mean", "input_std"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_parameters_rejected(self, field, bad, mode):
        # NaN compares False with every bound, so it would slip past the
        # orthonormality check (NaN > 1e-8) and score NaN on every row.
        fields = dict(loading=orthonormal(3, 2), offset=np.zeros(3),
                      input_mean=np.zeros(3), input_std=np.ones(3))
        fields[field] = fields[field].copy()
        fields[field].flat[0] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            SsgpfaModel((matern32(5.0), matern32(9.0)), fields["loading"], fields["offset"],
                        0.1, mode=mode, input_mean=fields["input_mean"],
                        input_std=fields["input_std"])


class TestEStep:
    def test_parallel_matches_joint_filter(self):
        # the per-latent decomposition must agree with the joint filter
        t, Y, C, d = toy_data(D=5, K=2, T=80, seed=3)
        ortho = toy_model(C, offset=d)
        joint = toy_model(C, offset=d, mode="unconstrained")
        post_p = e_step(ortho, Y, t)
        post_j = e_step(joint, Y, t)
        assert post_p.log_likelihood == pytest.approx(post_j.log_likelihood, rel=1e-10)
        np.testing.assert_allclose(post_p.means, post_j.means, atol=1e-9)
        for tt in range(len(t)):
            np.testing.assert_allclose(np.diag(post_p.covs[tt]),
                                       np.diag(post_j.covs[tt]), atol=1e-9)

    def test_joint_covs_diagonal_for_orthonormal_loading(self):
        t, Y, C, d = toy_data(D=4, K=2, T=50, seed=4)
        post = e_step(toy_model(C, offset=d, mode="unconstrained"), Y, t)
        off = np.abs(post.covs - np.einsum("tkl,kl->tkl", post.covs, np.eye(2)))
        assert off.max() < 1e-10

    def test_robust_gate_marks_unused(self):
        t, Y, C, d = toy_data(D=4, K=2, T=60, seed=5)
        Y = Y.copy()
        Y[:, 30] += 40.0
        post = e_step(toy_model(C, offset=d), Y, t, robust_log_rho=math.log(1e-12))
        assert not post.used[30]
        assert post.used.sum() == 59

    def test_dimension_mismatch(self):
        t, Y, C, d = toy_data()
        with pytest.raises(ConfigError):
            e_step(toy_model(orthonormal(4, 2)), Y, t)

    @pytest.mark.parametrize("missing", [0.0, 0.1, 0.3])
    def test_orthogonal_matches_joint_with_missing_entries(self, missing):
        # partially observed rows couple the latents; the orthogonal model
        # must still give the exact joint-filter likelihood and scores
        t, Y, C, d = toy_data(D=6, K=3, T=200, seed=7)
        Y = np.where(np.random.default_rng(8).random(Y.shape) < missing, np.nan, Y)
        ortho = toy_model(C, offset=d)
        joint = toy_model(C, offset=d, mode="unconstrained")
        assert e_step(ortho, Y, t).log_likelihood == pytest.approx(
            e_step(joint, Y, t).log_likelihood, rel=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # scoring attributes without warning
            ref_points = list(score_online(joint, zip(t, Y.T)))
        points = list(score_online(ortho, zip(t, Y.T)))
        ref = [p.score for p in ref_points]
        scores = [p.score for p in points]
        np.testing.assert_allclose(scores, ref, rtol=1e-9)
        for name in ("marginal_nlls", "latent_nlls", "reconstruction_error"):
            np.testing.assert_allclose([getattr(p, name) for p in points],
                                       [getattr(p, name) for p in ref_points], rtol=1e-9)
        assert [p.accepted for p in points] == [p.accepted for p in ref_points]

    @pytest.mark.parametrize("mode, noise", [("orthogonal", 0.2),
                                             ("unconstrained", [0.2, 0.3])])
    def test_missing_first_row_matches_dense_posterior(self, mode, noise):
        # The smoother walks the filter's own chain, which starts at t[0]
        # even when that row is missing, so the Brownian part is pinned there.
        rng = np.random.default_rng(9)
        T = 25
        t = np.cumsum(rng.uniform(0.3, 1.5, T))
        C, d = np.array([[0.6], [0.8]]), np.array([0.5, -0.3])
        noise_diag = np.broadcast_to(noise, 2)
        Y = (C * np.sin(t / 3.0) + d[:, None]
             + np.sqrt(noise_diag)[:, None] * rng.standard_normal((2, T)))
        Y[:, [0, 9]] = np.nan
        model = SsgpfaModel((brownian(0.5) + matern32(3.0),), C, d, noise, mode=mode)
        post = e_step(model, Y, t)

        seen = np.isfinite(Y).all(axis=0)
        K = brownian_matern_gram(t)
        cov = (np.kron(K[np.ix_(seen, seen)], C @ C.T)
               + np.kron(np.eye(seen.sum()), np.diag(noise_diag)))
        cross = np.kron(K[:, seen], C.T)
        resid = (Y[:, seen] - d[:, None]).T.ravel()
        mean = cross @ np.linalg.solve(cov, resid)
        var = np.diag(K) - np.einsum("ij,ji->i", cross, np.linalg.solve(cov, cross.T))
        np.testing.assert_allclose(post.means[:, 0], mean, atol=1e-8)
        np.testing.assert_allclose(post.covs[:, 0, 0], var, atol=1e-8)

    def test_partial_missing_rows_run(self):
        t, Y, C, d = toy_data(D=4, K=2, T=40, seed=6)
        Y = Y.copy()
        Y[0, 5:10] = np.nan
        Y[:, 20] = np.nan
        for mode in ("orthogonal", "unconstrained"):
            post = e_step(toy_model(C, offset=d, mode=mode), Y, t)
            assert np.isfinite(post.means).all()
            assert math.isfinite(post.log_likelihood)


def expected_nll(post, values, C, d, psi, mask=None):
    """Negative expected complete-data log-likelihood (M-step objective),
    summed over the observed cells (every cell without ``mask``)."""
    D, T = values.shape
    if mask is None:
        mask = np.ones((D, T), dtype=bool)
    total = 0.0
    for t in range(T):
        m, S = post.means[t], post.covs[t]
        sel = mask[:, t]
        resid = values[sel, t] - C[sel] @ m - d[sel]
        quad = resid**2 + np.einsum("ik,kl,il->i", C[sel], S, C[sel])
        total += 0.5 * np.sum(np.log(2 * np.pi * psi[sel]) + quad / psi[sel])
    return total


def m_step_reference(post, values, mask):
    """The M-step formula of ``m_step``, one dimension at a time."""
    D, T = values.shape
    means, covs = post.means, post.covs
    K = means.shape[1]
    C, d, psi = np.zeros((D, K)), np.zeros(D), np.zeros(D)
    for i in range(D):
        sel = mask[i]
        y_i, mu_i = values[i, sel], means[sel]
        ybar, mubar = y_i.mean(), mu_i.mean(axis=0)
        Mc = mu_i - mubar
        Szz = covs[sel].sum(axis=0) + Mc.T @ Mc
        cond = np.linalg.cond(Szz)
        if not np.isfinite(cond) or cond > 1e12:
            Szz = Szz + 1e-9 * np.eye(K)
        C[i] = np.linalg.solve(Szz, (y_i - ybar) @ Mc)
        d[i] = ybar - C[i] @ mubar
        resid = y_i - mu_i @ C[i] - d[i]
        cross = np.einsum("k,tkl,l->", C[i], covs[sel], C[i])
        psi[i] = (resid ** 2).sum() / sel.sum() + cross / sel.sum()
    return C, d, np.maximum(psi, 1e-12)


class TestMStep:
    @settings(max_examples=50, deadline=None)
    @given(D=st.integers(1, 6), k_frac=st.floats(0.0, 1.0), T=st.integers(5, 60),
           observed=st.floats(0.05, 1.0), shift=st.floats(-100.0, 100.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_dimension_reference(self, D, k_frac, T, observed, shift, seed):
        rng = np.random.default_rng(seed)
        K = 1 + int(k_frac * (D - 1))
        B = 0.5 * rng.standard_normal((T, K, K))
        post = LatentPosterior(rng.standard_normal((T, K)) + shift,
                               B @ B.transpose(0, 2, 1) + 0.1 * np.eye(K), 0.0,
                               np.ones(T, dtype=bool))
        Y = 2.0 * rng.standard_normal((D, T)) + rng.uniform(-5.0, 5.0, (D, 1))
        mask = rng.random((D, T)) < observed
        mask[np.arange(D), rng.integers(0, T, D)] = True
        for got, want in zip(m_step(post, Y, mask), m_step_reference(post, Y, mask)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(D=st.integers(1, 6), k_frac=st.floats(0.0, 1.0), T=st.integers(20, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_block_masks_on_drifting_latents(self, D, k_frac, T, seed):
        # each dimension is seen on one contiguous block of a Brownian latent
        # path, so its own latent mean can sit far from the overall one that
        # m_step centers on; the moments then lose digits as the square of
        # that distance over the latent spread, hence a normwise bound
        rng = np.random.default_rng(seed)
        K = 1 + int(k_frac * (D - 1))
        B = 0.5 * rng.standard_normal((T, K, K))
        post = LatentPosterior(np.cumsum(rng.standard_normal((T, K)), axis=0),
                               B @ B.transpose(0, 2, 1) + 0.1 * np.eye(K), 0.0,
                               np.ones(T, dtype=bool))
        Y = 2.0 * rng.standard_normal((D, T)) + rng.uniform(-5.0, 5.0, (D, 1))
        mask = np.zeros((D, T), dtype=bool)
        for i in range(D):
            length = rng.integers(2, max(3, T // 5))
            start = rng.integers(0, T - length + 1)
            mask[i, start:start + length] = True
        for got, want in zip(m_step(post, Y, mask), m_step_reference(post, Y, mask)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.abs(want).max())

    def test_singular_dimension_gets_ridge(self):
        # dimension 1 is observed once and every covariance is zero, so its
        # second-moment matrix vanishes; the other rows must not notice
        rng = np.random.default_rng(21)
        T, K = 20, 2
        post = LatentPosterior(rng.standard_normal((T, K)), np.zeros((T, K, K)), 0.0,
                               np.ones(T, dtype=bool))
        Y = rng.standard_normal((3, T))
        mask = np.ones(Y.shape, dtype=bool)
        mask[1] = False
        mask[1, 4] = True
        with pytest.warns(UserWarning, match="ridge"):
            C, d, psi = m_step(post, Y, mask)
        C_ref, d_ref, psi_ref = m_step_reference(post, Y, mask)
        np.testing.assert_array_equal(C[1], 0.0)
        assert d[1] == Y[1, 4]
        assert psi[1] == 1e-12
        for got, want in ((C, C_ref), (d, d_ref), (psi, psi_ref)):
            np.testing.assert_allclose(got[[0, 2]], want[[0, 2]], rtol=1e-12, atol=1e-12)

    def test_unobserved_dimension_named(self):
        t, Y, C_true, d_true = toy_data(D=4, K=2, T=20, seed=11)
        post = e_step(toy_model(C_true, offset=d_true), Y, t)
        Y[1:3] = np.nan
        with pytest.raises(InputError, match="dimension 1 has no observed values"):
            m_step(post, Y)

    def test_beats_nearby_parameters(self):
        t, Y, C_true, d_true = toy_data(D=3, K=2, T=30, seed=7)
        model = toy_model(C_true, offset=d_true, mode="unconstrained")
        post = e_step(model, Y, t)
        C, d, psi = m_step(post, Y)
        best = expected_nll(post, Y, C, d, psi)
        rng = np.random.default_rng(0)
        for _ in range(25):
            Cp = C + 1e-3 * rng.standard_normal(C.shape)
            dp = d + 1e-3 * rng.standard_normal(d.shape)
            pp = psi * np.exp(1e-3 * rng.standard_normal(psi.shape))
            assert expected_nll(post, Y, Cp, dp, pp) >= best - 1e-9

    @pytest.mark.parametrize("missing", [0.0, 0.2], ids=["full", "missing"])
    def test_matches_numerical_maximizer(self, missing):
        # one formula serves both masks; each must be the exact maximizer
        t, Y, C_true, d_true = toy_data(D=3, K=2, T=12, seed=8)
        mask = np.random.default_rng(12).random(Y.shape) >= missing
        Y = np.where(mask, Y, np.nan)
        model = toy_model(C_true, offset=d_true, mode="unconstrained")
        post = e_step(model, Y, t)
        C, d, psi = m_step(post, Y)

        def objective(theta):
            Cc = theta[:6].reshape(3, 2)
            dc = theta[6:9]
            pc = np.exp(theta[9:12])
            return expected_nll(post, Y, Cc, dc, pc, mask)

        x0 = np.concatenate([C.ravel() + 0.05, d + 0.05, np.log(psi) + 0.05])
        res = scipy.optimize.minimize(objective, x0, method="L-BFGS-B")
        packed = np.concatenate([C.ravel(), d, np.log(psi)])
        assert objective(packed) <= res.fun + 1e-7

    def test_full_mask_equals_no_mask(self):
        t, Y, C_true, d_true = toy_data(D=4, K=2, T=25, seed=9)
        post = e_step(toy_model(C_true, offset=d_true), Y, t)
        a = m_step(post, Y)
        b = m_step(post, Y, mask=np.ones_like(Y, dtype=bool))
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-12)

    def test_missing_rows_excluded(self):
        # a dimension's loading row must come from its observed steps only
        t, Y, C_true, d_true = toy_data(D=3, K=1, T=40, seed=10)
        post = e_step(toy_model(C_true, offset=d_true), Y, t)
        Y_bad = Y.copy()
        Y_bad[2, :10] = 1e6  # corrupt masked-out cells; result must not move
        mask = np.ones_like(Y, dtype=bool)
        mask[2, :10] = False
        C_a, d_a, psi_a = m_step(post, Y_bad, mask=mask)
        Y_nan = Y.copy()
        Y_nan[2, :10] = np.nan
        C_b, d_b, psi_b = m_step(post, Y_nan)
        np.testing.assert_allclose(C_a, C_b, atol=1e-12)
        np.testing.assert_allclose(d_a, d_b, atol=1e-12)
        np.testing.assert_allclose(psi_a, psi_b, atol=1e-12)


class TestOrthogonalize:
    def test_frozen_column(self):
        out = orthogonalize(np.array([[1.0], [1.0]]))
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(out, [[r], [r]], atol=1e-15)

    def test_polar_factor(self):
        rng = np.random.default_rng(11)
        C = rng.standard_normal((6, 3))
        Q = orthogonalize(C)
        np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-12)
        # Q is the closest orthonormal frame: C^T Q is symmetric PSD
        M = C.T @ Q
        np.testing.assert_allclose(M, M.T, atol=1e-12)
        assert np.linalg.eigvalsh(M).min() > 0

    def test_rank_deficient_rejected(self):
        C = np.ones((4, 2))
        with pytest.raises(NumericalError, match="singular"):
            orthogonalize(C)


class TestFitEm:
    def test_unconstrained_log_likelihood_nondecreasing(self):
        t, Y, _, _ = toy_data(D=5, K=2, T=100, seed=12)
        kernels = [matern32(10.0), matern32(20.0)]
        model = fit_em(Y, t, kernels, mode="unconstrained", max_iters=15, tol=0.0)
        ll = np.array(model.training_log)
        assert len(ll) == 15
        assert np.all(np.diff(ll) >= -1e-8)

    def test_orthogonal_loading_every_iteration(self):
        t, Y, _, _ = toy_data(D=5, K=2, T=80, seed=13)
        gaps = []

        def check(i, model, post):
            C = model.loading
            gaps.append(np.linalg.norm(C.T @ C - np.eye(model.n_latents)))

        fit_em(Y, t, [matern32(10.0), matern32(20.0)], max_iters=8, tol=0.0,
               callback=check)
        assert len(gaps) == 8
        assert max(gaps) < 1e-8

    def test_recovers_loading_subspace(self):
        t, Y, C_true, _ = toy_data(D=6, K=2, T=300, seed=14, noise=0.02)
        model = fit_em(Y, t, [matern32(12.0), matern32(12.0)], max_iters=30)
        # principal angles between estimated and true column spaces
        s = np.linalg.svd(model.loading.T @ C_true, compute_uv=False)
        assert s.min() > 0.95

    def test_kernel_expressions_accepted(self):
        t, Y, _, _ = toy_data(D=4, K=2, T=60, seed=15)
        model = fit_em(Y, t, ["matern32(lengthscale=10.0)", "cosine(period=25.0)"],
                       max_iters=3)
        assert model.kernels[1].expression.startswith("cosine")

    def test_final_log_entry_scores_returned_model(self):
        t, Y, _, _ = toy_data(D=4, K=2, T=60, seed=16)
        model = fit_em(Y, t, [matern32(10.0), matern32(30.0)], max_iters=6, tol=0.0)
        post = e_step(model, Y, t)
        assert post.log_likelihood == pytest.approx(model.training_log[-1], rel=1e-12)

    def test_convergence_stops_early(self):
        t, Y, _, _ = toy_data(D=4, K=1, T=50, seed=17)
        model = fit_em(Y, t, [matern32(10.0)], max_iters=50, tol=1e-3)
        assert len(model.training_log) < 50


class TestFaLikelihood:
    def test_rotation_invariance(self):
        t, Y, C, d = toy_data(D=5, K=2, T=40, seed=18)
        kernels = (matern32(10.0), matern32(10.0))  # equal prior variances
        base = SsgpfaModel(kernels, C, d, 0.1)
        theta = 0.7
        Q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        rotated = SsgpfaModel(kernels, C @ Q, d, 0.1)
        a = fa_likelihood(base, Y)
        b = fa_likelihood(rotated, Y)
        assert a == pytest.approx(b, abs=1e-10)

    def test_matches_direct_gaussian(self):
        rng = np.random.default_rng(19)
        C = orthonormal(3, 2, seed=20)
        d = rng.standard_normal(3)
        model = SsgpfaModel((matern32(5.0, 2.0), cosine(9.0, 0.5)), C, d, 0.2)
        Y = rng.standard_normal((3, 4))
        tau = np.array([2.0, 0.5])
        cov = C @ np.diag(tau) @ C.T + 0.2 * np.eye(3)
        expected = sum(
            scipy.stats.multivariate_normal.logpdf(Y[:, t], mean=d, cov=cov)
            for t in range(4))
        assert fa_likelihood(model, Y) == pytest.approx(expected, rel=1e-10)

    def test_nonstationary_needs_timestamps(self):
        from ssgpfa import brownian
        model = SsgpfaModel((brownian(0.1),), np.array([[1.0]]), [0.0], 0.1)
        with pytest.raises(ConfigError, match="timestamps"):
            fa_likelihood(model, np.zeros((1, 5)))
        assert math.isfinite(
            fa_likelihood(model, np.ones((1, 5)), timestamps=np.arange(1.0, 6.0)))


class TestScoreOnline:
    def test_univariate_score_is_negative_filter_log_likelihood(self):
        rng = np.random.default_rng(21)
        t = np.arange(50.0)
        y = np.sin(0.1 * t) + 0.2 * rng.standard_normal(50)
        model = fit_univariate(y, t, "matern32(lengthscale=6.0)",
                               noise_variance=0.15, optimize=False)
        scores = [p.score for p in score_online(model, zip(t, y[:, None]))]
        kernel = model.kernels[0]
        obs = univariate_observation_model(kernel, 0.15)
        lls = [s.log_likelihood for s in robust_filter(t, y, kernel, obs)]
        assert scores == [-ll for ll in lls]  # bitwise identical

    def test_composite_latents_read_out_like_stacked_rows(self):
        # Per-latent blocks read composite states through h_k, stacked rows
        # through the readout matrix; both must give the same attribution.
        t, Y, C, d = toy_data(D=5, K=2, T=80, seed=22)
        kernels = (parse_kernel("brownian(diffusion=0.05) + matern32(lengthscale=10.0)"),
                   parse_kernel("matern32(lengthscale=20.0) * cosine(period=15.0)"))
        model = SsgpfaModel(kernels, C, d, 0.1)
        per_latent = list(score_online(model, zip(t, Y.T), robust=False))
        stacked = list(score_online(replace(model, mode="unconstrained"), zip(t, Y.T),
                                    robust=False))
        np.testing.assert_allclose([p.latent_nlls for p in per_latent],
                                   [p.latent_nlls for p in stacked], rtol=1e-9)

    @pytest.mark.parametrize("mode", ["orthogonal", "unconstrained"])
    @pytest.mark.parametrize("missing", [0.0, 0.2])
    def test_scores_sum_to_e_step_log_likelihood(self, mode, missing):
        t, Y, C, d = toy_data(D=5, K=2, T=100, seed=30)
        Y = np.where(np.random.default_rng(31).random(Y.shape) < missing, np.nan, Y)
        model = toy_model(C, offset=d, mode=mode)
        scores = np.array([p.score for p in score_online(model, zip(t, Y.T), robust=False)])
        total = -scores[np.isfinite(scores)].sum()
        assert e_step(model, Y, t).log_likelihood == pytest.approx(total, rel=1e-10)

    def test_row_dimension_mismatch(self):
        model = toy_model(orthonormal(3, 2))
        with pytest.raises(ConfigError, match="3"):
            list(score_online(model, [(0.0, np.zeros(4))]))

    def test_timestamps_must_increase(self):
        model = toy_model(orthonormal(3, 2))
        rows = [(0.0, np.zeros(3)), (0.0, np.zeros(3))]
        with pytest.raises(InputError):
            list(score_online(model, rows))

    def test_bad_rho_fails_before_iteration(self):
        model = toy_model(orthonormal(3, 2))
        with pytest.raises(ParameterError):
            score_online(model, [], rho=-1.0)
        with pytest.raises(ConfigError):
            score_online(model, [], robust_scope="rows")

    def test_spike_rejected_and_state_protected(self):
        t, Y, C, d = toy_data(D=4, K=2, T=80, seed=22, noise=0.05)
        model = toy_model(C, noise=0.05, offset=d)
        Y_spiked = Y.copy()
        Y_spiked[:, 40] += 30.0
        pts = list(score_online(model, zip(t, Y_spiked.T)))
        assert not pts[40].accepted
        assert all(p.accepted for i, p in enumerate(pts) if i != 40)
        # downstream scores barely move versus the clean stream, while a
        # non-robust pass lets the spike poison the state for a while
        clean = list(score_online(model, zip(t, Y.T)))
        naive = list(score_online(model, zip(t, Y_spiked.T), robust=False))
        after_clean = np.array([p.score for p in clean[41:]])
        drift_robust = np.abs([p.score for p in pts[41:]] - after_clean).max()
        drift_naive = np.abs([p.score for p in naive[41:]] - after_clean).max()
        assert drift_robust < 1.0
        assert drift_naive > 20 * drift_robust

    def test_non_robust_accepts_everything(self):
        t, Y, C, d = toy_data(D=3, K=2, T=30, seed=23)
        Y = Y.copy()
        Y[:, 10] += 50.0
        model = toy_model(C, offset=d)
        pts = list(score_online(model, zip(t, Y.T), robust=False))
        assert all(p.accepted for p in pts)

    def test_per_dim_scope_masks_offending_dimension(self):
        t, Y, C, d = toy_data(D=4, K=2, T=60, seed=24, noise=0.05)
        Y = Y.copy()
        Y[2, 30] += 25.0  # single-sensor fault
        model = toy_model(C, noise=0.05, offset=d)
        pts = list(score_online(model, zip(t, Y.T), robust_scope="per_dim"))
        assert pts[30].accepted  # healthy dims were kept
        assert pts[30].marginal_nlls[2] > max(
            pts[30].marginal_nlls[i] for i in (0, 1, 3))

    def test_series_object_and_tuples_agree(self):
        t, Y, C, d = toy_data(D=3, K=2, T=40, seed=25)
        model = toy_model(C, offset=d)
        series = LabeledSeries(t, Y)
        a = [p.score for p in score_online(model, series)]
        b = [p.score for p in score_online(model, zip(t, Y.T))]
        assert a == b

    def test_all_missing_row_is_nan_and_accepted(self):
        t, Y, C, d = toy_data(D=3, K=2, T=20, seed=26)
        Y = Y.copy()
        Y[:, 7] = np.nan
        pts = list(score_online(toy_model(C, offset=d), zip(t, Y.T)))
        assert math.isnan(pts[7].score)
        assert pts[7].accepted
        assert np.isnan(pts[7].marginal_nlls).all()

    def test_partial_row_scores_observed_dims(self):
        t, Y, C, d = toy_data(D=4, K=2, T=30, seed=27)
        Y = Y.copy()
        Y[1, 12] = np.nan
        pts = list(score_online(toy_model(C, offset=d), zip(t, Y.T)))
        p = pts[12]
        assert math.isfinite(p.score)
        assert math.isnan(p.marginal_nlls[1])
        assert all(math.isfinite(p.marginal_nlls[i]) for i in (0, 2, 3))

    def test_latent_attribution_finds_perturbed_latent(self):
        t, Y, C, d = toy_data(D=6, K=2, T=80, seed=28, noise=0.02)
        model = toy_model(C, noise=0.02, offset=d)
        Y = Y.copy()
        # push the observation along latent 1's loading column only
        Y[:, 50] += 6.0 * C[:, 1]
        pts = list(score_online(model, zip(t, Y.T), robust=False))
        assert int(np.argmax(pts[50].latent_nlls)) == 1

    def test_reconstruction_error_flags_subspace_violation(self):
        t, Y, C, d = toy_data(D=6, K=2, T=80, seed=29, noise=0.02)
        model = toy_model(C, noise=0.02, offset=d)
        # residual orthogonal to both loading columns
        q, _ = np.linalg.qr(np.hstack([C, np.random.default_rng(1).standard_normal((6, 1))]))
        Y = Y.copy()
        Y[:, 44] += 5.0 * q[:, 2]
        pts = list(score_online(model, zip(t, Y.T), robust=False))
        normal = np.median([p.reconstruction_error for p in pts[:40]])
        assert pts[44].reconstruction_error > 5 * normal


COMPOSITE_KERNELS = ("brownian(diffusion=0.05) + matern32(lengthscale=10.0)",
                     "matern32(lengthscale=20.0) * cosine(period=15.0)",
                     "matern32(lengthscale=6.0)")

SCORED_FIELDS = ("score", "marginal_nlls", "latent_nlls", "reconstruction_error")


def irregular_stream(D, exprs, T, seed, noise=0.1):
    """An orthogonal model over the latent kernel expressions ``exprs``, and
    a stream on irregular timestamps: sines through its loading, plus noise."""
    rng = np.random.default_rng(seed)
    K = len(exprs)
    t = np.cumsum(rng.exponential(1.0, T) + 0.05)
    C, d = orthonormal(D, K, seed=seed), rng.standard_normal(D)
    Z = np.stack([np.sin(0.1 * t + k) for k in range(K)])
    Y = C @ Z + d[:, None] + math.sqrt(noise) * rng.standard_normal((D, T))
    return t, Y, SsgpfaModel(tuple(map(parse_kernel, exprs)), C, d, noise)


def scored_points_reference(model, t, Y, log_rho=None, gate=None):
    """``score_online``'s readout as it was before per-latent rows read the
    filter's own terms. A per-latent row reads each block's prediction
    through h_k, rescores u = C^T (y - d) with ``scalar_nll`` and takes the
    perpendicular term as max(r.r - u.u, 0); every row projects through
    ``explain._projection``, scores each latent with ``scalar_nll`` and
    measures ``reconstruction_error``. None stands for a fully missing row."""
    kernel, obs, readout = assemble_joint(model)
    per_latent = model.mode == "orthogonal" and gate != "per_dim"
    blocks, loading = (model.kernels, model.loading) if per_latent else ((kernel,), None)
    C, d, noise = model.loading, model.offset, model.noise
    (D, K), sigma2 = C.shape, noise[0]
    emissions = [k.emission for k in model.kernels]
    points = []
    for step in _filter_steps(zip(t.tolist(), Y.T, np.isfinite(Y).T), blocks, obs,
                              log_rho=log_rho, gate=gate, loading=loading):
        y, row = step.y, step.observed
        if not row.any():
            points.append(None)
            continue
        if step.marginals is None:
            mu_hat = np.array([h @ st.mean for h, st in zip(emissions, step.predicted)])
            s_pred = np.array([h @ st.cov @ h for h, st in zip(emissions, step.predicted)])
            var_y = C ** 2 @ s_pred + noise
            marginals = -0.5 * (math.log(2 * math.pi) + np.log(var_y)
                                + (y - C @ mu_hat - d) ** 2 / var_y)
            r = y - d
            u = C.T @ r
            joint = -sum(scalar_nll(u_k, m, s + sigma2) for u_k, m, s in zip(u, mu_hat, s_pred))
            if D > K:
                joint -= 0.5 * ((D - K) * (math.log(2 * math.pi) + math.log(sigma2))
                                + max(float(r @ r - u @ u), 0.0) / sigma2)
        else:
            st = step.predicted[0]
            mu_hat = readout @ st.mean
            s_pred = (readout @ st.cov @ readout.T).diagonal()
            marginals, joint = step.marginals, step.log_likelihood
        M, noise_vars = explain._projection(model, row)
        v_proj = M @ (y - d)[row]
        latent_nlls = np.array([scalar_nll(float(x), float(m), float(s + n))
                                for x, m, s, n in zip(v_proj, mu_hat, s_pred, noise_vars)])
        points.append(ScoredPoint(step.timestamp, -joint, -marginals, step.accepted,
                                  latent_nlls, reconstruction_error(model, y, v_proj, row)))
    return points


def assert_points_close(points, ref, tol):
    """Timestamps and gate decisions equal, every scored field within ``tol``
    relative to max(|value|, 1): a value near zero, such as a marginal
    score or a reconstruction error that is only rounding residue, carries
    the absolute rounding of its terms. A None reference is a missing row."""
    assert len(points) == len(ref)
    for p, q in zip(points, ref):
        if q is None:
            assert math.isnan(p.score) and p.accepted
            continue
        assert (p.timestamp, p.accepted) == (q.timestamp, q.accepted)
        for name in SCORED_FIELDS:
            a, b = getattr(p, name), getattr(q, name)
            assert np.all((np.abs(a - b) <= tol * np.maximum(np.abs(b), 1.0))
                          | (np.isnan(a) & np.isnan(b))), name


def _score_kwargs(log_rho):
    return {"robust": False} if log_rho is None else {"log_rho": log_rho}


class TestPerLatentReadout:
    """Fully observed rows of an orthogonal model are scored and attributed
    from the per-latent filter's own terms."""

    @pytest.mark.parametrize("log_rho", [None, -6.0])
    def test_matches_reference(self, log_rho):
        t, Y, model = irregular_stream(6, COMPOSITE_KERNELS, 150, seed=40)
        Y[:, [20, 90, 91]] += 3.0
        Y[:, 50] = np.nan
        points = list(score_online(model, zip(t, Y.T), **_score_kwargs(log_rho)))
        ref = scored_points_reference(model, t, Y, log_rho, None if log_rho is None else "joint")
        assert_points_close(points, ref, 1e-13)
        if log_rho is not None:
            gated = [not p.accepted for p in points]
            assert 0 < sum(gated) < len(points) // 2

    def test_stacked_rows_after_merge_unchanged(self):
        t, Y, model = irregular_stream(5, COMPOSITE_KERNELS[:2], 120, seed=43)
        Y[[1, 3], 60] = np.nan  # the first partial row merges the blocks
        Y[:, 100] += 3.0
        points = list(score_online(model, zip(t, Y.T), log_rho=-6.0))
        ref = scored_points_reference(model, t, Y, -6.0, "joint")
        assert not all(p.accepted for p in points[60:])
        assert_points_close(points[:60], ref[:60], 1e-13)
        for p, q in zip(points[60:], ref[60:]):
            assert p.score == q.score and p.reconstruction_error == q.reconstruction_error
            assert p.accepted == q.accepted and p.timestamp == q.timestamp
            assert np.array_equal(p.marginal_nlls, q.marginal_nlls, equal_nan=True)
            assert np.array_equal(p.latent_nlls, q.latent_nlls)

    def test_per_dim_gate_unchanged(self):
        t, Y, model = irregular_stream(5, COMPOSITE_KERNELS, 80, seed=44)
        Y[2, 40] += 4.0
        points = list(score_online(model, zip(t, Y.T), log_rho=-1.0, robust_scope="per_dim"))
        ref = scored_points_reference(model, t, Y, -1.0, "per_dim")
        assert_points_close(points, ref, 0.0)

    @pytest.mark.parametrize("D", [3, 7])
    @pytest.mark.parametrize("log_rho", [None, -6.0])
    def test_score_splits_into_latent_and_residual_parts(self, D, log_rho):
        t, Y, model = irregular_stream(D, COMPOSITE_KERNELS, 200, seed=41)
        Y[:, [60, 61, 150]] += 3.0
        K, sigma2 = model.n_latents, model.noise[0]
        for p in score_online(model, zip(t, Y.T), **_score_kwargs(log_rho)):
            parts = p.latent_nlls.sum() + 0.5 * ((D - K) * math.log(2 * math.pi * sigma2)
                                                 + p.reconstruction_error ** 2 / sigma2)
            assert p.score == pytest.approx(parts, rel=1e-12, abs=0.0)

    def test_full_rows_call_no_explain_function(self, monkeypatch):
        t, Y, model = irregular_stream(5, COMPOSITE_KERNELS[:2], 60, seed=42)
        Y[:, 30] += 3.0

        def recomputed(*args, **kwargs):
            raise AssertionError("explain function called")

        for name in ("_projection", "scalar_nll", "reconstruction_error"):
            monkeypatch.setattr(explain, name, recomputed)
        for log_rho in (None, -6.0):
            points = list(score_online(model, zip(t, Y.T), **_score_kwargs(log_rho)))
            assert len(points) == 60
        Y[0, 45] = np.nan
        with pytest.raises(AssertionError, match="explain function called"):
            list(score_online(model, zip(t, Y.T)))


@settings(max_examples=50, deadline=None)
@given(D=st.integers(2, 6), k_frac=st.floats(0.0, 1.0), T=st.integers(2, 40),
       missing=st.floats(0.0, 0.4),
       exprs=st.lists(st.sampled_from(COMPOSITE_KERNELS), min_size=3, max_size=3),
       gated=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_random_masks_orthogonal_equals_joint(D, k_frac, T, missing, exprs, gated, seed):
    K = 1 + int(k_frac * (min(D, 3) - 1))
    t, Y, model = irregular_stream(D, exprs[:K], T, seed)
    Y[np.random.default_rng([seed, 1]).random(Y.shape) < missing] = np.nan
    kwargs = _score_kwargs(-6.0 if gated else None)
    points = list(score_online(model, zip(t, Y.T), **kwargs))
    joint = list(score_online(replace(model, mode="unconstrained"), zip(t, Y.T), **kwargs))
    assert_points_close(points, joint, 1e-9)


# One malformed field each: a string matrix, a non-number log entry, a
# noise entry that is not an object, and a ragged matrix.
MALFORMED_FIELDS = [pytest.param("loading", "abc", id="loading-string"),
                    pytest.param("training_log", ["x"], id="training_log-text"),
                    pytest.param("noise", [1.0], id="noise-list"),
                    pytest.param("loading", [[1.0], [0.0, 1.0]], id="loading-ragged")]


class TestSerialization:
    @pytest.mark.parametrize("field, value", MALFORMED_FIELDS)
    def test_malformed_field_named(self, field, value):
        doc = model_to_dict(toy_model(orthonormal(3, 2)))
        doc[field] = value
        with pytest.raises(ConfigError, match=field):
            model_from_dict(doc)

    def test_round_trip_scores_identically(self, tmp_path):
        t, Y, C, d = toy_data(D=4, K=2, T=50, seed=30)
        model = fit_em(Y, t, [matern32(10.0), cosine(20.0)], max_iters=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        a = [p.score for p in score_online(model, zip(t, Y.T))]
        b = [p.score for p in score_online(clone, zip(t, Y.T))]
        assert a == b

    def test_dict_round_trip_fields(self):
        model = toy_model(orthonormal(3, 2), noise=0.25)
        doc = model_to_dict(model)
        assert doc["noise"] == {"kind": "isotropic", "variance": 0.25}
        clone = model_from_dict(json.loads(json.dumps(doc)))
        np.testing.assert_allclose(clone.loading, model.loading)
        assert clone.mode == "orthogonal"

    def test_diagonal_noise_round_trip(self):
        C = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        model = SsgpfaModel((matern32(5.0), matern32(9.0)), C, np.zeros(3),
                            [0.1, 0.2, 0.3], mode="unconstrained")
        clone = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(clone.noise, [0.1, 0.2, 0.3])

    def test_newer_version_rejected(self):
        doc = model_to_dict(toy_model(orthonormal(3, 2)))
        doc["format_version"] = 99
        with pytest.raises(ConfigError, match="99"):
            model_from_dict(doc)

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            model_from_dict({"format": "something-else", "format_version": 1})

    def test_missing_field_named(self):
        doc = model_to_dict(toy_model(orthonormal(3, 2)))
        del doc["loading"]
        with pytest.raises(ConfigError, match="loading"):
            model_from_dict(doc)

    def test_standardization_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        t = np.arange(60.0)
        y = 5.0 + 3.0 * np.sin(0.2 * t) + 0.1 * rng.standard_normal(60)
        series = LabeledSeries(t, y[None, :])
        model = train_series(series, optimize=False)
        assert model.input_mean is not None
        path = tmp_path / "m.json"
        save_model(model, path)
        clone = load_model(path)
        np.testing.assert_allclose(clone.input_mean, model.input_mean)
        a = [p.score for p in score_online(model, zip(t, y[:, None]))]
        b = [p.score for p in score_online(clone, zip(t, y[:, None]))]
        assert a == b

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError):
            load_model(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError):
            load_model(bad)


def noisy_sine():
    rng = np.random.default_rng(32)
    t = np.arange(80.0)
    return t, np.sin(0.25 * t) + 0.1 * rng.standard_normal(80)


def noisy_cosine():
    rng = np.random.default_rng(33)
    t = np.arange(60.0)
    return t, np.cos(2 * np.pi * t / 12.0) + 0.05 * rng.standard_normal(60)


def uni_stream_prefix():
    """The benchmark's ``uni_stream`` training prefix, standardized as
    :func:`train_series` does."""
    series = gen_univariate(100, 0)
    scaled, _, _ = standardize(series.values)
    return series.timestamps, scaled[0]


PRODUCT_KERNEL = "matern32(lengthscale=10.0) * cosine(period=11.0)"

# Every optimized fit below: data, kernel and fit_univariate arguments.
FIT_CASES = {
    "uni_stream": (uni_stream_prefix, DEFAULT_UNIVARIATE_KERNEL, {}),
    "sine": (noisy_sine, "matern32(lengthscale=2.0, variance=1.0)",
             {"noise_variance": 0.5, "max_outer": 10}),
    "product_6": (noisy_cosine, PRODUCT_KERNEL, {"max_outer": 6}),
    "product": (noisy_cosine, PRODUCT_KERNEL, {}),
    "matern": (noisy_cosine, "matern32(variance=2.0, lengthscale=4.0)", {}),
}


def lbfgsb_log_likelihood(t, y, expr, noise_variance=0.1, max_outer=20):
    """Best filter log-likelihood that scipy's L-BFGS-B meets from the same
    log-parameters, on fit_univariate's objective and iteration cap."""
    start = parse_kernel(expr)
    best = [-math.inf]

    def objective(theta):
        params = np.exp(theta)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                ll, grad = log_likelihood_gradient(
                    t, y, _rebuild(start, iter(params[:-1])), float(params[-1]))
        except (ConfigError, ParameterError, NumericalError, FloatingPointError):
            return 1e12, np.zeros_like(theta)
        if not (math.isfinite(ll) and np.isfinite(grad).all()):
            return 1e12, np.zeros_like(theta)
        best[0] = max(best[0], ll)
        return -ll, -grad

    theta0 = np.log(np.append(_leaf_values(start), noise_variance))
    scipy.optimize.minimize(objective, theta0, jac=True, method="L-BFGS-B",
                            options={"maxiter": max_outer})
    return best[0]


class TestFitUnivariate:
    def test_optimize_false_keeps_expression(self):
        t = np.arange(30.0)
        y = np.sin(0.3 * t)
        model = fit_univariate(y, t, "matern32(lengthscale=4.0, variance=2.0)",
                               optimize=False)
        assert model.n_dims == 1 and model.n_latents == 1
        assert model.kernels[0].params["lengthscale"] == 4.0
        np.testing.assert_allclose(model.loading, [[1.0]])
        # the given kernel and noise come back as given, not via exp(log(x))
        for expr in ("matern32(lengthscale=4.0, variance=2.0)", DEFAULT_UNIVARIATE_KERNEL):
            model = fit_univariate(y, t, expr, optimize=False)
            assert model.kernels[0].expression == parse_kernel(expr).expression
            assert model.noise[0] == 0.1

    def test_failing_start_scored_not_raised(self):
        # lam * dt overflows, so the filter meets a NaN innovation variance
        # at the second point; the failure scores the trial point and the
        # fit returns the start.
        t = np.arange(30.0) * 1e160
        start = parse_kernel("matern32(lengthscale=1e-150)")
        model = fit_univariate(np.sin(0.3 * np.arange(30.0)), t, start, optimize=False)
        assert model.kernels[0] is start
        assert model.training_log == ()

    def test_optimized_never_worse_than_start(self):
        t, y = noisy_sine()
        expr = "matern32(lengthscale=2.0, variance=1.0)"
        base = fit_univariate(y, t, expr, noise_variance=0.5, optimize=False)
        tuned = fit_univariate(y, t, expr, noise_variance=0.5, max_outer=10)
        assert tuned.training_log[-1] >= base.training_log[-1] - 1e-9

    def test_composite_expression_optimized(self):
        t, y = noisy_cosine()
        model = fit_univariate(y, t, PRODUCT_KERNEL, max_outer=6)
        assert "*" in model.kernels[0].expression  # still a product kernel
        assert math.isfinite(model.training_log[-1])

    def test_wild_trial_step_does_not_stall_the_fit(self):
        # L-BFGS-B stopped here at log-likelihood 30.64: its fourth trial
        # jumped to log-lengthscale 30 and log-noise -41, and its line search
        # gave up. Capped steps go on to the ridge near 90.65.
        t, y = noisy_cosine()
        assert fit_univariate(y, t, PRODUCT_KERNEL).training_log[-1] >= 90.0

    @pytest.mark.parametrize("case", sorted(FIT_CASES))
    def test_never_worse_than_scipy_lbfgsb(self, case):
        data, expr, kwargs = FIT_CASES[case]
        t, y = data()
        fitted = fit_univariate(y, t, expr, **kwargs).training_log[-1]
        reference = lbfgsb_log_likelihood(t, y, expr, **kwargs)
        assert fitted >= reference - 1e-9 * abs(reference)

    def test_logs_optimizer_outcome_at_debug(self, caplog):
        t, y = noisy_sine()
        expr = "matern32(lengthscale=2.0, variance=1.0)"
        with caplog.at_level(logging.DEBUG, logger="ssgpfa"):
            fit_univariate(y, t, expr, optimize=False)
            assert caplog.records == []
            fit_univariate(y, t, expr, noise_variance=0.5, max_outer=3)
        [record] = caplog.records
        assert (record.name, record.levelno) == ("ssgpfa", logging.DEBUG)
        assert "stopped (max_iter) after 3 iterations" in record.getMessage()

    def test_rejects_what_parse_kernel_rejects(self):
        t = np.arange(20.0)
        with pytest.raises(ConfigError):
            fit_univariate(np.sin(t), t, "matern32(lengthscale=True)", optimize=False)

    @pytest.mark.parametrize("expr", [
        PRODUCT_KERNEL,
        "matern32(variance=2.0, lengthscale=4.0)",
    ])
    def test_string_fits_like_parsed_kernel(self, expr):
        # Defaults left out of a string and argument order must not change
        # which parameters move or in what order.
        t, y = noisy_cosine()
        a = fit_univariate(y, t, expr)
        b = fit_univariate(y, t, parse_kernel(expr))
        assert a.kernels[0].expression == b.kernels[0].expression
        assert a.noise.tobytes() == b.noise.tobytes()
        assert a.training_log == b.training_log


def rosenbrock(x):
    a, b = x
    return ((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2,
            np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]))


class TestMinimize:
    def test_convex_quadratic(self):
        A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.0], [0.5, 0.0, 2.0]])
        c = np.array([1.0, -2.0, 0.5])
        x, f, nit, nfev, reason = _minimize(lambda x: (0.5 * (x - c) @ A @ (x - c), A @ (x - c)),
                                            np.zeros(3), 100)
        np.testing.assert_allclose(x, c, atol=1e-6)
        assert reason == "gradient" and nit < 100 and nfev > nit

    def test_rosenbrock(self):
        x, f, nit, nfev, reason = _minimize(rosenbrock, np.array([-1.2, 1.0]), 200)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)
        assert f < 1e-12 and reason in ("gradient", "converged") and nit < 200

    def test_never_accepts_a_failure_value(self):
        # The bowl's centre (3, 3) lies where the objective fails, so the
        # line searches step into failures; a run cut after each iteration
        # returns that iteration's accepted point.
        def fenced(x):
            if x[0] > 2.0:
                return 1e12, np.zeros_like(x)
            return float(((x - 3.0) ** 2).sum()), 2.0 * (x - 3.0)

        for max_iter in range(1, 8):
            x, f, nit, nfev, reason = _minimize(fenced, np.zeros(2), max_iter)
            assert x[0] <= 2.0 and f == fenced(x)[0] < 18.0

    def test_max_iter_caps_iterations(self):
        calls = []

        def counted(x):
            calls.append(x)
            return rosenbrock(x)

        x, f, nit, nfev, reason = _minimize(counted, np.array([-1.2, 1.0]), 3)
        assert (nit, reason, nfev) == (3, "max_iter", len(calls))
        assert nfev <= 1 + 3 * _MAX_TRIALS
        assert f < rosenbrock(np.array([-1.2, 1.0]))[0]


class TestTrainSeries:
    def test_univariate_dispatch(self):
        t = np.arange(50.0)
        y = 10.0 + np.sin(0.2 * t)
        model = train_series(LabeledSeries(t, y[None, :]), optimize=False)
        assert model.n_dims == 1
        assert model.input_mean is not None
        assert model.input_std is not None

    def test_univariate_rejects_kernel_list(self):
        t = np.arange(20.0)
        series = LabeledSeries(t, np.zeros((1, 20)) + np.sin(t)[None, :])
        with pytest.raises(ConfigError, match="single kernel"):
            train_series(series, kernels=["matern32(5.0)", "cosine(7.0)"],
                         optimize=False)

    def test_multivariate_default_latents(self):
        spec = SyntheticSpec(length=120, seed=1)
        series, _, _ = gen_multivariate(spec, n_dims=5)
        model = train_series(series, max_iters=3)
        assert model.n_dims == 5
        assert model.n_latents == 4  # default kernel bank size
        assert model.mode == "orthogonal"

    def test_unconstrained_training_with_stuck_sensor(self):
        # A constant dimension drives its M-step noise to the 1e-12 floor,
        # so S is positive definite with a condition number far above 1e12.
        kernels = [matern32(10.0), matern32(30.0)]
        series, _, _ = gen_multivariate(SyntheticSpec(length=150, seed=3), n_dims=6,
                                        kernels=kernels)
        values = series.values.copy()
        values[2] = 1.5
        with pytest.warns(UserWarning, match="dimension 2 has zero variance"):
            model = train_series(LabeledSeries(series.timestamps, values), kernels=kernels,
                                 mode="unconstrained", max_iters=5)
        assert model.noise[2] == 1e-12
        scores = [p.score for p in score_online(model, LabeledSeries(series.timestamps, values))]
        assert np.isfinite(scores).all()

    def test_standardization_applied_before_scoring(self):
        # raw-scale stream must reproduce the scaled-space scores
        rng = np.random.default_rng(34)
        t = np.arange(100.0)
        y = 50.0 + 12.0 * np.sin(0.15 * t) + rng.standard_normal(100)
        model = train_series(LabeledSeries(t, y[None, :]), optimize=False)
        raw = [p.score for p in score_online(model, zip(t, y[:, None]))]
        scaled = (y - model.input_mean[0]) / model.input_std[0]
        bare = model_from_dict({k: v for k, v in model_to_dict(model).items()
                                if k != "standardization"})
        rescored = [p.score for p in score_online(bare, zip(t, scaled[:, None]))]
        assert raw == rescored
