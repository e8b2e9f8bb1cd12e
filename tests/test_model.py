import json
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from ssgpfa import (
    DEFAULT_UNIVARIATE_KERNEL,
    ConfigError,
    InputError,
    NumericalError,
    ParameterError,
    SsgpfaModel,
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
    robust_filter,
    save_model,
    score_online,
    train_series,
    univariate_observation_model,
)
from ssgpfa.data import LabeledSeries, gen_multivariate, SyntheticSpec


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


class TestMStep:
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


class TestSerialization:
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
        # The filter meets a NaN innovation variance at the second point;
        # the failure scores the trial point and the fit returns the start.
        t = np.arange(30.0)
        start = parse_kernel("matern32(lengthscale=1e-150)")
        model = fit_univariate(np.sin(0.3 * t), t, start, optimize=False)
        assert model.kernels[0] is start
        assert model.training_log == ()

    def test_optimized_never_worse_than_start(self):
        rng = np.random.default_rng(32)
        t = np.arange(80.0)
        y = np.sin(0.25 * t) + 0.1 * rng.standard_normal(80)
        expr = "matern32(lengthscale=2.0, variance=1.0)"
        base = fit_univariate(y, t, expr, noise_variance=0.5, optimize=False)
        tuned = fit_univariate(y, t, expr, noise_variance=0.5, max_outer=10)
        assert tuned.training_log[-1] >= base.training_log[-1] - 1e-9

    def test_composite_expression_optimized(self):
        rng = np.random.default_rng(33)
        t = np.arange(60.0)
        y = np.cos(2 * np.pi * t / 12.0) + 0.05 * rng.standard_normal(60)
        model = fit_univariate(
            y, t, "matern32(lengthscale=10.0) * cosine(period=11.0)",
            max_outer=6)
        assert "*" in model.kernels[0].expression  # still a product kernel
        assert math.isfinite(model.training_log[-1])

    def test_rejects_what_parse_kernel_rejects(self):
        t = np.arange(20.0)
        with pytest.raises(ConfigError):
            fit_univariate(np.sin(t), t, "matern32(lengthscale=True)", optimize=False)

    @pytest.mark.parametrize("expr", [
        "matern32(lengthscale=10.0) * cosine(period=11.0)",
        "matern32(variance=2.0, lengthscale=4.0)",
    ])
    def test_string_fits_like_parsed_kernel(self, expr):
        # Defaults left out of a string and argument order must not change
        # which parameters move or in what order.
        rng = np.random.default_rng(33)
        t = np.arange(60.0)
        y = np.cos(2 * np.pi * t / 12.0) + 0.05 * rng.standard_normal(60)
        a = fit_univariate(y, t, expr)
        b = fit_univariate(y, t, parse_kernel(expr))
        assert a.kernels[0].expression == b.kernels[0].expression
        assert a.noise.tobytes() == b.noise.tobytes()
        assert a.training_log == b.training_log


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
