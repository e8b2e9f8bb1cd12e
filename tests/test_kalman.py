import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssgpfa import (
    GaussianState,
    InputError,
    LinearObservationModel,
    NumericalError,
    ParameterError,
    cosine,
    discretize,
    matern32,
    observation_log_likelihood,
    predict,
    prior_covariance,
    robust_filter,
    rts_smooth,
    univariate_observation_model,
    update,
)
from ssgpfa import brownian, kalman
from ssgpfa.kernels import DiscretizedTransition, _leaf_values, _rebuild
from test_kernels import _log_uniform, kernel_trees


def scalar_obs(noise=1.0):
    return LinearObservationModel(H=[[1.0, 0.0]], R=[noise], offset=[0.0])


class TestPredict:
    def test_frozen_scalar(self):
        state = GaussianState([1.0], [[1.0]])
        trans = DiscretizedTransition(np.array([[0.5]]), np.array([[0.75]]), 1.0)
        out = predict(state, trans)
        assert out.mean[0] == pytest.approx(0.5)
        assert out.cov[0, 0] == pytest.approx(1.0)

    def test_cov_symmetrized(self):
        k = matern32(1.3)
        state = GaussianState(np.zeros(2), k.stationary_cov)
        out = predict(state, discretize(k, 0.37))
        np.testing.assert_allclose(out.cov, out.cov.T)


class TestUpdate:
    def test_frozen_scalar(self):
        # m=0, P=1, H=1, R=1, y=1 -> gain 1/2
        state = GaussianState([0.0, 0.0], np.diag([1.0, 1.0]))
        new, v, S = update(state, np.array([1.0]), scalar_obs())
        assert new.mean[0] == pytest.approx(0.5)
        assert new.cov[0, 0] == pytest.approx(0.5)
        assert v[0] == pytest.approx(1.0)
        assert S[0, 0] == pytest.approx(2.0)

    def test_joseph_form_matches_standard(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            L = rng.standard_normal((3, 3))
            P = L @ L.T + 0.1 * np.eye(3)
            H = rng.standard_normal((2, 3))
            r = rng.uniform(0.1, 2.0, 2)
            y = rng.standard_normal(2)
            state = GaussianState(rng.standard_normal(3), P)
            obs = LinearObservationModel(H=H, R=r, offset=np.zeros(2))
            new, v, S = update(state, y, obs)
            gain = P @ H.T @ np.linalg.inv(S)
            np.testing.assert_allclose(new.cov, P - gain @ S @ gain.T,
                                       atol=1e-10)
            np.testing.assert_allclose(new.mean, state.mean + gain @ v, atol=1e-10)

    def test_partial_mask_equals_subset_model(self):
        rng = np.random.default_rng(1)
        P = np.eye(3) * 2.0
        H = rng.standard_normal((4, 3))
        r = rng.uniform(0.2, 1.0, 4)
        offset = rng.standard_normal(4)
        y = rng.standard_normal(4)
        y[1] = np.nan
        mask = np.array([True, True, False, True])
        state = GaussianState(np.zeros(3), P)
        obs = LinearObservationModel(H=H, R=r, offset=offset)
        new, v, S = update(state, y, obs, mask)
        keep = np.array([True, False, False, True])  # mask AND finite
        sub = LinearObservationModel(H=H[keep], R=r[keep], offset=offset[keep])
        new2, v2, S2 = update(state, y[keep], sub)
        np.testing.assert_allclose(new.mean, new2.mean, atol=1e-12)
        np.testing.assert_allclose(new.cov, new2.cov, atol=1e-12)
        np.testing.assert_allclose(v, v2)
        np.testing.assert_allclose(S, S2)

    def test_all_missing_leaves_state(self):
        state = GaussianState([0.3, -0.1], np.eye(2))
        new, v, S = update(state, np.array([np.nan]), scalar_obs())
        assert new is state
        assert v.size == 0 and S.size == 0

    def test_singular_innovation_raises(self):
        H = np.array([[1.0, 0.0], [1.0, 0.0]])
        obs = LinearObservationModel(H=H, R=[1e-16, 1e-16], offset=np.zeros(2))
        state = GaussianState(np.zeros(2), np.eye(2))
        with pytest.raises(NumericalError):
            update(state, np.array([1.0, 1.0]), obs)

    @pytest.mark.parametrize("P, r", [([[-0.5]], 0.5), ([[-1.0]], 0.5)])
    def test_nonpositive_innovation_variance_raises(self, P, r):
        # s = h P h^T + r is 0, then negative: the closed form must not divide
        obs = LinearObservationModel(H=[[1.0]], R=[r], offset=[0.0])
        with pytest.raises(NumericalError):
            update(GaussianState([0.0], P), np.array([1.0]), obs)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_noise_must_be_positive_and_finite(self, bad):
        with pytest.raises(ParameterError, match="positive and finite"):
            LinearObservationModel(H=np.eye(2), R=[bad, 1.0], offset=np.zeros(2))

    @pytest.mark.parametrize("H, offset", [([[math.nan, 0.0]], [0.0]),
                                           ([[math.inf, 0.0]], [0.0]),
                                           ([[1.0, 0.0]], [math.inf]),
                                           ([[1.0, 0.0]], [math.nan])])
    def test_emission_and_offset_must_be_finite(self, H, offset):
        with pytest.raises(ParameterError, match="must be finite"):
            LinearObservationModel(H=H, R=[1.0], offset=offset)

    def test_noise_matrix_diagonal_accepted(self):
        obs = LinearObservationModel(H=np.eye(2), R=np.diag([0.5, 0.7]),
                                     offset=np.zeros(2))
        np.testing.assert_allclose(obs.R, [0.5, 0.7])
        with pytest.raises(ParameterError):
            LinearObservationModel(H=np.eye(2), R=[[0.5, 0.1], [0.1, 0.7]],
                                   offset=np.zeros(2))


class TestLogLikelihood:
    def test_frozen_values(self):
        joint, marg = observation_log_likelihood(np.array([1.0]), np.array([[2.0]]))
        assert joint == pytest.approx(-1.5155121234846454, abs=1e-12)
        assert marg[0] == joint
        joint0, _ = observation_log_likelihood(np.array([0.0]), np.array([[1.0]]))
        assert joint0 == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(3)
        L = rng.standard_normal((3, 3))
        S = L @ L.T + np.eye(3)
        v = rng.standard_normal(3)
        joint, marg = observation_log_likelihood(v, S)
        expected = -0.5 * (3 * math.log(2 * math.pi) + np.linalg.slogdet(S)[1]
                           + v @ np.linalg.solve(S, v))
        assert joint == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(
            marg, [-0.5 * (math.log(2 * math.pi * S[i, i]) + v[i] ** 2 / S[i, i])
                   for i in range(3)])

    def test_empty_is_nan(self):
        joint, marg = observation_log_likelihood(np.empty(0), np.empty((0, 0)))
        assert math.isnan(joint) and marg.size == 0

    def test_nonpositive_diag_raises(self):
        with pytest.raises(NumericalError):
            observation_log_likelihood(np.array([1.0]), np.array([[-1.0]]))


def dense_gp_lml(timestamps, y, kernel, noise_variance):
    """Batch GP marginal log-likelihood from the Gram matrix."""
    T = len(timestamps)
    gram = np.empty((T, T))
    for i in range(T):
        for j in range(T):
            gram[i, j] = prior_covariance(kernel, abs(timestamps[i] - timestamps[j]))
    cov = gram + noise_variance * np.eye(T)
    chol = np.linalg.cholesky(cov)
    alpha = np.linalg.solve(chol, y)
    return float(-0.5 * T * math.log(2 * math.pi) - np.log(np.diag(chol)).sum()
                 - 0.5 * alpha @ alpha)


class TestFilter:
    def test_log_likelihood_matches_dense_gp(self):
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.uniform(0.3, 1.5, 40))
        kernel = matern32(lengthscale=3.0, variance=1.2)
        y = rng.standard_normal(40)
        nv = 0.3
        steps = list(robust_filter(t, y, kernel, univariate_observation_model(kernel, nv),
                                   robust=False))
        streaming = sum(s.log_likelihood for s in steps)
        dense = dense_gp_lml(t, y, kernel, nv)
        assert streaming == pytest.approx(dense, rel=1e-9)

    def test_robust_gate_skips_outlier(self):
        rng = np.random.default_rng(11)
        t = np.arange(60.0)
        kernel = matern32(lengthscale=5.0)
        nv = 0.05
        y = np.sin(0.2 * t) + 0.1 * rng.standard_normal(60)
        y[30] += 25.0
        obs = univariate_observation_model(kernel, nv)
        steps = list(robust_filter(t, y, kernel, obs, rho=1e-12))
        assert not steps[30].accepted
        np.testing.assert_array_equal(steps[30].updated.mean, steps[30].predicted.mean)
        loose = list(robust_filter(t, y, kernel, obs, robust=False))
        assert loose[30].accepted

    def test_anchor_spans_back_to_last_accepted(self):
        # a rejected point carries its prediction forward as the state, so
        # the next prediction equals one transition over the whole gap
        # since the last accepted point, up to rounding
        t = np.array([0.0, 1.0, 2.0])
        kernel = matern32(lengthscale=2.0)
        obs = univariate_observation_model(kernel, 0.1)
        y = np.array([0.0, 50.0, 0.1])
        steps = list(robust_filter(t, y, kernel, obs, rho=1e-12))
        assert [s.accepted for s in steps] == [True, False, True]
        # reproduce step 2's prediction by propagating step 0's state over dt=2
        manual = predict(steps[0].updated, discretize(kernel, 2.0))
        np.testing.assert_allclose(steps[2].predicted.mean, manual.mean, atol=1e-12)
        np.testing.assert_allclose(steps[2].predicted.cov, manual.cov, atol=1e-12)

    def test_missing_rows_scored_nan(self):
        t = np.arange(5.0)
        y = np.array([0.1, np.nan, 0.2, np.nan, 0.3])
        kernel = matern32(2.0)
        steps = list(robust_filter(t, y, kernel, univariate_observation_model(kernel, 0.1)))
        assert math.isnan(steps[1].log_likelihood)
        assert steps[1].accepted
        assert np.isnan(steps[1].marginal_log_likelihoods).all()

    def test_timestamps_must_increase(self):
        kernel = matern32(1.0)
        obs = univariate_observation_model(kernel, 0.1)
        with pytest.raises(InputError, match="index 2"):
            list(robust_filter([0.0, 1.0, 1.0], np.zeros(3), kernel, obs))

    def test_rho_validation(self):
        kernel = matern32(1.0)
        obs = univariate_observation_model(kernel, 0.1)
        with pytest.raises(ParameterError):
            list(robust_filter([0.0], np.zeros(1), kernel, obs, rho=0.0))
        with pytest.raises(ParameterError):
            list(robust_filter([0.0], np.zeros(1), kernel, obs, rho=-3.0))

    @pytest.mark.parametrize("H", [[[1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]])
    def test_nonfinite_innovation_raises_with_time_index(self, H):
        # lam * dt overflows over so long a step at so short a lengthscale,
        # so the transition and the second row's innovation covariance are
        # NaN, on the one-entry and the matrix path alike.
        kernel = matern32(lengthscale=1e-150)
        obs = LinearObservationModel(H=H, R=[0.1] * len(H), offset=np.zeros(len(H)))
        with pytest.raises(NumericalError, match="time index 1"):
            list(robust_filter(np.arange(3.0) * 1e160, np.zeros((len(H), 3)), kernel, obs))

    def test_log_rho_overrides_rho(self):
        t = np.arange(20.0)
        y = np.zeros(20)
        y[10] = 30.0
        kernel = matern32(3.0)
        obs = univariate_observation_model(kernel, 0.05)
        via_rho = [s.accepted for s in robust_filter(t, y, kernel, obs, rho=1e-12)]
        via_log = [s.accepted for s in
                   robust_filter(t, y, kernel, obs, rho=0.5, log_rho=math.log(1e-12))]
        assert via_rho == via_log


class TestSmoother:
    def test_matches_batch_gp_posterior(self):
        # smoothed means must equal the dense GP regression posterior
        rng = np.random.default_rng(13)
        T = 30
        t = np.cumsum(rng.uniform(0.4, 1.2, T))
        kernel = matern32(lengthscale=4.0, variance=0.9)
        nv = 0.2
        y = np.sin(0.4 * t) + 0.3 * rng.standard_normal(T)
        obs = univariate_observation_model(kernel, nv)
        steps = list(robust_filter(t, y, kernel, obs, robust=False))
        transitions = [discretize(kernel, float(t[j + 1] - t[j])) for j in range(T - 1)]
        smoothed = rts_smooth([s.updated for s in steps], [s.predicted for s in steps[1:]],
                              transitions)
        h = kernel.emission
        means = np.array([h @ s.mean for s in smoothed])
        vars_ = np.array([h @ s.cov @ h for s in smoothed])

        gram = np.empty((T, T))
        for i in range(T):
            for j in range(T):
                gram[i, j] = prior_covariance(kernel, abs(t[i] - t[j]))
        solve = np.linalg.solve(gram + nv * np.eye(T), np.eye(T))
        post_mean = gram @ solve @ y
        post_var = np.diag(gram - gram @ solve @ gram)
        np.testing.assert_allclose(means, post_mean, atol=1e-8)
        np.testing.assert_allclose(vars_, post_var, atol=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            rts_smooth([GaussianState([0.0], [[1.0]])] * 3, [], [])

    def test_singular_prediction_names_step(self):
        s = GaussianState([0.0], [[1.0]])
        trans = DiscretizedTransition(np.array([[0.5]]), np.array([[0.75]]), 1.0)
        with pytest.raises(NumericalError,
                           match="singular predicted covariance in smoothing step 1$"):
            rts_smooth([s] * 4, [s, GaussianState([0.0], [[0.0]]), s], [trans] * 3)

    def test_single_state_passthrough(self):
        s = GaussianState([0.5], [[2.0]])
        out = rts_smooth([s], [], [])
        assert out[0] is s


_SAFETY_CALLS = {
    "predict": lambda s: predict(s, discretize(matern32(2.0), 0.5)),
    "update": lambda s: update(s, np.array([1.0]), scalar_obs()),
    "rts_smooth": lambda s: rts_smooth([s, s], [s], [discretize(matern32(2.0), 0.5)]),
}


@pytest.mark.parametrize("mean, cov", [(np.zeros((2, 1)), np.eye(2)), (np.zeros(2), np.eye(3))],
                         ids=["mean_not_vector", "cov_mismatch"])
@pytest.mark.parametrize("call", _SAFETY_CALLS.values(), ids=_SAFETY_CALLS.keys())
def test_malformed_state_rejected(call, mean, cov):
    with pytest.raises(ParameterError, match="state"):
        call(GaussianState(mean, cov))


# --- one chain from the first timestamp on --------------------------------


def brownian_matern_gram(t):
    """Prior Gram of ``brownian(0.5) + matern32(3.0)``, with the Brownian
    part pinned to zero at ``t[0]``."""
    t = np.asarray(t, dtype=float)
    matern = np.array([[prior_covariance(matern32(3.0), abs(a - b)) for b in t] for a in t])
    return 0.5 * (np.minimum.outer(t, t) - t[0]) + matern


@pytest.mark.parametrize("missing", [[0], [0, 1, 7]])
def test_missing_first_row_keeps_brownian_start(missing):
    # The prior sits at the first timestamp even when that row is missing,
    # so the Brownian part has grown by the first observed row.
    rng = np.random.default_rng(5)
    t = np.cumsum(rng.uniform(0.3, 1.5, 30))
    y = np.sin(t / 2.0) + 0.3 * rng.standard_normal(30)
    y[missing] = np.nan
    kernel = brownian(0.5) + matern32(3.0)
    nv = 0.2
    streamed = sum(s.log_likelihood for s in
                   robust_filter(t, y, kernel, univariate_observation_model(kernel, nv),
                                 robust=False)
                   if math.isfinite(s.log_likelihood))
    value, _ = kalman.log_likelihood_gradient(t, y, kernel, nv)
    seen = np.isfinite(y)
    cov = brownian_matern_gram(t)[np.ix_(seen, seen)] + nv * np.eye(seen.sum())
    dense = -0.5 * (seen.sum() * math.log(2 * math.pi) + np.linalg.slogdet(cov)[1]
                    + y[seen] @ np.linalg.solve(cov, y[seen]))
    assert streamed == pytest.approx(dense, rel=1e-9)
    assert value == pytest.approx(dense, rel=1e-9)


def test_gated_first_row_coasts_from_first_timestamp():
    t = np.array([0.0, 0.7, 1.5])
    kernel = brownian(0.5) + matern32(3.0)
    y = np.array([1e3, 0.1, 0.2])
    steps = list(robust_filter(t, y, kernel, univariate_observation_model(kernel, 0.1)))
    assert [s.accepted for s in steps] == [False, True, True]
    # state 0 is the Brownian part: zero at t[0], diffusion * dt at t[1]
    assert steps[0].predicted.cov[0, 0] == 0.0
    assert steps[1].predicted.cov[0, 0] == pytest.approx(0.5 * 0.7, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=15),
    noise=st.floats(0.05, 1.0),
)
def test_filter_covariances_stay_psd(data, noise):
    kernel = matern32(2.0) + cosine(5.0, 0.4)
    t = np.arange(len(data), dtype=float)
    obs = univariate_observation_model(kernel, noise)
    for step in robust_filter(t, np.array(data), kernel, obs, robust=False):
        eigs = np.linalg.eigvalsh(step.updated.cov)
        assert eigs.min() >= -1e-8


@settings(max_examples=50, deadline=None)
@given(
    L=st.integers(1, 6),
    D=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(0.01, 10.0),
)
def test_one_row_update_matches_dense_formulas(L, D, seed, r):
    # One observed entry of a D-output model takes the closed form; compare
    # it with the textbook update through np.linalg.inv and the Gaussian
    # log-density written out.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((L, L))
    P = A @ A.T + 0.1 * np.eye(L)
    m = rng.standard_normal(L)
    H = rng.standard_normal((D, L))
    j = int(rng.integers(D))
    y = np.full(D, np.nan)
    y[j] = rng.standard_normal()
    obs = LinearObservationModel(H=H, R=np.full(D, r), offset=rng.standard_normal(D))
    new, v, S = update(GaussianState(m, P), y, obs)
    joint, marginals = observation_log_likelihood(v, S)

    h = H[j:j + 1]
    innov = y[j] - (h @ m + obs.offset[j])
    S_ref = h @ P @ h.T + r
    K = P @ h.T @ np.linalg.inv(S_ref)
    ikh = np.eye(L) - K @ h
    mean_ref = m + K @ innov
    cov_ref = ikh @ P @ ikh.T + r * K @ K.T
    ll_ref = -0.5 * math.log(2 * math.pi * S_ref[0, 0]) - 0.5 * innov[0] ** 2 / S_ref[0, 0]

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    assert rel(S, S_ref) <= 1e-12
    assert rel(v, innov) <= 1e-12
    assert rel(new.mean, mean_ref) <= 1e-12
    assert rel(new.cov, cov_ref) <= 1e-12
    assert joint == pytest.approx(ll_ref, rel=1e-12)
    assert marginals[0] == joint


def dense_update(m, P, H, R, y, offset):
    """Textbook update and Gaussian log-densities through np.linalg.inv and
    np.linalg.slogdet: (mean, cov, joint, marginals, scale of the joint's terms)."""
    v = y - (H @ m + offset)
    S = H @ P @ H.T + np.diag(R)
    S_inv = np.linalg.inv(S)
    K = P @ H.T @ S_inv
    ikh = np.eye(len(m)) - K @ H
    sign, logdet = np.linalg.slogdet(S)
    assert sign > 0
    terms = np.array([v.size * math.log(2 * math.pi), logdet, v @ S_inv @ v])
    marginals = -0.5 * (np.log(2 * math.pi * np.diag(S)) + v ** 2 / np.diag(S))
    return (m + K @ v, ikh @ P @ ikh.T + K @ np.diag(R) @ K.T, -0.5 * terms.sum(), marginals,
            np.abs(terms).sum())


def close(a, b, rtol):
    """Norm-relative closeness; exact when ``b`` is zero, as a Brownian
    latent's covariance is at the start of a stream."""
    return np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


@settings(max_examples=50, deadline=None)
@given(
    L=st.integers(1, 6),
    D=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    R=st.lists(st.floats(1e-3, 10.0), min_size=5, max_size=5),
    brownian_start=st.booleans(),
)
def test_stacked_update_matches_dense_formulas(L, D, seed, R, brownian_start):
    # Two or more observed entries take one Cholesky factor of S. A zero
    # row and column of P is a Brownian latent at the start of a stream.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((L, L))
    P = A @ A.T + 0.1 * np.eye(L)
    if brownian_start:
        j = rng.integers(L)
        P[j, :] = P[:, j] = 0.0
    m = rng.standard_normal(L)
    H = rng.standard_normal((D, L))
    R = np.array(R[:D])
    observed = np.zeros(D, dtype=bool)
    observed[rng.choice(D, size=rng.integers(2, D + 1), replace=False)] = True
    y = np.where(observed, rng.standard_normal(D), np.nan)
    obs = LinearObservationModel(H=H, R=R, offset=rng.standard_normal(D))
    new, v, S, _, joint, marginals = kalman._update(GaussianState(m, P), y, obs, observed,
                                                    np.count_nonzero(observed))

    mean_ref, cov_ref, joint_ref, marginals_ref, scale = dense_update(
        m, P, H[observed], R[observed], y[observed], obs.offset[observed])
    assert close(new.mean, mean_ref, 1e-10)
    assert close(new.cov, cov_ref, 1e-10)
    assert abs(joint - joint_ref) <= 1e-10 * scale
    np.testing.assert_allclose(marginals, marginals_ref, rtol=1e-10)
    joint_oll, marginals_oll = observation_log_likelihood(v, S)
    assert joint == pytest.approx(joint_oll, rel=1e-12)
    np.testing.assert_allclose(marginals, marginals_oll, rtol=1e-12)


def test_stacked_update_accepts_stuck_sensor():
    # A sensor that reads none of the state, with its noise at the M-step's
    # 1e-12 floor: S is positive definite with cond(S) > 1e12. The stacked
    # update must equal absorbing the entries one at a time.
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    P = A @ A.T + 0.1 * np.eye(3)
    m = rng.standard_normal(3)
    H = rng.standard_normal((4, 3))
    H[1] = 0.0
    obs = LinearObservationModel(H=H, R=[0.5, 1e-12, 0.3, 0.8], offset=np.zeros(4))
    y = np.array([0.4, 1e-6, -1.2, 0.7])
    new, v, S = update(GaussianState(m, P), y, obs)
    assert np.linalg.cond(S) > 1e12
    _, _, _, _, joint, marginals = kalman._update(GaussianState(m, P), y, obs, None, 4)
    joint_oll, marginals_oll = observation_log_likelihood(v, S)
    assert joint == pytest.approx(joint_oll, rel=1e-12)
    np.testing.assert_allclose(marginals, marginals_oll, rtol=1e-12)

    state, seq_joint = GaussianState(m, P), 0.0
    for j in range(4):
        state, v_j, S_j = update(state, y, obs, np.arange(4) == j)
        seq_joint += observation_log_likelihood(v_j, S_j)[0]
    assert close(new.mean, state.mean, 1e-10)
    assert close(new.cov, state.cov, 1e-10)
    assert joint == pytest.approx(seq_joint, rel=1e-10)
    assert np.isfinite(joint)


# --- exact likelihood gradient -------------------------------------------

_GRAD_LEAVES = st.one_of(
    st.builds(matern32, _log_uniform(1.0, 30.0), _log_uniform(0.3, 3.0)),
    st.builds(cosine, _log_uniform(3.0, 30.0), _log_uniform(0.3, 3.0)),
    st.builds(brownian, _log_uniform(0.01, 0.3)),
)
# Random trees with a Brownian leaf, on irregular timestamps with missing values.
_GRAD_CASES = st.tuples(
    st.tuples(st.builds(brownian, _log_uniform(0.01, 0.3)),
              kernel_trees(2, _GRAD_LEAVES, max_product_dim=8)).map(lambda ks: ks[0] + ks[1]),
    _log_uniform(0.05, 1.0),
    st.integers(0, 2**32 - 1),
)


def _irregular_series(seed, T=25):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.2, 2.0, T))
    y = np.sin(t / 3.0) + 0.3 * rng.standard_normal(T)
    y[rng.random(T) < 0.2] = np.nan
    return t, y


@settings(max_examples=25, deadline=None)
@given(case=_GRAD_CASES)
def test_log_likelihood_gradient_matches_central_differences(case):
    kernel, noise, seed = case
    t, y = _irregular_series(seed)
    _, grad = kalman.log_likelihood_gradient(t, y, kernel, noise)
    theta = np.log(np.append(_leaf_values(kernel), noise))
    step = 1e-5
    fd = np.empty_like(theta)
    for j in range(theta.size):
        ll = []
        for sign in (1.0, -1.0):
            p = np.exp(theta + sign * step * (np.arange(theta.size) == j))
            ll.append(kalman.log_likelihood_gradient(t, y, _rebuild(kernel, iter(p[:-1])),
                                                     p[-1])[0])
        fd[j] = (ll[0] - ll[1]) / (2.0 * step)
    assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


@settings(max_examples=25, deadline=None)
@given(case=_GRAD_CASES)
def test_log_likelihood_gradient_value_is_the_filter_likelihood(case):
    kernel, noise, seed = case
    t, y = _irregular_series(seed)
    value, _ = kalman.log_likelihood_gradient(t, y, kernel, noise)
    obs = univariate_observation_model(kernel, noise)
    total = 0.0
    for step in robust_filter(t, y, kernel, obs, robust=False):
        if math.isfinite(step.log_likelihood):
            total += step.log_likelihood
    assert value == total  # the same arithmetic, bit for bit


def test_log_likelihood_gradient_rejects_unordered_timestamps():
    with pytest.raises(InputError, match="strictly increasing"):
        kalman.log_likelihood_gradient([0.0, 2.0, 1.0], np.zeros(3), matern32(2.0), 0.1)
