"""Kalman filtering, robust streaming updates, and RTS smoothing.

The filter runs over irregularly sampled observations of a linear
Gaussian state-space model built from a :class:`~ssgpfa.kernels.StateSpaceKernel`.
Each step discretizes the kernel over the gap since the last accepted
observation, predicts, and conditionally updates:

    predict:  m' = A m,  P' = A P A^T + Q
    update:   v = y_obs - (H m' + offset)_obs
              S = H_obs P' H_obs^T + R_obs
              K = P' H_obs^T S^{-1}
              m'' = m' + K v
              P'' = (I - K H_obs) P' (I - K H_obs)^T + K R_obs K^T

The covariance update uses the Joseph form throughout, and every
computed covariance is symmetrized. This arithmetic lives in
``_predict`` and ``_update`` alone; only the observed rows of H, R and
the offset enter an update. A row with one observed entry (every
univariate and every per-latent step) takes a closed form: s = H P' H^T
+ r must be finite and positive, K = P' H^T / s, and the log-likelihood
needs no factorization. More observed entries need a finite S with a
Cholesky factor, which alone yields K, log|S| and the Mahalanobis term;
a failed check or factorization raises ``NumericalError``.

Every filtering pass in the package, training and scoring alike, runs
through one gated loop, ``_filter_steps``. It owns the timestamp check,
the accepted-time anchor, the transition caches, predict, update and
the step log-likelihood, and the robust gate. It carries each block's
state as plain ``(mean, cov)`` arrays; only the public :func:`predict`,
:func:`update`, :func:`robust_filter` and :func:`rts_smooth` build
:class:`GaussianState` objects. The blocks come in one of two layouts:

``stacked``
    One block whose observation model reads the raw row; used by
    :func:`robust_filter` and by the joint latent-factor filter.

``per-latent``
    One block per latent of an orthogonal factor model, each observing
    its projected pseudo-observation u_k = c_k^T (y - d). Valid only on
    fully observed rows: the first partially observed row merges the
    blocks into the stacked layout for the rest of the pass.

The robust gate scores each point on its predictive likelihood and
absorbs it only above ``log(rho)``, jointly or per dimension, so
outliers cannot drag the posterior. The elapsed time for the next
transition always refers back to the most recently *accepted* point.
A fully missing observation leaves the state untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.linalg import block_diag, solve_triangular

from .errors import InputError, NumericalError, ParameterError
from .kernels import DiscretizedTransition, StateSpaceKernel, _sym, add, discretize

__all__ = [
    "GaussianState",
    "LinearObservationModel",
    "FilterStepResult",
    "TransitionCache",
    "predict",
    "update",
    "observation_log_likelihood",
    "robust_filter",
    "rts_smooth",
    "univariate_observation_model",
]

_LOG_2PI = math.log(2.0 * math.pi)


class TransitionCache:
    """Bounded memo of discretized transitions keyed by step length.

    Regularly spaced streams hit a single entry forever. A sustained
    rejection streak mints a new step length every point, so on
    overflow the store is dropped wholesale; the hot entries repopulate
    on the next accepted step.
    """

    MAX_ENTRIES = 512

    __slots__ = ("_kernel", "_store")

    def __init__(self, kernel: StateSpaceKernel):
        self._kernel = kernel
        self._store: dict[float, DiscretizedTransition] = {}

    def get(self, dt: float) -> DiscretizedTransition:
        trans = self._store.get(dt)
        if trans is None:
            if len(self._store) >= self.MAX_ENTRIES:
                self._store.clear()
            trans = discretize(self._kernel, dt)
            self._store[dt] = trans
        return trans


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian belief over the latent state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ParameterError(f"state mean must be a vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ParameterError(
                f"state covariance must be ({mean.size}, {mean.size}), got {cov.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True, eq=False)
class LinearObservationModel:
    """Observation model y = H x + offset + noise, noise ~ N(0, diag(R)).

    ``R`` holds the diagonal of the observation-noise covariance; the
    noise is diagonal by construction.
    """

    H: np.ndarray
    R: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        R = np.asarray(self.R, dtype=float)
        if R.ndim == 2:
            off_diag = R - np.diag(np.diag(R))
            if np.abs(off_diag).max(initial=0.0) > 0.0:
                raise ParameterError("observation noise covariance must be diagonal")
            R = np.diag(R).copy()
        offset = np.asarray(self.offset, dtype=float)
        D = H.shape[0]
        if R.shape != (D,):
            raise ParameterError(f"noise diagonal must have length {D}, got {R.shape}")
        if offset.shape != (D,):
            raise ParameterError(f"offset must have length {D}, got {offset.shape}")
        if not np.all(R > 0.0):
            raise ParameterError("observation noise variances must be positive")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "offset", offset)

    @property
    def n_outputs(self) -> int:
        return self.H.shape[0]


def univariate_observation_model(kernel: StateSpaceKernel,
                                 noise_variance: float) -> LinearObservationModel:
    """Scalar observation of the GP value with the given noise variance."""
    return LinearObservationModel(
        H=kernel.emission[None, :],
        R=np.array([float(noise_variance)]),
        offset=np.zeros(1),
    )


@dataclass(frozen=True, eq=False)
class FilterStepResult:
    """One step of a filtering pass.

    ``marginal_log_likelihoods`` has one entry per output dimension;
    missing dimensions carry NaN. ``accepted`` is False exactly when the
    robust gate rejected the point, in which case ``updated`` equals
    ``predicted``.
    """

    timestamp: float
    predicted: GaussianState
    updated: GaussianState
    log_likelihood: float
    marginal_log_likelihoods: np.ndarray
    accepted: bool


class _Belief(NamedTuple):
    """A Gaussian belief as plain arrays: the state the filter loop carries."""

    mean: np.ndarray
    cov: np.ndarray


def _predict(state, transition: DiscretizedTransition) -> _Belief:
    A = transition.A
    return _Belief(A @ state.mean, _sym(A @ state.cov @ A.T + transition.Q))


def _update(state, y: np.ndarray, obs: LinearObservationModel, observed: np.ndarray | None,
            n_obs: int):
    """Update on the ``n_obs >= 1`` entries of ``y`` where ``observed`` is True (all when ``n_obs``
    is the output count): ``(belief, innovation, innovation_cov, joint, marginals)``."""
    H, r, offset = obs.H, obs.R, obs.offset
    if n_obs < r.size:
        H, r, offset, y = H[observed], r[observed], offset[observed], y[observed]
    v = y - (H @ state.mean + offset)
    P = state.cov
    HP = H @ P
    if n_obs == 1:
        S = HP @ H.T + r
        s = S[0, 0]
        if not 0.0 < s < math.inf:
            raise NumericalError(f"innovation variance {s:g} is not positive and finite")
        gain = (HP * (1.0 / s)).T
    else:
        S = _sym(HP @ H.T + np.diag(r))
        if not np.isfinite(S).all():
            raise NumericalError("innovation covariance is non-finite")
        try:
            chol = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            raise NumericalError("innovation covariance is not positive definite") from None
        # numpy's inverse of the factor, not scipy's solve_triangular: scipy
        # wakes its own BLAS thread pool, which stalls numpy's Joseph products.
        chol_inv = np.linalg.inv(chol)
        gain = (chol_inv @ HP).T @ chol_inv
        alpha = chol_inv @ v
        joint = -0.5 * (n_obs * _LOG_2PI) - np.log(np.diag(chol)).sum() - 0.5 * float(alpha @ alpha)
    mean = state.mean + gain @ v
    ikh = np.eye(P.shape[0]) - gain @ H
    cov = _sym(ikh @ P @ ikh.T + (gain * r) @ gain.T)
    diag = S.diagonal()
    marginals = -0.5 * (_LOG_2PI + np.log(diag) + v * v / diag)
    return _Belief(mean, cov), v, S, float(marginals[0] if n_obs == 1 else joint), marginals


def predict(state: GaussianState, transition: DiscretizedTransition) -> GaussianState:
    """Propagate the belief through one discretized transition."""
    return GaussianState(*_predict(state, transition))


def update(state: GaussianState, y: np.ndarray, obs: LinearObservationModel,
           mask: np.ndarray | None = None):
    """Condition the belief on an observation vector.

    Parameters
    ----------
    state : GaussianState
        Predicted belief at the observation time.
    y : ndarray, shape (D,)
        Observation; entries may be NaN where missing.
    obs : LinearObservationModel
        Emission, noise diagonal and offset.
    mask : ndarray of bool, shape (D,), optional
        True where observed. Defaults to the finite entries of ``y``.

    Returns
    -------
    (new_state, innovation, innovation_cov)
        Innovation and its covariance cover the observed rows only. A
        fully missing observation returns the state unchanged with
        empty innovation arrays.
    """
    y = np.asarray(y, dtype=float)
    D = obs.n_outputs
    if y.shape != (D,):
        raise ParameterError(f"observation must have length {D}, got {y.shape}")
    mask = np.isfinite(y) if mask is None else np.asarray(mask, dtype=bool) & np.isfinite(y)
    n_obs = np.count_nonzero(mask)
    if not n_obs:
        return state, np.empty(0), np.empty((0, 0))
    new, v, S, _, _ = _update(state, y, obs, mask, n_obs)
    return GaussianState(*new), v, S


def observation_log_likelihood(innovation: np.ndarray, innovation_cov: np.ndarray):
    """Joint and per-dimension Gaussian log-likelihoods of an innovation.

    Returns ``(joint, marginals)`` where ``joint`` is
    log N(v; 0, S) and ``marginals[i]`` is log N(v_i; 0, S_ii). Empty
    innovations (fully missing observations) yield NaN and an empty
    marginal array.
    """
    v = np.asarray(innovation, dtype=float).ravel()
    S = np.asarray(innovation_cov, dtype=float)
    d = v.size
    if d == 0:
        return float("nan"), np.empty(0)
    if S.shape != (d, d):
        raise ParameterError(f"innovation covariance must be ({d}, {d}), got {S.shape}")
    diag = S.diagonal()
    if (diag <= 0.0).any():
        raise NumericalError("innovation covariance has a nonpositive diagonal entry")
    marginals = -0.5 * (_LOG_2PI + np.log(diag) + v * v / diag)
    if d == 1:
        return float(marginals[0]), marginals
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NumericalError("innovation covariance is not positive definite") from None
    alpha = solve_triangular(chol, v, lower=True, check_finite=False)
    joint = -0.5 * (d * _LOG_2PI) - np.log(np.diag(chol)).sum() - 0.5 * float(alpha @ alpha)
    return float(joint), marginals


def _log_threshold(rho: float, log_rho: float | None) -> float:
    """The gate threshold log(rho); ``log_rho`` overrides ``rho`` when given."""
    if log_rho is not None:
        return float(log_rho)
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 0.0:
        raise ParameterError(f"rho must be a positive finite likelihood, got {rho!r}")
    return math.log(rho)


class _Step(NamedTuple):
    """One row of :func:`_filter_steps`; the state lists hold one entry
    per block."""

    timestamp: float
    y: np.ndarray
    observed: np.ndarray
    predicted: list
    updated: list
    log_likelihood: float
    marginals: np.ndarray | None
    accepted: bool


def _filter_steps(rows: Iterable, kernels: Sequence[StateSpaceKernel],
                  obs: LinearObservationModel, *, log_rho: float | None = None,
                  gate: str | None = None,
                  loading: np.ndarray | None = None) -> Iterator[_Step]:
    """The gated filter loop behind every filtering pass.

    ``rows`` yields ``(timestamp, y, observed)`` with ``observed`` True
    where ``y`` holds a usable value. Without ``loading`` the layout is
    stacked: one block with dynamics ``kernels[0]``, observed through
    ``obs``. With an orthonormal ``loading`` C each kernel is a
    per-latent block observing u_k = c_k^T (y - d) with noise sigma^2 on
    fully observed rows; the residual outside span(C) adds its own
    Gaussian term to the step log-likelihood. ``obs`` must then be the
    stacked model of the blocks (emission rows C[:, k] h_k^T, isotropic
    noise sigma^2, offset d): the first partially observed row merges
    the blocks into the stacked layout (block-diagonal state, summed
    kernel) for the rest of the pass.

    ``gate`` is None (absorb every row), ``"joint"`` (absorb when the
    joint log-likelihood exceeds ``log_rho``) or ``"per_dim"`` (stacked
    layout only: re-update on the dimensions whose marginal
    log-likelihood exceeds ``log_rho``; the row counts as accepted when
    any is kept). A fully missing row is scored NaN, counts as accepted
    and leaves the state and the accepted-time anchor untouched.

    Each step carries the per-dimension marginal log-likelihoods (NaN
    where missing), except on per-latent rows, which have no
    per-dimension innovation: there ``marginals`` is None.
    """
    blocks = list(kernels)
    states = [_Belief(np.zeros(k.state_dim), k.initial_cov.copy()) for k in blocks]
    caches = [TransitionCache(k) for k in blocks]
    D = obs.n_outputs
    if loading is not None:
        sigma2 = float(obs.R[0])
        block_obs = [univariate_observation_model(k, sigma2) for k in blocks]
        perp_dims = D - loading.shape[1]
    anchor = None  # timestamp of the most recent accepted observation
    prev_t = None

    for i, (t, y, observed) in enumerate(rows):
        if prev_t is not None and not t > prev_t:
            raise InputError(
                f"timestamps must be strictly increasing (index {i}: {t!r} after {prev_t!r})"
            )
        prev_t = t
        n_obs = np.count_nonzero(observed)
        if loading is not None and 0 < n_obs < D:
            merged = reduce(add, blocks)
            states = [_Belief(np.concatenate([s.mean for s in states]),
                              block_diag(*[s.cov for s in states]))]
            blocks, caches, loading = [merged], [TransitionCache(merged)], None

        if anchor is None:
            predicted = states
        else:
            predicted = [_predict(s, cache.get(t - anchor)) for s, cache in zip(states, caches)]

        if not n_obs:
            yield _Step(t, y, observed, predicted, predicted, float("nan"), np.full(D, np.nan),
                        True)
            continue

        try:
            if loading is None:
                candidate, _, _, joint, marginals = _update(predicted[0], y, obs, observed, n_obs)
                if n_obs < D:
                    lls, marginals = marginals, np.full(D, np.nan)
                    marginals[observed] = lls
                candidates = [candidate]
            else:
                r = y - obs.offset
                u = loading.T @ r
                updates = [_update(pred, u_k, ob, None, 1)
                           for pred, u_k, ob in zip(predicted, u[:, None], block_obs)]
                candidates = [step[0] for step in updates]
                joint = sum(step[3] for step in updates)
                if perp_dims:
                    perp_sq = max(float(r @ r - u @ u), 0.0)
                    joint += -0.5 * (perp_dims * (_LOG_2PI + math.log(sigma2))
                                     + perp_sq / sigma2)
                marginals = None
            if gate == "per_dim":
                keep = observed & (marginals > log_rho)
                accepted = bool(keep.any())
                if accepted and not np.array_equal(keep, observed):
                    candidates = [_update(predicted[0], y, obs, keep, np.count_nonzero(keep))[0]]
            else:
                accepted = gate is None or joint > log_rho
        except NumericalError as exc:
            raise NumericalError(f"time index {i}: {exc}") from None

        if accepted:
            states = candidates
            anchor = t
        yield _Step(t, y, observed, predicted, states if accepted else predicted, joint,
                    marginals, accepted)


def robust_filter(timestamps: Sequence[float], values: np.ndarray,
                  kernel: StateSpaceKernel, obs: LinearObservationModel, *,
                  rho: float = 1e-12, log_rho: float | None = None,
                  robust: bool = True,
                  mask: np.ndarray | None = None) -> Iterator[FilterStepResult]:
    """Stream a (possibly robust) filtering pass over a series.

    Parameters
    ----------
    timestamps : sequence of float
        Strictly increasing observation times.
    values : ndarray, shape (D, T) or (T,)
        Observations; NaN marks missing entries.
    kernel : StateSpaceKernel
        Latent dynamics.
    obs : LinearObservationModel
        Observation model with D outputs.
    rho, log_rho : float
        Acceptance threshold on the predictive likelihood; a point is
        absorbed only if its joint log-likelihood exceeds ``log(rho)``
        (``log_rho`` overrides ``rho`` when given).
    robust : bool
        With False every point is absorbed regardless of likelihood.
    mask : ndarray of bool, shape (D, T), optional
        True where observed; combined with the finite entries of
        ``values``.

    Yields
    ------
    FilterStepResult per observation, in order. O(1) memory in the
    stream length. Fully missing observations are scored as NaN, leave
    the state untouched and do not advance the accepted-time anchor.
    """
    log_rho = _log_threshold(rho, log_rho)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    D = obs.n_outputs
    if values.shape[0] != D:
        raise ParameterError(
            f"values must have {D} rows to match the observation model, got {values.shape[0]}"
        )
    observed = map(np.isfinite, values.T)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != values.shape:
            raise ParameterError("mask shape must match values shape")
        observed = map(np.logical_and, mask.T, observed)

    rows = zip(map(float, timestamps), values.T, observed)
    for step in _filter_steps(rows, (kernel,), obs, log_rho=log_rho,
                              gate="joint" if robust else None):
        yield FilterStepResult(step.timestamp, GaussianState(*step.predicted[0]),
                               GaussianState(*step.updated[0]), step.log_likelihood,
                               step.marginals, step.accepted)


def rts_smooth(filtered: Sequence[GaussianState],
               transitions: Sequence[DiscretizedTransition]) -> list[GaussianState]:
    """Rauch-Tung-Striebel smoothing over a filtered trajectory.

    Parameters
    ----------
    filtered : sequence of GaussianState, length T
        Filtering posteriors (anything with ``mean`` and ``cov``) in time order.
    transitions : sequence of DiscretizedTransition, length T - 1
        ``transitions[j]`` maps state j to state j + 1.

    Returns
    -------
    list of GaussianState with the full-trajectory posteriors.
    """
    filtered = list(filtered)
    transitions = list(transitions)
    T = len(filtered)
    if T == 0:
        return []
    if len(transitions) != T - 1:
        raise ParameterError(
            f"need {T - 1} transitions for {T} states, got {len(transitions)}"
        )
    smoothed = [None] * T
    smoothed[-1] = filtered[-1]
    for j in range(T - 2, -1, -1):
        m, P = filtered[j].mean, filtered[j].cov
        m_pred, P_pred = _predict(filtered[j], transitions[j])
        try:
            gain = np.linalg.solve(P_pred, transitions[j].A @ P).T
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"singular predicted covariance in smoothing step {j}"
            ) from None
        nxt = smoothed[j + 1]
        mean = m + gain @ (nxt.mean - m_pred)
        cov = _sym(P + gain @ (nxt.cov - P_pred) @ gain.T)
        smoothed[j] = GaussianState(mean, cov)
    return smoothed
