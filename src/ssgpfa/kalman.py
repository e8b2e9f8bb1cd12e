"""Kalman filtering, robust streaming updates, and RTS smoothing.

The filter runs over irregularly sampled observations of a linear
Gaussian state-space model built from a :class:`~ssgpfa.kernels.StateSpaceKernel`.
Each row after the first discretizes the kernel over the gap since the
previous row, predicts, and conditionally updates:

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
the transition caches, predict, update and the step log-likelihood, and
the robust gate. Each block's state is a :class:`GaussianState` of plain
arrays, built by ``_predict``, ``_update`` and the loop itself, which
:func:`robust_filter` yields as it is. Only the functions that take a
caller's states check their shapes: :func:`predict`, :func:`update` and
:func:`rts_smooth`. The blocks come in one of two layouts:

``stacked``
    One block whose observation model reads the raw row; used by
    :func:`robust_filter` and by the joint latent-factor filter.

``per-latent``
    One block per latent of an orthogonal factor model, each observing
    its projected pseudo-observation u_k = c_k^T (y - d). Valid only on
    fully observed rows: the first partially observed row merges the
    blocks into the stacked layout for the rest of the pass. A step's
    ``latent`` keeps these rows' per-block terms for attribution.

The robust gate scores each point on its predictive likelihood and
absorbs it only above ``log(rho)``, jointly or per dimension, so
outliers cannot drag the posterior. A gated or fully missing row skips
the update and keeps its prediction as the state, so every pass walks
one chain with one state per row, from the prior at the first timestamp
on; :func:`rts_smooth` runs back over it, with all gains from one solve
over the filter's own stacked predictions and transitions.

One pass keeps a loop of its own: :func:`log_likelihood_gradient`, the
ungated one-output pass that fits univariate hyperparameters. It calls
``_predict`` and ``_update`` like every other pass and carries the
state's derivatives with respect to the hyperparameters beside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InputError, NumericalError, ParameterError
from .kernels import (DiscretizedTransition, StateSpaceKernel, _block_diag, _sym, _walk, add,
                      discretize)

__all__ = [
    "GaussianState",
    "LinearObservationModel",
    "FilterStepResult",
    "TransitionCache",
    "predict",
    "update",
    "observation_log_likelihood",
    "robust_filter",
    "log_likelihood_gradient",
    "rts_smooth",
    "univariate_observation_model",
]

_LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_RHO = 1e-12  # a point is absorbed when its predictive likelihood exceeds rho


class TransitionCache:
    """Bounded memo of discretized transitions keyed by step length.

    The filter steps from row to row, so regularly spaced streams hit a
    single entry forever, gated rows included. Irregular timestamps can
    mint a new step length every row, so on overflow the store is
    dropped wholesale; the hot entries repopulate on the next rows. With
    ``grad`` the transitions carry their parameter derivatives.
    """

    MAX_ENTRIES = 512

    __slots__ = ("_kernel", "_grad", "_store")

    def __init__(self, kernel: StateSpaceKernel, grad: bool = False):
        self._kernel = kernel
        self._grad = grad
        self._store: dict[float, DiscretizedTransition] = {}

    def get(self, dt: float) -> DiscretizedTransition:
        trans = self._store.get(dt)
        if trans is None:
            if len(self._store) >= self.MAX_ENTRIES:
                self._store.clear()
            trans = discretize(self._kernel, dt, grad=self._grad)
            self._store[dt] = trans
        return trans


class GaussianState(NamedTuple):
    """Gaussian belief over the latent state: the arrays every pass carries."""

    mean: np.ndarray
    cov: np.ndarray


def _checked(mean, cov, lead: tuple = ()) -> GaussianState:
    """A caller's belief as float arrays. Raises ``ParameterError`` unless
    ``mean`` holds vectors and ``cov`` matching square matrices, each
    behind the leading shape ``lead``."""
    try:
        mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    except ValueError:
        raise ParameterError("state means and covariances must be regular arrays") from None
    if mean.ndim != len(lead) + 1:
        raise ParameterError(f"state mean must be a vector, got shape {mean.shape[len(lead):]}")
    L = mean.shape[-1]
    if cov.shape != (*lead, L, L):
        raise ParameterError(f"state covariance must be ({L}, {L}), got {cov.shape[len(lead):]}")
    return GaussianState(mean, cov)


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
        if not (np.isfinite(R).all() and (R > 0.0).all()):
            raise ParameterError("observation noise variances must be positive and finite")
        if not (np.isfinite(H).all() and np.isfinite(offset).all()):
            raise ParameterError("observation matrix and offset must be finite")
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


class FilterStepResult(NamedTuple):
    """One step of a filtering pass.

    ``marginal_log_likelihoods`` has one entry per output dimension;
    missing dimensions carry NaN. ``accepted`` is False exactly when the
    robust gate rejected the point, in which case ``updated`` is
    ``predicted``.
    """

    timestamp: float
    predicted: GaussianState
    updated: GaussianState
    log_likelihood: float
    marginal_log_likelihoods: np.ndarray
    accepted: bool


def _predict(state, transition: DiscretizedTransition) -> GaussianState:
    A = transition.A
    return GaussianState(A @ state.mean, _sym(A @ state.cov @ A.T + transition.Q))


def _update(state, y: np.ndarray, obs: LinearObservationModel, observed: np.ndarray | None,
            n_obs: int):
    """Update on the ``n_obs >= 1`` entries of ``y`` where ``observed`` is True (all when ``n_obs``
    is the output count): ``(belief, innovation, innovation_cov, gain, joint, marginals)``."""
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
    joint = float(marginals[0] if n_obs == 1 else joint)
    return GaussianState(mean, cov), v, S, gain, joint, marginals


def predict(state: GaussianState, transition: DiscretizedTransition) -> GaussianState:
    """Propagate the belief through one discretized transition."""
    return _predict(_checked(state.mean, state.cov), transition)


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
    checked = _checked(state.mean, state.cov)
    y = np.asarray(y, dtype=float)
    D = obs.n_outputs
    if y.shape != (D,):
        raise ParameterError(f"observation must have length {D}, got {y.shape}")
    mask = np.isfinite(y) if mask is None else np.asarray(mask, dtype=bool) & np.isfinite(y)
    n_obs = np.count_nonzero(mask)
    if not n_obs:
        return state, np.empty(0), np.empty((0, 0))
    return _update(checked, y, obs, mask, n_obs)[:3]


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
    alpha = np.linalg.inv(chol) @ v
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
    """One row of :func:`_filter_steps`; the lists hold one entry per
    block. ``transitions`` lead from the previous row (None on the first)."""

    timestamp: float
    y: np.ndarray
    observed: np.ndarray
    transitions: list
    predicted: list
    updated: list
    log_likelihood: float
    marginals: np.ndarray | None
    accepted: bool
    latent: tuple | None = None


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
    any is kept). A fully missing row is scored NaN and counts as
    accepted. A gated or fully missing row keeps its prediction as the
    state, from which the next row predicts.

    Each step carries the per-dimension marginal log-likelihoods (NaN
    where missing), except on per-latent rows, which have no
    per-dimension innovation: there ``marginals`` is None and ``latent``
    holds the blocks' innovations, their (1, 1) variances and their
    log-likelihoods, then r - C u and its norm; stacked rows hold None.
    """
    blocks = list(kernels)
    states = [GaussianState(np.zeros(k.state_dim), k.initial_cov.copy()) for k in blocks]
    caches = [TransitionCache(k) for k in blocks]
    D = obs.n_outputs
    if loading is not None:
        sigma2 = float(obs.R[0])
        block_obs = [univariate_observation_model(k, sigma2) for k in blocks]
        perp_logdet = (D - loading.shape[1]) * (_LOG_2PI + math.log(sigma2))
    prev_t = None

    for i, (t, y, observed) in enumerate(rows):
        if prev_t is not None and not t > prev_t:
            raise InputError(
                f"timestamps must be strictly increasing (index {i}: {t!r} after {prev_t!r})"
            )
        n_obs = np.count_nonzero(observed)
        if loading is not None and 0 < n_obs < D:
            merged = reduce(add, blocks)
            states = [GaussianState(np.concatenate([s.mean for s in states]),
                              _block_diag(*[s.cov for s in states]))]
            blocks, caches, loading = [merged], [TransitionCache(merged)], None

        if prev_t is None:
            transitions, predicted = [None] * len(states), states
        else:
            dt = t - prev_t
            transitions = [cache.get(dt) for cache in caches]
            predicted = list(map(_predict, states, transitions))
        prev_t = t

        if not n_obs:
            states = predicted
            yield _Step(t, y, observed, transitions, predicted, predicted, float("nan"),
                        np.full(D, np.nan), True)
            continue

        try:
            if loading is None:
                candidate, _, _, _, joint, marginals = _update(predicted[0], y, obs, observed,
                                                               n_obs)
                if n_obs < D:
                    lls, marginals = marginals, np.full(D, np.nan)
                    marginals[observed] = lls
                candidates, latent = [candidate], None
            else:
                r = y - obs.offset
                u = loading.T @ r
                updates = [_update(pred, u_k, ob, None, 1)
                           for pred, u_k, ob in zip(predicted, u[:, None], block_obs)]
                candidates, v, S, _, lls, _ = zip(*updates)
                resid = r - loading @ u
                recon = math.sqrt(resid @ resid)
                joint = sum(lls) - 0.5 * (perp_logdet + recon * recon / sigma2)
                latent, marginals = (v, S, lls, resid, recon), None
            if gate == "per_dim":
                keep = observed & (marginals > log_rho)
                accepted = bool(keep.any())
                if accepted and not np.array_equal(keep, observed):
                    candidates = [_update(predicted[0], y, obs, keep, np.count_nonzero(keep))[0]]
            else:
                accepted = gate is None or joint > log_rho
        except NumericalError as exc:
            raise NumericalError(f"time index {i}: {exc}") from None

        states = candidates if accepted else predicted
        yield _Step(t, y, observed, transitions, predicted, states, joint, marginals, accepted,
                    latent)


def robust_filter(timestamps: Sequence[float], values: np.ndarray,
                  kernel: StateSpaceKernel, obs: LinearObservationModel, *,
                  rho: float = DEFAULT_RHO, log_rho: float | None = None,
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
    stream length. Fully missing observations are scored as NaN. A
    gated or fully missing row skips the update: its ``updated`` state
    is its prediction, and the next row predicts from it.
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
        yield FilterStepResult(step.timestamp, step.predicted[0], step.updated[0],
                               step.log_likelihood, step.marginals, step.accepted)


def log_likelihood_gradient(timestamps: Sequence[float], values: np.ndarray,
                            kernel: StateSpaceKernel, noise_variance: float):
    """Log-likelihood of a one-output series and its exact gradient.

    The value is the summed step log-likelihood of an ungated filtering
    pass, from the same ``_predict``/``_update`` arithmetic as
    ``robust_filter(..., robust=False)``, so the two agree bit for bit.
    The gradient is with respect to the logs of the kernel's leaf
    parameters, in the order of the tree's leaves and each leaf's in
    constructor order, and last of the noise variance. It comes from the
    forward sensitivities dm/dtheta and dP/dtheta, carried as
    ``(n_theta, L)`` and ``(n_theta, L, L)`` arrays (Gupta & Mehra, IEEE
    TAC 1974): through each prediction by the closed-form dA/dtheta and
    dQ/dtheta, and through each update by the Joseph form, whose terms in
    the gain's derivative vanish at the optimal gain. Every row after the
    first predicts the state and its derivatives from the previous row; a
    NaN value is missing and skips the update, as in the filter.

    Returns ``(log_likelihood, gradient)``.
    """
    t = np.asarray(timestamps, dtype=float)
    y = np.asarray(values, dtype=float).reshape(-1)
    if t.shape != y.shape:
        raise ParameterError(f"need one timestamp per value, got {t.size} for {y.size}")
    if not (np.diff(t) > 0.0).all():
        raise InputError("timestamps must be strictly increasing")
    obs = univariate_observation_model(kernel, noise_variance)
    h = obs.H[0]
    eye = np.eye(kernel.state_dim)
    cache = TransitionCache(kernel, grad=True)
    state = GaussianState(np.zeros(kernel.state_dim), kernel.initial_cov.copy())
    dP0 = _walk(kernel, 0.0, True, need_q=False).dP0
    dP = np.concatenate([dP0, np.zeros((1, *eye.shape))])
    dm = np.zeros(dP.shape[:2])
    dr = np.zeros(dP.shape[0])
    dr[-1] = obs.R[0]  # d r / d log r
    total = 0.0
    grad = np.zeros(dP.shape[0])
    prev_t = None
    for i, (t_i, y_i) in enumerate(zip(t.tolist(), y[:, None])):
        if prev_t is not None:
            trans = cache.get(t_i - prev_t)
            A, dA = trans.A, trans.dA
            dAPA = dA @ (state.cov @ A.T)
            dm = dm @ A.T
            dm[:-1] += dA @ state.mean  # the noise variance, last, leaves A and Q alone
            dP = A @ dP @ A.T
            dP[:-1] += dAPA + dAPA.transpose(0, 2, 1) + trans.dQ
            state = _predict(state, trans)
        prev_t = t_i
        if not math.isfinite(y_i[0]):
            continue
        try:
            posterior, v, S, gain, ll, _ = _update(state, y_i, obs, None, 1)
        except NumericalError as exc:
            raise NumericalError(f"time index {i}: {exc}") from None
        s, v, k = S[0, 0], v[0], gain[:, 0]
        dPh = dP @ h
        dv = -(dm @ h)
        ds = dPh @ h + dr
        grad -= 0.5 * (ds + (2.0 * v * dv - v * v * ds / s)) / s
        dm = dm + np.outer(dv, k) + (dPh - np.outer(ds, k)) * (v / s)
        ikh = eye - np.outer(k, h)
        dP = ikh @ dP @ ikh.T + dr[:, None, None] * np.outer(k, k)
        total += ll
        state = posterior
    return total, grad


def rts_smooth(filtered: Sequence[GaussianState], predicted: Sequence[GaussianState],
               transitions: Sequence[DiscretizedTransition]) -> list[GaussianState]:
    """Rauch-Tung-Striebel smoothing over a filtered trajectory.

    It reuses the filter's predictions, as in Sarkka, *Bayesian Filtering
    and Smoothing* (2013), and computes none of its own: one batched solve
    over the stacks gives every gain, and the backward loop holds only the
    mean and covariance recursion.

    Parameters
    ----------
    filtered : sequence of GaussianState, length T
        Filtering posteriors (anything with ``mean`` and ``cov``) in time
        order; a gated or missing row's is its prediction. The last is
        returned as given.
    predicted : sequence of GaussianState, length T - 1
        ``predicted[j]`` is the filter's prediction of state j + 1 from
        ``filtered[j]``.
    transitions : sequence of DiscretizedTransition, length T - 1
        ``transitions[j]`` maps state j to state j + 1.

    Returns
    -------
    list of GaussianState with the full-trajectory posteriors.

    Raises ``ParameterError`` unless the means, stacked, are vectors of one
    length L and the covariances L x L, and ``NumericalError`` naming the
    first step the backward pass reaches with a singular prediction.
    """
    T = len(filtered)
    if T == 0:
        return []
    if len(predicted) != T - 1 or len(transitions) != T - 1:
        raise ParameterError(f"need {T - 1} predictions and transitions for {T} states, "
                             f"got {len(predicted)} and {len(transitions)}")
    states = [*filtered, *predicted]
    means, covs = _checked([s.mean for s in states], [s.cov for s in states], (len(states),))
    A = np.reshape([tr.A for tr in transitions], covs[T:].shape)
    try:
        gains = np.linalg.solve(covs[T:], A @ covs[:T - 1]).transpose(0, 2, 1)
    except np.linalg.LinAlgError:
        j = np.flatnonzero(np.linalg.slogdet(covs[T:]).sign == 0.0)[-1]
        raise NumericalError(f"singular predicted covariance in smoothing step {j}") from None
    smoothed = [None] * (T - 1) + [filtered[-1]]
    mean, cov = means[T - 1], covs[T - 1]
    for j, gain in zip(range(T - 2, -1, -1), gains[::-1]):
        mean = means[j] + gain @ (mean - means[T + j])
        cov = _sym(covs[j] + gain @ (cov - covs[T + j]) @ gain.T)
        smoothed[j] = GaussianState(mean, cov)
    return smoothed
