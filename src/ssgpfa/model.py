"""Latent-factor time-series model with GP-structured latents.

Observations y_t in R^D are explained by K independent latent Gaussian
processes z_t in R^K through a loading matrix:

    y_t = C z_t + d + eps_t,     eps_t ~ N(0, Psi),  Psi diagonal.

Each latent carries its own state-space kernel, so inference over a
stream of T points costs O(T), not O(T^3). Two training modes are
supported:

``orthogonal``
    C is kept orthonormal (C^T C = I) and the noise isotropic
    (Psi = sigma^2 I). On fully observed rows the posterior over latents
    then factorizes, so inference runs K small per-latent filter blocks
    against the projected pseudo-observations u_t = C^T (y_t - d), and
    per-latent anomaly attribution is exact. Partially observed rows
    couple the latents; from the first one on, inference runs the
    stacked filter below.

``unconstrained``
    C and diagonal Psi are free; inference runs one stacked filter whose
    state holds all latents.

Both layouts run through the one filter loop of :mod:`ssgpfa.kalman`;
the E-step stores its filtered states for RTS smoothing and online
scoring turns each step into a :class:`ScoredPoint`.

Training is EM with closed-form M-step updates; kernel hyperparameters
stay fixed during EM. Univariate series skip EM entirely and fit kernel
hyperparameters by maximizing the filter likelihood.

Online scoring emits, per point, the negative predictive log-likelihood
(the anomaly score), per-dimension marginal scores, the robust
accept/skip decision, per-latent attribution scores, and the latent
reconstruction error.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import reduce
from itertools import repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from . import explain
from .errors import ConfigError, InputError, NumericalError, ParameterError
from .kalman import (
    LinearObservationModel,
    TransitionCache,
    _filter_steps,
    _log_threshold,
    robust_filter,
    rts_smooth,
    univariate_observation_model,
)
from .kernels import (StateSpaceKernel, _leaf_values, _rebuild, add, discretize, matern32,
                      parse_kernel)

__all__ = [
    "SsgpfaModel",
    "LatentPosterior",
    "ScoredPoint",
    "assemble_joint",
    "e_step",
    "m_step",
    "orthogonalize",
    "fit_em",
    "fa_likelihood",
    "fit_univariate",
    "score_online",
    "train_series",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "DEFAULT_UNIVARIATE_KERNEL",
    "DEFAULT_MULTIVARIATE_LENGTHSCALES",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Reproduction defaults: four medium-to-short range Matern latents for
# multivariate streams, and a drifting quasi-periodic combination for
# univariate ones (hyperparameters are refined by fit_univariate).
DEFAULT_MULTIVARIATE_LENGTHSCALES = (130.0, 200.0, 50.0, 10.0)
DEFAULT_UNIVARIATE_KERNEL = (
    "brownian(diffusion=0.05) "
    "+ matern32(lengthscale=25.0, variance=1.0) * cosine(period=50.0, variance=1.0)"
)

_MODEL_FORMAT = "ssgpfa-model"
_MODEL_VERSION = 1


def default_multivariate_kernels(n_latents: int) -> list[StateSpaceKernel]:
    """Default latent kernels when none are configured."""
    if n_latents > len(DEFAULT_MULTIVARIATE_LENGTHSCALES):
        raise ConfigError(
            f"no default kernels for {n_latents} latents; pass explicit kernel expressions"
        )
    return [matern32(lengthscale=ls, variance=1.0)
            for ls in DEFAULT_MULTIVARIATE_LENGTHSCALES[:n_latents]]


@dataclass(frozen=True, eq=False)
class SsgpfaModel:
    """Trained latent-factor model. Immutable.

    ``noise`` stores the diagonal of Psi; in orthogonal mode all entries
    equal sigma^2. ``input_mean``/``input_std`` record the
    standardization applied to raw inputs before scoring (None when the
    model operates on already-scaled data).
    """

    kernels: tuple
    loading: np.ndarray
    offset: np.ndarray
    noise: np.ndarray
    mode: str = "orthogonal"
    training_log: tuple = ()
    input_mean: np.ndarray | None = None
    input_std: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("orthogonal", "unconstrained"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        kernels = tuple(self.kernels)
        if not kernels:
            raise ConfigError("model needs at least one latent kernel")
        C = np.array(self.loading, dtype=float)
        if C.ndim != 2:
            raise ParameterError(f"loading must be a matrix, got shape {C.shape}")
        D, K = C.shape
        if K != len(kernels):
            raise ConfigError(f"loading has {K} columns but {len(kernels)} kernels given")
        if K > D:
            raise ConfigError(f"more latents ({K}) than observed dimensions ({D})")
        offset = np.array(self.offset, dtype=float)
        noise = np.array(self.noise, dtype=float)
        if noise.ndim == 0:
            noise = np.full(D, float(noise))
        if offset.shape != (D,):
            raise ParameterError(f"offset must have length {D}, got {offset.shape}")
        if noise.shape != (D,):
            raise ParameterError(f"noise diagonal must have length {D}, got {noise.shape}")
        if not np.all(np.isfinite(noise)) or not np.all(noise > 0.0):
            raise ParameterError("noise variances must be positive and finite")
        if not (np.isfinite(C).all() and np.isfinite(offset).all()):
            raise ParameterError("loading and offset must be finite")
        if self.mode == "orthogonal":
            gram_gap = np.linalg.norm(C.T @ C - np.eye(K))
            if gram_gap > 1e-8:
                raise ConfigError(
                    f"orthogonal mode requires orthonormal loadings (||C^T C - I|| = {gram_gap:.2e})"
                )
            if not np.all(noise == noise[0]):
                raise ConfigError("orthogonal mode requires isotropic noise (equal variances)")
        for name in ("input_mean", "input_std"):
            v = getattr(self, name)
            if v is not None:
                v = np.array(v, dtype=float)
                if v.shape != (D,):
                    raise ParameterError(f"{name} must have length {D}, got {v.shape}")
                if not np.isfinite(v).all():
                    raise ParameterError(f"{name} must be finite")
                object.__setattr__(self, name, v)
        if self.input_std is not None and not np.all(self.input_std > 0.0):
            raise ParameterError("input_std entries must be positive")
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "loading", C)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "training_log", tuple(float(x) for x in self.training_log))

    @property
    def n_dims(self) -> int:
        return self.loading.shape[0]

    @property
    def n_latents(self) -> int:
        return self.loading.shape[1]

    @property
    def sigma2(self) -> float:
        """Isotropic noise variance (orthogonal mode)."""
        if self.mode != "orthogonal":
            raise ConfigError("sigma2 is defined in orthogonal mode only")
        return float(self.noise[0])


@dataclass(frozen=True, eq=False)
class LatentPosterior:
    """Smoothed posterior over the latent values.

    ``means[t]`` and ``covs[t]`` describe z_t given the whole series;
    ``covs`` is diagonal by construction only for orthogonal models on
    data without partially observed rows. ``used``
    flags the time steps that were absorbed (robust training may skip
    some).
    """

    means: np.ndarray
    covs: np.ndarray
    log_likelihood: float
    used: np.ndarray


@dataclass(frozen=True, eq=False)
class ScoredPoint:
    """Scoring output for one stream point.

    ``score`` is the negative joint predictive log-likelihood; higher
    means more anomalous. ``accepted`` is False when the robust gate
    skipped the point. ``latent_nlls[k]`` scores the projected latent
    coordinate under its predictive distribution (latent predictive
    variance plus the observation noise carried into the projection);
    the largest entry attributes the anomaly. Unconstrained models, and
    orthogonal ones on partially observed rows, project through the
    pseudoinverse of the observed loadings, which mixes latents.
    ``reconstruction_error`` is the distance from the latent subspace.
    """

    timestamp: float
    score: float
    marginal_nlls: np.ndarray
    accepted: bool
    latent_nlls: np.ndarray
    reconstruction_error: float


def assemble_joint(model: SsgpfaModel):
    """Joint state-space form stacking every latent.

    Returns ``(kernel, obs, slices)``: the block dynamics kernel, the
    observation model with emission rows C[:, k] h_k^T and noise
    diag(Psi) plus offset d, and the per-latent state slices.
    """
    kernel = reduce(add, model.kernels)
    blocks = []
    slices = []
    lo = 0
    for k, kern in enumerate(model.kernels):
        hi = lo + kern.state_dim
        slices.append(slice(lo, hi))
        blocks.append(np.outer(model.loading[:, k], kern.emission))
        lo = hi
    H = np.hstack(blocks)
    obs = LinearObservationModel(H=H, R=model.noise.copy(), offset=model.offset.copy())
    return kernel, obs, slices


def _chain_transitions(kernel: StateSpaceKernel, timestamps: np.ndarray):
    """Consecutive-step transitions with caching for repeated gaps."""
    cache = TransitionCache(kernel)
    return [cache.get(dt) for dt in np.diff(timestamps).tolist()]


def _as_time_array(timestamps, T: int) -> np.ndarray:
    t = np.asarray(timestamps, dtype=float)
    if t.shape != (T,):
        raise InputError(f"need {T} timestamps, got shape {t.shape}")
    return t


def _normalize_mask(values: np.ndarray, mask) -> np.ndarray:
    finite = np.isfinite(values)
    if mask is None:
        return finite
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise InputError("mask shape must match values shape")
    return mask & finite


def e_step(model: SsgpfaModel, values: np.ndarray, timestamps, mask=None,
           robust_log_rho: float | None = None) -> LatentPosterior:
    """Smoothed latent posterior given the observations.

    When every row is fully observed or fully missing, orthogonal mode
    filters and smooths K independent per-latent blocks against the
    projected pseudo-observations (exact thanks to the orthonormal
    loadings and isotropic noise). Otherwise, and in unconstrained mode,
    one stacked filter runs over all latents, keeping the cross-covariances
    that partially observed rows create. ``robust_log_rho`` enables the
    robust gate during training: points whose predictive log-likelihood
    falls at or below it are not absorbed and are excluded from ``used``.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    D, T = values.shape
    if D != model.n_dims:
        raise ConfigError(f"model expects {model.n_dims} dimensions, data has {D}")
    t_arr = _as_time_array(timestamps, T)
    mask = _normalize_mask(values, mask)
    K = model.n_latents
    kernel, obs, slices = assemble_joint(model)
    partial = (mask.any(axis=0) & ~mask.all(axis=0)).any()
    if model.mode == "orthogonal" and not partial:
        blocks, groups, loading = model.kernels, _per_latent_groups(K), model.loading
    else:
        blocks, groups, loading = (kernel,), [list(enumerate(slices))], None

    filtered = [[] for _ in blocks]
    used = np.zeros(T, dtype=bool)
    total_ll = 0.0
    steps = _filter_steps(zip(t_arr.tolist(), values.T, mask.T), blocks, obs,
                          log_rho=robust_log_rho,
                          gate=None if robust_log_rho is None else "joint", loading=loading)
    for i, step in enumerate(steps):
        for store, state in zip(filtered, step.updated):
            store.append(state)
        if np.count_nonzero(step.observed):
            total_ll += step.log_likelihood
            used[i] = step.accepted

    means = np.zeros((T, K))
    covs = np.zeros((T, K, K))
    emissions = [k.emission for k in model.kernels]
    for block, group, store in zip(blocks, groups, filtered):
        smoothed = rts_smooth(store, _chain_transitions(block, t_arr))
        for j, sj in group:
            h = emissions[j]
            means[:, j] = [h @ st.mean[sj] for st in smoothed]
            for k, sk in group:
                covs[:, j, k] = [h @ st.cov[sj, sk] @ emissions[k] for st in smoothed]
    return LatentPosterior(means, covs, float(total_ll), used)


def _per_latent_groups(n_latents: int) -> list:
    """The (latent, state slice) pairs of each block in the per-latent
    layout: block k holds latent k alone."""
    return [[(k, slice(None))] for k in range(n_latents)]


def m_step(posterior: LatentPosterior, values: np.ndarray, mask=None):
    """Closed-form maximizers of the expected complete-data log-likelihood.

    One formula for every mask, full or partial: each dimension i solves
    the coupled normal equations for (C_i, d_i) jointly (centered form),
    then its noise variance given both, with the sums, the means and T
    taken over the steps where i is observed:

        C*_i = sum (y_it - ybar_i)(mu_t - mubar)^T
               [sum Sigma_t + (mu_t - mubar)(mu_t - mubar)^T]^{-1}
        d*_i = ybar_i - C*_i mubar
        Psi*_ii = 1/T sum [ (y_it - C*_i mu_t - d*_i)^2 + C*_i Sigma_t C*_i^T ]

    Returns (C, d, psi_diag).
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    D, T = values.shape
    means, covs = posterior.means, posterior.covs
    if means.shape[0] != T:
        raise ParameterError("posterior length does not match the data")
    mask = _normalize_mask(values, mask)
    K = means.shape[1]

    C = np.zeros((D, K))
    d = np.zeros(D)
    psi = np.zeros(D)
    for i in range(D):
        sel = mask[i]
        n = int(sel.sum())
        if n == 0:
            raise InputError(f"dimension {i} has no observed values")
        y_i = values[i, sel]
        mu_i = means[sel]
        ybar = y_i.mean()
        mubar = mu_i.mean(axis=0)
        Mc = mu_i - mubar
        Szz = covs[sel].sum(axis=0) + Mc.T @ Mc
        Syz = (y_i - ybar) @ Mc
        c_i = _solve_loading(Szz, Syz[None, :])[0]
        C[i] = c_i
        d[i] = ybar - c_i @ mubar
        resid = y_i - mu_i @ c_i - d[i]
        cross = np.einsum("k,tkl,l->", c_i, covs[sel], c_i)
        psi[i] = (resid ** 2).sum() / n + cross / n
    return C, d, np.maximum(psi, 1e-12)


def _solve_loading(Szz: np.ndarray, Syz: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(Szz)
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn("singular latent second-moment matrix; applying ridge regularization",
                      stacklevel=3)
        Szz = Szz + 1e-9 * np.eye(Szz.shape[0])
    return np.linalg.solve(Szz, Syz.T).T


def orthogonalize(loading: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns (polar factor U V^T)."""
    C = np.asarray(loading, dtype=float)
    if C.ndim != 2:
        raise ParameterError(f"loading must be a matrix, got shape {C.shape}")
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    if s[0] <= 0.0 or s[-1] <= max(C.shape) * np.finfo(float).eps * s[0]:
        raise NumericalError(
            f"loading matrix is rank deficient (smallest singular value {s[-1]:.3e})"
        )
    return U @ Vt


def fit_em(values: np.ndarray, timestamps, kernels: Sequence[StateSpaceKernel] | Sequence[str], *,
           mode: str = "orthogonal", max_iters: int = 50, tol: float = 1e-6,
           mask=None, robust_log_rho: float | None = None,
           callback: Callable | None = None) -> SsgpfaModel:
    """Fit loading, offset and noise by EM with fixed latent kernels.

    Initialization takes the top-K left singular vectors of the data as
    loadings. Iterations stop when the relative change of the data
    log-likelihood drops below ``tol`` or after ``max_iters``; the
    returned model is the one that produced the final training-log
    entry. ``robust_log_rho`` activates the robust gate during training
    with threshold log(rho) (off by default: every point is absorbed).

    ``callback(iteration, model, posterior)`` is invoked after every
    E-step, before the parameter update.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    D, T = values.shape
    kernels = [parse_kernel(k) if isinstance(k, str) else k for k in kernels]
    K = len(kernels)
    if K < 1:
        raise ConfigError("need at least one latent kernel")
    if K > D:
        raise ConfigError(f"more latents ({K}) than observed dimensions ({D})")
    if T < 2:
        raise InputError("need at least two observations to fit")
    if T < K:
        raise InputError(f"need at least {K} observations for {K} latents")
    if mode not in ("orthogonal", "unconstrained"):
        raise ConfigError(f"unknown mode {mode!r}")
    if max_iters < 1:
        raise ConfigError("max_iters must be at least 1")
    t_arr = _as_time_array(timestamps, T)
    mask = _normalize_mask(values, mask)
    if robust_log_rho is not None and not math.isfinite(robust_log_rho):
        raise ConfigError(f"robust_log_rho must be finite, got {robust_log_rho!r}")

    filled = np.where(mask, values, 0.0)
    U = np.linalg.svd(filled, full_matrices=False)[0]
    C = U[:, :K]
    d = np.zeros(D)
    resid = filled - C @ (C.T @ filled)
    psi = np.maximum(resid.var(axis=1), 1e-6)
    noise = np.full(D, float(psi.mean())) if mode == "orthogonal" else psi

    log = []
    prev_ll = None
    model = SsgpfaModel(tuple(kernels), C, d, noise, mode=mode)
    for i in range(max_iters):
        post = e_step(model, values, t_arr, mask, robust_log_rho)
        ll = post.log_likelihood
        if not math.isfinite(ll):
            raise NumericalError(f"non-finite log-likelihood at EM iteration {i}")
        log.append(ll)
        model = replace(model, training_log=tuple(log))
        if callback is not None:
            callback(i, model, post)
        if prev_ll is not None and abs(ll - prev_ll) / max(abs(prev_ll), 1.0) < tol:
            break
        prev_ll = ll
        if i == max_iters - 1:
            break
        eff_mask = mask & post.used[None, :]
        C_new, d_new, psi_new = m_step(post, values, eff_mask)
        if mode == "orthogonal":
            C_new = orthogonalize(C_new)
            noise = np.full(D, float(psi_new.mean()))
        else:
            noise = psi_new
        model = SsgpfaModel(tuple(kernels), C_new, d_new, noise, mode=mode,
                            training_log=tuple(log))
    return model


def fa_likelihood(model: SsgpfaModel, values: np.ndarray, timestamps=None,
                  mask=None) -> float:
    """Static factor-analysis log-likelihood of the data.

    Treats each time point independently under the marginal
    y_t ~ N(d, Psi + C Ktt C^T), where Ktt is the diagonal of latent
    prior variances at that point. Invariant under rotations of C when
    the latent prior variances are equal. ``timestamps`` are needed only
    when some latent is nonstationary.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    D, T = values.shape
    if D != model.n_dims:
        raise ConfigError(f"model expects {model.n_dims} dimensions, data has {D}")
    mask = _normalize_mask(values, mask)
    C, d = model.loading, model.offset

    t_arr = None if timestamps is None else _as_time_array(timestamps, T)
    per_t_vars = _prior_variance_paths(model.kernels, T, t_arr)

    total = 0.0
    chol_cache = {}
    for t in range(T):
        sel = mask[:, t]
        if not sel.any():
            continue
        tau = per_t_vars[t]
        key = (tau.tobytes(), sel.tobytes())
        entry = chol_cache.get(key)
        if entry is None:
            cov = C[sel] @ (tau[:, None] * C[sel].T) + np.diag(model.noise[sel])
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise NumericalError(f"marginal covariance not positive definite at step {t}") \
                    from None
            entry = chol
            chol_cache[key] = entry
        resid = values[sel, t] - d[sel]
        alpha = np.linalg.solve(entry, resid)
        total += (-0.5 * sel.sum() * _LOG_2PI - np.log(np.diag(entry)).sum()
                  - 0.5 * float(alpha @ alpha))
    return float(total)


def _prior_variance_paths(kernels, T: int, timestamps):
    """Per-step prior variance of each latent over ``T`` steps;
    ``timestamps`` may be None when every kernel is stationary."""
    out = np.zeros((T, len(kernels)))
    for k, kern in enumerate(kernels):
        if kern.stationary:
            out[:, k] = float(kern.emission @ kern.stationary_cov @ kern.emission)
            continue
        if timestamps is None:
            raise ConfigError("nonstationary latents need timestamps for the prior variance")
        P = kern.initial_cov.copy()
        h = kern.emission
        out[0, k] = h @ P @ h
        for j in range(1, T):
            trans = discretize(kern, float(timestamps[j] - timestamps[j - 1]))
            P = trans.A @ P @ trans.A.T + trans.Q
            out[j, k] = h @ P @ h
    return list(out)


# --- online scoring -------------------------------------------------------


def score_online(model: SsgpfaModel, stream, *, rho: float = 1e-12,
                 log_rho: float | None = None, robust: bool = True,
                 robust_scope: str = "joint") -> Iterator[ScoredPoint]:
    """Score a stream point by point.

    ``stream`` is either a series object (``timestamps``, ``values``,
    ``mask`` attributes) or an iterable of ``(timestamp, values[, mask])``
    rows. Raw rows are standardized with the model's stored mean/std
    when present. The robust gate absorbs a point only if its joint
    predictive log-likelihood exceeds log(rho); ``robust_scope="per_dim"``
    instead masks individual dimensions that fall below the threshold
    (running the stacked filter). Orthogonal models otherwise filter
    per latent until the first partially observed row and stacked from
    there on. Yields one :class:`ScoredPoint` per row in a single
    streaming pass with O(1) memory.
    """
    log_rho = _log_threshold(rho, log_rho)
    if robust_scope not in ("joint", "per_dim"):
        raise ConfigError(f"unknown robust scope {robust_scope!r}")
    gate = robust_scope if robust else None
    kernel, obs, slices = assemble_joint(model)
    if model.mode == "orthogonal" and gate != "per_dim":
        blocks, loading = model.kernels, model.loading
    else:
        blocks, loading = (kernel,), None
    steps = _filter_steps(_stream_rows(model, stream), blocks, obs, log_rho=log_rho,
                          gate=gate, loading=loading)
    return _scored_points(model, slices, steps)


def _stream_rows(model: SsgpfaModel, stream):
    """``(timestamp, y, observed)`` per stream row, with ``y``
    standardized by the model's stored mean/std when present."""
    if hasattr(stream, "timestamps") and hasattr(stream, "values"):
        mask = getattr(stream, "mask", None)
        rows = zip(stream.timestamps, np.asarray(stream.values, dtype=float).T,
                   repeat(None) if mask is None else np.asarray(mask).T)
    else:
        rows = ((row[0], np.atleast_1d(np.asarray(row[1], dtype=float)),
                 None if len(row) == 2 else row[2]) for row in stream)
    for i, (t, y, m) in enumerate(rows):
        if y.shape != (model.n_dims,):
            raise ConfigError(
                f"row {i} has {y.shape[0] if y.ndim == 1 else y.shape} values, "
                f"model expects {model.n_dims}"
            )
        if model.input_mean is not None:
            y = (y - model.input_mean) / model.input_std
        finite = np.isfinite(y)
        yield float(t), y, finite if m is None else np.asarray(m, dtype=bool) & finite


def _scored_points(model: SsgpfaModel, slices: list, steps) -> Iterator[ScoredPoint]:
    """One :class:`ScoredPoint` per filter step, with its per-latent
    attribution. ``slices`` are the latents' state slices in the stacked
    layout; in the per-latent layout block k holds latent k alone."""
    K = model.n_latents
    C, d = model.loading, model.offset
    C_sq = C ** 2
    emissions = [k.emission for k in model.kernels]
    per_latent = _per_latent_groups(K)
    stacked = [list(enumerate(slices))]
    for step in steps:
        y, row, marginals = step.y, step.observed, step.marginals
        if not row.any():
            yield ScoredPoint(step.timestamp, float("nan"), np.full(model.n_dims, np.nan), True,
                              np.full(K, np.nan), float("nan"))
            continue
        mu_hat = np.empty(K)
        s_pred = np.empty(K)
        for group, st in zip(per_latent if marginals is None else stacked, step.predicted):
            for k, sk in group:
                h = emissions[k]
                mu_hat[k] = h @ st.mean[sk]
                s_pred[k] = h @ st.cov[sk, sk] @ h
        if marginals is None:
            # per-latent step, so a full row and orthonormal C:
            # y_i ~ N((C mu + d)_i, (C^2 s)_i + sigma^2)
            mean_y = C @ mu_hat + d
            var_y = C_sq @ s_pred + model.noise
            marginals = -0.5 * (_LOG_2PI + np.log(var_y) + (y - mean_y) ** 2 / var_y)
        M, noise_vars = explain._projection(model, row)
        v_proj = M @ (y - d)[row]
        latent_nlls = np.array([
            explain.scalar_nll(float(v_proj[k]), float(mu_hat[k]),
                               float(s_pred[k] + noise_vars[k]))
            for k in range(K)
        ])
        recon = explain.reconstruction_error(model, y, v_proj, row)
        yield ScoredPoint(step.timestamp, -step.log_likelihood, -marginals, step.accepted,
                          latent_nlls, recon)


# --- univariate hyperparameter fitting ------------------------------------


def fit_univariate(y: np.ndarray, timestamps,
                   kernel_expression: str | StateSpaceKernel = DEFAULT_UNIVARIATE_KERNEL, *,
                   noise_variance: float = 0.1, optimize: bool = True,
                   max_outer: int = 20) -> SsgpfaModel:
    """Fit a univariate GP model, optionally refining hyperparameters.

    A string is read once with :func:`parse_kernel`. Hyperparameters
    (every parameter of every base kernel in the tree, including
    arguments an expression leaves at their defaults, plus the
    observation-noise variance) are optimized in log space with
    L-BFGS-B and finite-difference gradients, capped at ``max_outer``
    iterations. The best parameters seen are kept, so the result is
    never worse than the starting point; the given kernel and noise
    variance are returned unchanged when nothing beats them, as with
    ``optimize=False``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    T = y.shape[0]
    if T < 2:
        raise InputError("need at least two observations to fit")
    t_arr = _as_time_array(timestamps, T)
    if not math.isfinite(noise_variance) or noise_variance <= 0.0:
        raise ParameterError(f"noise_variance must be positive, got {noise_variance!r}")
    start = kernel_expression if isinstance(kernel_expression, StateSpaceKernel) \
        else parse_kernel(kernel_expression)

    failures = (ConfigError, ParameterError, NumericalError, FloatingPointError)
    best = {"f": math.inf, "kernel": start, "noise": float(noise_variance)}

    def score(kernel: StateSpaceKernel, nv: float) -> float:
        """Negative filter log-likelihood (1e12 where it fails); keeps
        the best pair seen."""
        try:
            obs = univariate_observation_model(kernel, nv)
            total = 0.0
            for step in robust_filter(t_arr, y[None, :], kernel, obs, robust=False):
                if math.isfinite(step.log_likelihood):
                    total += step.log_likelihood
        except failures:
            return 1e12
        f = -total
        if not math.isfinite(f):
            return 1e12
        if f < best["f"]:
            best.update(f=f, kernel=kernel, noise=nv)
        return f

    def objective(theta: np.ndarray) -> float:
        params = np.exp(theta)
        try:
            kernel = _rebuild(start, iter(params[:-1]))
        except failures:
            return 1e12
        return score(kernel, float(params[-1]))

    score(start, float(noise_variance))
    if optimize and not math.isfinite(best["f"]):
        raise NumericalError("initial hyperparameters give a non-finite likelihood")
    if optimize:
        from scipy.optimize import minimize

        theta0 = np.log(np.append(_leaf_values(start), noise_variance))
        minimize(objective, theta0, method="L-BFGS-B", options={"maxiter": max_outer})
    return SsgpfaModel(
        kernels=(best["kernel"],),
        loading=np.array([[1.0]]),
        offset=np.zeros(1),
        noise=np.array([best["noise"]]),
        mode="orthogonal",
        training_log=(-best["f"],) if math.isfinite(best["f"]) else (),
    )


# --- training entry point --------------------------------------------------


def train_series(series, *, kernels=None, mode: str = "orthogonal",
                 max_iters: int = 50, tol: float = 1e-6,
                 robust_log_rho: float | None = None, optimize: bool = True,
                 noise_variance: float = 0.1, max_outer: int = 20) -> SsgpfaModel:
    """Standardize a series and train the matching model type.

    Univariate input fits kernel hyperparameters directly
    (:func:`fit_univariate`); multivariate input runs EM with the given
    (or default) latent kernels. The returned model carries the
    standardization so it can score raw streams.
    """
    from .metrics import standardize

    values = np.atleast_2d(np.asarray(series.values, dtype=float))
    timestamps = np.asarray(series.timestamps, dtype=float)
    mask = getattr(series, "mask", None)
    mask = _normalize_mask(values, mask)
    masked = np.where(mask, values, np.nan)
    scaled, mean, std = standardize(masked)
    D = values.shape[0]

    if D == 1:
        expr = DEFAULT_UNIVARIATE_KERNEL
        if kernels:
            if len(kernels) > 1:
                raise ConfigError("univariate series take a single kernel expression")
            expr = kernels[0]
        model = fit_univariate(scaled[0], timestamps, expr,
                               noise_variance=noise_variance, optimize=optimize,
                               max_outer=max_outer)
    else:
        if kernels is None:
            n_latents = min(D, len(DEFAULT_MULTIVARIATE_LENGTHSCALES))
            kernels = default_multivariate_kernels(n_latents)
        model = fit_em(scaled, timestamps, kernels, mode=mode, max_iters=max_iters,
                       tol=tol, mask=mask, robust_log_rho=robust_log_rho)
    return replace(model, input_mean=mean, input_std=std)


# --- serialization ----------------------------------------------------------


def model_to_dict(model: SsgpfaModel) -> dict:
    """JSON-ready dictionary capturing the full model."""
    noise = model.noise
    if model.mode == "orthogonal":
        noise_entry = {"kind": "isotropic", "variance": float(noise[0])}
    else:
        noise_entry = {"kind": "diagonal", "variances": [float(x) for x in noise]}
    out = {
        "format": _MODEL_FORMAT,
        "format_version": _MODEL_VERSION,
        "mode": model.mode,
        "kernels": [k.expression for k in model.kernels],
        "loading": [[float(x) for x in row] for row in model.loading],
        "offset": [float(x) for x in model.offset],
        "noise": noise_entry,
        "training_log": list(model.training_log),
    }
    if model.input_mean is not None:
        out["standardization"] = {
            "mean": [float(x) for x in model.input_mean],
            "std": [float(x) for x in model.input_std],
        }
    return out


def model_from_dict(data: dict) -> SsgpfaModel:
    """Rebuild a model from :func:`model_to_dict` output.

    Rejects unknown formats and newer format versions with a
    :class:`ConfigError` naming the version, so stale readers fail
    loudly instead of misreading fields.
    """
    if not isinstance(data, dict):
        raise ConfigError("model document must be a JSON object")
    fmt = data.get("format")
    if fmt != _MODEL_FORMAT:
        raise ConfigError(f"not a model document (format {fmt!r})")
    version = data.get("format_version")
    if version != _MODEL_VERSION:
        raise ConfigError(
            f"unsupported model format version {version!r}; this build reads version "
            f"{_MODEL_VERSION}"
        )
    try:
        kernels = tuple(parse_kernel(text) for text in data["kernels"])
        loading = np.array(data["loading"], dtype=float)
        offset = np.array(data["offset"], dtype=float)
        noise_entry = data["noise"]
        if noise_entry["kind"] == "isotropic":
            noise = np.full(loading.shape[0], float(noise_entry["variance"]))
        elif noise_entry["kind"] == "diagonal":
            noise = np.array(noise_entry["variances"], dtype=float)
        else:
            raise ConfigError(f"unknown noise kind {noise_entry['kind']!r}")
        mode = data["mode"]
        training_log = tuple(data.get("training_log", ()))
    except KeyError as exc:
        raise ConfigError(f"model document is missing field {exc.args[0]!r}") from None
    std_entry = data.get("standardization")
    input_mean = input_std = None
    if std_entry is not None:
        input_mean = np.array(std_entry["mean"], dtype=float)
        input_std = np.array(std_entry["std"], dtype=float)
    return SsgpfaModel(kernels, loading, offset, noise, mode=mode,
                       training_log=training_log, input_mean=input_mean,
                       input_std=input_std)


def save_model(model: SsgpfaModel, path) -> None:
    """Write the model as indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> SsgpfaModel:
    """Read a model written by :func:`save_model`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not valid JSON: {exc}") from None
    return model_from_dict(data)
