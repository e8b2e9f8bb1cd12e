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
the E-step smooths back over the filter's own chain and online
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
from functools import partial, reduce
from itertools import repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from . import explain
from .errors import ConfigError, InputError, NumericalError, ParameterError
from .kalman import (
    DEFAULT_RHO,
    GaussianState,
    LinearObservationModel,
    TransitionCache,
    _LOG_2PI,
    _filter_steps,
    _log_threshold,
    _update,
    log_likelihood_gradient,
    rts_smooth,
)
from .kernels import (StateSpaceKernel, _block_diag, _leaf_values, _rebuild, add, matern32,
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
    "default_multivariate_kernels",
    "DEFAULT_UNIVARIATE_KERNEL",
    "DEFAULT_MULTIVARIATE_LENGTHSCALES",
]

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
    ``reconstruction_error`` is the distance from the latent subspace. On
    a fully observed row of an orthogonal model the score is exactly
    sum(latent_nlls) + ((D - K) log(2 pi sigma^2) + reconstruction_error^2
    / sigma^2) / 2.
    """

    timestamp: float
    score: float
    marginal_nlls: np.ndarray
    accepted: bool
    latent_nlls: np.ndarray
    reconstruction_error: float


def assemble_joint(model: SsgpfaModel):
    """Joint state-space form stacking every latent.

    Returns ``(kernel, obs, readout)``: the block dynamics kernel over
    the stacked state x; the (K, L) ``readout`` whose row k holds h_k on
    latent k's slice of x, so that the latents are z = readout x; and the
    observation model y = C z + d + noise, with emission
    ``C @ readout``, noise diag(Psi) and offset d.
    """
    readout = _block_diag(*[k.emission[None, :] for k in model.kernels])
    obs = LinearObservationModel(H=model.loading @ readout, R=model.noise.copy(),
                                 offset=model.offset.copy())
    return reduce(add, model.kernels), obs, readout


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

    A block's smoothed means M (T, L) and covariances P (T, L, L) give
    its latents' as ``M @ E.T`` and ``E @ P @ E.T``, where E is the
    ``readout`` of :func:`assemble_joint`, or h_k[None, :] for block k.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    D, T = values.shape
    if D != model.n_dims:
        raise ConfigError(f"model expects {model.n_dims} dimensions, data has {D}")
    t_arr = _as_time_array(timestamps, T)
    mask = _normalize_mask(values, mask)
    K = model.n_latents
    kernel, obs, readout = assemble_joint(model)
    partial = (mask.any(axis=0) & ~mask.all(axis=0)).any()
    if model.mode == "orthogonal" and not partial:
        blocks, loading = model.kernels, model.loading
        readouts = [k.emission[None, :] for k in model.kernels]
    else:
        blocks, loading, readouts = (kernel,), None, [readout]

    steps = _filter_steps(zip(t_arr.tolist(), values.T, mask.T), blocks, obs,
                          log_rho=robust_log_rho,
                          gate=None if robust_log_rho is None else "joint", loading=loading)
    # keep the chain the smoother reads, not each row's attribution terms
    chain = [(s.updated, s.predicted, s.transitions, s.accepted, s.log_likelihood) for s in steps]
    updated, predicted, transitions, accepted, lls = zip(*chain)
    seen = mask.any(axis=0)
    used = seen & np.array(accepted, dtype=bool)
    total_ll = sum(ll for ll, row in zip(lls, seen) if row)

    means = np.zeros((T, K))
    covs = np.zeros((T, K, K))
    lo = 0
    for b, E in enumerate(readouts):
        hi = lo + E.shape[0]
        smoothed = rts_smooth([s[b] for s in updated], [s[b] for s in predicted[1:]],
                              [tr[b] for tr in transitions[1:]])
        means[:, lo:hi] = np.array([st.mean for st in smoothed]) @ E.T
        covs[:, lo:hi, lo:hi] = E @ np.array([st.cov for st in smoothed]) @ E.T
        lo = hi
    return LatentPosterior(means, covs, float(total_ll), used)


def m_step(posterior: LatentPosterior, values: np.ndarray, mask=None):
    """Closed-form maximizers of the expected complete-data log-likelihood.

    One expression for every dimension and mask: dimension i solves the
    coupled normal equations for (C_i, d_i) jointly (centered form), then
    its noise variance given both, with the sums, the means and n_i taken
    over the steps where i is observed:

        C*_i = sum (y_it - ybar_i)(mu_t - mubar_i)^T
               [sum Sigma_t + (mu_t - mubar_i)(mu_t - mubar_i)^T]^{-1}
        d*_i = ybar_i - C*_i mubar_i
        Psi*_ii = 1/n_i sum [ (y_it - C*_i mu_t - d*_i)^2 + C*_i Sigma_t C*_i^T ]

    Sums are the (D, T) mask times latent moments about their overall mean
    (digits are lost only where i is seen far from it); one batched solve
    gives C. Rows with cond > 1e12 or non-finite get a 1e-9 ridge, one warning.

    Returns (C, d, psi_diag).
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    D, T = values.shape
    means, covs = posterior.means, posterior.covs
    if means.shape[0] != T:
        raise ParameterError("posterior length does not match the data")
    mask = _normalize_mask(values, mask)
    K = means.shape[1]
    n = mask.sum(axis=1)
    if not n.all():
        raise InputError(f"dimension {np.argmin(n)} has no observed values")
    W = mask.astype(float)
    ybar = np.where(mask, values, 0.0).sum(axis=1) / n
    Y = np.where(mask, values - ybar[:, None], 0.0)
    shift = means.mean(axis=0)
    M = means - shift
    mubar = W @ M / n[:, None]
    Scov = (W @ covs.reshape(T, K * K)).reshape(D, K, K)
    Smm = (W @ (M[:, :, None] * M[:, None, :]).reshape(T, K * K)).reshape(D, K, K)
    Szz = Scov + Smm - n[:, None, None] * mubar[:, :, None] * mubar[:, None, :]
    singular = ~(np.linalg.cond(Szz) <= 1e12)  # non-finite or above 1e12
    if singular.any():
        warnings.warn("singular latent second-moment matrix; applying ridge regularization",
                      stacklevel=2)
        Szz[singular] += 1e-9 * np.eye(K)
    C = np.linalg.solve(Szz, (Y @ M)[:, :, None])[:, :, 0]
    d = ybar - (C * (mubar + shift)).sum(axis=1)
    resid = Y - C @ M.T + (C * mubar).sum(axis=1)[:, None]
    cross = np.einsum("ik,ikl,il->i", C, Scov, C)
    psi = ((W * resid ** 2).sum(axis=1) + cross) / n
    return C, d, np.maximum(psi, 1e-12)


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
    when some latent is nonstationary. Each row is scored by the filter's
    own update from the prior N(0, diag(Ktt)).
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    D, T = values.shape
    if D != model.n_dims:
        raise ConfigError(f"model expects {model.n_dims} dimensions, data has {D}")
    mask = _normalize_mask(values, mask)
    obs = LinearObservationModel(H=model.loading, R=model.noise, offset=model.offset)

    t_arr = None if timestamps is None else _as_time_array(timestamps, T)
    per_t_vars = _prior_variance_paths(model.kernels, T, t_arr)

    total = 0.0
    for t, (y, sel, tau) in enumerate(zip(values.T, mask.T, per_t_vars)):
        n_obs = np.count_nonzero(sel)
        if not n_obs:
            continue
        prior = GaussianState(np.zeros(tau.size), np.diag(tau))
        try:
            total += _update(prior, y, obs, sel, n_obs)[4]
        except NumericalError as exc:
            raise NumericalError(f"time index {t}: {exc}") from None
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
        cache = TransitionCache(kern)
        for j in range(1, T):
            trans = cache.get(float(timestamps[j] - timestamps[j - 1]))
            P = trans.A @ P @ trans.A.T + trans.Q
            out[j, k] = h @ P @ h
    return list(out)


# --- online scoring -------------------------------------------------------


def score_online(model: SsgpfaModel, stream, *, rho: float = DEFAULT_RHO,
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
    kernel, obs, readout = assemble_joint(model)
    if model.mode == "orthogonal" and gate != "per_dim":
        blocks, loading = model.kernels, model.loading
    else:
        blocks, loading = (kernel,), None
    steps = _filter_steps(_stream_rows(model, stream), blocks, obs, log_rho=log_rho,
                          gate=gate, loading=loading)
    return _scored_points(model, readout, steps)


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


def _scored_points(model: SsgpfaModel, readout: np.ndarray, steps) -> Iterator[ScoredPoint]:
    """One :class:`ScoredPoint` per filter step. A per-latent row reads the
    filter's own terms: with r = y - d, y - E[y] = (r - C u) + C v and
    Var y = C^2 (s - sigma^2) + sigma^2. Stacked rows read the latents'
    predictions through ``readout`` and project by ``explain``'s rule."""
    K = model.n_latents
    C, d = model.loading, model.offset
    C_sq, sigma2 = C ** 2, model.noise[0]
    for step in steps:
        y, row, marginals = step.y, step.observed, step.marginals
        if not row.any():
            yield ScoredPoint(step.timestamp, float("nan"), np.full(model.n_dims, np.nan), True,
                              np.full(K, np.nan), float("nan"))
            continue
        if step.latent is not None:
            v, S, lls, resid, recon = step.latent
            dev, var = resid + C @ np.concatenate(v), C_sq @ (np.ravel(S) - sigma2) + model.noise
            marginals = -0.5 * (_LOG_2PI + np.log(var) + dev * dev / var)
            latent_nlls = -np.array(lls)
        else:
            st = step.predicted[0]
            mu_hat = readout @ st.mean
            s_pred = (readout @ st.cov @ readout.T).diagonal()
            M, noise_vars = explain._projection(model, row)
            v_proj = M @ (y - d)[row]
            latent_nlls = np.array([explain.scalar_nll(float(x), float(m), float(s + n))
                                    for x, m, s, n in zip(v_proj, mu_hat, s_pred, noise_vars)])
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
    L-BFGS-B on the exact gradient of the filter likelihood
    (:func:`~ssgpfa.kalman.log_likelihood_gradient`), capped at
    ``max_outer`` iterations. A trial point where the filter fails
    scores 1e12 with a zero gradient. The best parameters seen are
    kept, so the result is never worse than the starting point; the
    given kernel and noise variance are returned unchanged when nothing
    beats them, as with ``optimize=False``.
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

    def objective(theta: np.ndarray, given: tuple | None = None):
        """Negative filter log-likelihood at the log-parameters ``theta``
        (of the ``(kernel, noise variance)`` pair ``given`` instead, when
        passed) and its gradient; keeps the best pair seen."""
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                if given is None:
                    params = np.exp(theta)
                    given = _rebuild(start, iter(params[:-1])), float(params[-1])
                ll, grad = log_likelihood_gradient(t_arr, y, *given)
        except failures:
            return 1e12, np.zeros_like(theta)
        if not (math.isfinite(ll) and np.isfinite(grad).all()):
            return 1e12, np.zeros_like(theta)
        if -ll < best["f"]:
            best.update(f=-ll, kernel=given[0], noise=given[1])
        return -ll, -grad

    theta0 = np.log(np.append(_leaf_values(start), noise_variance))
    objective(theta0, (start, float(noise_variance)))
    if optimize and not math.isfinite(best["f"]):
        raise NumericalError("initial hyperparameters give a non-finite likelihood")
    if optimize:
        from scipy.optimize import minimize

        minimize(objective, theta0, jac=True, method="L-BFGS-B", options={"maxiter": max_outer})
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
                 robust_log_rho: float | None = None, optimize: bool = True) -> SsgpfaModel:
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
        model = fit_univariate(scaled[0], timestamps, expr, optimize=optimize)
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
    loudly instead of misreading fields. A missing or malformed field
    raises a :class:`ConfigError` naming the field.
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
    floats = partial(np.array, dtype=float)
    training_log = ()
    if "training_log" in data:
        training_log = _field(data, "training_log", lambda log: tuple(map(float, log)))
    input_mean = input_std = None
    if data.get("standardization") is not None:
        input_mean, input_std = _field(data, "standardization",
                                       lambda std: (floats(std["mean"]), floats(std["std"])))
    return SsgpfaModel(_field(data, "kernels", lambda texts: tuple(map(parse_kernel, texts))),
                       _field(data, "loading", floats), _field(data, "offset", floats),
                       _field(data, "noise", _noise_from_entry), mode=_field(data, "mode", str),
                       training_log=training_log, input_mean=input_mean, input_std=input_std)


def _field(entry: dict, name: str, read: Callable):
    """``read(entry[name])``, raising a :class:`ConfigError` that names the
    field when it is missing or ``read`` cannot take it."""
    try:
        return read(entry[name])
    except KeyError as exc:
        raise ConfigError(f"model document is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model field {name!r} is malformed: {exc}") from None


def _noise_from_entry(entry: dict):
    """The isotropic noise variance or diagonal variances of a noise entry."""
    if entry["kind"] == "isotropic":
        return float(entry["variance"])
    if entry["kind"] == "diagonal":
        return np.array(entry["variances"], dtype=float)
    raise ConfigError(f"unknown noise kind {entry['kind']!r}")


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
