"""Per-latent attribution of anomaly scores.

Once a point has been scored, the question "which latent process is
surprised?" is answered by projecting the observation back into latent
space and scoring each coordinate under that latent's one-step
predictive distribution.

One rule, :func:`_projection`, picks the projection for every caller.
An orthogonal model on a fully observed row projects with the plain
transpose C^T. Otherwise the projection is the pseudoinverse of the
observed rows of C: the least-squares, minimum-norm map, which mixes
latents. It is solved from a Cholesky factor of the K x K Gram of those
rows, and by an SVD only when their columns are (nearly) dependent.
:func:`project_latents` warns when it is called on a non-orthogonal
model. Online scoring's stacked rows use the same rule without the
warning; its per-latent filter rows already hold u = C^T (y - d).

The reconstruction error ||(y - d) - C v|| measures how far the
observation lies outside the latent subspace altogether; offsets and
sensor faults that no latent can express show up here.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ParameterError

__all__ = ["project_latents", "scalar_nll", "reconstruction_error"]

_LOG_2PI = math.log(2.0 * math.pi)

# Below this sine of the angle between an observed loading column and
# the span of the columns before it, the projection takes the SVD
# pseudoinverse: the Gram's Cholesky factor loses accuracy as sine^-2,
# and meets exact dependence at about sqrt(machine epsilon).
_MIN_SINE = 1e-3


def _projection(model, observed: np.ndarray):
    """The map M from the residuals y - d on the observed rows to latent
    coordinates, and the observation-noise variance diag(M Psi M^T)
    that each coordinate carries.

    M is C^T (noise sigma^2) for an orthogonal model on a fully observed
    row, otherwise the pseudoinverse of the observed rows C_o of C:
    (C_o^T C_o)^-1 C_o^T from a Cholesky factor of the Gram while the
    factor's diagonal shows independent columns, ``np.linalg.pinv``
    otherwise.
    """
    C = model.loading
    if model.mode == "orthogonal" and observed.all():
        return C.T, np.full(C.shape[1], model.noise[0])
    C_obs = C[observed]
    gram = C_obs.T @ C_obs
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        chol = None
    if chol is not None and (chol.diagonal() > _MIN_SINE * np.sqrt(gram.diagonal())).all():
        chol_inv = np.linalg.inv(chol)
        M = chol_inv.T @ (chol_inv @ C_obs.T)
    else:
        M = np.linalg.pinv(C_obs)
    return M, np.einsum("kd,d,kd->k", M, model.noise[observed], M)


def project_latents(model, y: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Project an observation into latent coordinates by :func:`_projection`.

    Orthogonal mode on a fully observed row uses v = C^T (y - d).
    Otherwise the pseudoinverse of the observed rows of C gives the
    least-squares coordinates, with a warning on non-orthogonal models
    because the projection then blends latents.
    """
    C = model.loading
    y = np.asarray(y, dtype=float)
    if y.shape != (C.shape[0],):
        raise ParameterError(f"observation must have length {C.shape[0]}, got {y.shape}")
    if mask is None:
        mask = np.isfinite(y)
    else:
        mask = np.asarray(mask, dtype=bool) & np.isfinite(y)
    if model.mode != "orthogonal":
        warnings.warn(
            "projecting latents through non-orthogonal loadings via least squares; "
            "attributions may blend latents",
            stacklevel=2,
        )
    if not mask.any():
        return np.full(C.shape[1], np.nan)
    return _projection(model, mask)[0] @ (y - model.offset)[mask]


def scalar_nll(x: float, mean: float, var: float) -> float:
    """Negative log-density of N(mean, var) at x."""
    if var <= 0.0 or not math.isfinite(var):
        return math.inf
    return 0.5 * (_LOG_2PI + math.log(var) + (x - mean) ** 2 / var)


def reconstruction_error(model, y: np.ndarray, v: np.ndarray,
                         mask: np.ndarray | None = None) -> float:
    """Euclidean distance between (y - d) and its latent reconstruction C v,
    restricted to observed dimensions."""
    y = np.asarray(y, dtype=float)
    if mask is None:
        mask = np.isfinite(y)
    else:
        mask = np.asarray(mask, dtype=bool) & np.isfinite(y)
    if not mask.any() or not np.all(np.isfinite(v)):
        return float("nan")
    resid = (y - model.offset)[mask] - model.loading[mask] @ v
    return float(np.linalg.norm(resid))
