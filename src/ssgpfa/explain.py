"""Per-latent attribution of anomaly scores.

Once a point has been scored, the question "which latent process is
surprised?" is answered by projecting the observation back into latent
space and scoring each coordinate under that latent's one-step
predictive distribution. With an orthogonal loading matrix the
projection is a plain transpose; otherwise it falls back to the normal
equations (least squares), which mixes latents and is flagged with a
warning.

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


def project_latents(model, y: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Project an observation into latent coordinates.

    Orthogonal mode uses v = C^T (y - d). Unconstrained loadings are
    handled by least squares on the available rows, with a warning
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
    r = y - model.offset
    if model.mode == "orthogonal" and mask.all():
        return C.T @ r
    if model.mode != "orthogonal":
        warnings.warn(
            "projecting latents through non-orthogonal loadings via least squares; "
            "attributions may blend latents",
            stacklevel=2,
        )
    if not mask.any():
        return np.full(C.shape[1], np.nan)
    sol, *_ = np.linalg.lstsq(C[mask], r[mask], rcond=None)
    return sol


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
