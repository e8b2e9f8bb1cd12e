"""Linear-time online anomaly detection with latent GP factors.

A multivariate time series is modeled as a small set of independent
Gaussian-process latents, expressed in state-space form and mixed
through an orthonormal loading matrix. Filtering gives O(1)-per-point
anomaly scores with a robust gate against outliers, EM fits the
mixing parameters, and per-latent attribution explains which latent
process an anomaly disturbed.

Typical flow::

    from ssgpfa import matern32, cosine, fit_em, score_online

    model = fit_em(train_values, train_times, [matern32(50.0), cosine(24.0)])
    for point in score_online(model, stream):
        handle(point.score, point.accepted, point.latent_nlls)
"""

# The star imports load the modules, errors first and data last; the
# module names imported after them only build __all__.
from .errors import *  # noqa: F403
from .kernels import *  # noqa: F403
from .kalman import *  # noqa: F403
from .model import *  # noqa: F403
from .explain import *  # noqa: F403
from .metrics import *  # noqa: F403
from .data import *  # noqa: F403
from . import data, errors, explain, kalman, kernels, metrics, model

__version__ = "0.1.0"

__all__ = [name for module in (errors, kernels, kalman, model, explain, metrics, data)
           for name in module.__all__] + ["__version__"]
