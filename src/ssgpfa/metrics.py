"""Standardization and range-adjusted anomaly-detection metrics.

Scoring quality is judged with the point-adjust protocol common in
time-series anomaly benchmarks: a contiguous run of anomalous labels
counts as fully detected as soon as any single point inside it is
flagged, after which precision/recall/F1 are computed pointwise on the
adjusted flags. A detector is flagged at threshold t wherever
score > t (strictly). NaN scores never flag.

The threshold sweep evaluates every distinct score value plus the two
infinities, so the reported best F1 is exact, not grid-approximated.
Counts have a closed form at every threshold: a label run is detected
below its highest score and a non-label point flags below its own, so
a sort and a binary search give a full curve in O(T log T).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InputError

__all__ = [
    "EvalReport",
    "standardize",
    "range_adjusted_metrics",
    "best_f1_sweep",
    "sweep_curve",
]


def standardize(train: np.ndarray, test: np.ndarray | None = None):
    """Standardize with statistics estimated from the training data only.

    Means and standard deviations (population, ddof=0) are computed per
    dimension over the finite entries of ``train``; the same affine
    transform is applied to ``test`` when given. A dimension with zero
    variance keeps its values centered but unscaled (std clamped to 1,
    with a warning); a dimension with no finite training entries is an
    error.

    Returns ``(scaled_train, mean, std)`` or, with a test array,
    ``(scaled_train, scaled_test, mean, std)``. Shapes are preserved and
    NaN entries stay NaN.
    """
    train = np.asarray(train, dtype=float)
    squeeze = train.ndim == 1
    mat = np.atleast_2d(train)
    if mat.ndim != 2:
        raise InputError(f"values must be 1- or 2-dimensional, got shape {train.shape}")
    finite_counts = np.isfinite(mat).sum(axis=1)
    empty = np.nonzero(finite_counts == 0)[0]
    if empty.size:
        raise InputError(f"dimension {empty[0]} has no finite values to standardize")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(mat, axis=1)
        std = np.nanstd(mat, axis=1)
    flat = std == 0.0
    if flat.any():
        warnings.warn(
            f"dimension {np.nonzero(flat)[0][0]} has zero variance; leaving its scale unchanged",
            stacklevel=2,
        )
        std = np.where(flat, 1.0, std)
    scaled = (mat - mean[:, None]) / std[:, None]
    scaled = scaled[0] if squeeze else scaled
    if test is None:
        return scaled, mean, std
    test = np.asarray(test, dtype=float)
    test_squeeze = test.ndim == 1
    test_mat = np.atleast_2d(test)
    if test_mat.shape[0] != mat.shape[0]:
        raise InputError(
            f"test has {test_mat.shape[0]} dimensions, train has {mat.shape[0]}"
        )
    scaled_test = (test_mat - mean[:, None]) / std[:, None]
    return scaled, (scaled_test[0] if test_squeeze else scaled_test), mean, std


@dataclass(frozen=True)
class EvalReport:
    """Detection quality at one threshold.

    Counts are pointwise after range adjustment. ``threshold`` is set
    when the report came out of a sweep.
    """

    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int
    threshold: float | None = None


def _validate_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=float).reshape(-1)
    labels = np.asarray(labels)
    if labels.shape != scores.shape:
        raise InputError(
            f"scores and labels must have equal length, got {scores.shape} and {labels.shape}"
        )
    uniq = np.unique(labels)
    if not np.all(np.isin(uniq, (0, 1, False, True))):
        raise InputError(f"labels must be binary, found values {uniq[:5]!r}")
    labels = labels.astype(bool)
    if not labels.any():
        raise EvaluationError("labels contain no anomalous points; recall is undefined")
    return scores, labels


def _label_runs(labels: np.ndarray):
    """Contiguous runs of True as arrays of half-open starts and stops."""
    edges = np.diff(np.concatenate(([0], labels.view(np.int8), [0])))
    return np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]


def _counts(scores: np.ndarray, labels: np.ndarray, thresholds: np.ndarray, adjust: bool):
    """True, false and missed positives at every threshold at once.

    A label run (each label point alone without ``adjust``) counts in
    full at every threshold below its highest score, and a non-label
    point flags below its own score. NaN counts as -inf: it never flags.
    """
    clean = np.where(np.isnan(scores), -np.inf, scores)
    starts, stops = _label_runs(labels)
    lengths = stops - starts if adjust else np.ones(np.count_nonzero(labels), dtype=int)
    peaks = np.maximum.reduceat(clean[labels], np.cumsum(lengths) - lengths)
    order = np.argsort(peaks)
    covered = np.concatenate(([0], np.cumsum(lengths[order])))
    tp = covered[-1] - covered[np.searchsorted(peaks[order], thresholds, side="right")]
    negatives = np.sort(clean[~labels])
    fp = negatives.size - np.searchsorted(negatives, thresholds, side="right")
    return tp, fp, covered[-1] - tp


def _report(tp: int, fp: int, fn: int, threshold: float | None = None) -> EvalReport:
    tp, fp, fn = int(tp), int(fp), int(fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(precision, recall, f1, tp, fp, fn, threshold)


def range_adjusted_metrics(scores, labels, threshold: float, *,
                           adjust: bool = True) -> EvalReport:
    """Precision/recall/F1 at a fixed threshold.

    Flags strictly above-threshold scores, expands flags to whole label
    runs when ``adjust`` is set, then counts pointwise.
    """
    scores, labels = _validate_scores_labels(scores, labels)
    threshold = float(threshold)
    (tp,), (fp,), (fn,) = _counts(scores, labels, np.array([threshold]), adjust)
    return _report(tp, fp, fn, threshold)


def _sweep(scores, labels, adjust: bool):
    """Every meaningful threshold, descending, with its counts."""
    scores, labels = _validate_scores_labels(scores, labels)
    desc = np.sort(scores[np.isfinite(scores)], kind="stable")[::-1]
    desc = np.concatenate(([math.inf], desc, [-math.inf]))
    thresholds = desc[np.concatenate(([True], desc[1:] != desc[:-1]))]
    return (thresholds, *_counts(scores, labels, thresholds, adjust))


def sweep_curve(scores, labels, *, adjust: bool = True) -> list[EvalReport]:
    """Evaluate every meaningful threshold, descending.

    Candidates are +inf, every distinct finite score, and -inf; the
    first report flags nothing and the last flags every point scored
    above -inf. Counts take the closed form of ``_counts``.
    """
    thresholds, tp, fp, fn = _sweep(scores, labels, adjust)
    return list(map(_report, tp.tolist(), fp.tolist(), fn.tolist(), thresholds.tolist()))


def best_f1_sweep(scores, labels, *, adjust: bool = True) -> EvalReport:
    """The threshold maximizing F1, with its report.

    Ties prefer higher precision, then the lower threshold.
    """
    thresholds, tp, fp, fn = _sweep(scores, labels, adjust)
    precision = np.divide(tp, tp + fp, out=np.zeros(tp.size), where=tp + fp > 0)
    recall = tp / (tp + fn)
    f1 = np.divide(2.0 * precision * recall, precision + recall, out=np.zeros(tp.size),
                   where=precision + recall > 0)
    i = np.lexsort((np.arange(tp.size), precision, f1))[-1]
    return _report(tp[i], fp[i], fn[i], float(thresholds[i]))
