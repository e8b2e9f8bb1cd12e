import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssgpfa import (
    EvalReport,
    EvaluationError,
    InputError,
    best_f1_sweep,
    range_adjusted_metrics,
    standardize,
    sweep_curve,
)


class TestStandardize:
    def test_train_only(self):
        scaled, mean, std = standardize(np.array([[0.0, 2.0]]))
        np.testing.assert_allclose(scaled, [[-1.0, 1.0]])
        np.testing.assert_allclose(mean, [1.0])
        np.testing.assert_allclose(std, [1.0])

    def test_test_uses_train_statistics(self):
        train = np.array([[0.0, 2.0]])
        test = np.array([[4.0]])
        tr, te, mean, std = standardize(train, test)
        np.testing.assert_allclose(tr, [[-1.0, 1.0]])
        np.testing.assert_allclose(te, [[3.0]])

    def test_constant_dimension_clamped_with_warning(self):
        train = np.array([[5.0, 5.0, 5.0], [0.0, 1.0, 2.0]])
        with pytest.warns(UserWarning, match="zero variance"):
            scaled, mean, std = standardize(train)
        np.testing.assert_allclose(scaled[0], [0.0, 0.0, 0.0])
        assert std[0] == 1.0

    def test_nan_entries_ignored_in_statistics(self):
        train = np.array([[0.0, np.nan, 2.0]])
        scaled, mean, std = standardize(train)
        assert mean[0] == pytest.approx(1.0)
        assert math.isnan(scaled[0, 1])

    def test_all_nan_dimension_rejected(self):
        with pytest.raises(InputError):
            standardize(np.array([[np.nan, np.nan]]))

    def test_test_dimension_mismatch(self):
        with pytest.raises(InputError):
            standardize(np.zeros((2, 5)) + np.arange(5), np.zeros((3, 4)))

    def test_univariate_vector_keeps_shape(self):
        scaled, mean, std = standardize(np.array([1.0, 3.0]))
        np.testing.assert_allclose(scaled, [-1.0, 1.0])
        assert scaled.shape == (2,)


class TestRangeAdjusted:
    def test_single_hit_fills_run(self):
        labels = np.array([0, 1, 1, 0])
        scores = np.array([0.0, 0.0, 5.0, 0.0])
        rep = range_adjusted_metrics(scores, labels, threshold=1.0)
        assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)
        assert rep.true_positives == 2
        assert rep.false_positives == 0

    def test_false_positive_outside_run(self):
        labels = np.array([0, 1, 1, 0])
        scores = np.array([5.0, 0.0, 0.0, 0.0])
        rep = range_adjusted_metrics(scores, labels, threshold=1.0)
        assert rep.true_positives == 0
        assert rep.false_positives == 1
        assert rep.false_negatives == 2
        assert rep.f1 == 0.0

    def test_no_flags_is_all_zero(self):
        labels = np.array([0, 1, 1, 0])
        rep = range_adjusted_metrics(np.zeros(4), labels, threshold=1.0)
        assert (rep.precision, rep.recall, rep.f1) == (0.0, 0.0, 0.0)

    def test_threshold_is_strict(self):
        labels = np.array([0, 1])
        scores = np.array([0.0, 1.0])
        at = range_adjusted_metrics(scores, labels, threshold=1.0)
        assert at.recall == 0.0  # score == threshold does not flag
        below = range_adjusted_metrics(scores, labels, threshold=0.999)
        assert below.recall == 1.0

    def test_nan_scores_never_flag(self):
        labels = np.array([0, 1, 0])
        scores = np.array([np.nan, np.nan, np.nan])
        rep = range_adjusted_metrics(scores, labels, threshold=-math.inf)
        assert rep.true_positives == 0
        assert rep.false_positives == 0

    def test_adjust_off_is_pointwise(self):
        labels = np.array([0, 1, 1, 0])
        scores = np.array([0.0, 5.0, 0.0, 0.0])
        adj = range_adjusted_metrics(scores, labels, threshold=1.0)
        raw = range_adjusted_metrics(scores, labels, threshold=1.0, adjust=False)
        assert adj.recall == 1.0
        assert raw.recall == 0.5

    def test_multiple_runs_independent(self):
        labels = np.array([1, 1, 0, 1, 1, 1, 0])
        scores = np.array([9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        rep = range_adjusted_metrics(scores, labels, threshold=1.0)
        assert rep.true_positives == 2  # first run filled, second missed
        assert rep.false_negatives == 3

    def test_all_negative_labels_rejected(self):
        with pytest.raises(EvaluationError):
            range_adjusted_metrics(np.zeros(4), np.zeros(4, dtype=int), threshold=0.5)

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(InputError):
            range_adjusted_metrics(np.zeros(3), np.array([0, 2, 1]), threshold=0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            range_adjusted_metrics(np.zeros(3), np.array([0, 1]), threshold=0.5)


def reference_report(scores, labels, threshold, adjust=True):
    """Flag-vector reference: flag scores strictly above the threshold,
    expand each label run that holds a flag with a plain loop, count."""
    labels = np.asarray(labels).astype(bool)
    with np.errstate(invalid="ignore"):
        flags = np.asarray(scores, dtype=float) > threshold  # NaN never flags
    if adjust:
        i = 0
        while i < len(labels):
            j = i  # labels[i:j] is the run starting at i, empty off a run
            while j < len(labels) and labels[j]:
                j += 1
            if flags[i:j].any():
                flags[i:j] = True
            i = max(j, i + 1)
    tp = int(np.sum(flags & labels))
    fp = int(np.sum(flags & ~labels))
    fn = int(np.sum(~flags & labels))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(precision, recall, f1, tp, fp, fn, float(threshold))


def reference_curve(scores, labels, adjust=True):
    """O(T^2) reference: one flag vector per candidate threshold, descending."""
    candidates = [math.inf] + sorted(
        {float(s) for s in scores if math.isfinite(s)}, reverse=True) + [-math.inf]
    return [reference_report(scores, labels, th, adjust) for th in candidates]


def reference_best(scores, labels, adjust=True):
    """Highest F1, then higher precision, then the lower threshold."""
    best = None
    for rep in reference_curve(scores, labels, adjust):
        if best is None or (rep.f1, rep.precision) >= (best.f1, best.precision):
            best = rep
    return best


class TestSweep:
    def test_curve_covers_all_distinct_flag_vectors(self):
        scores = np.array([0.3, 0.1, 0.9, 0.1, 0.5])
        labels = np.array([0, 0, 1, 0, 1])
        curve = sweep_curve(scores, labels)
        thresholds = [r.threshold for r in curve]
        assert thresholds[0] == math.inf
        assert thresholds[-1] == -math.inf
        assert set(thresholds[1:-1]) == {0.9, 0.5, 0.3, 0.1}

    def test_curve_reports_match_direct_evaluation(self):
        rng = np.random.default_rng(5)
        scores = np.round(rng.standard_normal(40), 1)
        labels = (rng.random(40) < 0.3).astype(int)
        labels[3] = 1
        for rep in sweep_curve(scores, labels):
            assert rep == reference_report(scores, labels, rep.threshold)

    def test_best_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            T = int(rng.integers(3, 14))
            scores = np.round(rng.standard_normal(T), 1)
            labels = (rng.random(T) < 0.35).astype(int)
            if labels.sum() == 0:
                labels[int(rng.integers(T))] = 1
            got = best_f1_sweep(scores, labels)
            want = reference_best(scores, labels)
            assert got.f1 == pytest.approx(want.f1, abs=1e-12), (scores, labels)
            assert got.precision == pytest.approx(want.precision, abs=1e-12)

    def test_tie_prefers_higher_precision(self):
        # two thresholds with equal F1; the higher-precision one wins
        scores = np.array([3.0, 2.0, 1.0])
        labels = np.array([1, 0, 1])
        best = best_f1_sweep(scores, labels)
        direct = reference_best(scores, labels)
        assert best.precision == direct.precision
        assert best.f1 == direct.f1

    def test_infinite_threshold_flags_nothing(self):
        scores = np.array([1.0, 2.0])
        labels = np.array([0, 1])
        top = sweep_curve(scores, labels)[0]
        assert top.threshold == math.inf
        assert top.true_positives == 0 and top.false_positives == 0

    def test_handles_nan_scores(self):
        scores = np.array([np.nan, 2.0, np.nan, 0.5])
        labels = np.array([0, 1, 1, 0])
        best = best_f1_sweep(scores, labels)
        want = reference_best(scores, labels)
        assert best.f1 == pytest.approx(want.f1)

    def test_positive_infinite_score_flags_below_inf(self):
        # an infinite score flags at every finite threshold, in the sweep
        # as at a fixed threshold
        scores = np.array([math.inf, 0.5])
        labels = np.array([1, 0])
        best = best_f1_sweep(scores, labels)
        assert best.f1 == 1.0 and best.threshold == 0.5
        assert best == range_adjusted_metrics(scores, labels, threshold=0.5)
        last = sweep_curve(scores, labels)[-1]
        assert (last.true_positives, last.false_positives) == (1, 1)


@st.composite
def scored_series(draw):
    T = draw(st.integers(3, 25))
    scores = draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=T, max_size=T))
    labels = draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))
    if sum(labels) == 0:
        labels[draw(st.integers(0, T - 1))] = 1
    # round so later monotone transforms cannot merge distinct scores
    # through floating-point absorption
    return np.round(np.array(scores), 3), np.array(labels)


@settings(max_examples=60, deadline=None)
@given(scored_series())
def test_property_sweep_best_is_exact(case):
    scores, labels = case
    assert best_f1_sweep(scores, labels).f1 == pytest.approx(
        reference_best(scores, labels).f1, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(scored_series(), st.floats(-4, 4, allow_nan=False))
def test_property_adjusted_recall_dominates_pointwise(case, threshold):
    scores, labels = case
    adj = range_adjusted_metrics(scores, labels, threshold=threshold)
    raw = range_adjusted_metrics(scores, labels, threshold=threshold, adjust=False)
    assert adj.recall >= raw.recall - 1e-12


@settings(max_examples=40, deadline=None)
@given(scored_series())
def test_property_monotone_transform_invariance(case):
    scores, labels = case
    a = best_f1_sweep(scores, labels)
    b = best_f1_sweep(np.tanh(scores / 10.0) * 3.0 + 1.0, labels)
    assert a.f1 == pytest.approx(b.f1, abs=1e-12)
    assert a.precision == pytest.approx(b.precision, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(scored_series(), st.floats(-6, 6, allow_nan=False))
def test_property_sweep_dominates_any_fixed_threshold(case, threshold):
    scores, labels = case
    best = best_f1_sweep(scores, labels)
    fixed = reference_report(scores, labels, threshold)
    assert best.f1 >= fixed.f1 - 1e-12


@st.composite
def awkward_series(draw):
    """Series with ties, NaN and infinite scores, sometimes all labels."""
    T = draw(st.integers(1, 25))
    score = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, math.nan, math.inf, -math.inf]),
        st.floats(-3, 3, allow_nan=False).map(lambda x: round(x, 1)))
    scores = draw(st.lists(score, min_size=T, max_size=T))
    if draw(st.booleans()):
        labels = [1] * T
    else:
        labels = draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))
        labels[draw(st.integers(0, T - 1))] = 1
    return np.array(scores), np.array(labels)


@settings(max_examples=60, deadline=None)
@given(awkward_series(), st.booleans(), st.floats(-4, 4, allow_nan=False))
@example((np.array([math.inf, 0.5, math.nan, 0.5, -math.inf]), np.array([1, 0, 1, 1, 0])),
         False, 0.5)
@example((np.array([math.nan, -math.inf, math.inf, 1.0]), np.ones(4, dtype=int)), True, 1.0)
def test_property_every_report_matches_reference(case, adjust, threshold):
    scores, labels = case
    curve = sweep_curve(scores, labels, adjust=adjust)
    assert curve == reference_curve(scores, labels, adjust)
    assert best_f1_sweep(scores, labels, adjust=adjust) == reference_best(scores, labels, adjust)
    for th in (threshold, *(rep.threshold for rep in curve)):
        assert range_adjusted_metrics(scores, labels, th, adjust=adjust) == \
            reference_report(scores, labels, th, adjust)
