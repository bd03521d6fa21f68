"""Saliency evaluation: weighted F-measure, mean absolute error, PR curves.

Conventions: predictions are binarized at each of 256 thresholds k/255 with
``s >= t``; ground truth is binarized at 0.5; precision and recall are
computed per image and then averaged.  An empty prediction against non-empty
ground truth counts as precision 1 (no false positives).  Images whose
ground truth has no positives are excluded from recall averaging and counted
in ``PRCurve.empty_gt_count``.

The sweep finds each pixel's bin, its count of thresholds ``t <= s``, without
a search.  With ``k = rint(255 * s)``, ``|255 * s - k|`` is at most 1/2 (plus
one rounding of the product), so every threshold below k/255 lies below s
and every one above it lies above s, each by about 1/510.  The bin is then
``k + (thresholds[k] <= s)``: the one close comparison is made exactly, so
pixel s counts at threshold t exactly when ``s >= t``, the rule above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_csv
from .errors import ShapeError

BETA2 = 0.3
N_THRESHOLDS = 256
_THRESHOLDS = np.arange(N_THRESHOLDS, dtype=np.float64) / (N_THRESHOLDS - 1)


def f_measure(precision: float, recall: float) -> float:
    """(1 + BETA2) * P * R / (BETA2 * P + R); zero when the denominator is zero."""
    if not 0.0 <= precision <= 1.0 or not 0.0 <= recall <= 1.0:
        raise ValueError(f"precision/recall must lie in [0, 1], got {precision}, {recall}")
    denom = BETA2 * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + BETA2) * precision * recall / denom


def _as_map(values, role: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{role} must be a 2-D map, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{role} must not be empty")
    # NaN and +-inf fail the range test too; isfinite only picks the message
    if not (arr.min() >= 0 and arr.max() <= 1):
        if not np.isfinite(arr).all():
            raise ValueError(f"{role} values must be finite")
        raise ValueError(f"{role} values must lie in [0, 1]")
    return arr


def mae(saliency, ground_truth) -> float:
    """Mean absolute difference between two maps of equal size."""
    s = _as_map(saliency, "saliency map")
    g = _as_map(ground_truth, "ground truth")
    if s.shape != g.shape:
        raise ShapeError(f"map shapes differ: {s.shape} vs {g.shape}")
    diff = s - g
    return float(np.mean(np.abs(diff, out=diff)))


@dataclass
class PRCurve:
    """Averaged precision/recall at thresholds k/255 for k in 0..255."""

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    empty_gt_count: int


def pr_sweep(pairs) -> PRCurve:
    """Threshold sweep over (saliency, ground truth) map pairs."""
    if not pairs:
        raise ValueError("pr_sweep needs at least one (saliency, ground truth) pair")
    precision_sum = np.zeros(N_THRESHOLDS)
    recall_sum = np.zeros(N_THRESHOLDS)
    recall_images = 0
    empty_gt = 0
    for saliency, ground_truth in pairs:
        s = _as_map(saliency, "saliency map")
        g = _as_map(ground_truth, "ground truth")
        if s.shape != g.shape:
            raise ShapeError(f"map shapes differ: {s.shape} vs {g.shape}")
        gt = (g >= 0.5).reshape(-1)
        bins = _threshold_bins(s.reshape(-1))
        bins += (N_THRESHOLDS + 1) * gt
        negatives, true_positives = _count_at_or_above(bins)
        predicted_count = negatives + true_positives
        precision_sum += np.where(predicted_count > 0,
                                  true_positives / np.maximum(predicted_count, 1), 1.0)
        gt_count = int(gt.sum())
        if gt_count == 0:
            empty_gt += 1
            continue
        recall_sum += true_positives / gt_count
        recall_images += 1
    n_images = len(pairs)
    recall = recall_sum / recall_images if recall_images else np.zeros(N_THRESHOLDS)
    return PRCurve(thresholds=_THRESHOLDS.copy(),
                   precision=precision_sum / n_images,
                   recall=recall,
                   empty_gt_count=empty_gt)


def _threshold_bins(values: np.ndarray) -> np.ndarray:
    """Each value's count of the thresholds k/255 at or below it, for values
    in [0, 1]: k = rint(255 * s), plus one when k/255 <= s (see the module
    docstring)."""
    bins = np.rint(values * (N_THRESHOLDS - 1)).astype(np.intp)
    bins += _THRESHOLDS[bins] <= values
    return bins


def _count_at_or_above(bins: np.ndarray) -> np.ndarray:
    """Per threshold k, how many ground-truth negatives (row 0) and positives
    (row 1) have s >= thresholds[k].

    ``bins`` holds each pixel's count of thresholds <= s, plus
    ``N_THRESHOLDS + 1`` for a positive, so one histogram holds both rows; s
    >= thresholds[k] exactly when the count is at least k + 1: a reverse
    cumulative histogram.
    """
    hist = np.bincount(bins, minlength=2 * (N_THRESHOLDS + 1)).reshape(2, N_THRESHOLDS + 1)
    return np.cumsum(hist[:, ::-1], axis=1)[:, -2::-1]


def max_f(curve: PRCurve) -> float:
    """Best F-measure over the 256 thresholds of a sweep."""
    if len(curve.precision) != N_THRESHOLDS or len(curve.recall) != N_THRESHOLDS:
        raise ShapeError(f"expected {N_THRESHOLDS} curve points, got "
                         f"{len(curve.precision)}/{len(curve.recall)}")
    return max(f_measure(p, r) for p, r in zip(curve.precision, curve.recall))


@dataclass
class MetricsRecord:
    """Headline numbers plus the full curve for one evaluated set."""

    max_f: float
    mae: float
    pr_curve: PRCurve


def evaluate_pairs(pairs) -> MetricsRecord:
    """MaxF, mean per-image MAE, and the PR curve for a list of map pairs."""
    curve = pr_sweep(pairs)
    errors = [mae(s, g) for s, g in pairs]
    return MetricsRecord(max_f=max_f(curve), mae=float(np.mean(errors)), pr_curve=curve)


def write_metrics_csv(record: MetricsRecord, path) -> None:
    """One summary row, then one row per threshold."""
    curve = record.pr_curve
    write_csv(path, [["max_f", "mae", "empty_gt_count"],
                     [f"{record.max_f:.6f}", f"{record.mae:.6f}", curve.empty_gt_count],
                     ["threshold", "precision", "recall"],
                     *([f"{t:.6f}", f"{p:.6f}", f"{r:.6f}"]
                       for t, p, r in zip(curve.thresholds.tolist(), curve.precision.tolist(),
                                          curve.recall.tolist()))])
