"""Binary cross-entropy losses on logits, with closed-form gradients.

Both losses are one fused graph primitive, ``_bce``: the forward uses the
numerically stable form max(x, 0) - x*t + log(1 + exp(-|x|)) and the
backward is the closed-form (sigmoid(x) - t) scaled per pixel, so no
intermediate sigmoid output appears in the lineage.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _op_output, _sigmoid_stable


def _as_target(targets, logits: Tensor) -> np.ndarray:
    data = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    data = data.astype(logits.dtype, copy=False)
    if data.shape != logits.shape:
        raise ShapeError(f"targets shape {data.shape} does not match logits shape {logits.shape}")
    if data.size == 0:
        raise ShapeError("targets must not be empty")
    if data.min() < 0 or data.max() > 1:
        raise ValueError("targets must lie in [0, 1]")
    return data


def _bce(logits: Tensor, t: np.ndarray, weights: np.ndarray | None) -> Tensor:
    """The mean over pixels of the stable terms, each scaled by its weight
    unless ``weights`` is None; both losses are this one op."""
    x = logits.data
    count = x.size
    terms = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    if weights is not None:
        terms = weights * terms
    out = np.asarray(terms.sum() / count, dtype=x.dtype).reshape(1, 1, 1, 1)

    def vjp(g: np.ndarray):
        d = _sigmoid_stable(x) - t
        if weights is not None:
            d = weights * d
        return (d * (g.reshape(()) / count),)

    return _op_output(out, (logits,), vjp)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy between logits and targets in [0, 1]."""
    return _bce(logits, _as_target(targets, logits), None)


def balanced_bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Class-balanced binary cross-entropy for sparse boundary targets.

    Positive pixels are weighted by the negative fraction and vice versa, so
    a map that is mostly background still trains the rare positives.  The sum
    of weighted terms is normalized by the pixel count.  If either class is
    absent the weights degenerate, so the unweighted loss is used instead.
    """
    t = _as_target(targets, logits)
    count = t.size
    positive = t > 0.5
    n_pos = int(positive.sum())
    if n_pos == 0 or n_pos == count:
        return _bce(logits, t, None)
    weights = np.where(positive, (count - n_pos) / count, n_pos / count).astype(logits.dtype)
    return _bce(logits, t, weights)
