"""Shared fixtures: finite-difference gradient checking, reference
convolutions, a reference max pool, a reference bilinear-resize gradient,
reference threshold bins and brute-force metric oracles.

The oracles here are deliberately naive (python loops, explicit confusion
counts) and independent of the library's vectorized implementations; tests
compare the two routes.  Threshold arithmetic (k / 255.0) is written the
same way on both sides so agreement can be exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from poolnet.tensor import (Tensor, _im2col, _resample_axis, backward, mul, no_grad,
                            reduce_sum)

# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


def _sample_coords(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    if size <= count:
        return np.arange(size)
    return rng.choice(size, size=count, replace=False)


def fd_check(make_scalar, leaves: dict, rng: np.random.Generator,
             eps: float = 1e-5, tol: float = 1e-4, coords_per_leaf: int = 100) -> float:
    """Compare backward() gradients of a scalar against central differences.

    ``make_scalar`` maps the ``leaves`` dict (name -> Tensor) to a scalar
    Tensor; it is re-invoked for every probe, so it must read the leaves'
    current ``data``.  Returns the worst relative error over all sampled
    coordinates and asserts it is below ``tol``.
    """
    for leaf in leaves.values():
        assert leaf.dtype == np.float64, "gradient checks must run at 64-bit"
        leaf.zero_grad()
    loss = make_scalar(leaves)
    backward(loss)

    def probe(flat, idx, step):
        original = flat[idx]
        with no_grad():
            flat[idx] = original + step
            upper = make_scalar(leaves).item()
            flat[idx] = original - step
            lower = make_scalar(leaves).item()
        flat[idx] = original
        return (upper - lower) / (2.0 * step)

    worst = 0.0
    checked = skipped = 0
    for name, leaf in leaves.items():
        assert leaf.grad is not None, f"no gradient reached leaf {name!r}"
        grad = leaf.grad.reshape(-1)
        flat = leaf.data.reshape(-1)
        for idx in _sample_coords(rng, flat.size, coords_per_leaf):
            numeric = probe(flat, idx, eps)
            analytic = grad[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            if rel >= tol:
                # central differences are invalid across relu/max kinks: the
                # estimate then depends on the step size.  Re-probe at 2*eps
                # and skip the coordinate when the estimates disagree by more
                # than a fraction of the tolerance (smooth coordinates agree
                # to ~1e-10 relative, far below this).
                wider = probe(flat, idx, 2.0 * eps)
                if abs(numeric - wider) > 0.25 * tol * max(abs(numeric), abs(wider), 1e-6):
                    skipped += 1
                    continue
            checked += 1
            worst = max(worst, rel)
            assert rel < tol, (f"gradient mismatch at {name}[{idx}]: "
                               f"analytic {analytic!r} vs numeric {numeric!r} (rel {rel:.2e})")
    assert skipped <= max(2, (checked + skipped) // 5), \
        f"too many non-smooth coordinates skipped ({skipped} of {checked + skipped})"
    return worst


def weighted_sum(output: Tensor, weights: np.ndarray) -> Tensor:
    """Reduce an op output to a scalar with fixed random weights, so every
    output element influences the checked gradient."""
    return reduce_sum(mul(output, Tensor(weights)))


@pytest.fixture
def gradcheck():
    return fd_check


@pytest.fixture
def scalarize():
    return weighted_sum


# ---------------------------------------------------------------------------
# reference convolution
# ---------------------------------------------------------------------------


def reference_conv2d(x, w, b, stride, padding, g):
    """Cross-correlation and its gradients, written on a strided window view
    and ``tensordot`` instead of a patch matrix.

    Returns (out, d_x, d_w, d_b) for output gradient ``g``.
    """
    n, c, h, width = x.shape
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2:4]
    out = np.moveaxis(np.tensordot(windows, w, axes=((1, 4, 5), (1, 2, 3))), 3, 1)
    out = out + b[None, :, None, None]
    d_w = np.tensordot(g, windows, axes=((0, 2, 3), (0, 2, 3)))
    d_cols = np.moveaxis(np.tensordot(g, w, axes=((1,), (0,))), 3, 1)  # (n, c, oh, ow, kh, kw)
    d_xp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            d_xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += d_cols[..., i, j]
    d_x = d_xp[:, :, padding:padding + h, padding:padding + width]
    return out, d_x, d_w, g.sum(axis=(0, 2, 3))


@pytest.fixture
def conv_reference():
    return reference_conv2d


def reference_conv2d_forward(x, w, b):
    """conv2d's output as one GEMM over the whole patch matrix, as the
    forward computed it before it was banded; the banded forward must give
    the same bytes."""
    n, _, h, width = x.shape
    out_c, _, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.dot(w.reshape(out_c, -1), _im2col(xp, k, h, width))
    out += b[:, None]
    return out.reshape(out_c, n, h, width).transpose(1, 0, 2, 3)


@pytest.fixture
def conv_forward_reference():
    return reference_conv2d_forward


def reference_conv2d_vjp(x, w, g):
    """conv2d's (d_x, d_weight) for output gradient ``g`` as one GEMM each
    over the whole patch matrix, as the VJP computed them before it was
    banded; the banded VJP, d_weight one GEMM per kernel tap, must give the
    same bytes."""
    n, c, h, width = x.shape
    out_c, _, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    g2 = g.transpose(1, 0, 2, 3).reshape(out_c, -1)
    d_w = np.dot(g2, _im2col(xp, k, h, width).T).reshape(w.shape)
    d_cols = np.dot(w.reshape(out_c, -1).T, g2).reshape(c, k, k, n, h, width)
    d_xp = np.zeros((c, n) + xp.shape[2:], dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            d_xp[:, :, i:i + h, j:j + width] += d_cols[:, i, j]
    d_x = d_xp.transpose(1, 0, 2, 3)[:, :, pad:pad + h, pad:pad + width]
    return d_x, d_w


# ---------------------------------------------------------------------------
# reference max pool
# ---------------------------------------------------------------------------


def reference_max_pool2d(x, rate, g):
    """Max pooling and its input gradient for output gradient ``g``, by a
    6-D transpose and ``np.argmax``: the first maximum of each block in
    row-major order, or its first NaN, wins and takes the gradient.

    Returns (out, d_x).
    """
    n, c, h, w = x.shape
    oh, ow = h // rate, w // rate
    blocks = x.reshape(n, c, oh, rate, ow, rate).transpose(0, 1, 2, 4, 3, 5)
    flat = blocks.reshape(n, c, oh, ow, rate * rate)
    arg = np.argmax(flat, axis=4)
    out = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]
    d_flat = np.zeros_like(flat)
    np.put_along_axis(d_flat, arg[..., None], g[..., None], axis=4)
    d_blocks = d_flat.reshape(n, c, oh, ow, rate, rate).transpose(0, 1, 2, 4, 3, 5)
    return out, d_blocks.reshape(n, c, h, w)


@pytest.fixture
def max_pool_reference():
    return reference_max_pool2d


# ---------------------------------------------------------------------------
# reference bilinear-resize gradient
# ---------------------------------------------------------------------------


def reference_resize_vjp(x_shape, g):
    """Input gradient of ``resize_bilinear`` for output gradient ``g``,
    scattered with ``np.add.at``: columns first, then rows, each input taking
    its ``lo`` terms before its ``hi`` terms in ascending output order."""
    n, c, h, w = x_shape
    out_h, out_w = g.shape[2:]
    r0, r1, fy = _resample_axis(h, out_h, g.dtype)
    c0, c1, fx = _resample_axis(w, out_w, g.dtype)
    fy_col = fy[:, None]
    d_tmp = np.zeros((n, c, out_h, w), dtype=g.dtype)
    np.add.at(d_tmp, (Ellipsis, c0), g * (1.0 - fx))
    np.add.at(d_tmp, (Ellipsis, c1), g * fx)
    dx = np.zeros(x_shape, dtype=g.dtype)
    np.add.at(dx, (slice(None), slice(None), r0), d_tmp * (1.0 - fy_col))
    np.add.at(dx, (slice(None), slice(None), r1), d_tmp * fy_col)
    return dx


@pytest.fixture
def resize_reference():
    return reference_resize_vjp


# ---------------------------------------------------------------------------
# brute-force metric oracles
# ---------------------------------------------------------------------------


def oracle_f_measure(precision: float, recall: float, beta2: float = 0.3) -> float:
    denominator = beta2 * precision + recall
    if denominator == 0:
        return 0.0
    return (1 + beta2) * precision * recall / denominator


def oracle_mae(saliency, ground_truth) -> float:
    s = np.asarray(saliency, dtype=np.float64)
    g = np.asarray(ground_truth, dtype=np.float64)
    total = 0.0
    rows, cols = s.shape
    for i in range(rows):
        for j in range(cols):
            diff = s[i, j] - g[i, j]
            total += diff if diff >= 0 else -diff
    return total / (rows * cols)


def oracle_pr_curves(pairs):
    """Per-threshold, per-image confusion counts via explicit pixel loops.

    Returns (precision[256], recall[256], empty_gt_count) with per-image
    averaging, empty predictions scored as precision 1, and empty-ground-truth
    images left out of the recall average.
    """
    precision = []
    recall = []
    empty_gt = 0
    for _, g in pairs:
        positives = 0
        g = np.asarray(g, dtype=np.float64)
        rows, cols = g.shape
        for i in range(rows):
            for j in range(cols):
                if g[i, j] >= 0.5:
                    positives += 1
        if positives == 0:
            empty_gt += 1
    for k in range(256):
        t = k / 255.0
        precisions = []
        recalls = []
        for s, g in pairs:
            s = np.asarray(s, dtype=np.float64)
            g = np.asarray(g, dtype=np.float64)
            tp = fp = fn = 0
            rows, cols = s.shape
            for i in range(rows):
                for j in range(cols):
                    predicted = s[i, j] >= t
                    positive = g[i, j] >= 0.5
                    if predicted and positive:
                        tp += 1
                    elif predicted:
                        fp += 1
                    elif positive:
                        fn += 1
            precisions.append(1.0 if tp + fp == 0 else tp / (tp + fp))
            if tp + fn > 0:
                recalls.append(tp / (tp + fn))
        precision.append(sum(precisions) / len(precisions))
        recall.append(sum(recalls) / len(recalls) if recalls else 0.0)
    return precision, recall, empty_gt


def reference_threshold_bins(values):
    """Each value's count of thresholds k/255 at or below it, by binary
    search, as the sweep found its bins before it computed them directly."""
    thresholds = np.arange(256, dtype=np.float64) / 255.0
    return np.searchsorted(thresholds, values, side="right")


def oracle_max_f(precision, recall, beta2: float = 0.3) -> float:
    best = 0.0
    for p, r in zip(precision, recall):
        best = max(best, oracle_f_measure(p, r, beta2))
    return best


@pytest.fixture
def metric_oracles():
    return {
        "f_measure": oracle_f_measure,
        "mae": oracle_mae,
        "pr_curves": oracle_pr_curves,
        "max_f": oracle_max_f,
        "threshold_bins": reference_threshold_bins,
    }
