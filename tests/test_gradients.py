"""Finite-difference validation of every differentiable op, both losses,
and composite graphs, all at 64-bit."""

import numpy as np
import pytest

from poolnet.config import ModelConfig
from poolnet.losses import balanced_bce_with_logits, bce_with_logits
from poolnet.model import build_model
from poolnet.tensor import (
    Tensor,
    add,
    adaptive_avg_pool2d,
    avg_pool2d,
    concat_channels,
    conv2d,
    crop2d,
    default_dtype,
    global_avg_pool,
    max_pool2d,
    mul,
    pad_replicate2d,
    relu,
    resize_bilinear,
    sigmoid,
    upsample_bilinear,
)


def leaf(rng, shape, low=0.2, high=1.2):
    """Random leaf bounded away from zero so relu kinks sit far from probes."""
    magnitude = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(magnitude * sign, requires_grad=True, dtype=np.float64)


def distinct_leaf(rng, shape):
    """Leaf with pairwise gaps >= 0.01 so max-pool selections survive probes."""
    values = rng.permutation(np.prod(shape)).astype(np.float64) * 0.01
    return Tensor(values.reshape(shape), requires_grad=True, dtype=np.float64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestOpGradients:
    def test_conv2d(self, rng, gradcheck, scalarize):
        leaves = {
            "x": leaf(rng, (2, 3, 6, 6)),
            "w": leaf(rng, (4, 3, 3, 3)),
            "b": Tensor(rng.normal(size=4), requires_grad=True, dtype=np.float64),
        }
        weights = rng.normal(size=(2, 4, 6, 6))

        def scalar(lv):
            return scalarize(conv2d(lv["x"], lv["w"], lv["b"]), weights)

        gradcheck(scalar, leaves, rng)

    def test_conv2d_unit_stride_no_padding(self, rng, gradcheck, scalarize):
        # a 1x1 kernel is the one conv2d pads by zero
        leaves = {"x": leaf(rng, (1, 2, 5, 5)), "w": leaf(rng, (3, 2, 1, 1)),
                  "b": leaf(rng, (3,))}
        weights = rng.normal(size=(1, 3, 5, 5))
        gradcheck(lambda lv: scalarize(conv2d(lv["x"], lv["w"], lv["b"]), weights), leaves, rng)

    def test_avg_pool(self, rng, gradcheck, scalarize):
        for h, w in ((8, 8), (4, 8)):
            leaves = {"x": leaf(rng, (1, 2, h, w))}
            weights = rng.normal(size=(1, 2, h // 2, w // 2))
            gradcheck(lambda lv: scalarize(avg_pool2d(lv["x"], 2), weights), leaves, rng)

    def test_adaptive_avg_pool_overlapping_bins(self, rng, gradcheck, scalarize):
        # 5 -> 3 and 7 -> 2 produce overlapping windows; gradients accumulate
        # across bins.  The rectangular case fails if rows and columns swap.
        for (h, w), (out_h, out_w) in (((5, 5), (3, 3)), ((5, 7), (3, 2))):
            leaves = {"x": leaf(rng, (1, 2, h, w))}
            weights = rng.normal(size=(1, 2, out_h, out_w))
            gradcheck(lambda lv: scalarize(adaptive_avg_pool2d(lv["x"], out_h, out_w), weights),
                      leaves, rng)

    def test_global_avg_pool(self, rng, gradcheck, scalarize):
        leaves = {"x": leaf(rng, (2, 3, 4, 4))}
        weights = rng.normal(size=(2, 3, 1, 1))
        gradcheck(lambda lv: scalarize(global_avg_pool(lv["x"]), weights), leaves, rng)

    def test_max_pool(self, rng, gradcheck, scalarize):
        leaves = {"x": distinct_leaf(rng, (1, 2, 8, 8))}
        weights = rng.normal(size=(1, 2, 4, 4))
        gradcheck(lambda lv: scalarize(max_pool2d(lv["x"]), weights), leaves, rng)

    def test_bilinear_upsample(self, rng, gradcheck, scalarize):
        leaves = {"x": leaf(rng, (1, 2, 3, 5))}
        weights = rng.normal(size=(1, 2, 12, 20))
        gradcheck(lambda lv: scalarize(upsample_bilinear(lv["x"], 4), weights), leaves, rng)

    def test_bilinear_downsample(self, rng, gradcheck, scalarize):
        leaves = {"x": leaf(rng, (1, 2, 9, 7))}
        weights = rng.normal(size=(1, 2, 4, 3))
        gradcheck(lambda lv: scalarize(resize_bilinear(lv["x"], 4, 3), weights), leaves, rng)

    def test_pad_replicate(self, rng, gradcheck, scalarize):
        leaves = {"x": leaf(rng, (1, 2, 3, 4))}
        weights = rng.normal(size=(1, 2, 6, 6))
        gradcheck(lambda lv: scalarize(pad_replicate2d(lv["x"], 3, 2), weights), leaves, rng)

    def test_crop(self, rng, gradcheck, scalarize):
        leaves = {"x": leaf(rng, (1, 2, 5, 5))}
        weights = rng.normal(size=(1, 2, 3, 2))
        gradcheck(lambda lv: scalarize(crop2d(lv["x"], 3, 2), weights), leaves, rng)

    def test_relu(self, rng, gradcheck, scalarize):
        leaves = {"x": leaf(rng, (2, 3, 4, 4))}
        weights = rng.normal(size=(2, 3, 4, 4))
        gradcheck(lambda lv: scalarize(relu(lv["x"]), weights), leaves, rng)

    def test_sigmoid(self, rng, gradcheck, scalarize):
        leaves = {"x": leaf(rng, (1, 2, 4, 4), low=0.1, high=4.0)}
        weights = rng.normal(size=(1, 2, 4, 4))
        gradcheck(lambda lv: scalarize(sigmoid(lv["x"]), weights), leaves, rng)

    def test_add_and_mul(self, rng, gradcheck, scalarize):
        leaves = {"a": leaf(rng, (1, 2, 3, 3)), "b": leaf(rng, (1, 2, 3, 3))}
        weights = rng.normal(size=(1, 2, 3, 3))
        gradcheck(lambda lv: scalarize(mul(add(lv["a"], lv["b"]), lv["a"]), weights), leaves, rng)

    def test_concat_channels(self, rng, gradcheck, scalarize):
        leaves = {"a": leaf(rng, (1, 2, 3, 3)), "b": leaf(rng, (1, 3, 3, 3))}
        weights = rng.normal(size=(1, 5, 3, 3))
        gradcheck(lambda lv: scalarize(concat_channels([lv["a"], lv["b"]]), weights), leaves, rng)


class TestLossGradients:
    def test_bce(self, rng, gradcheck):
        target = rng.random((1, 1, 6, 6))
        leaves = {"logits": leaf(rng, (1, 1, 6, 6), low=0.1, high=3.0)}
        gradcheck(lambda lv: bce_with_logits(lv["logits"], target), leaves, rng)

    def test_bce_binary_target(self, rng, gradcheck):
        target = (rng.random((1, 1, 5, 5)) < 0.4).astype(np.float64)
        leaves = {"logits": leaf(rng, (1, 1, 5, 5), low=0.1, high=3.0)}
        gradcheck(lambda lv: bce_with_logits(lv["logits"], target), leaves, rng)

    def test_balanced_bce(self, rng, gradcheck):
        target = (rng.random((1, 1, 6, 6)) < 0.3).astype(np.float64)
        assert 0 < target.sum() < target.size  # both classes present
        leaves = {"logits": leaf(rng, (1, 1, 6, 6), low=0.1, high=3.0)}
        gradcheck(lambda lv: balanced_bce_with_logits(lv["logits"], target), leaves, rng)

    def test_balanced_bce_degenerate_target(self, rng, gradcheck):
        target = np.zeros((1, 1, 4, 4))
        leaves = {"logits": leaf(rng, (1, 1, 4, 4), low=0.1, high=3.0)}
        gradcheck(lambda lv: balanced_bce_with_logits(lv["logits"], target), leaves, rng)


class TestCompositeGradients:
    def test_pool_conv_upsample_chain(self, rng, gradcheck, scalarize):
        # the smoothing pattern used at every pyramid level: pad, pool,
        # convolve, upsample, crop, add back
        leaves = {"x": leaf(rng, (1, 2, 6, 6)), "w": leaf(rng, (2, 2, 3, 3))}
        bias = Tensor(np.zeros(2), dtype=np.float64)
        weights = rng.normal(size=(1, 2, 6, 6))

        def scalar(lv):
            padded = pad_replicate2d(lv["x"], 2, 2)
            pooled = avg_pool2d(padded, 4)
            smoothed = relu(conv2d(pooled, lv["w"], bias))
            restored = crop2d(upsample_bilinear(smoothed, 4), 6, 6)
            return scalarize(add(lv["x"], restored), weights)

        gradcheck(scalar, leaves, rng)

    def test_full_model_with_edge_branch(self, rng, gradcheck):
        # end-to-end: saliency plus edge side-outputs against fixed targets
        config = ModelConfig(backbone_widths=(4, 6, 6, 8, 8), enable_edge=True,
                             ppm_sizes=(2,), fam_rates=(2, 4))
        with default_dtype(np.float64):
            model = build_model(config, seed=7)
        x = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 32, 32)),
                   requires_grad=True, dtype=np.float64)
        saliency_target = (rng.random((1, 1, 32, 32)) < 0.4).astype(np.float64)
        edge_target = (rng.random((1, 1, 32, 32)) < 0.1).astype(np.float64)
        leaves = {"input": x}
        leaves.update({f"param:{name}": p for name, p in model.named_parameters()})

        def scalar(lv):
            out = model(lv["input"])
            loss = bce_with_logits(out.saliency, saliency_target)
            for side in out.edges:
                loss = add(loss, balanced_bce_with_logits(side, edge_target))
            return loss

        # deep graph: a smaller step keeps probes from crossing relu kinks
        gradcheck(scalar, leaves, rng, eps=1e-6, coords_per_leaf=3)
