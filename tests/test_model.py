"""Architecture wiring: backbone taps, the three optional blocks, the edge
branch, and construction determinism."""

import numpy as np
import pytest

import poolnet.model as model_mod
from poolnet.config import ABLATION_ROWS, ModelConfig, ablation_configs
from poolnet.errors import ShapeError
from poolnet.losses import balanced_bce_with_logits, bce_with_logits
from poolnet.model import (
    EDGE_TRANSITION_CHANNELS,
    FeatureAggregation,
    PyramidPooling,
    SaliencyNet,
    build_model,
)
from poolnet.tensor import Tensor, add, backward


def desk_config(**kwargs):
    # 64x64 inputs leave a 4x4 deepest map, so pyramid sizes must stay <= 4
    kwargs.setdefault("ppm_sizes", (2, 3))
    return ModelConfig(**kwargs)


def rgb(batch=1, size=64, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0.0, 1.0, size=(batch, 3, size, size)).astype(np.float32))


class TestBackbone:
    def test_tap_shapes_and_strides(self):
        model = build_model(desk_config(), seed=0)
        c2, c3, c4, c5 = model.backbone(rgb(size=64))
        widths = model.config.backbone_widths
        assert c2.shape == (1, widths[1], 32, 32)
        assert c3.shape == (1, widths[2], 16, 16)
        assert c4.shape == (1, widths[3], 8, 8)
        assert c5.shape == (1, widths[4], 4, 4)


class TestSixConfigurations:
    @pytest.mark.parametrize("row,ppm,ggf,fam", ABLATION_ROWS,
                             ids=[f"row{r[0]}" for r in ABLATION_ROWS])
    def test_forward_shape_at_64(self, row, ppm, ggf, fam):
        config = desk_config(enable_ppm=ppm, enable_ggf=ggf, enable_fam=fam)
        model = build_model(config, seed=0)
        out = model(rgb())
        assert out.saliency.shape == (1, 1, 64, 64)
        assert out.edges is None
        assert np.all(np.isfinite(out.saliency.data))

    def test_ablation_configs_all_build(self):
        for _, config in ablation_configs(desk_config()):
            assert isinstance(build_model(config, seed=0), SaliencyNet)

    def test_batched_forward(self):
        model = build_model(desk_config(), seed=0)
        assert model(rgb(batch=2)).saliency.shape == (2, 1, 64, 64)


class TestPyramidPoolingBlock:
    def test_branch_grid_sizes(self, monkeypatch):
        # 80x80 input -> 5x5 deepest map; default sizes pool it to 3x3, 5x5,
        # the global branch to 1x1, and the identity branch skips pooling
        seen = []
        real_adaptive = model_mod.adaptive_avg_pool2d
        real_global = model_mod.global_avg_pool

        def spy_adaptive(x, out_h, out_w):
            seen.append((out_h, out_w))
            return real_adaptive(x, out_h, out_w)

        def spy_global(x):
            seen.append((1, 1))
            return real_global(x)

        monkeypatch.setattr(model_mod, "adaptive_avg_pool2d", spy_adaptive)
        monkeypatch.setattr(model_mod, "global_avg_pool", spy_global)
        model = build_model(ModelConfig(), seed=0)  # default sizes (3, 5)
        model(rgb(size=80))
        assert seen == [(3, 3), (5, 5), (1, 1)]

    def test_branch_channel_budget(self):
        rng = np.random.default_rng(0)
        block = PyramidPooling(128, 128, (3, 5), rng)
        # identity keeps 128, each pooled branch projects to 128 // 4
        assert all(conv.weight.shape == (32, 128, 1, 1) for conv in block.branches)
        assert block.global_branch.weight.shape == (32, 128, 1, 1)
        assert block.fuse.weight.shape == (128, 128 + 3 * 32, 3, 3)

    def test_output_keeps_spatial_size(self):
        rng = np.random.default_rng(0)
        block = PyramidPooling(8, 8, (2, 3), rng)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 8, 5, 5)).astype(np.float32))
        assert block(x).shape == (1, 8, 5, 5)

    def test_replaces_deepest_lateral(self):
        with_ppm = build_model(desk_config(), seed=0)
        without = build_model(desk_config(enable_ppm=False), seed=0)
        assert hasattr(with_ppm, "pyramid_pool") and not hasattr(with_ppm, "lateral5")
        assert hasattr(without, "lateral5") and not hasattr(without, "pyramid_pool")


class TestFeatureAggregationBlock:
    def test_four_sub_branches(self):
        rng = np.random.default_rng(0)
        block = FeatureAggregation(16, (2, 4, 8), rng)
        # identity plus one branch per rate
        assert 1 + len(block.branch_convs) == 4

    def test_rate_pools_during_forward(self, monkeypatch):
        calls = []
        real = model_mod.avg_pool2d

        def spy(x, rate):
            calls.append(rate)
            return real(x, rate)

        monkeypatch.setattr(model_mod, "avg_pool2d", spy)
        model = build_model(desk_config(), seed=0)
        model(rgb())
        # three aggregation modules, each pooling at every rate
        assert calls == [2, 4, 8] * 3

    def test_channel_count_preserved(self):
        rng = np.random.default_rng(0)
        block = FeatureAggregation(12, (2, 4), rng)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 12, 8, 8)).astype(np.float32))
        assert block(x).shape == (1, 12, 8, 8)

    def test_indivisible_size_pads_and_crops_back(self):
        rng = np.random.default_rng(0)
        block = FeatureAggregation(4, (2, 4, 8), rng)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 4, 5, 7)).astype(np.float32))
        assert block(x).shape == (1, 4, 5, 7)

    def test_disabled_fam_uses_plain_smoothing(self):
        model = build_model(desk_config(enable_fam=False), seed=0)
        assert not isinstance(model.merge2, FeatureAggregation)
        assert model.merge2.conv.weight.shape[2:] == (3, 3)


class TestGuidanceFlows:
    def test_each_flow_takes_its_level_size(self, monkeypatch):
        # levels 5, 4, 3, 2 of a 64x64 input sit at strides 16, 8, 4, 2
        model = build_model(desk_config(), seed=0)
        forward = model_mod.GuidanceFlow.forward
        shapes = []

        def recording(flow, x, level):
            out = forward(flow, x, level)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(model_mod.GuidanceFlow, "forward", recording)
        model(rgb(size=64))
        pyr = model.config.pyramid_channels
        assert shapes == [(1, pyr[3], 4, 4), (1, pyr[2], 8, 8),
                          (1, pyr[1], 16, 16), (1, pyr[0], 32, 32)]

    def test_zeroed_flows_match_a_model_without_them(self):
        # copying all shared weights across and silencing the projections must
        # reproduce the no-guidance forward exactly: the flows are pure addends
        guided = build_model(desk_config(), seed=3)
        plain = build_model(desk_config(enable_ggf=False), seed=5)
        weights = dict(guided.named_parameters())
        for name, p in plain.named_parameters():
            p.data = weights[name].data.copy()
        for flow in guided.guidance:
            flow.project.weight.data[:] = 0.0
            flow.project.bias.data[:] = 0.0
        x = rgb(seed=2)
        assert np.array_equal(guided(x).saliency.data, plain(x).saliency.data)

    def test_live_flows_change_the_output(self):
        guided = build_model(desk_config(), seed=3)
        x = rgb(seed=2)
        before = guided(x).saliency.data.copy()
        for flow in guided.guidance:
            flow.project.weight.data[:] = 0.0
            flow.project.bias.data[:] = 0.0
        after = guided(x).saliency.data
        assert not np.array_equal(before, after)


class TestEdgeBranch:
    def edge_model(self, seed=0):
        return build_model(desk_config(enable_edge=True), seed=seed)

    def test_three_side_outputs_at_input_resolution(self):
        out = self.edge_model()(rgb())
        assert out.edges is not None
        assert len(out.edges) == 3
        assert all(side.shape == (1, 1, 64, 64) for side in out.edges)

    def test_fusion_width_is_48_channels(self):
        model = self.edge_model()
        fused_width = 3 * EDGE_TRANSITION_CHANNELS
        assert fused_width == 48
        assert all(conv.weight.shape == (48, 48, 3, 3) for conv in model.edge.refine)

    def test_head_widens_by_fusion_channels(self):
        plain = build_model(desk_config(), seed=0)
        edged = self.edge_model()
        base = plain.config.pyramid_channels[0]
        assert plain.head.weight.shape == (1, base, 1, 1)
        assert edged.head.weight.shape == (1, base + 48, 1, 1)

    def test_shared_trunk_matches_edge_free_build(self):
        # adding the edge branch must not disturb how the trunk is initialized
        plain = build_model(desk_config(), seed=4)
        edged = self.edge_model(seed=4)
        edged_weights = dict(edged.named_parameters())
        for name, p in plain.named_parameters():
            if name.startswith("head."):
                continue  # the head itself widens
            assert np.array_equal(p.data, edged_weights[name].data), name

    def test_edge_free_model_reports_no_edges(self):
        assert build_model(desk_config(), seed=0)(rgb()).edges is None


class TestInputValidation:
    def test_wrong_channel_count_raises(self):
        model = build_model(desk_config(), seed=0)
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32)))

    def test_indivisible_size_raises(self):
        model = build_model(desk_config(), seed=0)
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((1, 3, 60, 64), dtype=np.float32)))

    def test_rank_3_input_raises(self):
        model = build_model(desk_config(), seed=0)
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((3, 64, 64), dtype=np.float32)))

    @pytest.mark.parametrize("h, w", [(0, 0), (0, 64), (64, 0)])
    def test_empty_side_raises(self, h, w):
        # zero is a multiple of 16, and with pyramid pooling off no minimum
        # applies; the conv bands would divide by the empty width
        model = build_model(desk_config(enable_ppm=False), seed=0)
        with pytest.raises(ShapeError, match="positive multiples of 16"):
            model(Tensor(np.zeros((1, 3, h, w), dtype=np.float32)))

    def test_sizes_read_width_by_height(self):
        # as bench --size takes them: 48 wide, 32 tall reads 48x32
        model = build_model(desk_config(), seed=0)
        with pytest.raises(ShapeError, match="model input size 48x32 is below the 48x48 minimum"):
            model(Tensor(np.zeros((1, 3, 32, 48), dtype=np.float32)))
        with pytest.raises(ShapeError, match="model input size 40x64 must be positive multiples"):
            model(Tensor(np.zeros((1, 3, 64, 40), dtype=np.float32)))


class TestConstruction:
    def test_same_seed_builds_identical_weights(self):
        a = build_model(desk_config(), seed=6)
        b = build_model(desk_config(), seed=6)
        for (_, p), (_, q) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(p.data, q.data)

    def test_different_seeds_differ(self):
        a = build_model(desk_config(), seed=6)
        b = build_model(desk_config(), seed=7)
        assert any(not np.array_equal(p.data, q.data)
                   for (_, p), (_, q) in zip(a.named_parameters(), b.named_parameters()))

    def test_parameter_names_are_unique_and_dotted(self):
        model = build_model(desk_config(enable_edge=True), seed=0)
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert all("." in name for name in names)
        assert any(name.startswith("edge.side_heads") for name in names)

    def test_switches_change_parameter_budget(self):
        def budget(config):
            return sum(p.data.size for _, p in build_model(config, seed=0).named_parameters())

        base = budget(desk_config())
        no_fam = budget(desk_config(enable_fam=False))
        no_ggf = budget(desk_config(enable_ggf=False))
        edged = budget(desk_config(enable_edge=True))
        assert no_fam < base  # aggregation carries extra convs
        assert no_ggf < base  # guidance projections disappear
        assert edged > base


class TestGradientCoverage:
    def test_combined_loss_reaches_every_parameter(self):
        model = build_model(desk_config(enable_edge=True), seed=0)
        out = model(rgb())
        target = (np.random.default_rng(0).random((1, 1, 64, 64)) < 0.3).astype(np.float32)
        loss = bce_with_logits(out.saliency, target)
        for side in out.edges:
            loss = add(loss, balanced_bce_with_logits(side, target))
        backward(loss)
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_saliency_loss_skips_only_side_heads(self):
        model = build_model(desk_config(enable_edge=True), seed=0)
        out = model(rgb())
        target = np.zeros((1, 1, 64, 64), dtype=np.float32)
        backward(bce_with_logits(out.saliency, target))
        missing = sorted(name for name, p in model.named_parameters() if p.grad is None)
        assert missing == ["edge.side_heads.0.bias", "edge.side_heads.0.weight",
                           "edge.side_heads.1.bias", "edge.side_heads.1.weight",
                           "edge.side_heads.2.bias", "edge.side_heads.2.weight"]
