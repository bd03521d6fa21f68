"""Module system: parameter registration, naming, and convolution layers."""

import numpy as np
import pytest

from poolnet.config import ModelConfig
from poolnet.model import build_model
from poolnet.nn import Conv2d, Module, ModuleList, Parameter, glorot_uniform
from poolnet.optim import Adam
from poolnet.tensor import Tensor, backward, reduce_sum


class TwoConv(Module):
    def __init__(self, rng):
        super().__init__()
        self.first = Conv2d(2, 3, 3, rng)
        self.second = Conv2d(3, 1, 1, rng)

    def forward(self, x):
        return self.second(self.first(x))


class TestModuleRegistration:
    def test_parameters_follow_attribute_order(self):
        rng = np.random.default_rng(0)
        model = TwoConv(rng)
        names = [name for name, _ in model.named_parameters()]
        assert names == ["first.weight", "first.bias", "second.weight", "second.bias"]

    def test_module_list_indexes_into_names(self):
        rng = np.random.default_rng(0)

        class Chain(Module):
            def __init__(self):
                super().__init__()
                self.blocks = ModuleList([Conv2d(1, 1, 1, rng), Conv2d(1, 1, 1, rng)])

        names = [name for name, _ in Chain().named_parameters()]
        assert names == ["blocks.0.weight", "blocks.0.bias",
                         "blocks.1.weight", "blocks.1.bias"]

    def test_named_parameters_count_every_element(self):
        model = TwoConv(np.random.default_rng(0))
        # 3*2*3*3 + 3 + 1*3*1*1 + 1
        assert sum(p.data.size for _, p in model.named_parameters()) == 54 + 3 + 3 + 1

    def test_adam_state_is_keyed_by_module_paths(self):
        model = build_model(ModelConfig(backbone_widths=(4, 6, 6, 8, 8), ppm_sizes=(2,),
                                        fam_rates=(2, 4)), seed=0)
        paths = [name for name, _ in model.named_parameters()]
        state = Adam(model.named_parameters(), lr=0.1).state_dict()
        assert [key[len("opt/m/"):] for key in state if key.startswith("opt/m/")] == paths
        assert "backbone.stages.0.conv1.conv.weight" in paths

    def test_zero_grad_clears_every_parameter(self):
        model = TwoConv(np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 4, 4)))
        backward(reduce_sum(model(x)))
        assert any(p.grad is not None for _, p in model.named_parameters())
        Adam(model.named_parameters(), lr=0.1).zero_grad()
        assert all(p.grad is None for _, p in model.named_parameters())

    def test_parameters_require_grad(self):
        model = TwoConv(np.random.default_rng(0))
        assert all(p.requires_grad for _, p in model.named_parameters())
        assert all(isinstance(p, Parameter) for _, p in model.named_parameters())


class TestGlorotInit:
    def test_values_respect_fan_bound(self):
        rng = np.random.default_rng(5)
        values = glorot_uniform((64, 25), 100, 44, rng)
        bound = np.sqrt(6.0 / (100 + 44))
        assert np.all(np.abs(values) <= bound)
        assert values.shape == (64, 25)

    def test_spread_fills_the_bound(self):
        rng = np.random.default_rng(5)
        values = glorot_uniform((4000,), 10, 10, rng)
        bound = np.sqrt(6.0 / 20)
        assert values.max() > 0.9 * bound
        assert values.min() < -0.9 * bound

    def test_same_rng_state_reproduces(self):
        a = glorot_uniform((10, 10), 5, 5, np.random.default_rng(9))
        b = glorot_uniform((10, 10), 5, 5, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestConv2dModule:
    def test_padding_defaults_to_half_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 8, 8)))
        assert Conv2d(2, 4, 3, rng)(x).shape == (1, 4, 8, 8)
        assert Conv2d(2, 4, 1, rng)(x).shape == (1, 4, 8, 8)
        assert Conv2d(2, 4, 5, rng)(x).shape == (1, 4, 8, 8)

    def test_bias_starts_at_zero(self):
        layer = Conv2d(2, 4, 3, np.random.default_rng(0))
        assert np.array_equal(layer.bias.data, np.zeros(4, dtype=layer.bias.dtype))

    def test_weight_fans_include_kernel_area(self):
        layer = Conv2d(8, 4, 3, np.random.default_rng(0))
        bound = np.sqrt(6.0 / (8 * 9 + 4 * 9))
        assert np.all(np.abs(layer.weight.data) <= bound)
