"""Adam and the learning-rate schedule against hand-rolled references."""

import numpy as np
import pytest

from poolnet.config import TrainConfig
from poolnet.errors import CheckpointError
from poolnet.nn import Parameter
from poolnet.optim import Adam, lr_at
from poolnet.tensor import default_dtype

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def param(values):
    with default_dtype(np.float64):
        return Parameter(values)


def reference_adam(values, grads, lr, weight_decay=0.0):
    """Straight transcription of the update rule, one call per step sequence."""
    p = np.asarray(values, dtype=np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64) + weight_decay * p
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return p


class TestAdamStep:
    def test_single_step_hand_value(self):
        # unit gradient: both bias-corrected moments are exactly 1
        p = param([1.0])
        p.grad = np.array([1.0])
        Adam([("p", p)], lr=0.1).step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 / (1.0 + EPS), abs=1e-15)

    def test_constant_gradient_moves_by_about_lr(self):
        p = param([0.0])
        opt = Adam([("p", p)], lr=0.01)
        for _ in range(10):
            p.grad = np.array([3.0])
            opt.step()
        # scale-invariance: any constant gradient gives steps of ~lr
        assert p.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_matches_reference_over_several_steps(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=5)
        grads = [rng.normal(size=5) for _ in range(7)]
        p = param(values)
        opt = Adam([("p", p)], lr=0.05, weight_decay=0.01)
        expected = values.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step()
            ge = g + 0.01 * expected
            m = BETA1 * m + (1 - BETA1) * ge
            v = BETA2 * v + (1 - BETA2) * ge * ge
            expected = expected - 0.05 * (m / (1 - BETA1 ** t)) / (
                np.sqrt(v / (1 - BETA2 ** t)) + EPS)
            assert np.allclose(p.data, expected, atol=1e-14)

    def test_weight_decay_enters_the_moments(self):
        # zero gradient but nonzero decay still moves the parameter
        p = param([2.0])
        p.grad = np.zeros(1)
        Adam([("p", p)], lr=0.1, weight_decay=0.5).step()
        expected = reference_adam([2.0], [np.zeros(1)], 0.1, weight_decay=0.5)
        assert p.data[0] == expected[0]
        assert p.data[0] < 2.0

    def test_zero_lr_is_exact_noop(self):
        p = param([1.25])
        p.grad = np.array([0.7])
        Adam([("p", p)], lr=0.0).step()
        assert p.data[0] == 1.25

    def test_missing_gradient_names_the_parameter(self):
        p = param([1.0])
        with pytest.raises(ValueError, match="head.weight"):
            Adam([("head.weight", p)], lr=0.1).step()

    def test_no_trainable_parameters_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_step_counter_advances(self):
        p = param([0.0])
        opt = Adam([("p", p)], lr=0.1)
        for expected in (1, 2, 3):
            p.grad = np.array([1.0])
            opt.step()
            assert opt.step_count == expected


class TestSkippedParameters:
    def test_skipped_parameter_is_untouched(self):
        a = param([1.0])
        b = param([5.0])
        opt = Adam([("a", a), ("b", b)], lr=0.1, require_grads=False)
        a.grad = np.array([1.0])
        opt.step()
        assert b.data[0] == 5.0
        assert np.array_equal(opt.updates, [1, 0])

    def test_intermittent_updates_use_private_step_counts(self):
        # b steps every other iteration; its trajectory must equal a solo
        # parameter stepped with only those gradients
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=2) for _ in range(6)]
        a = param([0.5, -0.5])
        b = param([1.0, 2.0])
        opt = Adam([("a", a), ("b", b)], lr=0.02, require_grads=False)
        for i, g in enumerate(grads):
            a.grad = g.copy()
            b.grad = g.copy() if i % 2 == 0 else None
            opt.step()
        solo = reference_adam([1.0, 2.0], [grads[i] for i in (0, 2, 4)], 0.02)
        assert np.allclose(b.data, solo, atol=1e-14)

    def test_require_grads_true_still_raises(self):
        a = param([1.0])
        opt = Adam([("a", a)], lr=0.1, require_grads=True)
        with pytest.raises(ValueError):
            opt.step()


class TestOptimizerState:
    def run_steps(self, opt, p, grads):
        for g in grads:
            p.grad = np.asarray(g, dtype=np.float64)
            opt.step()

    def test_round_trip_resumes_identically(self):
        rng = np.random.default_rng(11)
        grads = [rng.normal(size=3) for _ in range(8)]
        p_full = param(np.ones(3))
        full = Adam([("p", p_full)], lr=0.03)
        self.run_steps(full, p_full, grads)

        p_resumed = param(np.ones(3))
        first = Adam([("p", p_resumed)], lr=0.03)
        self.run_steps(first, p_resumed, grads[:4])
        state = first.state_dict()
        second = Adam([("p", p_resumed)], lr=0.03)
        second.load_state_dict(state)
        self.run_steps(second, p_resumed, grads[4:])
        assert np.array_equal(p_resumed.data, p_full.data)
        assert second.step_count == full.step_count

    def test_state_dict_keys_use_parameter_names(self):
        p = param([1.0])
        opt = Adam([("layer.weight", p)], lr=0.1)
        keys = set(opt.state_dict())
        assert keys == {"opt/step", "opt/updates", "opt/m/layer.weight", "opt/v/layer.weight"}

    def test_missing_moment_record_raises(self):
        p = param([1.0])
        opt = Adam([("w", p)], lr=0.1)
        state = opt.state_dict()
        del state["opt/m/w"]
        with pytest.raises(CheckpointError):
            Adam([("w", p)], lr=0.1).load_state_dict(state)

    def test_shape_mismatch_raises(self):
        p = param([1.0])
        state = Adam([("w", p)], lr=0.1).state_dict()
        wider = param([1.0, 2.0])
        with pytest.raises(CheckpointError):
            Adam([("w", wider)], lr=0.1).load_state_dict(state)

    def test_zero_grad_clears_parameters(self):
        p = param([1.0])
        p.grad = np.ones(1)
        Adam([("p", p)], lr=0.1).zero_grad()
        assert p.grad is None


class TestLrSchedule:
    def test_flat_then_divided(self):
        config = TrainConfig()
        assert lr_at(0, config) == 5e-5
        assert lr_at(14, config) == 5e-5
        assert lr_at(15, config) == pytest.approx(5e-6, rel=1e-12)
        assert lr_at(23, config) == pytest.approx(5e-6, rel=1e-12)

    def test_custom_drop(self):
        config = TrainConfig(lr=1e-3, epochs=10, lr_drop_epoch=4, lr_drop_factor=2.0)
        assert lr_at(3, config) == 1e-3
        assert lr_at(4, config) == pytest.approx(5e-4, rel=1e-12)
