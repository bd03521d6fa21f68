"""Adam with coupled weight decay, and the step-decay learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .checkpoint import read_ints
from .config import TrainConfig
from .errors import CheckpointError
from .nn import Parameter

# moment decay rates and the denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Base rate until the drop epoch, then divided by the drop factor."""
    if epoch < config.lr_drop_epoch:
        return config.lr
    return config.lr / config.lr_drop_factor


class Adam:
    """Adam with bias correction; weight decay is added to the gradient.

    It takes the ``(name, parameter)`` pairs of ``Module.named_parameters``.
    A parameter without a gradient is an error unless ``require_grads`` is
    false, in which case it is skipped untouched -- alternating training
    leaves each step type's unused branch without gradients by design.  Bias
    correction therefore counts updates per parameter.  ``state_dict``
    exports the moments flat (``opt/m/<name>``) to ride inside a checkpoint;
    they are the live arrays, which the next ``step`` updates in place.
    """

    def __init__(self, named_params, lr: float, weight_decay: float = 0.0,
                 require_grads: bool = True):
        named = list(named_params)
        if not named:
            raise ValueError("Adam: no parameters")
        self.names: list[str] = [name for name, _ in named]
        self.params: list[Parameter] = [p for _, p in named]
        self.lr = lr
        self.weight_decay = weight_decay
        self.require_grads = require_grads
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.updates = np.zeros(len(self.params), dtype=np.int64)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                if self.require_grads:
                    raise ValueError(f"Adam: parameter {self.names[i]!r} has no gradient; "
                                     "was backward run?")
                continue
            g = p.grad.astype(p.dtype, copy=False)
            if self.weight_decay:
                g = g + p.dtype.type(self.weight_decay) * p.data
            self.updates[i] += 1
            t = int(self.updates[i])
            # in place, each product and sum as the textbook expression
            # rounds it: a Python-float factor is cast to the moment's dtype
            m, v = self.m[i], self.v[i]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            g_sq = np.square(g)
            g_sq *= 1.0 - BETA2
            v += g_sq
            # lr * m_hat / (sqrt(v_hat) + eps): the denominator reuses g_sq
            denom = np.divide(v, p.dtype.type(1.0 - BETA2 ** t), out=g_sq)
            np.sqrt(denom, out=denom)
            denom += p.dtype.type(EPS)
            step = m / p.dtype.type(1.0 - BETA1 ** t)
            step *= p.dtype.type(self.lr)
            step /= denom
            p.data -= step

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {"opt/step": np.asarray([self.step_count], dtype=np.float32),
               "opt/updates": self.updates.astype(np.float32)}
        for name, m, v in zip(self.names, self.m, self.v):
            out[f"opt/m/{name}"] = m
            out[f"opt/v/{name}"] = v
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        (self.step_count,) = read_ints(state, "opt/step", 1)
        self.updates = np.asarray(read_ints(state, "opt/updates", len(self.params)),
                                  dtype=np.int64)
        for i, (name, p) in enumerate(zip(self.names, self.params)):
            for stash, label in ((self.m, "m"), (self.v, "v")):
                record = state.get(f"opt/{label}/{name}")
                if record is None:
                    raise CheckpointError(f"optimizer state lacks 'opt/{label}/{name}'")
                if record.shape != p.data.shape:
                    raise CheckpointError(f"optimizer record 'opt/{label}/{name}' has shape "
                                          f"{record.shape}, expected {p.data.shape}")
                stash[i] = record.astype(p.dtype, copy=True)
