"""Outside-in tracing: spans around the program's public functions.

``Tracer.install`` replaces each public function listed in ``FUNCTIONS``
(and every alias of it that another ``poolnet`` module imported by name),
``Adam.step`` and ``Module.__call__`` with wrappers that record a span: its
name, start, end, parent span and the model module it ran in.  Tensors
returned by a wrapped op get their ``_vjp`` wrapped too, so backward passes
show up as ``<op>.vjp`` spans charged to the module that ran the op.
``Tracer.restore`` puts every original object back.  Nothing under
``src/`` is changed.

Rules:
- an op called while another op is open is part of it, so
  ``upsample_bilinear`` (recorded as ``tensor.resize_bilinear``) calling
  ``resize_bilinear`` counts once;
- spans stay in memory until ``write_spans``;
- a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

OPS = ("conv2d", "resize_bilinear", "max_pool2d", "avg_pool2d", "adaptive_avg_pool2d",
       "global_avg_pool", "pad_replicate2d", "crop2d", "relu", "add", "mul",
       "concat_channels", "sigmoid", "reduce_sum")

# (module, attribute, span name, kind); kind "op" returns a tensor whose VJP is traced
FUNCTIONS = (
    *[("poolnet.tensor", op, f"tensor.{op}", "op") for op in OPS],
    ("poolnet.tensor", "upsample_bilinear", "tensor.resize_bilinear", "op"),
    ("poolnet.tensor", "backward", "tensor.backward", "call"),
    ("poolnet.losses", "bce_with_logits", "losses.bce_with_logits", "op"),
    ("poolnet.losses", "balanced_bce_with_logits", "losses.balanced_bce_with_logits", "op"),
    ("poolnet.model", "build_model", "model.build", "call"),
    ("poolnet.model", "model_from_checkpoint", "model.from_checkpoint", "call"),
    ("poolnet.checkpoint", "save_checkpoint", "checkpoint.save", "call"),
    ("poolnet.checkpoint", "load_checkpoint", "checkpoint.load", "call"),
    ("poolnet.data", "load_manifest", "data.load_manifest", "call"),
    ("poolnet.data", "load_entry", "data.load_entry", "call"),
    ("poolnet.data", "load_map", "data.load_map", "call"),
    ("poolnet.data", "save_map", "data.save_map", "call"),
    ("poolnet.inference", "predict_sample", "inference.predict_sample", "call"),
    ("poolnet.inference", "predict_manifest", "inference.predict_manifest", "call"),
    ("poolnet.inference", "run_inference", "inference.run_inference", "call"),
    ("poolnet.metrics", "evaluate_pairs", "metrics.evaluate_pairs", "call"),
    ("poolnet.metrics", "pr_sweep", "metrics.pr_sweep", "call"),
    ("poolnet.metrics", "mae", "metrics.mae", "call"),
    ("poolnet.metrics", "write_metrics_csv", "metrics.write_csv", "call"),
    ("poolnet.train", "train_model", "train.loop", "call"),
)


def module_group(attribute: str) -> str:
    """Top-level child of the network -> reported module path."""
    return "fusion" if attribute.startswith(("lateral", "topdown")) else attribute


class Tracer:
    """Records spans as ``[name, start, end, parent, group, kind]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._group: str | None = None
        self._groups: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str, group, kind: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, group, kind])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _inside_op(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][5] == "op"

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._enter(name, self._group, "call")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if name == "checkpoint.save":
                self.counts["checkpoint.save_bytes"] += Path(args[0]).stat().st_size
            return out
        return traced

    def _wrap_op(self, name: str, fn):
        from poolnet.tensor import Tensor

        def traced(*args, **kwargs):
            if self._inside_op():
                return fn(*args, **kwargs)
            group = self._group
            index = self._enter(name, group, "op")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(index)
            flop = 0
            if name == "tensor.conv2d" and isinstance(out, Tensor):
                weight = args[1] if len(args) > 1 else kwargs["weight"]
                _, in_c, kh, kw = weight.shape
                flop = 2 * out.data.size * in_c * kh * kw
                self.counts["conv2d.fwd_flop"] += flop
            vjp = getattr(out, "_vjp", None)
            if vjp is not None and not getattr(vjp, "traced", False):
                out._vjp = self._wrap_vjp(name + ".vjp", vjp, out._parents, group, flop)
            return out
        return traced

    def _wrap_vjp(self, name: str, vjp, parents, group, flop: int):
        counts = self.counts

        def traced(g):
            index = self._enter(name, group, "vjp")
            try:
                grads = tuple(vjp(g))
            finally:
                self._exit(index)
            for parent, pg in zip(parents, grads):
                if pg is None:
                    continue
                counts["vjp.bytes"] += pg.nbytes
                if not (parent.requires_grad or parent._vjp is not None):
                    counts["vjp.discarded_bytes"] += pg.nbytes
            if flop:
                counts["conv2d.vjp_flop"] += 2 * flop  # d_input and d_weight
            if name == "tensor.resize_bilinear.vjp":
                counts["resize_bilinear.vjp_bytes"] += g.nbytes + grads[0].nbytes
            return grads
        traced.traced = True
        return traced

    def _wrap_module_call(self, fn, root_class, module_list_class):
        def traced(module, *args, **kwargs):
            if isinstance(module, root_class):
                groups = {}
                for attribute, child in module._modules.items():
                    members = list(child) if isinstance(child, module_list_class) else [child]
                    for member in members:
                        groups[id(member)] = module_group(attribute)
                self._groups = groups
                name, group = "model.forward", None
            else:
                group = self._groups.get(id(module))
                if group is None:
                    return fn(module, *args, **kwargs)
                name = "model." + group
            outer = self._group
            self._group = group
            index = self._enter(name, group, "module")
            try:
                return fn(module, *args, **kwargs)
            finally:
                self._exit(index)
                self._group = outer
        return traced

    # -- install / restore --------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        import poolnet.model
        import poolnet.nn
        import poolnet.optim

        program = [m for key, m in sorted(sys.modules.items())
                   if key == "poolnet" or key.startswith("poolnet.")]
        for module_name, attribute, name, kind in FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            wrapper = (self._wrap_op if kind == "op" else self._wrap_call)(name, original)
            for module in program:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(poolnet.optim.Adam, "step",
                    self._wrap_call("optim.adam_step", poolnet.optim.Adam.step))
        self._patch(poolnet.nn.Module, "__call__",
                    self._wrap_module_call(poolnet.nn.Module.__call__,
                                           poolnet.model.SaliencyNet, poolnet.nn.ModuleList))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; VJP seconds per module."""
        n = len(self.spans)
        duration = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        covered = np.zeros(n)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                covered[span[3]] += duration[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        vjp_by_group: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            name = span[0]
            calls[name] += 1
            total[name] += duration[i]
            self_time[name] += duration[i] - covered[i]
            if span[5] == "vjp":
                vjp_by_group[span[4]] += duration[i]
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_time),
                "vjp_by_group_s": dict(vjp_by_group),
                "self_total_s": float(np.sum(duration - covered))}

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start and end (s), parent index, module."""
        with open(Path(path), "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span[0], "start": span[1], "end": span[2],
                                     "parent": span[3], "module": span[4]}) + "\n")
