"""What the benchmark runs and reports: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/run.py --write-spec``); a self-test checks that the
two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

RUN_SECONDS = 30
SETUP_PROBES = 5        # cold set-ups per run; setup_s is their median
EVAL_PROBES = 3         # processes timing the eval path; eval_maps_per_s is their median
MIN_EVAL_PASSES = 3
# One BLAS thread: on a shared 2-core machine two threads were no faster at
# 400x300 and spread twice as much from run to run
BLAS_THREADS = 1
CPU_ROTATION_S = 0.02   # timed loops hop between CPUs this often (see rotate_cpus)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "infer" or "train"
    width: int
    height: int
    images: int          # generated image/ground-truth pairs
    model: dict          # ModelConfig keyword arguments
    train: dict = field(default_factory=dict)  # TrainConfig keyword arguments
    learns: bool = False  # check: the scored model's MAE beats the untrained model's
    eval_share: float = 0.1  # share of the run spent timing the evaluation pass
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload("infer_400x300", "infer", 400, 300, images=8, model={}, eval_share=0.2,
             why="poolnet infer + eval at the paper's real-time size; forward only, "
                 "so VJP, autograd and optimizer changes must not move it"),
    Workload("train_64", "train", 64, 64, images=20, model={"ppm_sizes": [2, 3]},
             train={"lr": 1e-3, "epochs": 3, "lr_drop_epoch": 2}, learns=True,
             why="the acceptance gate's training traffic at 64x64, batch 1: small "
                 "tensors, so fixed per-call cost and Adam dominate"),
    Workload("train_400x300", "train", 400, 300, images=2, model={},
             train={"epochs": 2, "lr_drop_epoch": 1},
             why="the paper's training setting, native 400x300 at batch 1: large "
                 "arrays, so conv and resize VJP kernels dominate"),
)}

# (name, unit, better, bound); bound is the share of the parent's median a
# metric may worsen by before a change is rejected.  On the shared 2-core box
# the benchmark was tuned on, the interquartile range of ten seeds' values
# reached 8-21% of the median for the timed metrics (the machine's speed
# drifts by that much over tens of seconds), 3% for peak RSS.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("eval_maps_per_s", "1/s", "higher", 0.25),
)

TENSOR_OPS = ("conv2d", "resize_bilinear", "max_pool2d", "avg_pool2d", "adaptive_avg_pool2d",
              "global_avg_pool", "pad_replicate2d", "crop2d", "relu", "add",
              "concat_channels", "sigmoid")
MODEL_GROUPS = ("backbone", "pyramid_pool", "guidance", "fusion", "merge4", "merge3",
                "merge2", "head")

# (name, unit, better)
PER_LAYER = (
    *[(f"tensor.{op}.{what}", unit, "lower") for op in TENSOR_OPS
      for what, unit in (("calls", "count"), ("fwd_ms", "ms"), ("vjp_ms", "ms"))],
    ("tensor.conv2d.gflop", "GFLOP", "lower"),
    ("tensor.conv2d.fwd_gflops", "GFLOP/s", "higher"),
    ("tensor.conv2d.vjp_gflops", "GFLOP/s", "higher"),
    ("tensor.resize_bilinear.vjp_mb", "MB", "lower"),
    ("tensor.backward.ms", "ms", "lower"),
    ("tensor.backward.self_ms", "ms", "lower"),
    ("tensor.backward.nodes", "count", "lower"),
    ("tensor.vjp.discarded_mb", "MB", "lower"),
    ("tensor.vjp.useful_frac", "ratio", "higher"),
    *[(f"model.{group}.{what}", "ms", "lower") for group in MODEL_GROUPS
      for what in ("fwd_ms", "bwd_ms")],
    ("losses.bce_with_logits.fwd_ms", "ms", "lower"),
    ("losses.bce_with_logits.vjp_ms", "ms", "lower"),
    ("optim.adam_step.ms", "ms", "lower"),
    ("optim.adam_step.calls", "count", "lower"),
    ("data.load_entry.ms", "ms", "lower"),
    ("data.save_map.ms", "ms", "lower"),
    ("data.load_manifest.ms", "ms", "lower"),
    ("inference.predict_sample.self_ms", "ms", "lower"),
    ("metrics.pr_sweep.ms", "ms", "lower"),
    ("metrics.mae.ms", "ms", "lower"),
    ("checkpoint.save.ms", "ms", "lower"),
    ("checkpoint.save.calls", "count", "lower"),
    ("checkpoint.save_mb", "MB", "lower"),
    ("checkpoint.load.ms", "ms", "lower"),
    ("train.loop.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unaccounted_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
