"""Run one workload: generate inputs, set up, time, check and report.

The program is driven only through its public modules, always looked up
as module attributes (``poolnet.inference.run_inference``) so the tracer's
wrappers are seen.  Untimed work (input generation, warm-up, output
checks) stays outside the timed loops.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import poolnet
import poolnet.data
import poolnet.inference
import poolnet.metrics
import poolnet.model
import poolnet.optim
import poolnet.train
from poolnet.errors import PoolNetError

import inputs
import spec
from tracer import Tracer

HERE = Path(__file__).resolve().parent
# Fixed from the dtype before measuring: 2**10 float32 epsilons.  The maps
# measured here differ from a float64 forward by about 1e-7.
PRECISION_TOLERANCE = 2.0 ** 10 * float(np.finfo(np.float32).eps)
UNACCOUNTED_TOLERANCE = 0.02  # traced self times vs traced end-to-end time


@dataclass
class Ledger:
    """Attempted and failed operations, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


@dataclass
class Inputs:
    manifest_path: Path
    items: list          # one-entry manifests, one per inference item
    checkpoint: Path | None


@dataclass
class Loop:
    """What a timed loop did."""

    items: int = 0
    wall_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    first_round: object = None   # TrainResult of the first, complete round


def model_config(work: spec.Workload) -> poolnet.ModelConfig:
    return poolnet.ModelConfig(**work.model)


def train_config(work: spec.Workload, seed: int) -> poolnet.TrainConfig:
    return poolnet.TrainConfig(batch_size=1, seed=seed, **work.train)


def prepare(work: spec.Workload, seed: int, work_dir: Path) -> Inputs:
    """Write every input file the program will read."""
    data_dir = work_dir / "data"
    manifest = inputs.write_dataset(data_dir, seed, work.images, work.width, work.height)
    if work.kind != "infer":
        return Inputs(manifest, [], None)
    items = []
    for i, line in enumerate(manifest.read_text().splitlines()):
        item = data_dir / f"item_{i:04d}.tsv"
        item.write_text(line + "\n")
        items.append(item)
    checkpoint = work_dir / "model.ckpt"
    model = poolnet.model.build_model(model_config(work), seed=seed)
    poolnet.model.save_model_with_config(checkpoint, model)
    return Inputs(manifest, items, checkpoint)


def _probe(command: list, what: str, count: int, ledger: Ledger) -> list[str]:
    """Run ``command`` ``count`` times; the last output line of each success."""
    lines = []
    for i in range(count):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if ledger.record(done.returncode == 0, f"{what} {i}: {done.stderr.strip()[-300:]}"):
            lines.append(done.stdout.strip().splitlines()[-1])
    return lines


def probe_setup(work: spec.Workload, seed: int, given: Inputs, src: Path,
                ledger: Ledger) -> float:
    """Median cold set-up time over ``SETUP_PROBES`` fresh interpreters."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(src), str(given.manifest_path)]
    if given.checkpoint is not None:
        command += ["--checkpoint", str(given.checkpoint)]
    else:
        command += ["--model-json", json.dumps(work.model), str(seed)]
    times = [float(line) for line in _probe(command, "set-up probe", spec.SETUP_PROBES, ledger)]
    return statistics.median(times) if times else 0.0


def load(work: spec.Workload, seed: int, given: Inputs):
    """The in-process set-up: model and manifests."""
    if given.checkpoint is not None:
        model, _ = poolnet.model.model_from_checkpoint(given.checkpoint)
    else:
        model = poolnet.model.build_model(model_config(work), seed=seed)
    manifest = poolnet.data.load_manifest(given.manifest_path, "saliency")
    items = [poolnet.data.load_manifest(path, "saliency") for path in given.items]
    return model, manifest, items


@contextmanager
def rotate_cpus(period: float = spec.CPU_ROTATION_S):
    """Move the calling thread to the next usable CPU every ``period`` seconds.

    On a shared machine one CPU can run 15-20% slower than another for tens
    of seconds, and a single-threaded run would stay on whichever it started
    on.  Rotating makes every timed item sample all CPUs alike.
    """
    cpus = sorted(os.sched_getaffinity(0))
    thread_id = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        turn = 0
        while not stop.wait(period):
            turn += 1
            os.sched_setaffinity(thread_id, {cpus[turn % len(cpus)]})

    rotator = threading.Thread(target=rotate, daemon=True)
    if len(cpus) > 1:
        rotator.start()
    try:
        yield
    finally:
        stop.set()
        if rotator.is_alive():
            rotator.join(timeout=10)
        os.sched_setaffinity(thread_id, cpus)


def _map_ok(values, shape) -> bool:
    values = np.asarray(values)
    return (values.shape == shape and bool(np.isfinite(values).all())
            and values.min() >= 0.0 and values.max() <= 1.0)


@contextmanager
def checked_save_map(shape, flags: list):
    """Check every map inference writes: finite, in [0, 1], original size."""
    original = poolnet.inference.save_map

    def save_map(values, path):
        flags.append(_map_ok(values, shape))
        return original(values, path)

    poolnet.inference.save_map = save_map
    try:
        yield
    finally:
        poolnet.inference.save_map = original


def infer_loop(work: spec.Workload, model, items: list, pred_dir: Path, budget: float,
               ledger: Ledger) -> Loop:
    """One image per ``run_inference`` call, cycling the manifest, until the
    budget is spent and every image has been written at least once."""
    loop = Loop()
    flags: list = []
    start = time.perf_counter()
    with checked_save_map((work.height, work.width), flags), rotate_cpus():
        while True:
            entry = items[loop.items % len(items)]
            flags.clear()
            t0 = time.perf_counter()
            try:
                poolnet.inference.run_inference(model, entry, pred_dir)
                ok, note = flags == [True], f"item {loop.items}: map check failed"
            except PoolNetError as exc:
                ok, note = False, f"item {loop.items}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            loop.latencies_s.append(t1 - t0)
            loop.items += 1
            if not ledger.record(ok, note):
                break
            if t1 - start >= budget and loop.items >= len(items):
                break
    loop.wall_s = time.perf_counter() - start
    return loop


@contextmanager
def step_clock(marks: list):
    """Time stamp the end of every optimizer step."""
    adam = poolnet.optim.Adam
    original = adam.__dict__["step"]

    def step(self):
        original(self)
        marks.append(time.perf_counter())

    adam.step = step
    try:
        yield
    finally:
        adam.step = original


def train_loop(work: spec.Workload, seed: int, manifest, out_dir: Path, budget: float,
               ledger: Ledger) -> Loop:
    """Rounds of ``train_model`` on a fresh seeded model until the budget is
    spent.  The first round always completes and is the one scored; later
    rounds stop early through ``max_steps`` so the loop ends near the budget."""
    loop = Loop()
    config, train = model_config(work), train_config(work, seed)
    marks: list = []
    start = time.perf_counter()
    rounds = 0
    with step_clock(marks), rotate_cpus():
        while True:
            max_steps = None
            if rounds:
                elapsed = time.perf_counter() - start
                max_steps = int((budget - elapsed) / (elapsed / loop.items))
                if max_steps < 1:
                    break
            model = poolnet.model.build_model(config, seed=seed)
            # the first round's files are kept for the checks; later rounds share a directory
            marks.clear()
            t0 = time.perf_counter()
            try:
                result = poolnet.train.train_model(model, train, manifest,
                                                   output_dir=out_dir / f"round{min(rounds, 1)}",
                                                   max_steps=max_steps)
            except PoolNetError as exc:
                loop.items += len(marks) + 1
                for _ in marks:
                    ledger.record(True, "")
                ledger.record(False, f"round {rounds}: {type(exc).__name__}: {exc}")
                break
            loop.latencies_s.extend(np.diff([t0] + marks).tolist())
            loop.items += len(result.steps)
            for record in result.steps:
                ledger.record(bool(np.isfinite(record.loss_value)),
                              f"round {rounds} step {record.step}: loss {record.loss_value}")
            if rounds == 0:
                loop.first_round = result
            rounds += 1
    loop.wall_s = time.perf_counter() - start
    return loop


def predictions(work: spec.Workload, seed: int, loop: Loop, model, manifest, out_dir: Path,
                ledger: Ledger):
    """Make sure ``out_dir/pred`` holds the maps to score; return it and the
    model that predicted them.  Inference wrote its maps already; training
    runs score the first round's model on its own training set."""
    pred_dir = out_dir / "pred"
    if work.kind == "infer":
        return pred_dir, model
    model = loop.first_round.model
    maps = poolnet.inference.predict_manifest(model, manifest)
    pred_dir.mkdir(parents=True, exist_ok=True)
    for (image, _), values in zip(manifest.entries, maps):
        if ledger.record(_map_ok(values, (work.height, work.width)),
                         f"trained prediction {image.stem}: map check failed"):
            poolnet.data.save_map(values, pred_dir / f"{image.stem}.pgm")
    if work.learns:
        truths = [poolnet.data.load_map(gt) for _, gt in manifest.entries]
        untrained = poolnet.model.build_model(model_config(work), seed=seed)
        before = poolnet.metrics.evaluate_pairs(
            list(zip(poolnet.inference.predict_manifest(untrained, manifest), truths))).mae
        after = poolnet.metrics.evaluate_pairs(list(zip(maps, truths))).mae
        ledger.record(after < before,
                      f"training did not lower MAE: {after:.4f}, untrained {before:.4f}")
    return pred_dir, model


def evaluate(manifest, pred_dir: Path, out_csv: Path, budget: float, ledger: Ledger):
    """The ``poolnet eval`` path -- load prediction and ground-truth maps,
    ``evaluate_pairs``, write the metrics CSV -- repeated for the budget and
    at least ``MIN_EVAL_PASSES`` times.  Returns (record, maps per second)."""
    times = []
    start = time.perf_counter()
    try:
        with rotate_cpus():
            while len(times) < spec.MIN_EVAL_PASSES or time.perf_counter() - start < budget:
                t0 = time.perf_counter()
                pairs = [(poolnet.data.load_map(pred_dir / f"{image.stem}.pgm"),
                          poolnet.data.load_map(gt)) for image, gt in manifest.entries]
                record = poolnet.metrics.evaluate_pairs(pairs)
                poolnet.metrics.write_metrics_csv(record, out_csv)
                times.append(time.perf_counter() - t0)
    except (PoolNetError, ValueError) as exc:
        ledger.record(False, f"evaluation: {type(exc).__name__}: {exc}")
        return None, 0.0
    ledger.record(True, "")
    return record, len(manifest) / statistics.median(times)


def probe_eval(given: Inputs, pred_dir: Path, out_dir: Path, src: Path, budget: float,
               ledger: Ledger):
    """``evaluate`` in ``EVAL_PROBES`` fresh interpreters, since its speed
    varies more between processes than within one.  Returns
    (max_f, mae, median maps per second)."""
    command = [sys.executable, str(HERE / "eval_probe.py"), str(src), str(given.manifest_path),
               str(pred_dir), str(out_dir / "metrics.csv"), repr(budget / spec.EVAL_PROBES)]
    runs = [json.loads(line) for line in _probe(command, "eval probe", spec.EVAL_PROBES, ledger)]
    if not runs:
        return None, None, 0.0
    rate = statistics.median(run["maps_per_s"] for run in runs)
    return runs[0]["max_f"], runs[0]["mae"], rate


def precision_error(model, checkpoint: Path, manifest) -> float:
    """Max |float32 - float64| saliency on the first image, same weights."""
    sample = poolnet.data.load_entry(manifest, 0)
    single, _ = poolnet.inference.predict_sample(model, sample)
    with poolnet.default_dtype(np.float64):
        model64, _ = poolnet.model.model_from_checkpoint(checkpoint)
        double, _ = poolnet.inference.predict_sample(model64, sample)
    return float(np.max(np.abs(single.astype(np.float64) - double)))


def check_precision(model, given: Inputs, manifest, out_dir: Path, ledger: Ledger):
    checkpoint = given.checkpoint or out_dir / "train" / "round0" / "final.ckpt"
    try:
        error = precision_error(model, checkpoint, manifest)
    except PoolNetError as exc:
        ledger.record(False, f"precision check: {type(exc).__name__}: {exc}")
        return None
    ledger.record(error <= PRECISION_TOLERANCE,
                  f"float32 vs float64 saliency differ by {error:.3g} > {PRECISION_TOLERANCE:.3g}")
    return error


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(work: spec.Workload, seed: int, model, manifest) -> None:
    """Untimed: let lazy allocation and library set-up finish."""
    if work.kind == "infer":
        poolnet.inference.predict_sample(model, poolnet.data.load_entry(manifest, 0))
    else:
        fresh = poolnet.model.build_model(model_config(work), seed=seed)
        poolnet.train.train_model(fresh, train_config(work, seed), manifest, max_steps=1)


def run_loop(work, seed, model, manifest, items, out_dir, budget, ledger) -> Loop:
    if work.kind == "infer":
        return infer_loop(work, model, items, out_dir / "pred", budget, ledger)
    return train_loop(work, seed, manifest, out_dir / "train", budget, ledger)


def scorable(work: spec.Workload, loop: Loop) -> bool:
    return work.kind == "infer" or loop.first_round is not None


def run_untraced(work, seed, seconds, given, src, out_dir, ledger) -> tuple[dict, dict]:
    """End-to-end metrics, and extra figures for the result file."""
    setup_s = probe_setup(work, seed, given, src, ledger)
    model, manifest, items = load(work, seed, given)
    warm_up(work, seed, model, manifest)
    loop = run_loop(work, seed, model, manifest, items, out_dir,
                    seconds * (1 - work.eval_share), ledger)
    max_f, mae, eval_rate, error = None, None, 0.0, None
    if scorable(work, loop):
        pred_dir, model = predictions(work, seed, loop, model, manifest, out_dir, ledger)
        max_f, mae, eval_rate = probe_eval(given, pred_dir, out_dir, src,
                                           seconds * work.eval_share, ledger)
    rss = peak_rss_mb()
    if scorable(work, loop):
        error = check_precision(model, given, manifest, out_dir, ledger)
    latencies = loop.latencies_s or [0.0]
    metrics = {
        "setup_s": setup_s,
        "items_per_s": loop.items / loop.wall_s,
        "latency_ms_p50": statistics.median(latencies) * 1000.0,
        "peak_rss_mb": rss,
        "eval_maps_per_s": eval_rate,
    }
    extra = {
        "items": loop.items,
        "timed_s": loop.wall_s,
        "latency_ms_p90": (float(np.percentile(latencies, 90)) * 1000.0
                           if loop.items >= 100 else None),
        "latencies_ms": [t * 1000.0 for t in loop.latencies_s],
        "max_f": max_f,
        "mae": mae,
        "precision_error": error,
        "precision_tolerance": PRECISION_TOLERANCE,
    }
    return metrics, extra


def run_traced(work, seed, seconds, given, out_dir, ledger) -> tuple[dict, dict, Tracer]:
    """Half the run untraced, half traced; per-layer metrics from the traced
    half, which covers set-up, the timed loop and the evaluation passes."""
    model, manifest, items = load(work, seed, given)
    warm_up(work, seed, model, manifest)
    budget = seconds / 2 * (1 - work.eval_share)
    plain = run_loop(work, seed, model, manifest, items, out_dir / "untraced", budget, ledger)
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        model, manifest, items = load(work, seed, given)
        traced = run_loop(work, seed, model, manifest, items, out_dir, budget, ledger)
    wall = time.perf_counter() - start
    if scorable(work, traced):
        pred_dir, model = predictions(work, seed, traced, model, manifest, out_dir, ledger)
        start = time.perf_counter()
        with tracer:
            evaluate(manifest, pred_dir, out_dir / "metrics.csv", seconds / 2 * work.eval_share,
                     ledger)
        wall += time.perf_counter() - start
        check_precision(model, given, manifest, out_dir, ledger)
    layers = layer_metrics(tracer.summary(), tracer.counts, traced.items, wall)
    plain_rate, traced_rate = plain.items / plain.wall_s, traced.items / traced.wall_s
    layers["trace.overhead_frac"] = plain_rate / traced_rate - 1
    extra = {"items": traced.items, "untraced_items": plain.items, "traced_wall_s": wall,
             "spans": len(tracer.spans)}
    return layers, extra, tracer


def layer_metrics(summary: dict, counts: dict, items: int, wall_s: float) -> dict:
    """Per-layer metrics.  Times are ms per item (image or training step),
    except ``metrics.*`` (ms per evaluated map) and the set-up calls
    ``checkpoint.load`` and ``data.load_manifest`` (ms per call)."""
    total, own, calls = summary["total_s"], summary["self_s"], summary["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(name, table=total, per=items):
        return ratio(table.get(name, 0.0) * 1000.0, per)

    def per_call(name):
        return ms(name, per=calls.get(name, 0))

    out = {}
    for op in spec.TENSOR_OPS:
        out[f"tensor.{op}.calls"] = ratio(calls.get(f"tensor.{op}", 0), items)
        out[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}")
        out[f"tensor.{op}.vjp_ms"] = ms(f"tensor.{op}.vjp")
    out["tensor.conv2d.gflop"] = ratio(counts["conv2d.fwd_flop"] / 1e9, items)
    out["tensor.conv2d.fwd_gflops"] = ratio(counts["conv2d.fwd_flop"] / 1e9,
                                            total.get("tensor.conv2d", 0.0))
    out["tensor.conv2d.vjp_gflops"] = ratio(counts["conv2d.vjp_flop"] / 1e9,
                                            total.get("tensor.conv2d.vjp", 0.0))
    out["tensor.resize_bilinear.vjp_mb"] = ratio(counts["resize_bilinear.vjp_bytes"] / 1e6, items)
    out["tensor.backward.ms"] = ms("tensor.backward")
    out["tensor.backward.self_ms"] = ms("tensor.backward", own)
    out["tensor.backward.nodes"] = ratio(sum(n for name, n in calls.items()
                                             if name.endswith(".vjp")), items)
    out["tensor.vjp.discarded_mb"] = ratio(counts["vjp.discarded_bytes"] / 1e6, items)
    out["tensor.vjp.useful_frac"] = ratio(counts["vjp.bytes"] - counts["vjp.discarded_bytes"],
                                          counts["vjp.bytes"])
    for group in spec.MODEL_GROUPS:
        out[f"model.{group}.fwd_ms"] = ms(f"model.{group}")
        out[f"model.{group}.bwd_ms"] = ms(group, summary["vjp_by_group_s"])
    out["losses.bce_with_logits.fwd_ms"] = ms("losses.bce_with_logits")
    out["losses.bce_with_logits.vjp_ms"] = ms("losses.bce_with_logits.vjp")
    out["optim.adam_step.ms"] = ms("optim.adam_step")
    out["optim.adam_step.calls"] = ratio(calls.get("optim.adam_step", 0), items)
    out["data.load_entry.ms"] = ms("data.load_entry")
    out["data.save_map.ms"] = ms("data.save_map")
    out["data.load_manifest.ms"] = per_call("data.load_manifest")
    out["inference.predict_sample.self_ms"] = ms("inference.predict_sample", own)
    maps = calls.get("metrics.mae", 0)
    out["metrics.pr_sweep.ms"] = ms("metrics.pr_sweep", per=maps)
    out["metrics.mae.ms"] = ms("metrics.mae", per=maps)
    out["checkpoint.save.ms"] = ms("checkpoint.save")
    out["checkpoint.save.calls"] = ratio(calls.get("checkpoint.save", 0), items)
    out["checkpoint.save_mb"] = ratio(counts["checkpoint.save_bytes"] / 1e6,
                                      calls.get("checkpoint.save", 0))
    out["checkpoint.load.ms"] = per_call("checkpoint.load")
    out["train.loop.self_ms"] = ms("train.loop", own)
    out["trace.unaccounted_frac"] = ratio(wall_s - summary["self_total_s"], wall_s)
    return out
