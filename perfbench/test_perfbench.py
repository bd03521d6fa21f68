"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They use shrunken copies of the workloads (one or two images, one epoch)
and the shortest possible runs, so the whole file takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import poolnet.nn  # noqa: E402
import poolnet.optim  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from machine import machine_record  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {
    "infer_400x300": {"images": 1},
    "train_64": {"images": 2, "train": {"lr": 1e-3, "epochs": 1, "lr_drop_epoch": 0}},
    "train_400x300": {"images": 1, "train": {"epochs": 1, "lr_drop_epoch": 0}},
}
SEED = 3
TINY_BUDGET = 0.01  # loops still run their minimum: one pass, one full round


def small(name: str) -> spec.Workload:
    return dataclasses.replace(spec.WORKLOADS[name], **SMALL[name])


def program_namespace() -> dict:
    """Every name the tracer may replace, mapped to the object it holds now."""
    names = {}
    for key, module in sorted(sys.modules.items()):
        if key == "poolnet" or key.startswith("poolnet."):
            names.update({(key, attr): value for attr, value in vars(module).items()})
    names[("Module", "__call__")] = poolnet.nn.Module.__dict__["__call__"]
    names[("Adam", "step")] = poolnet.optim.Adam.__dict__["step"]
    return names


def outputs(out_dir: Path) -> dict:
    """Bytes of every map, checkpoint and log a loop wrote."""
    return {path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*"))
            if path.suffix in (".pgm", ".ckpt", ".csv") and "untraced" not in path.parts}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """A shrunken traced run of every workload: (layers, extra, ledger, tracer)."""
    results = {}
    for name in spec.WORKLOADS:
        work = small(name)
        out_dir = tmp_path_factory.mktemp(name)
        given = workloads.prepare(work, SEED, out_dir)
        ledger = workloads.Ledger()
        layers, extra, tracer = workloads.run_traced(work, SEED, TINY_BUDGET, given, out_dir,
                                                     ledger)
        results[name] = (layers, extra, ledger, tracer)
    return results


@pytest.mark.parametrize("name", ["infer_400x300", "train_64"])
def test_traced_outputs_are_bitwise_identical_to_untraced(name, tmp_path):
    work = small(name)
    written = []
    for traced in (False, True):
        out_dir = tmp_path / ("traced" if traced else "plain")
        given = workloads.prepare(work, SEED, out_dir)
        ledger = workloads.Ledger()
        model, manifest, items = workloads.load(work, SEED, given)
        if traced:
            with Tracer():
                workloads.run_loop(work, SEED, model, manifest, items, out_dir, TINY_BUDGET,
                                   ledger)
        else:
            workloads.run_loop(work, SEED, model, manifest, items, out_dir, TINY_BUDGET, ledger)
        assert ledger.failed == 0, ledger.notes
        written.append(outputs(out_dir))
    plain, traced = written
    assert plain and plain.keys() == traced.keys()
    assert any(key.endswith(".ckpt") or key.endswith(".pgm") for key in plain)
    for key in plain:
        assert plain[key] == traced[key], key


def test_tracer_restores_every_wrapped_name(tmp_path):
    before = program_namespace()
    work = small("train_64")
    given = workloads.prepare(work, SEED, tmp_path)
    tracer = Tracer()
    with tracer:
        model, manifest, items = workloads.load(work, SEED, given)
        workloads.run_loop(work, SEED, model, manifest, items, tmp_path, TINY_BUDGET,
                           workloads.Ledger())
        during = program_namespace()
    after = program_namespace()
    assert tracer.spans
    replaced = [key for key in before if during[key] is not before[key]]
    assert ("poolnet.tensor", "conv2d") in replaced and ("Module", "__call__") in replaced
    assert before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before), \
        [key for key in before if after[key] is not before[key]]


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_self_times_add_up_to_traced_end_to_end_time(traced_runs, name):
    layers, extra, ledger, tracer = traced_runs[name]
    assert ledger.failed == 0, ledger.notes
    assert abs(layers["trace.unaccounted_frac"]) <= workloads.UNACCOUNTED_TOLERANCE
    summary = tracer.summary()
    assert summary["self_total_s"] == pytest.approx(
        sum(span[2] - span[1] for span in tracer.spans if span[3] < 0), rel=1e-9)
    assert min(summary["self_s"].values()) >= -1e-6


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(traced_runs, name):
    layers = traced_runs[name][0]
    assert set(layers) == {n for n, *_ in spec.PER_LAYER}
    assert layers["tensor.conv2d.calls"] > 0 and layers["tensor.conv2d.fwd_ms"] > 0
    assert layers["tensor.conv2d.gflop"] > 0 and layers["metrics.pr_sweep.ms"] > 0


def test_forward_only_workload_reads_zero_for_training_layers(traced_runs):
    layers = traced_runs["infer_400x300"][0]
    training = [name for name in layers
                if name.endswith(".vjp_ms") or name.startswith(("tensor.backward.", "optim.",
                                                                "checkpoint.save"))]
    assert len(training) >= 15
    assert {name: layers[name] for name in training} == dict.fromkeys(training, 0.0)


def test_training_layers_are_seen_on_train_workloads(traced_runs):
    for name in ("train_64", "train_400x300"):
        layers = traced_runs[name][0]
        assert layers["optim.adam_step.calls"] == 1.0
        assert layers["tensor.backward.nodes"] > 0 and layers["tensor.conv2d.vjp_ms"] > 0
        assert layers["checkpoint.save_mb"] > 0
        assert layers["tensor.vjp.discarded_mb"] > 0  # the stem conv's image gradient


def test_end_to_end_metrics_are_all_reported_and_nonzero(tmp_path):
    work = small("train_64")
    given = workloads.prepare(work, SEED, tmp_path)
    ledger = workloads.Ledger()
    metrics, extra = workloads.run_untraced(work, SEED, TINY_BUDGET, given, ROOT / "src",
                                            tmp_path, ledger)
    assert ledger.failed == 0, ledger.notes
    assert set(metrics) == {n for n, *_ in spec.END_TO_END}
    assert all(value > 0 for value in metrics.values()), metrics
    assert extra["precision_error"] <= workloads.PRECISION_TOLERANCE


def test_result_json_survives_write_and_read_back(traced_runs, tmp_path):
    layers, extra, ledger, _ = traced_runs["train_64"]
    result = {"workload": "train_64", "correct": True, "attempted": ledger.attempted,
              "failed": ledger.failed, "failures": ledger.notes,
              "metrics": {n: {"value": layers[n], "unit": spec.UNITS[n]} for n in layers},
              "extra": extra, "machine": machine_record(ROOT, SEED)}
    path = tmp_path / "result.json"
    run.write_result(result, path)
    assert json.loads(path.read_text()) == result
    last = json.loads(run.summary_line(result))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"] == result["metrics"]


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    def files(seed, where):
        inputs.write_dataset(tmp_path / where, seed, 3, 40, 30)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / where).iterdir())}

    first, again, other = files(5, "a"), files(5, "b"), files(6, "c")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first if name.endswith(".ppm"))


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
