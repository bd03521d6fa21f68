"""PoolNet benchmark: run one workload (or all three) and report its metrics.

    python3 perfbench/run.py --workload infer_400x300 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs half the time untraced and half under the
outside-in tracer and reports per-layer metrics.  Every metric is printed
by name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full result, with
the machine record, is written to ``.perfbench-out/`` (and, traced, the
spans beside it).  ``--write-spec`` regenerates ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(count: int) -> None:
    """Must run before NumPy loads; set-up probes inherit it."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(count)


def build_parser() -> argparse.ArgumentParser:
    sys.path.insert(0, str(HERE))
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help=f"measuring time per run (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py and exit")
    return parser


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in this process; return the full result."""
    import spec
    import workloads
    from machine import machine_record

    work = spec.WORKLOADS[name]
    ledger = workloads.Ledger()
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"work-{os.getpid()}"
    tag = f"{name}-seed{seed}-trace{trace}"
    try:
        given = workloads.prepare(work, seed, out_dir)
        if trace:
            metrics, extra, tracer = workloads.run_traced(work, seed, seconds, given,
                                                          out_dir, ledger)
            tracer.write_spans(OUT / f"{tag}.spans.jsonl")
            names = [n for n, *_ in spec.PER_LAYER]
        else:
            metrics, extra = workloads.run_untraced(work, seed, seconds, given, SRC,
                                                    out_dir, ledger)
            names = [n for n, *_ in spec.END_TO_END]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    extra["failed_ratio"] = ledger.failed / ledger.attempted
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.notes,
        "metrics": {n: {"value": float(metrics[n]), "unit": spec.UNITS[n]} for n in names},
        "extra": extra,
        "machine": machine_record(ROOT, seed),
        "result_file": str((OUT / f"{tag}.json").relative_to(ROOT)),
    }


def report(result: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"seconds {result['seconds']:g}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    extra = result["extra"]
    print(f"  {'failed_ratio':40s} {extra['failed_ratio']:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} attempted operations)")
    for name in ("max_f", "mae"):
        if extra.get(name) is not None:
            print(f"  {name:40s} {extra[name]:14.6g} ratio")
    if "latency_ms_p90" in extra:
        p90 = extra["latency_ms_p90"]
        print(f"  {'latency_ms_p90':40s} " + (f"{p90:14.6g} ms" if p90 is not None else
              f"{'n/a':>14s}    ({extra['items']} items < 100)"))
    print(f"  items {extra['items']}")
    for note in result["failures"]:
        print(f"  FAILED: {note}")
    machine = result["machine"]
    blas = machine["blas"]
    print(f"machine: nproc {machine['nproc']}, {machine['cpu_model']}, "
          f"{blas['name']} {blas['version']} ({blas['threads']} threads), "
          f"POOLNET_THREADS={machine['POOLNET_THREADS']}, "
          f"OPENBLAS_NUM_THREADS={machine['OPENBLAS_NUM_THREADS']}, "
          f"Python {machine['python']}, NumPy {machine['numpy']}, "
          f"commit {machine['commit']}")
    print(f"result: {result['result_file']}")


def write_result(result: dict, path: Path) -> None:
    path.write_text(json.dumps(result, indent=2) + "\n")


def summary_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    import spec

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"perfbench: workload {name} exited with code {done.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "poolnet" / "__init__.py").is_file():
        print(f"perfbench: nothing to measure, {SRC / 'poolnet'} is missing; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    if args.write_spec:
        import spec

        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import spec

    pin_blas_threads(min(spec.BLAS_THREADS, len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    write_result(result, ROOT / result["result_file"])
    report(result)
    print(summary_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
