"""Command-line surface: train, infer, eval, ablate, bench, synth.

Configuration comes from an optional ``key = value`` file plus flags; flags
win.  Exit codes: 0 success, 2 configuration error, 3 data error (a file
that is missing, malformed or cannot be read or written, or an input too
large for memory), 4 numeric failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .config import (CONFIG_FIELDS, RunConfig, _parse_bool, ablation_configs, build_run_config,
                     read_config_file, thread_cap)
from .data import (load_manifest, load_map, map_names, padded_size, synth_edge_dataset,
                   synth_saliency_dataset, write_csv)
from .errors import CheckpointError, ConfigError, DataError, NumericError, ShapeError
from .inference import predict_manifest, run_inference
from .metrics import evaluate_pairs, write_metrics_csv
from .model import build_model, model_from_checkpoint
from .tensor import Tensor, no_grad
from .train import train_model


def _parse_wxh(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.lower().split("x")]
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() and int(p) > 0 for p in parts):
        raise ConfigError(f"expected a size like 400x300, both sides positive, got {text!r}")
    return int(parts[0]), int(parts[1])


def _flag_type(parse):
    # argparse reports ArgumentTypeError messages verbatim; anything else
    # becomes an opaque "invalid value" line
    def convert(text: str):
        try:
            return parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, metavar="FILE",
                        help="key = value configuration file ('#' starts a comment)")


def _add_flag(parser, key: str, help_text: str = "", flag: str = "") -> None:
    """The flag for one ``CONFIG_FIELDS`` key, parsed as the config file parses it."""
    _, parse, row_help, metavar = CONFIG_FIELDS[key]
    how = (dict(action=argparse.BooleanOptionalAction) if parse is _parse_bool
           else dict(type=_flag_type(parse), metavar=metavar))
    parser.add_argument(flag or "--" + key.replace("_", "-"), dest=key,
                        default=argparse.SUPPRESS, help=help_text or row_help, **how)


def _add_setting_flags(parser: argparse.ArgumentParser,
                       sections: tuple[str, ...] = ("model", "train"),
                       switches: bool = True) -> None:
    """Grouped flags for the model and training keys but ``seed``, in table order.

    ``switches=False`` leaves out the model's boolean switches.
    """
    groups = {section: parser.add_argument_group(title)
              for section, title in (("model", "model"), ("train", "training"))
              if section in sections}
    for key, (section, parse, _, _) in CONFIG_FIELDS.items():
        if section not in groups or key == "seed":
            continue
        if switches or section != "model" or parse is not _parse_bool:
            _add_flag(groups[section], key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolnet",
        description="Pooling-based salient-object detection: train, run, and "
                    "evaluate models on PGM/PPM data.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    train = commands.add_parser("train", help="train a model from a manifest",
                                description="Train a model and write per-epoch "
                                            "checkpoints, a final checkpoint, and a step log.")
    _add_config_flag(train)
    _add_flag(train, "seed")
    _add_flag(train, "saliency_manifest", "training manifest (image<TAB>mask lines)")
    _add_flag(train, "edge_manifest", "edge manifest for joint training")
    _add_flag(train, "output_dir", "where checkpoints and the log go")
    train.add_argument("--resume", type=Path, metavar="CKPT",
                       help="continue from a checkpoint written by a previous run")
    _add_setting_flags(train)
    train.set_defaults(func=cmd_train)

    infer = commands.add_parser("infer", help="write saliency maps for a manifest",
                                description="Run a checkpoint over a manifest and write "
                                            "8-bit saliency (and edge) maps.")
    _add_config_flag(infer)
    _add_flag(infer, "checkpoint", "checkpoint to run")
    _add_flag(infer, "saliency_manifest", "input manifest", flag="--manifest")
    _add_flag(infer, "output_dir", "where predicted maps go")
    infer.set_defaults(func=cmd_infer)

    evaluate = commands.add_parser("eval", help="score predictions against ground truth",
                                   description="Compare predicted maps with manifest "
                                               "ground truth and write a metrics CSV.")
    evaluate.add_argument("--manifest", type=Path, required=True, metavar="FILE",
                          help="manifest providing ground-truth maps")
    evaluate.add_argument("--pred-dir", type=Path, required=True, metavar="DIR",
                          help="directory of predicted maps named <image-stem>.pgm")
    evaluate.add_argument("--out", type=Path, default=Path("metrics.csv"), metavar="FILE",
                          help="metrics CSV path (default metrics.csv)")
    evaluate.set_defaults(func=cmd_eval)

    ablate = commands.add_parser("ablate", help="train and score all six switch combinations",
                                 description="Train the six pyramid-pooling/guidance/"
                                             "aggregation switch combinations and write a "
                                             "summary CSV.")
    _add_config_flag(ablate)
    _add_flag(ablate, "seed")
    _add_flag(ablate, "saliency_manifest", "manifest used for training and scoring")
    _add_flag(ablate, "output_dir", "where ablation.csv goes")
    _add_setting_flags(ablate, switches=False)
    ablate.set_defaults(func=cmd_ablate)

    bench = commands.add_parser("bench", help="measure forward latency",
                                description="Time model forwards on random input and "
                                            "report latency statistics.")
    _add_config_flag(bench)
    _add_flag(bench, "seed")
    bench.add_argument("--size", type=_flag_type(_parse_wxh), default=(400, 300), metavar="WxH",
                       help="input size (default 400x300; padded up to multiples of 16)")
    bench.add_argument("--iters", type=int, default=10, help="timed iterations (default 10)")
    bench.add_argument("--warmup", type=int, default=2,
                       help="untimed warm-up iterations (default 2)")
    _add_setting_flags(bench, sections=("model",))
    bench.set_defaults(func=cmd_bench)

    synth = commands.add_parser("synth", help="generate a synthetic dataset",
                                description="Write a deterministic synthetic dataset "
                                            "(images, ground truth, manifest.tsv).")
    synth.add_argument("--kind", choices=("saliency", "edge"), required=True,
                       help="dataset flavor")
    synth.add_argument("--count", type=int, required=True, help="number of samples")
    synth.add_argument("--size", type=int, default=64,
                       help="square image side in pixels (default 64)")
    _add_flag(synth, "seed")
    synth.add_argument("--output-dir", type=Path, required=True, metavar="DIR",
                       help="dataset directory")
    synth.set_defaults(func=cmd_synth)
    return parser


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    file_values = None
    if getattr(args, "config", None) is not None:
        file_values = read_config_file(args.config)
    overrides = {key: value for key, value in vars(args).items() if key in CONFIG_FIELDS}
    return build_run_config(file_values, overrides)


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"{what} is required (flag or config file)")
    return value


def cmd_train(args: argparse.Namespace) -> int:
    run = _load_run_config(args)
    _require(run.saliency_manifest, "a saliency manifest")
    _require(run.output_dir, "an output directory")
    if run.train.joint_edge:
        _require(run.edge_manifest, "an edge manifest (joint training)")
    saliency = load_manifest(run.saliency_manifest, "saliency")
    edge = load_manifest(run.edge_manifest, "edge") if run.train.joint_edge else None
    resume_state = None
    if args.resume is not None:
        model, resume_state = model_from_checkpoint(args.resume)
    else:
        model = build_model(run.model, seed=run.train.seed)
    result = train_model(model, run.train, saliency, edge,
                         output_dir=run.output_dir, resume_state=resume_state)
    print(f"trained {len(result.steps)} steps, "
          f"wrote {len(result.checkpoints)} checkpoints to {run.output_dir}")
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    run = _load_run_config(args)
    _require(run.checkpoint, "a checkpoint")
    _require(run.saliency_manifest, "an input manifest")
    _require(run.output_dir, "an output directory")
    manifest = load_manifest(run.saliency_manifest, "saliency")
    model, _ = model_from_checkpoint(run.checkpoint)
    written = run_inference(model, manifest, run.output_dir)
    print(f"wrote {len(written)} maps to {run.output_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest, "saliency")
    pairs = []
    for (image_path, gt_path), (name,) in zip(manifest.entries, map_names(manifest, False)):
        pred_path = args.pred_dir / name
        if not pred_path.is_file():
            raise DataError(f"missing prediction for {image_path.name}: {pred_path}")
        pred, gt = load_map(pred_path), load_map(gt_path)
        if pred.shape != gt.shape:
            raise DataError(f"{pred_path}: prediction size {pred.shape[1]}x{pred.shape[0]} "
                            f"differs from ground truth size {gt.shape[1]}x{gt.shape[0]}")
        pairs.append((pred, gt))
    record = evaluate_pairs(pairs)
    write_metrics_csv(record, args.out)
    print(f"max_f {record.max_f:.6f}")
    print(f"mae {record.mae:.6f}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    run = _load_run_config(args)
    _require(run.saliency_manifest, "a saliency manifest")
    _require(run.output_dir, "an output directory")
    manifest = load_manifest(run.saliency_manifest, "saliency")
    ground_truths = [load_map(gt) for _, gt in manifest.entries]
    # an unwritable output directory fails here, not after six trainings
    run.output_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for row_number, model_config in ablation_configs(run.model):
        model = build_model(model_config, seed=run.train.seed)
        train_model(model, run.train, manifest)
        predictions = predict_manifest(model, manifest)
        record = evaluate_pairs(list(zip(predictions, ground_truths)))
        rows.append([row_number, int(model_config.enable_ppm), int(model_config.enable_ggf),
                     int(model_config.enable_fam), f"{record.max_f:.6f}", f"{record.mae:.6f}"])
        print(f"row {row_number}: ppm={model_config.enable_ppm} "
              f"ggf={model_config.enable_ggf} fam={model_config.enable_fam} "
              f"max_f={record.max_f:.4f} mae={record.mae:.4f}")
    table = run.output_dir / "ablation.csv"
    write_csv(table, [["row", "ppm", "ggf", "fam", "max_f", "mae"], *rows])
    print(f"wrote {table}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    run = _load_run_config(args)
    if args.iters < 1 or args.warmup < 0:
        raise ConfigError(f"iters must be >= 1 and warmup >= 0, got {args.iters}, {args.warmup}")
    width, height = args.size
    padded_h, padded_w = padded_size(height, width)
    model = build_model(run.model, seed=run.train.seed)
    rng = np.random.default_rng(run.train.seed)
    x = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, padded_h, padded_w)))
    timings = []
    with no_grad():
        for _ in range(args.warmup):
            model(x)
        for _ in range(args.iters):
            start = time.perf_counter()
            model(x)
            timings.append((time.perf_counter() - start) * 1000.0)
    mean_ms = float(np.mean(timings))
    print(f"input {width}x{height} (padded {padded_w}x{padded_h}), "
          f"{args.iters} iters after {args.warmup} warm-up")
    print(f"mean_ms {mean_ms:.2f}")
    print(f"p50_ms {float(np.percentile(timings, 50)):.2f}")
    print(f"p95_ms {float(np.percentile(timings, 95)):.2f}")
    print(f"fps {1000.0 / mean_ms:.2f}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    seed = getattr(args, "seed", 0)
    generate = synth_saliency_dataset if args.kind == "saliency" else synth_edge_dataset
    manifest = generate(args.output_dir, args.count, args.size, seed)
    print(f"wrote {len(manifest)} samples to {args.output_dir}")
    return 0


def main(argv=None) -> int:
    try:
        thread_cap()
        args = build_parser().parse_args(argv)
        # each non-finite result is checked where it matters (the training
        # loss, every map before it is saved) and ends as one NumericError
        # line; NumPy's own warnings would only print a second report first
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, ShapeError, OSError, MemoryError) as exc:
        what = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"data error: {what}{exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt as exc:
        # every file a run writes is atomic, so what it left is complete
        line = "interrupted"
        if exc.args:  # train_model's interrupt carries its last checkpoint
            path = exc.args[0]
            line += f"; last complete checkpoint {path}, continue with --resume {path}"
        print(line, file=sys.stderr)
        return 130
