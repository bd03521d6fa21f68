"""Training loop: optional saliency/edge alternation, scheduling, logging.

Joint mode strictly alternates one saliency step with one edge step, cycling
the smaller dataset, so an epoch has twice as many steps as the saliency set
has batches.  Images keep their native sizes (padded to a multiple of 16,
never resized); iteration follows manifest order and all randomness comes
from the configured seed, making identical-seed runs bitwise identical.

At most one step's autograd graph is alive, and it shrinks as its backward
runs.  ``_train_step`` clears the last step's gradients before the forward
builds the graph; ``backward`` frees each node once its VJP has returned,
so the new gradients grow as the graph goes; the forward's outputs and the
loss die when ``_train_step`` returns, before the next batch is loaded.
Before the first step and before any output, every manifest entry is read
as the loader reads it: its padded size must suit the model, and every
batch's entries must share one padded size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .checkpoint import read_ints
from .config import ModelConfig, TrainConfig
from .data import Manifest, atomic_open, load_entry, pad_to_multiple
from .errors import ConfigError, DataError, NumericError
from .losses import balanced_bce_with_logits, bce_with_logits
from .model import SaliencyNet, check_manifest_sizes, save_model_with_config
from .optim import Adam, lr_at
from .tensor import Tensor, add, backward

_AUGMENT_STREAM = 3


@dataclass
class StepRecord:
    epoch: int
    step: int
    loss_type: str  # "sal" | "edge"
    loss_value: float
    lr: float


@dataclass
class TrainResult:
    model: SaliencyNet
    steps: list
    checkpoints: list


def alternation_schedule(n_saliency: int, n_edge: int) -> list[tuple[str, int]]:
    """Per-epoch plan of (step kind, batch index); edge indices wrap around."""
    if n_saliency < 1:
        raise ConfigError(f"need at least one saliency batch, got {n_saliency}")
    if n_edge < 1:
        raise ConfigError(f"joint training needs at least one edge batch, got {n_edge}")
    plan = []
    for i in range(n_saliency):
        plan.append(("sal", i))
        plan.append(("edge", i % n_edge))
    return plan


def augment_hflip(image: np.ndarray, target: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Mirror image and target together along width with probability 0.5."""
    if rng.random() < 0.5:
        return image[..., ::-1].copy(), target[..., ::-1].copy()
    return image, target


def _checked_batches(model_config: ModelConfig, manifest: Manifest,
                     batch_size: int) -> list[list[int]]:
    """Consecutive index batches of ``manifest``, after ``check_manifest_sizes``;
    the entries of a batch must share one padded size to stack."""
    sizes = check_manifest_sizes(model_config, manifest)
    batches = [list(range(lo, min(lo + batch_size, len(sizes))))
               for lo in range(0, len(sizes), batch_size)]
    for first, *rest in batches:
        for i in rest:
            if sizes[i] != sizes[first]:
                raise DataError(f"cannot batch {manifest.entries[first][0]} and "
                                f"{manifest.entries[i][0]}: padded sizes {sizes[first]} and "
                                f"{sizes[i]} differ; use batch_size 1 for variable-size data")
    return batches


def _stack_batch(manifest: Manifest, indices: list[int],
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    samples = (pad_to_multiple(load_entry(manifest, i)) for i in indices)
    images, targets = zip(*(augment_hflip(s.image, s.target, rng) for s in samples))
    return np.stack(images), np.stack(targets)


def _edge_loss(outputs, targets: np.ndarray) -> Tensor:
    loss = balanced_bce_with_logits(outputs[0], targets)
    for side in outputs[1:]:
        loss = add(loss, balanced_bce_with_logits(side, targets))
    return loss


def train_model(model: SaliencyNet, config: TrainConfig, saliency_data: Manifest,
                edge_data: Optional[Manifest] = None, output_dir=None,
                max_steps: Optional[int] = None,
                resume_state: Optional[dict] = None) -> TrainResult:
    """Run the configured epochs; optionally checkpoint and log per epoch.

    With ``output_dir`` set, writes one checkpoint per epoch plus ``final.ckpt``
    and a ``train_log.csv`` of every step.  ``resume_state`` is the state dict
    returned by checkpoint loading and continues epoch and step counters.
    """
    config.validate()
    if saliency_data.kind != "saliency":
        raise DataError(f"saliency manifest has kind {saliency_data.kind!r}")
    if config.joint_edge:
        if not model.config.enable_edge:
            raise ConfigError("joint_edge training requires a model with enable_edge")
        if edge_data is None:
            raise ConfigError("joint_edge training requires an edge manifest")
        if edge_data.kind != "edge":
            raise DataError(f"edge manifest has kind {edge_data.kind!r}")
        edge_batches = _checked_batches(model.config, edge_data, config.batch_size)
    saliency_batches = _checked_batches(model.config, saliency_data, config.batch_size)

    # an edge-equipped model always has branch-private parameters the current
    # loss cannot reach (side heads under the saliency loss, the fusion head
    # under the edge loss), so only edge-free training demands full coverage
    optimizer = Adam(model.named_parameters(), lr=config.lr, weight_decay=config.weight_decay,
                     require_grads=not model.config.enable_edge)
    start_epoch = 0
    if resume_state is not None:
        optimizer.load_state_dict(resume_state)
        start_epoch = read_ints(resume_state, "progress/epoch", 1)[0] + 1

    output_dir = Path(output_dir) if output_dir is not None else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    records: list[StepRecord] = []
    checkpoints: list[Path] = []
    stop = False
    epoch = start_epoch - 1

    for epoch in range(start_epoch, config.epochs):
        lr = lr_at(epoch, config)
        optimizer.lr = lr
        rng = np.random.default_rng([config.seed, _AUGMENT_STREAM, epoch])
        if config.joint_edge:
            plan = alternation_schedule(len(saliency_batches), len(edge_batches))
        else:
            plan = [("sal", i) for i in range(len(saliency_batches))]

        epoch_complete = True
        for plan_index, (kind, batch_index) in enumerate(plan):
            if kind == "sal":
                x, t = _stack_batch(saliency_data, saliency_batches[batch_index], rng)
            else:
                x, t = _stack_batch(edge_data, edge_batches[batch_index], rng)
            loss_value = _train_step(model, optimizer, kind, x, t, epoch)
            records.append(StepRecord(epoch=epoch, step=optimizer.step_count,
                                      loss_type=kind, loss_value=loss_value, lr=lr))
            if max_steps is not None and optimizer.step_count >= max_steps:
                stop = True
                # a stop on the epoch's last batch still finishes the epoch
                epoch_complete = plan_index == len(plan) - 1
                break

        if output_dir is not None and epoch_complete:
            path = output_dir / f"epoch_{epoch + 1:03d}.ckpt"
            _save(path, model, optimizer, epoch)
            checkpoints.append(path)
        if stop:
            break

    if output_dir is not None:
        final = output_dir / "final.ckpt"
        _save(final, model, optimizer, epoch)
        checkpoints.append(final)
        write_train_log(output_dir / "train_log.csv", records)
    return TrainResult(model=model, steps=records, checkpoints=checkpoints)


def _train_step(model: SaliencyNet, optimizer: Adam, kind: str, x: np.ndarray,
                t: np.ndarray, epoch: int) -> float:
    """Clear the last step's gradients, then one forward, loss, backward
    (which consumes the graph) and Adam step."""
    optimizer.zero_grad()
    out = model(Tensor(x))
    if kind == "sal":
        loss = bce_with_logits(out.saliency, t)
    else:
        loss = _edge_loss(out.edges, t)
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        raise NumericError(f"non-finite {kind} loss at epoch {epoch}, "
                           f"step {optimizer.step_count + 1}")
    backward(loss)
    optimizer.step()
    return loss_value


def _save(path: Path, model: SaliencyNet, optimizer: Adam, epoch: int) -> None:
    state = optimizer.state_dict()
    state["progress/epoch"] = np.asarray([epoch], dtype=np.float32)
    save_model_with_config(path, model, state)


def write_train_log(path, records) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "step", "loss_type", "loss_value", "lr"])
        for r in records:
            writer.writerow([r.epoch, r.step, r.loss_type, f"{r.loss_value:.8f}", f"{r.lr:.8g}"])
