"""Model, training, and run configuration.

The CLI reads a plain-text ``key = value`` file (``#`` starts a comment)
and applies flag overrides on top; unknown keys are hard errors.  The
three enable switches for the pyramid pooling block, the guidance flows,
and the aggregation modules span the six-row ablation matrix.

This module is imported before numpy to read ``POOLNET_THREADS``, so it
must never import numpy.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError

DESK_WIDTHS = (16, 32, 64, 128, 128)
# the integer factors bilinear upsampling supports; a FAM rate must be one
UPSAMPLE_FACTORS = (2, 4, 8, 16)


@dataclass
class ModelConfig:
    """Architecture description: backbone widths, fusion widths, and switches."""

    backbone_widths: tuple[int, ...] = DESK_WIDTHS
    pyramid_channels: Optional[tuple[int, ...]] = None
    enable_ppm: bool = True
    enable_ggf: bool = True
    enable_fam: bool = True
    enable_edge: bool = False
    fam_rates: tuple[int, ...] = (2, 4, 8)
    ppm_sizes: tuple[int, ...] = (3, 5)

    def __post_init__(self):
        self.backbone_widths = tuple(self.backbone_widths)
        if self.pyramid_channels is None:
            self.pyramid_channels = self.backbone_widths[1:]
        self.pyramid_channels = tuple(self.pyramid_channels)
        self.fam_rates = tuple(self.fam_rates)
        self.ppm_sizes = tuple(self.ppm_sizes)

    def validate(self) -> None:
        if len(self.backbone_widths) != 5:
            raise ConfigError(f"backbone_widths needs 5 stage widths, got {len(self.backbone_widths)}")
        if any(w < 1 for w in self.backbone_widths):
            raise ConfigError(f"backbone_widths must be positive, got {self.backbone_widths}")
        if len(self.pyramid_channels) != 4:
            raise ConfigError(f"pyramid_channels needs 4 level widths, got {len(self.pyramid_channels)}")
        if any(w < 1 for w in self.pyramid_channels):
            raise ConfigError(f"pyramid_channels must be positive, got {self.pyramid_channels}")
        if not self.fam_rates:
            raise ConfigError("fam_rates must not be empty")
        if not set(self.fam_rates) <= set(UPSAMPLE_FACTORS):
            raise ConfigError(f"fam_rates must each be one of {UPSAMPLE_FACTORS}, "
                              f"got {self.fam_rates}")
        if list(self.fam_rates) != sorted(set(self.fam_rates)):
            raise ConfigError(f"fam_rates must be strictly ascending, got {self.fam_rates}")
        if not self.ppm_sizes:
            raise ConfigError("ppm_sizes must not be empty")
        if any(s < 2 for s in self.ppm_sizes):
            raise ConfigError(f"ppm_sizes must all be >= 2, got {self.ppm_sizes}")


# (row number, ppm, ggf, fam) in the conventional ablation order.
ABLATION_ROWS = (
    (1, False, False, False),
    (2, True, False, False),
    (3, False, True, False),
    (4, True, True, False),
    (5, False, False, True),
    (6, True, True, True),
)


def thread_cap() -> Optional[int]:
    """The ``POOLNET_THREADS`` cap, or None when unset; ConfigError unless a positive integer."""
    cap = os.environ.get("POOLNET_THREADS")
    if cap is not None and not (cap.isascii() and cap.isdigit() and int(cap) >= 1):
        raise ConfigError(f"POOLNET_THREADS must be a positive integer, got {cap!r}")
    return None if cap is None else int(cap)


def ablation_configs(base: ModelConfig) -> list[tuple[int, ModelConfig]]:
    """The six switch combinations of the ablation matrix, applied to ``base``."""
    rows = []
    for row_no, ppm, ggf, fam in ABLATION_ROWS:
        rows.append((row_no, dataclasses.replace(
            base, enable_ppm=ppm, enable_ggf=ggf, enable_fam=fam)))
    return rows


@dataclass
class TrainConfig:
    """Optimizer, schedule, and loop settings."""

    lr: float = 5e-5
    weight_decay: float = 5e-4
    epochs: int = 24
    lr_drop_epoch: int = 15
    lr_drop_factor: float = 10.0
    batch_size: int = 1
    seed: int = 0
    joint_edge: bool = False

    def validate(self) -> None:
        for name in ("lr", "weight_decay", "lr_drop_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.lr_drop_epoch < self.epochs:
            raise ConfigError(f"lr_drop_epoch must lie in [0, epochs), got {self.lr_drop_epoch} "
                              f"with {self.epochs} epochs")
        if self.lr_drop_factor <= 0:
            raise ConfigError(f"lr_drop_factor must be > 0, got {self.lr_drop_factor}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RunConfig:
    """Everything a CLI command needs: model, training, and file locations."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    saliency_manifest: Optional[Path] = None
    edge_manifest: Optional[Path] = None
    checkpoint: Optional[Path] = None
    output_dir: Optional[Path] = None

    def validate(self) -> None:
        self.model.validate()
        self.train.validate()


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parser(convert, what: str):
    """A setting parser: ``convert`` the text, reporting a ValueError as ConfigError."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise ConfigError(f"expected {what}, got {text!r}") from exc
    return parse


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


_parse_int = _parser(int, "an integer")
_parse_seed = _parser(_non_negative_int, "a non-negative integer")
_parse_float = _parser(float, "a number")
_parse_int_tuple = _parser(
    lambda text: tuple(int(part) for part in text.split(",") if part.strip()),
    "comma-separated integers")

# key -> (section, parser, flag help, flag metavar): the one declaration of a
# setting.  The CLI derives a flag from each model and training row, in this
# order; the run rows' flags are declared per command, as their help differs.
CONFIG_FIELDS = {
    "backbone_widths": ("model", _parse_int_tuple, "five backbone stage widths", "W1,..,W5"),
    "pyramid_channels": ("model", _parse_int_tuple, "four fusion level widths", "C2,..,C5"),
    "fam_rates": ("model", _parse_int_tuple, "aggregation pooling rates", "R,.."),
    "ppm_sizes": ("model", _parse_int_tuple, "pyramid pooling grid sizes", "S,.."),
    "enable_ppm": ("model", _parse_bool, "toggle the pyramid pooling block", None),
    "enable_ggf": ("model", _parse_bool, "toggle the global guidance flows", None),
    "enable_fam": ("model", _parse_bool, "toggle the feature aggregation modules", None),
    "enable_edge": ("model", _parse_bool, "toggle the edge detection branch", None),
    "lr": ("train", _parse_float, "initial learning rate", None),
    "weight_decay": ("train", _parse_float, "coupled weight decay", None),
    "epochs": ("train", _parse_int, "number of training epochs", None),
    "lr_drop_epoch": ("train", _parse_int, "epoch at which the learning rate drops", None),
    "lr_drop_factor": ("train", _parse_float, "divisor applied at the drop epoch", None),
    "batch_size": ("train", _parse_int, "samples per step (equal sizes required above 1)", None),
    "joint_edge": ("train", _parse_bool, "alternate saliency and edge steps", None),
    "seed": ("train", _parse_seed, "master random seed (default 0)", None),
    "saliency_manifest": ("run", Path, None, "FILE"),
    "edge_manifest": ("run", Path, None, "FILE"),
    "checkpoint": ("run", Path, None, "CKPT"),
    "output_dir": ("run", Path, None, "DIR"),
}


def read_config_file(path) -> dict[str, object]:
    """Parse ``key = value`` lines into typed values.

    Unknown keys, duplicates and values their key's parser rejects are errors
    naming the file and line.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not valid UTF-8 text") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = CONFIG_FIELDS[key][1](value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


def build_run_config(file_values: Optional[dict[str, object]] = None,
                     overrides: Optional[dict[str, object]] = None) -> RunConfig:
    """Defaults, then config-file values, then flag overrides, all already typed."""
    sections: dict[str, dict] = {"model": {}, "train": {}, "run": {}}
    for key, value in {**(file_values or {}), **(overrides or {})}.items():
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        sections[CONFIG_FIELDS[key][0]][key] = value
    run = RunConfig(ModelConfig(**sections["model"]), TrainConfig(**sections["train"]),
                    **sections["run"])
    run.validate()
    return run
