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
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError

DESK_WIDTHS = (16, 32, 64, 128, 128)
FULL_WIDTHS = (64, 128, 256, 512, 512)


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

    @classmethod
    def full_scale(cls, **kwargs) -> "ModelConfig":
        return cls(backbone_widths=FULL_WIDTHS, **kwargs)

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
        if any(r < 2 for r in self.fam_rates):
            raise ConfigError(f"fam_rates must all be >= 2, got {self.fam_rates}")
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
        if self.train.joint_edge and not self.model.enable_edge:
            raise ConfigError("joint_edge training requires enable_edge")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


# key -> (section, attribute, parser applied to config-file strings)
CONFIG_FIELDS = {
    "backbone_widths": ("model", "backbone_widths", _parse_int_tuple),
    "pyramid_channels": ("model", "pyramid_channels", _parse_int_tuple),
    "enable_ppm": ("model", "enable_ppm", _parse_bool),
    "enable_ggf": ("model", "enable_ggf", _parse_bool),
    "enable_fam": ("model", "enable_fam", _parse_bool),
    "enable_edge": ("model", "enable_edge", _parse_bool),
    "fam_rates": ("model", "fam_rates", _parse_int_tuple),
    "ppm_sizes": ("model", "ppm_sizes", _parse_int_tuple),
    "lr": ("train", "lr", _parse_float),
    "weight_decay": ("train", "weight_decay", _parse_float),
    "epochs": ("train", "epochs", _parse_int),
    "lr_drop_epoch": ("train", "lr_drop_epoch", _parse_int),
    "lr_drop_factor": ("train", "lr_drop_factor", _parse_float),
    "batch_size": ("train", "batch_size", _parse_int),
    "seed": ("train", "seed", _parse_int),
    "joint_edge": ("train", "joint_edge", _parse_bool),
    "saliency_manifest": ("run", "saliency_manifest", Path),
    "edge_manifest": ("run", "edge_manifest", Path),
    "checkpoint": ("run", "checkpoint", Path),
    "output_dir": ("run", "output_dir", Path),
}


def read_config_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines; unknown keys and duplicates are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not valid UTF-8 text") from exc
    values: dict[str, str] = {}
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
        values[key] = value
    return values


def build_run_config(file_values: Optional[dict[str, str]] = None,
                     overrides: Optional[dict[str, object]] = None) -> RunConfig:
    """Defaults, then config-file values, then already-typed flag overrides."""
    run = RunConfig()
    sections = {"model": run.model, "train": run.train, "run": run}

    def apply(key: str, value) -> None:
        section, attr, _ = CONFIG_FIELDS[key]
        setattr(sections[section], attr, value)

    for key, text in (file_values or {}).items():
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        _, _, parser = CONFIG_FIELDS[key]
        apply(key, parser(text))
    for key, value in (overrides or {}).items():
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        apply(key, value)
    # re-derive dependent defaults after width overrides
    if "backbone_widths" in (file_values or {}) or "backbone_widths" in (overrides or {}):
        explicit = (file_values or {}).keys() | (overrides or {}).keys()
        if "pyramid_channels" not in explicit:
            run.model.pyramid_channels = tuple(run.model.backbone_widths[1:])
    run.validate()
    return run
