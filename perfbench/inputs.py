"""Seeded input generation for the benchmark.

Every file the program reads during a run is written here, from the
workload seed alone: images and ground truth as 8-bit PPM/PGM, and a
tab-separated manifest beside them.  The generator is independent of the
program's own synthetic-data code, so a change to the program cannot
change the benchmark's inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _shape_mask(rng: np.random.Generator, yy: np.ndarray, xx: np.ndarray,
                height: int, width: int) -> np.ndarray:
    cy = rng.uniform(0.3 * height, 0.7 * height)
    cx = rng.uniform(0.3 * width, 0.7 * width)
    ry = rng.uniform(0.12, 0.28) * height
    rx = rng.uniform(0.12, 0.28) * width
    if rng.integers(0, 2) == 0:
        angle = rng.uniform(0.0, np.pi)
        du = np.cos(angle) * (xx - cx) + np.sin(angle) * (yy - cy)
        dv = -np.sin(angle) * (xx - cx) + np.cos(angle) * (yy - cy)
        return (du / rx) ** 2 + (dv / ry) ** 2 <= 1.0
    return (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)


def make_sample(seed: int, index: int, width: int,
                height: int) -> tuple[np.ndarray, np.ndarray]:
    """One (H, W, 3) uint8 image with 1-2 contrasting shapes on a noisy ramp,
    and its (H, W) uint8 ground-truth mask (0 or 255)."""
    rng = np.random.default_rng([seed, index])
    yy, xx = np.meshgrid(np.arange(height, dtype=np.float64),
                         np.arange(width, dtype=np.float64), indexing="ij")
    base = rng.uniform(0.2, 0.8, size=3)
    gy, gx = rng.uniform(-0.15, 0.15, size=2)
    ramp = gy * yy / height + gx * xx / width
    image = base[None, None, :] + ramp[:, :, None]
    image = image + rng.normal(0.0, 0.03, size=(height, width, 3))
    image = np.clip(image, 0.0, 1.0)
    dark_background = image.mean() <= 0.5
    mask = np.zeros((height, width), dtype=bool)
    for _ in range(int(rng.integers(1, 3))):
        shape = _shape_mask(rng, yy, xx, height, width)
        color = rng.uniform(0.8, 1.0, size=3) if dark_background else rng.uniform(0.0, 0.2, size=3)
        image[shape] = color
        mask |= shape
    return np.rint(image * 255.0).astype(np.uint8), mask.astype(np.uint8) * 255


def _write_pnm(path: Path, magic: bytes, pixels: np.ndarray) -> None:
    height, width = pixels.shape[:2]
    path.write_bytes(magic + f"\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes())


def write_dataset(out_dir, seed: int, count: int, width: int, height: int) -> Path:
    """Write ``count`` image/ground-truth pairs and ``manifest.tsv``; return
    the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(count):
        image, mask = make_sample(seed, i, width, height)
        _write_pnm(out_dir / f"img_{i:04d}.ppm", b"P6", image)
        _write_pnm(out_dir / f"gt_{i:04d}.pgm", b"P5", mask)
        lines.append(f"img_{i:04d}.ppm\tgt_{i:04d}.pgm")
    manifest = out_dir / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
