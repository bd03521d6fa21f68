"""Image I/O, manifests, padding, and synthetic dataset generation.

Images travel as binary PPM (P6) and single-channel maps as binary PGM
(P5), both 8-bit; loaders scale to [0, 1] floats and savers quantize with
round(v * 255).  A manifest is a tab-separated file of image/ground-truth
path pairs relative to its own directory.

The synthetic generators are pure in (seed, index): sample i of a dataset
is always the same arrays, no matter how many samples are drawn around it.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError, NumericError

MANIFEST_KINDS = ("saliency", "edge")
PAD_MULTIPLE = 16
_HEADER_DIGITS = 20


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

@contextmanager
def atomic_open(path, mode: str, **kwargs) -> Iterator:
    """Open a hidden temporary file beside ``path``; rename it over ``path``
    once the block completes, or delete it if the block raises.

    ``path`` is thus either the old file or the complete new one, never a
    torn write.  There is no fsync: this guards against a crashed process,
    not against power loss.  An ``OSError`` about the temporary file is
    re-raised naming ``path``, the file the caller asked for.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_csv(path, rows) -> None:
    """Write ``rows``, each a list of cells, as a CSV file through ``atomic_open``."""
    with atomic_open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------

def _read_header_int(blob: bytes, pos: int, path: Path) -> tuple[int, int]:
    while pos < len(blob):
        byte = blob[pos]
        if byte in b" \t\r\n\x0b\x0c":
            pos += 1
        elif byte == ord("#"):
            while pos < len(blob) and blob[pos] != ord("\n"):
                pos += 1
        else:
            break
    start = pos
    while pos < len(blob) and blob[pos] in b"0123456789":
        pos += 1
    if start == pos:
        raise DataError(f"{path}: malformed header, expected an integer")
    if pos - start > _HEADER_DIGITS:  # int() refuses past 4,300 digits
        raise DataError(f"{path}: malformed header, {pos - start}-digit integer")
    return int(blob[start:pos]), pos


def _parse_pnm(path) -> np.ndarray:
    """The uint8 pixels of a P5 (H, W) or P6 (H, W, 3) file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"image file not found: {path}")
    blob = path.read_bytes()
    magic = blob[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise DataError(f"{path}: not a binary PGM (P5) or PPM (P6) file")
    pos = 2
    width, pos = _read_header_int(blob, pos, path)
    height, pos = _read_header_int(blob, pos, path)
    maxval, pos = _read_header_int(blob, pos, path)
    if width < 1 or height < 1:
        raise DataError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit depth (maxval 255) is supported, got {maxval}")
    if pos >= len(blob) or blob[pos] not in b" \t\r\n":
        raise DataError(f"{path}: malformed header, expected whitespace before pixel data")
    pos += 1
    need = width * height * channels
    payload = blob[pos:pos + need]
    if len(payload) < need:
        raise DataError(f"{path}: truncated pixel data, expected {need} bytes, "
                        f"got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    return arr.reshape((height, width) if channels == 1 else (height, width, 3))


def _parse_map(path) -> np.ndarray:
    """``_parse_pnm`` of a file that must be a single-channel map."""
    raw = _parse_pnm(path)
    if raw.ndim != 2:
        raise DataError(f"{path}: expected a single-channel PGM map, got a color image")
    return raw


def _read_entry(image_path, gt_path) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 pixels of a manifest entry's image and ground truth, which
    must be a single-channel map of the image's size."""
    image, gt = _parse_pnm(image_path), _parse_map(gt_path)
    if gt.shape != image.shape[:2]:
        raise DataError(f"{gt_path}: ground truth size {gt.shape} does not match "
                        f"image size {image.shape[:2]}")
    return image, gt


def entry_size(image_path, gt_path) -> tuple[int, int]:
    """(H, W) of a manifest entry, read and checked as ``load_entry`` reads it,
    so whatever ``load_entry`` would refuse is refused here too."""
    return _read_entry(image_path, gt_path)[1].shape


def _image_floats(raw: np.ndarray) -> np.ndarray:
    """(3, H, W) floats in [0, 1] of ``_parse_pnm`` pixels; grayscale is replicated."""
    if raw.ndim == 2:
        plane = raw.astype(np.float64) / 255.0
        return np.stack([plane, plane, plane])
    return np.ascontiguousarray(raw.transpose(2, 0, 1)).astype(np.float64) / 255.0


def load_map(path) -> np.ndarray:
    """Read a single-channel map as (H, W) floats in [0, 1]."""
    return _parse_map(path).astype(np.float64) / 255.0


def _save_pnm(values: np.ndarray, path) -> None:
    """Write (H, W) values in [0, 1] as an 8-bit binary PGM (P5), or
    (H, W, 3) values as a PPM (P6)."""
    if not np.isfinite(values).all():
        raise NumericError(f"cannot save {path}: values are not finite")
    if values.min() < 0 or values.max() > 1:
        raise DataError(f"cannot save {path}: values outside [0, 1]")
    pixels = np.rint(values * 255.0).astype(np.uint8)
    h, w = values.shape[:2]
    with atomic_open(path, "wb") as fh:
        fh.write(f"{'P5' if values.ndim == 2 else 'P6'}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def save_map(values, path) -> None:
    """Write a 2-D map in [0, 1] as an 8-bit binary PGM."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise DataError(f"cannot save {path}: map must be 2-D, got shape {values.shape}")
    _save_pnm(values, path)


def save_image(values, path) -> None:
    """Write a (3, H, W) image in [0, 1] as an 8-bit binary PPM."""
    values = np.asarray(values)
    if values.ndim != 3 or values.shape[0] != 3:
        raise DataError(f"cannot save {path}: image must be (3, H, W), got shape {values.shape}")
    _save_pnm(values.transpose(1, 2, 0), path)


# ---------------------------------------------------------------------------
# samples and padding
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One training/eval item: an image and its target of the same H x W."""

    image: np.ndarray   # (3, H, W) in [0, 1]
    target: np.ndarray  # (1, H, W)


def padded_size(h: int, w: int) -> tuple[int, int]:
    """The (H, W) that ``pad_to_multiple`` gives an h x w sample."""
    return h + (-h) % PAD_MULTIPLE, w + (-w) % PAD_MULTIPLE


def pad_to_multiple(sample: Sample) -> Sample:
    """Replicate-pad the image and zero-pad the target on the right/bottom."""
    _, h, w = sample.image.shape
    padded_h, padded_w = padded_size(h, w)
    pad_bottom, pad_right = padded_h - h, padded_w - w
    if pad_bottom == 0 and pad_right == 0:
        return sample
    spec = ((0, 0), (0, pad_bottom), (0, pad_right))
    return Sample(image=np.pad(sample.image, spec, mode="edge"),
                  target=np.pad(sample.target, spec))


def crop_to_original(values: np.ndarray, sample: Sample) -> np.ndarray:
    """Crop a prediction of any channel count to the unpadded ``sample``'s H x W."""
    _, h, w = sample.image.shape
    return values[..., :h, :w]


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

@dataclass
class Manifest:
    """An ordered image/ground-truth pairing rooted at the manifest's directory."""

    entries: list  # of (image_path, gt_path), absolute
    kind: str

    def __len__(self) -> int:
        return len(self.entries)


def load_manifest(path, kind: str) -> Manifest:
    if kind not in MANIFEST_KINDS:
        raise DataError(f"manifest kind must be one of {MANIFEST_KINDS}, got {kind!r}")
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest not found: {path}")
    root = path.parent
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: manifest is not valid UTF-8 text") from exc
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'image<TAB>ground-truth', got {raw!r}")
        image_path = root / parts[0]
        gt_path = root / parts[1]
        for p in (image_path, gt_path):
            if not p.is_file():
                raise DataError(f"{path}:{lineno}: referenced file missing: {p}")
        entries.append((image_path, gt_path))
    if not entries:
        raise DataError(f"{path}: manifest is empty")
    return Manifest(entries=entries, kind=kind)


def write_manifest(path, entries) -> None:
    """Write (image, gt) path pairs relative to the manifest directory."""
    path = Path(path)
    lines = [f"{img}\t{gt}" for img, gt in entries]
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_entry(manifest: Manifest, index: int) -> Sample:
    image, gt = _read_entry(*manifest.entries[index])
    return Sample(image=_image_floats(image), target=gt[None].astype(np.float64) / 255.0)


def map_names(manifest: Manifest, edges: bool) -> list[tuple[str, ...]]:
    """Per entry, the file names of its predicted maps: ``<stem>.pgm``, then
    ``<stem>_edge.pgm`` when ``edges``.  ``infer`` writes and ``eval`` reads
    these names, so two images whose maps would share a name are refused,
    naming both, before either command reads or writes a map.  An image
    listed twice keeps its one map."""
    owners: dict[str, Path] = {}
    names = []
    for image_path, _ in manifest.entries:
        stem = Path(image_path).stem
        entry = (f"{stem}.pgm", f"{stem}_edge.pgm") if edges else (f"{stem}.pgm",)
        for name in entry:
            if owners.setdefault(name, image_path) != image_path:
                raise DataError(f"{owners[name]} and {image_path} both map to {name}; "
                                "image stems must be unique")
        names.append(entry)
    return names


# ---------------------------------------------------------------------------
# synthetic datasets
# ---------------------------------------------------------------------------

_SALIENCY_STREAM = 0
_EDGE_STREAM = 1


def _coordinate_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    return yy, xx


def _random_shape(rng: np.random.Generator, size: int,
                  radius_range: tuple[float, float]) -> np.ndarray:
    yy, xx = _coordinate_grid(size)
    cy, cx = rng.uniform(0.25 * size, 0.75 * size, size=2)
    lo, hi = radius_range
    ry, rx = rng.uniform(lo * size, hi * size, size=2)
    if rng.integers(0, 2) == 0:
        angle = rng.uniform(0.0, np.pi)
        du = np.cos(angle) * (xx - cx) + np.sin(angle) * (yy - cy)
        dv = -np.sin(angle) * (xx - cx) + np.cos(angle) * (yy - cy)
        return (du / rx) ** 2 + (dv / ry) ** 2 <= 1.0
    return (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)


def _textured_background(rng: np.random.Generator, size: int) -> np.ndarray:
    yy, xx = _coordinate_grid(size)
    base = rng.uniform(0.2, 0.8, size=3)
    gy, gx = rng.uniform(-0.15, 0.15, size=2)
    ramp = gy * yy / size + gx * xx / size
    noise = rng.normal(0.0, 0.03, size=(size, size))
    return np.clip(base[:, None, None] + ramp + noise, 0.0, 1.0)


def _contrasting_color(rng: np.random.Generator, background_level: float) -> np.ndarray:
    if background_level > 0.5:
        return rng.uniform(0.0, 0.2, size=3)
    return rng.uniform(0.8, 1.0, size=3)


def _inner_boundary(mask: np.ndarray) -> np.ndarray:
    """Shape pixels with at least one 4-neighbour outside the shape."""
    padded = np.pad(mask, 1)
    core = (padded[1:-1, 1:-1] & padded[:-2, 1:-1] & padded[2:, 1:-1]
            & padded[1:-1, :-2] & padded[1:-1, 2:])
    return mask & ~core


def synth_saliency_sample(size: int, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """One image with 1-2 high-contrast shapes; target is the exact shape mask."""
    rng = np.random.default_rng([seed, _SALIENCY_STREAM, index])
    image = _textured_background(rng, size)
    level = float(image.mean())
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 3))):
        shape = _random_shape(rng, size, (0.12, 0.28))
        color = _contrasting_color(rng, level)
        image[:, shape] = color[:, None]
        mask |= shape
    return image, mask.astype(np.float64)


def synth_edge_sample(size: int, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Overlapping shapes; target marks every shape's one-pixel boundary,
    including parts later shapes paint over."""
    rng = np.random.default_rng([seed, _EDGE_STREAM, index])
    image = _textured_background(rng, size)
    edges = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(3, 5))):
        shape = _random_shape(rng, size, (0.10, 0.22))
        image[:, shape] = rng.uniform(0.0, 1.0, size=3)[:, None]
        edges |= _inner_boundary(shape)
    return image, edges.astype(np.float64)


def _write_dataset(out_dir, n: int, size: int, seed: int, sample_fn, kind: str) -> Manifest:
    if n < 1:
        raise DataError(f"dataset size must be >= 1, got {n}")
    if size < 8:
        raise DataError(f"image size must be >= 8, got {size}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n):
        image, target = sample_fn(size, seed, i)
        image_name = f"img_{i:04d}.ppm"
        gt_name = f"gt_{i:04d}.pgm"
        save_image(image, out_dir / image_name)
        save_map(target, out_dir / gt_name)
        entries.append((image_name, gt_name))
    manifest_path = out_dir / "manifest.tsv"
    write_manifest(manifest_path, entries)
    return load_manifest(manifest_path, kind)


def synth_saliency_dataset(out_dir, n: int, size: int, seed: int) -> Manifest:
    return _write_dataset(out_dir, n, size, seed, synth_saliency_sample, "saliency")


def synth_edge_dataset(out_dir, n: int, size: int, seed: int) -> Manifest:
    return _write_dataset(out_dir, n, size, seed, synth_edge_sample, "edge")
