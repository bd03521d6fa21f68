"""Batch-of-one inference: model logits to saliency/edge maps and files."""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from .data import (Manifest, Sample, crop_to_original, load_entry, map_names, pad_to_multiple,
                   save_map)
from .errors import NumericError
from .model import SaliencyNet, check_manifest_sizes
from .tensor import Tensor, no_grad, sigmoid


def predict_sample(model: SaliencyNet,
                   sample: Sample) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Saliency probabilities at the sample's original size, plus the mean of
    the edge side-outputs when the model has an edge branch."""
    padded = pad_to_multiple(sample)
    with no_grad():
        out = model(Tensor(padded.image[None]))
        saliency = sigmoid(out.saliency).data[0, 0]
        edge = None
        if out.edges is not None:
            edge = np.mean([sigmoid(side).data[0, 0] for side in out.edges], axis=0)
    saliency = crop_to_original(saliency, sample)
    if edge is not None:
        edge = crop_to_original(edge, sample)
    return saliency, edge


def predict_manifest(model: SaliencyNet, manifest: Manifest) -> list[np.ndarray]:
    """Saliency maps for every manifest entry, in manifest order; a map
    with a non-finite value raises ``NumericError`` naming its image."""
    maps = []
    for i, (image_path, _) in enumerate(manifest.entries):
        saliency, _ = predict_sample(model, load_entry(manifest, i))
        if not np.isfinite(saliency).all():
            raise NumericError(f"non-finite saliency map for {image_path}")
        maps.append(saliency)
    return maps


def run_inference(model: SaliencyNet, manifest: Manifest, output_dir) -> list[Path]:
    """Write one 8-bit saliency map per entry (named after the image stem),
    plus ``<stem>_edge.pgm`` when the edge branch is active.  Every image's
    size and map names are checked before the first map is written; running
    out of memory raises ``MemoryError`` naming the image that did."""
    sizes = check_manifest_sizes(model.config, manifest)
    names = map_names(manifest, model.config.enable_edge)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (entry_names, (h, w)) in enumerate(zip(names, sizes)):
        try:
            maps = predict_sample(model, load_entry(manifest, i))
            for values, name in zip(maps, entry_names):
                save_map(values, output_dir / name)
                written.append(output_dir / name)
        except MemoryError as exc:
            raise MemoryError(f"{manifest.entries[i][0]}: padded input size {w}x{h}; "
                              f"maps written before it: {len(written)}; {exc}") from exc
    return written
