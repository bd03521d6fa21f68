"""Batch-of-one inference: model logits to saliency/edge maps and files."""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from .data import Manifest, Sample, crop_to_original, load_entry, pad_to_multiple, save_map
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
    """Saliency maps for every manifest entry, in manifest order."""
    maps = []
    for i in range(len(manifest)):
        saliency, _ = predict_sample(model, load_entry(manifest, i))
        maps.append(saliency)
    return maps


def run_inference(model: SaliencyNet, manifest: Manifest, output_dir) -> list[Path]:
    """Write one 8-bit saliency map per entry (named after the image stem),
    plus ``<stem>_edge.pgm`` when the edge branch is active.  Every image's
    size is checked from its header before the first map is written."""
    check_manifest_sizes(model.config, manifest)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(len(manifest)):
        image_path, _ = manifest.entries[i]
        saliency, edge = predict_sample(model, load_entry(manifest, i))
        target = output_dir / f"{Path(image_path).stem}.pgm"
        save_map(saliency, target)
        written.append(target)
        if edge is not None:
            edge_target = output_dir / f"{Path(image_path).stem}_edge.pgm"
            save_map(edge, edge_target)
            written.append(edge_target)
    return written
