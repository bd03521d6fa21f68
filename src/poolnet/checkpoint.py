"""Flat binary checkpoint container.

Layout: the magic string ``PNLB1`` followed by one record per array.  A
record is a little-endian u32 name length, the UTF-8 name, a u32 rank,
``rank`` u32 dims (rank at most ``MAX_RANK``), then the float32 payload in
C order.  Reserved names under ``_state/`` carry optimizer and progress
counters so a training run can resume from the same file; model loading
skips them.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .data import atomic_open
from .errors import CheckpointError
from .nn import Module

MAGIC = b"PNLB1"
STATE_PREFIX = "_state/"
MAX_RANK = 32  # the lowest ndarray rank limit across NumPy versions


def save_checkpoint(path, records: dict[str, np.ndarray]) -> None:
    """Write named arrays in dict order; payloads are cast to float32.

    ``path`` is either the old file or the complete new one, never a torn
    write (see ``data.atomic_open``).
    """
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        for name, arr in records.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read every record back as float32 arrays, preserving file order."""
    path = Path(path)
    blob = path.read_bytes()
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    records: dict[str, np.ndarray] = {}
    pos = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"{path}: truncated checkpoint")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: record name is not valid UTF-8") from exc
        (rank,) = struct.unpack("<I", take(4))
        if rank > MAX_RANK:
            raise CheckpointError(f"{path}: record {name!r} has rank {rank}, "
                                  f"more than {MAX_RANK}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        count = math.prod(dims)
        payload = take(4 * count)
        if name in records:
            raise CheckpointError(f"{path}: duplicate record {name!r}")
        records[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    return records


def model_records(model: Module) -> dict[str, np.ndarray]:
    return {name: param.data for name, param in model.named_parameters()}


def save_model(path, model: Module, state: dict[str, np.ndarray] | None = None) -> None:
    records = model_records(model)
    if state:
        for key, arr in state.items():
            records[STATE_PREFIX + key] = np.asarray(arr)
    save_checkpoint(path, records)


def load_model(path, model: Module) -> dict[str, np.ndarray]:
    """Load parameters into ``model`` and return any ``_state/`` records."""
    return apply_records(model, load_checkpoint(path))


def apply_records(model: Module, records: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Copy parameter records into ``model`` and return the ``_state/`` ones.

    Every model parameter must be present with a matching shape, and every
    non-state record must belong to the model, so a checkpoint from a
    different configuration fails loudly.
    """
    state = {name[len(STATE_PREFIX):]: arr for name, arr in records.items()
             if name.startswith(STATE_PREFIX)}
    remaining = {name: arr for name, arr in records.items()
                 if not name.startswith(STATE_PREFIX)}
    for name, param in model.named_parameters():
        if name not in remaining:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        arr = remaining.pop(name)
        if arr.shape != param.data.shape:
            raise CheckpointError(f"parameter {name!r}: checkpoint shape {arr.shape} "
                                  f"does not match model shape {param.data.shape}")
        param.data = np.ascontiguousarray(arr, dtype=param.dtype)
    if remaining:
        extras = ", ".join(sorted(remaining))
        raise CheckpointError(f"checkpoint has records unknown to the model: {extras}")
    return state
