"""Flat binary checkpoint container.

Layout: the magic string ``PNLB1`` followed by one record per array.  A
record is a little-endian u32 name length, the UTF-8 name, a u32 rank,
``rank`` u32 dims (rank at most ``MAX_RANK``), then the float32 payload in
C order.  This module is the container alone: it stores named arrays and
knows nothing of models.  ``poolnet.model`` writes and reads model files in
it and defines what their records mean.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .data import atomic_open
from .errors import CheckpointError

MAGIC = b"PNLB1"
MAX_RANK = 32  # the lowest ndarray rank limit across NumPy versions
MAX_INT = 2 ** 24  # float32 holds every integer up to here exactly


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
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
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


def read_ints(records: dict[str, np.ndarray], key: str,
              count: int | None = None) -> tuple[int, ...]:
    """Record ``key`` as integers from 0 to ``MAX_INT``, ``count`` of them if
    given; anything else, or no such record, is a ``CheckpointError`` naming it."""
    if key not in records:
        raise CheckpointError(f"checkpoint lacks record {key!r}")
    values = records[key].reshape(-1)
    if count is not None and values.size != count:
        raise CheckpointError(f"record {key!r} needs {count} values, got {values.size}")
    if not np.all((values >= 0) & (values <= MAX_INT) & (values == np.round(values))):
        raise CheckpointError(f"record {key!r} must hold integers from 0 to {MAX_INT}, "
                              f"got {values.tolist()}")
    return tuple(int(v) for v in values)
