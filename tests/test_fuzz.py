"""Seeded fuzzing of every file format the package reads.

Valid PPM, PGM, manifest, config and checkpoint files are truncated,
byte-flipped and padded with inserted bytes, then read back.  Whatever the
bytes, a reader either returns or raises a ``PoolNetError`` subclass; any
other exception is a traceback the CLI would show the user.
"""

import struct

import numpy as np
import pytest

from poolnet.checkpoint import MAGIC
from poolnet.config import ModelConfig, build_run_config, read_config_file
from poolnet.data import (
    _image_floats,
    _parse_pnm,
    load_entry,
    load_manifest,
    load_map,
    synth_saliency_dataset,
)
from poolnet.errors import PoolNetError
from poolnet.model import build_model, model_from_checkpoint, save_model_with_config

MUTATIONS_PER_KIND = 150
# small enough that a model of this shape is cheap to rebuild for every read;
# a fuzzed width stays cheap too, as the reader bounds every width by the
# number of values the file stores
MICRO = ModelConfig(backbone_widths=(4, 6, 6, 8, 8), ppm_sizes=(2,), fam_rates=(2, 4))


def read_manifest(path):
    manifest = load_manifest(path, "saliency")
    for index in range(len(manifest)):
        load_entry(manifest, index)


READERS = {
    "ppm": lambda path: _image_floats(_parse_pnm(path)),  # as load_entry reads an image
    "pgm": load_map,
    "manifest": read_manifest,
    "config": lambda path: build_run_config(read_config_file(path)),
    "checkpoint": model_from_checkpoint,  # what `poolnet infer` reads
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    synth_saliency_dataset(root, 2, 16, seed=3)
    (root / "run.cfg").write_text("epochs = 2\nlr_drop_epoch = 1\nlr = 0.001\nppm_sizes = 2\n"
                                  "backbone_widths = 4,6,6,8,8\nenable_edge = false\n",
                                  encoding="utf-8")
    save_model_with_config(root / "model.ckpt", build_model(MICRO),
                           extra_state={"progress/epoch": np.array([1.0])})
    manifest = load_manifest(root / "manifest.tsv", "saliency")
    image, gt = manifest.entries[0]
    files = {"ppm": image, "pgm": gt, "manifest": root / "manifest.tsv",
             "config": root / "run.cfg", "checkpoint": root / "model.ckpt"}
    for kind, path in files.items():
        READERS[kind](path)  # the unmutated files are valid
    return {kind: (path, path.read_bytes()) for kind, path in files.items()}


def mutate(blob: bytes, rng: np.random.Generator) -> tuple[str, bytes]:
    pos = int(rng.integers(0, len(blob)))
    kind = ("truncate", "flip", "insert")[int(rng.integers(0, 3))]
    if kind == "truncate":
        return f"truncate at {pos}", blob[:pos]
    if kind == "flip":
        mask = int(rng.integers(1, 256))
        return f"flip byte {pos} by {mask:#04x}", blob[:pos] + bytes([blob[pos] ^ mask]) + blob[pos + 1:]
    extra = rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
    return f"insert {extra.hex()} at {pos}", blob[:pos] + extra + blob[pos:]


def escapes(reader, path, blob: bytes) -> str | None:
    """The exception a reader lets out for ``blob``, unless it is typed."""
    path.write_bytes(blob)
    try:
        reader(path)
    except PoolNetError:
        pass
    except Exception as exc:  # noqa: BLE001 - the point is to catch anything
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("kind", list(READERS))
def test_mutated_files_raise_only_typed_errors(valid_files, kind):
    path, original = valid_files[kind]
    rng = np.random.default_rng(list(READERS).index(kind) + 1000)
    failures = []
    try:
        for _ in range(MUTATIONS_PER_KIND):
            label, blob = mutate(original, rng)
            error = escapes(READERS[kind], path, blob)
            if error:
                failures.append(f"{label}: {error}")
    finally:
        path.write_bytes(original)
    assert not failures, f"{len(failures)} untyped errors, e.g. {failures[:3]}"


def _first_record(blob: bytes) -> tuple[int, int]:
    """(offset of the rank field, offset after the record)."""
    (name_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    rank_at = len(MAGIC) + 4 + name_len
    (rank,) = struct.unpack_from("<I", blob, rank_at)
    dims = struct.unpack_from(f"<{rank}I", blob, rank_at + 4)
    return rank_at, rank_at + 4 + 4 * rank + 4 * int(np.prod(dims))


@pytest.mark.parametrize("rank", [33, 65, 70, 2**32 - 1])
def test_rank_field_mutation_is_typed(valid_files, tmp_path, rank):
    _, original = valid_files["checkpoint"]
    rank_at, end = _first_record(original)
    # a zero dim leaves the record without payload, so only the rank is off
    dims = struct.pack(f"<{min(rank, 70)}I", 0, *[1] * (min(rank, 70) - 1))
    blob = original[:rank_at] + struct.pack("<I", rank) + dims + original[end:]
    assert escapes(model_from_checkpoint, tmp_path / "rank.ckpt", blob) is None

