"""The machine record stored with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np

_THREAD_QUERIES = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        libraries = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                     if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        libraries = set()
    for path in sorted(libraries):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                info["threads"] = int(query())
                return info
    return info


def _commit(root: Path) -> str | None:
    """HEAD of a git checkout, read without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(root: Path, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "POOLNET_THREADS": os.environ.get("POOLNET_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
        "executable": Path(sys.executable).name,
    }
