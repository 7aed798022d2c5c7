"""The checkpoint codec shared by Method 1 and Method 2.

A checkpoint is a directory holding ``manifest.json`` (a JSON object with
``format_version`` and ``kind``, written with sorted keys) and one payload
file: named tensors as little-endian float64, back to back.  Each loader
describes its manifest fields by type hints, which `read_manifest` checks
through `_records`.  Every check on reading raises ``ValueError`` naming the
file or manifest field at fault.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ._records import check, read_object

CHECKPOINT_FORMAT = 1


def _replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` under a temporary name beside ``path``, then rename it
    over ``path``: a reader sees the old file or the new one, never a part."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_checkpoint(directory, kind: str, fields: dict, payload: str, tensors) -> Path:
    """Write the ``payload`` file holding the arrays ``tensors`` in order,
    then the manifest (``fields`` plus format version and kind), each
    replaced whole, so a write that fails leaves the file it was replacing."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"format_version": CHECKPOINT_FORMAT, "kind": kind, **fields}
    _replace_file(directory / payload,
                  b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes() for t in tensors))
    _replace_file(directory / "manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True).encode())
    return directory


def read_manifest(directory: Path, kind: str, hints: dict) -> dict:
    """A checkpoint's manifest, checked for format version and kind, then for
    every key of ``hints`` (see `_records.check`)."""
    path = directory / "manifest.json"
    manifest = read_object(path, "checkpoint manifest", ValueError)
    if manifest.get("format_version") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"checkpoint format {manifest.get('format_version')} unsupported "
            f"(expected {CHECKPOINT_FORMAT})"
        )
    if manifest.get("kind") != kind:
        raise ValueError(f"not a {kind!r} checkpoint: kind={manifest.get('kind')!r}")
    return check(manifest, hints, f"{path}: checkpoint manifest", ValueError, required=hints)


def read_tensors(path: Path, shapes) -> dict[str, np.ndarray]:
    """The tensors of a payload file, sliced by ``shapes``, the (name, shape)
    pairs in payload order; the file must hold exactly that many values, all
    finite."""
    sizes = [int(np.prod(shape)) for _, shape in shapes]
    data = path.read_bytes()
    if len(data) != 8 * sum(sizes):
        raise ValueError(f"{path.name} holds {len(data)} bytes, expected {8 * sum(sizes)}")
    values = np.frombuffer(data, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{path.name} holds non-finite values")
    tensors, offset = {}, 0
    for (name, shape), size in zip(shapes, sizes):
        tensors[name] = values[offset : offset + size].reshape(shape)
        offset += size
    return tensors
