"""The checkpoint codec shared by Method 1 and Method 2.

A checkpoint is a directory holding ``manifest.json`` (a JSON object with
``format_version`` and ``kind``, written with sorted keys) and one payload
file: named tensors as little-endian float64, back to back.  Every check on
reading raises ``ValueError`` naming the file or manifest field at fault.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CHECKPOINT_FORMAT = 1


def write_checkpoint(directory, kind: str, fields: dict, payload: str, tensors) -> Path:
    """Write the manifest (``fields`` plus format version and kind) and the
    ``payload`` file holding the arrays ``tensors`` in order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"format_version": CHECKPOINT_FORMAT, "kind": kind, **fields}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (directory / payload).write_bytes(
        b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes() for t in tensors)
    )
    return directory


def read_manifest(directory: Path, kind: str) -> dict:
    """A checkpoint's manifest, checked for format version and kind."""
    manifest = json.loads((directory / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{directory}: checkpoint manifest is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"checkpoint format {manifest.get('format_version')} unsupported "
            f"(expected {CHECKPOINT_FORMAT})"
        )
    if manifest.get("kind") != kind:
        raise ValueError(f"not a {kind!r} checkpoint: kind={manifest.get('kind')!r}")
    return manifest


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# (description, test) pairs for manifest_field
ODD_SIZE = ("a positive odd integer", lambda v: _is_int(v) and v > 0 and v % 2 == 1)
COUNT = ("a positive integer", lambda v: _is_int(v) and v > 0)
FINITE = ("a finite number", _is_finite)
POSITIVE = ("a positive finite number", lambda v: _is_finite(v) and v > 0)


def manifest_field(manifest: dict, key: str, expected: str, valid):
    """manifest[key], or a ValueError naming the field when it is missing or
    fails ``valid``."""
    if key not in manifest:
        raise ValueError(f"checkpoint manifest has no {key!r}")
    value = manifest[key]
    if not valid(value):
        raise ValueError(f"checkpoint manifest {key!r} is {value!r}, expected {expected}")
    return value


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
