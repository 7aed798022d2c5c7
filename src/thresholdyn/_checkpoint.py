"""Checks shared by the Method 1 and Method 2 checkpoint loaders.

A checkpoint is a directory holding ``manifest.json`` (a JSON object with
``format_version`` and ``kind``) and a little-endian float64 payload.  Every
check raises ``ValueError`` naming the file or manifest field at fault.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CHECKPOINT_FORMAT = 1


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


def read_payload(path: Path, count: int) -> np.ndarray:
    """``count`` little-endian float64 values, all finite."""
    data = path.read_bytes()
    if len(data) != 8 * count:
        raise ValueError(f"{path.name} holds {len(data)} bytes, expected {8 * count}")
    values = np.frombuffer(data, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{path.name} holds non-finite values")
    return values
