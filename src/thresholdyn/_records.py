"""The one reader of the JSON files the program loads (configs, dataset and
video manifests, checkpoint manifests) and the one check of their values.

A record's values are described by type hints, read against JSON: a bool is
not an int, an int is a float, a float is finite, a tuple is a list, and a
dataclass is an object holding its required fields and no others.
``Annotated[T, description, test]`` narrows ``T`` to the values that pass
``test`` and names them by ``description`` in errors.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from pathlib import Path
from typing import Annotated

PositiveInt = Annotated[int, "a positive integer", lambda v: v > 0]
PositiveOddInt = Annotated[int, "a positive odd integer", lambda v: v > 0 and v % 2 == 1]
PositiveFloat = Annotated[float, "a positive finite number", lambda v: v > 0]


def read_object(path, what: str, error) -> dict:
    """The JSON object held by the file at ``path``.  A file that cannot be
    read, is not JSON or holds another value raises ``error`` naming the file
    and ``what`` it should be."""
    path = Path(path)
    try:
        value = json.loads(path.read_bytes())
    except OSError as err:
        raise error(f"{path}: cannot read {what}: {err.strerror or err}") from err
    except ValueError as err:  # bad JSON or bad UTF-8
        raise error(f"{path}: {what} is not valid JSON: {err}") from err
    if not isinstance(value, dict):
        raise error(f"{path}: {what} is not a JSON object")
    return value


def fits(value, hint) -> bool:
    """Whether a JSON value fits a type hint (see the module docstring)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        return fits(value, args[0]) and bool(args[2](value))
    if origin in (typing.Union, types.UnionType):
        return any(fits(value, arg) for arg in args)
    if origin is typing.Literal:
        return any(type(value) is type(arg) and value == arg for arg in args)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return isinstance(value, list) and all(fits(v, args[0]) for v in value)
        return (isinstance(value, list) and len(value) == len(args)
                and all(fits(v, a) for v, a in zip(value, args)))
    if dataclasses.is_dataclass(hint):
        fields, hints = dataclasses.fields(hint), typing.get_type_hints(hint)
        return (isinstance(value, dict) and set(value) <= set(hints)
                and all(f.name in value for f in fields if f.default is dataclasses.MISSING)
                and all(fits(v, hints[k]) for k, v in value.items()))
    if hint is float:  # the comparison is False for NaN, ±inf and ints past float range
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if hint is int:
        return type(value) is int
    return isinstance(value, hint)


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        return args[1]
    if origin is typing.Literal:
        return " or ".join(map(repr, args))
    return hint.__name__ if isinstance(hint, type) else str(hint)


def check(record, hints: dict, where: str, error, required=(), closed: bool = False) -> dict:
    """Return ``record`` after checking that it is a JSON object holding every
    key of ``required`` (and, when ``closed``, only keys with a hint) and that
    each value with a hint fits it; a failure raises ``error`` naming
    ``where`` and the key."""
    if not isinstance(record, dict):
        raise error(f"{where} is not a JSON object")
    for key in required:
        if key not in record:
            raise error(f"{where} has no {key!r}")
    unknown = set(record) - set(hints) if closed else ()
    if unknown:
        raise error(f"{where} has unknown keys {sorted(unknown)}")
    for key, value in record.items():
        hint = hints.get(key)
        if hint is not None and not fits(value, hint):
            raise error(f"{where} {key!r} is {value!r}, expected {_describe(hint)}")
    return record
