"""The JSON document layer: one text form, one packed-array codec, one set of field checks.

Every JSON document the program writes or prints (profiles, models,
evaluation reports, trace labels and the `identify` report) is the text
of `json_text`, which refuses `NaN` and infinity. The loaders check each
field they read with the functions below; `what` names the document
kind in the error message.
"""

from __future__ import annotations

import base64
import json
import math
import sys
import zlib
from pathlib import Path

import numpy as np


def json_text(doc) -> str:
    """`doc` as indented JSON; NaN and infinity raise instead of being written."""
    return json.dumps(doc, indent=1, allow_nan=False)


def save_doc(path: str | Path, doc) -> None:
    Path(path).write_text(json_text(doc) + "\n", encoding="ascii")


def load_doc(path: str | Path, build, what: str):
    """`build` the JSON document at `path`; nesting too deep to decode is a data error."""
    try:
        return build(json.loads(Path(path).read_text(encoding="ascii")))
    except RecursionError:
        raise ValueError(f"{what} document is nested too deeply") from None


# The packed-array codec: an array field is {"dtype", "shape", "data"},
# where data is the base64 text of the zlib-deflated (level 6) bytes of the
# array in little-endian C order. Every packed field of every document uses it.
def pack(array: np.ndarray, dtype: str) -> dict:
    data = np.ascontiguousarray(array, dtype=dtype)
    if data.dtype.kind == "f" and not np.isfinite(data).all():
        raise ValueError("cannot pack non-finite values")
    text = base64.b64encode(zlib.compress(data, 6)).decode("ascii")
    return {"dtype": dtype, "shape": list(data.shape), "data": text}


def unpack(
    doc, key: str, what: str, dtype: str, ndim: int, decoded: dict | None = None
) -> np.ndarray:
    """The packed field `key`, which must hold `ndim`-D `dtype` values (finite, if floats).

    `data` must be one complete zlib stream and nothing after it, and it
    must inflate to exactly the bytes `shape` needs; at most that many
    bytes plus one are ever inflated. The array is read-only. `decoded`
    memoizes by (dtype, shape, data): text equal to a field it already
    holds returns that same array, which passed every check below when it
    was first decoded.
    """
    packed = require(doc, key, what)
    name = f"{what} {key}"
    if require(packed, "dtype", what) != dtype:
        raise ValueError(f"{name} dtype must be {dtype!r}, got {packed['dtype']!r}")
    shape = require_list(packed, "shape", what)
    if len(shape) != ndim or not all(type(n) is int and n >= 1 for n in shape):
        raise ValueError(f"{name} shape must be {ndim} positive integers, got {shape!r}")
    text = require_str(packed, "data", what)
    memo = (dtype, tuple(shape), text)
    if decoded is not None and memo in decoded:
        return decoded[memo]
    try:
        deflated = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"{name} data is not base64: {exc}") from None
    size = math.prod(shape) * np.dtype(dtype).itemsize
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(deflated, min(size + 1, sys.maxsize))
    except zlib.error as exc:
        raise ValueError(f"{name} data is not a zlib stream: {exc}") from None
    if len(raw) > size:
        raise ValueError(f"{name} data holds more than the {size} bytes shape {shape} needs")
    if not inflate.eof:
        raise ValueError(f"{name} data is a zlib stream cut short")
    if inflate.unused_data:
        raise ValueError(f"{name} data has bytes after its zlib stream")
    if len(raw) != size:
        raise ValueError(f"{name} data holds {len(raw)} bytes, shape {shape} needs {size}")
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite (no NaN or infinity)")
    if decoded is not None:
        decoded[memo] = array
    return array


def require(doc, key: str, what: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{what} document lacks {key!r}")
    return doc[key]


def require_list(doc, key: str, what: str) -> list:
    value = require(doc, key, what)
    if not isinstance(value, list):
        raise ValueError(f"{what} {key} must be a list")
    return value


def require_str(doc, key: str, what: str) -> str:
    value = require(doc, key, what)
    if not isinstance(value, str):
        raise ValueError(f"{what} {key} must be a string")
    return value


def require_array(doc, key: str, what: str, ndim: int) -> np.ndarray:
    try:
        value = np.asarray(require(doc, key, what))
    except ValueError:  # ragged
        value = np.empty(0)
    # dtype kinds "O" (objects, out-of-range ints) and "U" (strings) are not numbers
    numeric = value.dtype.kind in "iuf" and value.ndim == ndim and value.size > 0
    if not numeric or not np.isfinite(value).all():
        raise ValueError(f"{what} {key} must be a non-empty {ndim}-D array of finite numbers")
    return np.asarray(value, dtype=np.float64)


def finite(value, name: str, what: str) -> float:
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} {name} must be a finite number, got {value!r}")
    return float(value)


def int_in(value, name: str, what: str, low: int, high: float = math.inf) -> int:
    if type(value) is not int or not low <= value <= high:
        raise ValueError(f"{what} {name} must be an integer in [{low}, {high}], got {value!r}")
    return value
