"""Reading and writing matrices as JSON documents.

The document shape is::

    {"field": "real" | "complex",
     "rows": n, "cols": m,
     "data": row-major entries}

Real entries are plain numbers; complex entries are two-element [re, im]
arrays (always, even for a zero imaginary part).  ``data`` may be given
either flat (length n*m) or as a list of n rows of length m; files are
written flat.  All floats are serialized with 17 significant digits so a
write/read round trip reproduces the doubles exactly, the sign of a zero
included.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import re
from dataclasses import fields as dc_fields, is_dataclass
from typing import IO, Union

import numpy as np

from .core import ExtIndex, index_str
from .induced_norms import COMPLEX, MatrixValue, REAL, as_matrix

__all__ = [
    "MatrixFileError",
    "format_float",
    "matrix_to_obj",
    "matrix_from_obj",
    "dumps_matrix",
    "loads_matrix",
    "save_matrix",
    "load_matrix",
]


class MatrixFileError(ValueError):
    """The document does not satisfy the matrix-file schema."""


def format_float(x: float) -> str:
    """17-significant-digit decimal form, losslessly round-trippable."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _all_of(items, kinds) -> bool:
    """Every item is an instance of kinds, a bool never counting as a
    number; one check per distinct type, not per item."""
    return all(issubclass(t, kinds) and t is not bool for t in set(map(type, items)))


def _float_view(a: np.ndarray) -> np.ndarray:
    """a, with a complex128 entry as its [re, im] pair on a new last axis."""
    if a.dtype != np.complex128:
        return a
    return np.ascontiguousarray(a).view(np.float64).reshape(*a.shape, 2)


def matrix_to_obj(M: MatrixValue) -> dict:
    """The document for M, with data flat in row-major order."""
    data = _float_view(M.entries.reshape(-1)).tolist()
    return {"field": M.field, "rows": M.n, "cols": M.m, "data": data}


def matrix_from_obj(obj) -> MatrixValue:
    """Validate a parsed document and build the matrix it describes."""
    if not isinstance(obj, dict):
        raise MatrixFileError("top-level JSON object expected")
    missing = [k for k in ("field", "rows", "cols", "data") if k not in obj]
    if missing:
        raise MatrixFileError(f"missing keys: {', '.join(missing)}")
    field = obj["field"]
    if field not in (REAL, COMPLEX):
        raise MatrixFileError(f'field must be "{REAL}" or "{COMPLEX}", got {field!r}')
    rows, cols = obj["rows"], obj["cols"]
    for name, val in (("rows", rows), ("cols", cols)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise MatrixFileError(f"{name} must be a positive integer, got {val!r}")
    data = obj["data"]
    if not isinstance(data, list):
        raise MatrixFileError("data must be an array")
    # accept either a flat array of entries or a list of row arrays; the
    # field tag disambiguates [re, im] pairs from two-element real rows
    nested = bool(data) and _all_of(data, list)
    if field == COMPLEX and nested:
        nested = all(data) and _all_of(itertools.chain.from_iterable(data), (list, tuple))
    shape = (rows, cols) if nested else (rows * cols,)
    if field == COMPLEX:
        shape += (2,)
    if len(data) != shape[0]:
        what = "rows" if nested else "entries"
        raise MatrixFileError(f"expected {shape[0]} {what} in data, got {len(data)}")
    # each level below the top holds arrays of the next length in shape and
    # the entries are numbers; checked per distinct type and length before
    # numpy sees the data, since it would read a bool, a numeric string or
    # null as a number
    level = data
    for size in shape[1:]:
        if not _all_of(level, (list, tuple)) or set(map(len, level)) != {size}:
            raise MatrixFileError(f"data must be an array of shape {shape}")
        level = list(itertools.chain.from_iterable(level))
    if not _all_of(level, (int, float)):
        what = "[re, im] pairs of numbers" if field == COMPLEX else "numbers"
        raise MatrixFileError(f"{field} entries must be {what}")
    try:
        arr = np.array(level, dtype=float)
    except OverflowError as e:
        raise MatrixFileError(f"entry out of the float range: {e}") from None
    if not np.isfinite(arr).all():
        raise MatrixFileError("entries must be finite")
    if field == COMPLEX:
        arr = arr.view(complex)  # [re, im] pairs, bit for bit
    return as_matrix(arr.reshape(rows, cols), field=field)


def _plain(x):
    """The plain value a result is written as: enums by value, extended
    indices as tokens, matrices as their entries, other arrays and numpy
    scalars as (nested) Python values, complex numbers as [re, im] pairs,
    dataclasses by field."""
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, ExtIndex):
        return index_str(x)
    if isinstance(x, MatrixValue):
        return x.entries
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: getattr(x, f.name) for f in dc_fields(x)}
    return str(x)


def _dump_value(x, out: list) -> None:
    if isinstance(x, dict):
        out.append("{")
        for t, (k, v) in enumerate(x.items()):
            if t:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _dump_value(v, out)
        out.append("}")
    elif isinstance(x, (list, tuple)):
        out.append("[")
        for t, v in enumerate(x):
            if t:
                out.append(", ")
            _dump_value(v, out)
        out.append("]")
    elif isinstance(x, bool) or x is None:
        out.append(json.dumps(x))
    elif isinstance(x, float):
        out.append(_json_number(format(x, ".17g")))
    elif isinstance(x, int):
        out.append(str(x))
    elif isinstance(x, str):
        out.append(json.dumps(x))
    elif isinstance(x, np.ndarray) and x.dtype in (np.float64, np.complex128):
        out.append(_dumps_floats(_float_view(x)))
    else:
        _dump_value(_plain(x), out)


def _json_number(text: str) -> str:
    """JSON has no inf or NaN: +-inf become the overflowing literals
    +-1e999, which JSON readers take back as +-inf, and NaN null (no
    finite number written at 17 significant digits holds either word)."""
    return text.replace("inf", "1e999").replace("nan", "null")


def _dumps_floats(a: np.ndarray) -> str:
    """JSON text of a float64 array, nested as its shape, each entry at 17
    significant digits as a scalar float is: one %-format of all entries."""
    template = "%.17g"
    for k in reversed(a.shape):
        template = "[" + ", ".join([template] * k) + "]"
    return _json_number(template % tuple(a.ravel().tolist()))


def dumps_json(obj) -> str:
    """JSON text of obj, floats at 17 significant digits (see _json_number)."""
    out: list = []
    _dump_value(obj, out)
    return "".join(out)


def dumps_matrix(M: MatrixValue) -> str:
    doc = {"field": M.field, "rows": M.n, "cols": M.m, "data": M.entries.reshape(-1)}
    return dumps_json(doc)


# the JSON integer token -0 (not the start of -0.5, -0e1 or -05), which the
# writer emits for -0.0
_NEGATIVE_ZERO = re.compile(r"-0(?![.\deE])")


def _int_or_negative_zero(token: str):
    return -0.0 if token == "-0" else int(token)


def loads_matrix(text: str) -> MatrixValue:
    """The matrix a document describes.  JSON reads the token -0 as the
    integer 0, so a text that holds one is parsed with a hook that reads it
    as -0.0; any other text takes json.loads' default path."""
    hook = _int_or_negative_zero if _NEGATIVE_ZERO.search(text) else None
    try:
        obj = json.loads(text, parse_int=hook)
    except json.JSONDecodeError as e:
        raise MatrixFileError(f"not valid JSON: {e}") from None
    return matrix_from_obj(obj)


def save_matrix(M: MatrixValue, path: Union[str, IO[str]]) -> None:
    text = dumps_matrix(M) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)


def load_matrix(path: Union[str, IO[str]]) -> MatrixValue:
    if hasattr(path, "read"):
        return loads_matrix(path.read())
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return loads_matrix(fp.read())
    except OSError as e:
        raise MatrixFileError(f"cannot read {path}: {e}") from None
