"""Reading and writing matrices as JSON documents.

The document shape is::

    {"field": "real" | "complex",
     "rows": n, "cols": m,
     "data": row-major entries}

Real entries are plain numbers; complex entries are two-element [re, im]
arrays (always, even for a zero imaginary part).  ``data`` may be given
either flat (length n*m) or as a list of n rows of length m; files are
written flat.  All floats are serialized with 17 significant digits so a
write/read round trip reproduces the doubles exactly.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
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


def matrix_to_obj(M: MatrixValue) -> dict:
    """The document for M, with data flat in row-major order."""
    arr = M.entries
    if M.is_complex:
        data = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    else:
        data = [float(x) for x in arr.reshape(-1)]
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
    indices as tokens, matrices, arrays and numpy scalars as (nested) Python
    values, complex numbers as [re, im] pairs, dataclasses by field."""
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, ExtIndex):
        return index_str(x)
    if isinstance(x, MatrixValue):
        x = x.entries
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
        out.append(format_float(x))
    elif isinstance(x, int):
        out.append(str(x))
    elif isinstance(x, str):
        out.append(json.dumps(x))
    else:
        _dump_value(_plain(x), out)


def dumps_json(obj) -> str:
    """JSON text of obj with floats rendered at 17 significant digits."""
    out: list = []
    _dump_value(obj, out)
    return "".join(out)


def dumps_matrix(M: MatrixValue) -> str:
    return dumps_json(matrix_to_obj(M))


def loads_matrix(text: str) -> MatrixValue:
    try:
        obj = json.loads(text)
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
