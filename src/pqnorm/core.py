"""Extended norm exponents, vector p-norms, and K-class tests.

The machinery here is scalar/vector level: exponents in [1, inf] with exact
handling of the distinguished values 1, 2 and inf, Hoelder conjugation, the
comparison factor between two p-norms on the same space, and the three
"K classes" of vectors (constant modulus, at most one nonzero, unrestricted)
that characterise when that comparison is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "as_tol",
    "ExtIndex",
    "IndexLike",
    "ONE",
    "TWO",
    "INF",
    "as_index",
    "conjugate",
    "index_str",
    "sign_between",
    "vector_norm",
    "KClassId",
    "k_class_test",
    "vector_comparison_factor",
    "vector_equality_class",
]

# Relative tolerance used by predicates when the caller does not pass one.
DEFAULT_TOL = 1e-8


def as_tol(tol: float | None) -> float | None:
    """tol, if None or finite and >= 0; else ValueError, since a negative or
    NaN tolerance fails every comparison and so makes verdicts unsound."""
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"expected a finite tolerance >= 0, got {tol!r}")
    return tol


@dataclass(frozen=True)
class ExtIndex:
    """A norm exponent in the closed interval [1, inf].

    The values 1.0, 2.0 and math.inf are exactly representable, so sign
    comparisons between indices are exact at the three distinguished points.
    Anything in between is an ordinary float.
    """

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if math.isnan(v) or v < 1.0:
            raise ValueError(f"norm exponent must lie in [1, inf], got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def inv(self) -> float:
        """1/p, with the convention 1/inf = 0."""
        return 0.0 if self.is_inf else 1.0 / self.value

    def __float__(self) -> float:
        return self.value

    def __lt__(self, other: "ExtIndex") -> bool:
        return self.value < as_index(other).value

    def __le__(self, other: "ExtIndex") -> bool:
        return self.value <= as_index(other).value

    def __gt__(self, other: "ExtIndex") -> bool:
        return self.value > as_index(other).value

    def __ge__(self, other: "ExtIndex") -> bool:
        return self.value >= as_index(other).value

    def __repr__(self) -> str:
        return f"ExtIndex({index_str(self)})"


IndexLike = Union[ExtIndex, int, float, str]

ONE = ExtIndex(1.0)
TWO = ExtIndex(2.0)
INF = ExtIndex(math.inf)

_INF_TOKENS = {"inf", "infinity", "oo"}
_ABOVE_ONE = math.nextafter(1.0, 2.0)

# one shared ExtIndex per exponent value, for the first _INDEX_TABLE_SIZE values seen
_INDEX_TABLE_SIZE = 256
_INDEX_TABLE = {1.0: ONE, 2.0: TWO, math.inf: INF}


def _index_of(v: float) -> ExtIndex:
    p = _INDEX_TABLE.get(v)
    if p is None:
        p = ExtIndex(v)
        if len(_INDEX_TABLE) < _INDEX_TABLE_SIZE:
            _INDEX_TABLE[v] = p
    return p


def as_index(p: IndexLike) -> ExtIndex:
    """Coerce a number or string ("inf" accepted, case-insensitive) to ExtIndex.

    ExtIndex is immutable, so equal exponents share one instance from a
    bounded table."""
    if isinstance(p, ExtIndex):
        return p
    if isinstance(p, str):
        token = p.strip().lower()
        if token in _INF_TOKENS:
            return INF
        try:
            return _index_of(float(token))
        except ValueError as exc:
            raise ValueError(f"cannot parse norm exponent from {p!r}") from exc
    return _index_of(float(p))


def index_str(p: IndexLike) -> str:
    """Canonical text form of an exponent: "inf", or a float with full precision."""
    q = as_index(p)
    if q.is_inf:
        return "inf"
    return format(q.value, ".17g")


def conjugate(p: IndexLike) -> ExtIndex:
    """Hoelder conjugate p* with 1/p + 1/p* = 1; 1* = inf and inf* = 1.

    A finite p keeps p* above 1, so sgn(p* - 1) survives: where p / (p - 1)
    rounds to 1 (p above about 2^53), p* is the least double above 1."""
    q = as_index(p)
    if q.value == 1.0:
        return INF
    if q.is_inf:
        return ONE
    if q.value == 2.0:
        return TWO
    return _index_of(max(q.value / (q.value - 1.0), _ABOVE_ONE))


def sign_between(p: IndexLike, r: IndexLike) -> int:
    """sgn(p - r) computed without forming inf - inf."""
    a = as_index(p).value
    b = as_index(r).value
    if a > b:
        return 1
    if a < b:
        return -1
    return 0


def vector_norm(x, p: IndexLike = 2) -> float:
    """The p-norm of a vector for p in [1, inf].

    General exponents are evaluated after rescaling by the largest modulus so
    that large p does not overflow.
    """
    q = as_index(p)
    a = np.abs(np.asarray(x, dtype=complex if np.iscomplexobj(x) else float))
    if a.ndim != 1:
        a = a.reshape(-1)
    if a.size == 0:
        raise ValueError("vector must have at least one entry")
    if q.is_inf:
        return float(a.max())
    v = q.value
    if v == 1.0:
        return float(a.sum())
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    return float(peak * (np.power(a / peak, v).sum()) ** (1.0 / v))


class KClassId(Enum):
    """The three vector classes governing tightness of p-norm comparisons.

    K1: all entries share one modulus.  KMINUS1: at most one nonzero entry.
    K0: no restriction.  The zero vector belongs to all three.
    """

    K1 = "K1"
    KMINUS1 = "K-1"
    K0 = "K0"


def k_class_test(x, k: KClassId, tol: float = DEFAULT_TOL) -> bool:
    """Membership of a vector in one of the K classes, up to relative tol."""
    as_tol(tol)
    a = np.abs(np.asarray(x)).reshape(-1)
    if a.size == 0:
        raise ValueError("vector must have at least one entry")
    peak = float(a.max())
    if k is KClassId.K0:
        return True
    if k is KClassId.K1:
        return peak - float(a.min()) <= tol * peak
    if k is KClassId.KMINUS1:
        return int((a > tol * peak).sum()) <= 1
    raise TypeError(f"unknown K class {k!r}")


def vector_comparison_factor(r: IndexLike, p: IndexLike, m: int) -> float:
    """Smallest constant c with ||x||_r <= c * ||x||_p on length-m vectors.

    Equals m ** max(1/r - 1/p, 0).
    """
    if m < 1:
        raise ValueError("dimension must be positive")
    expo = max(as_index(r).inv - as_index(p).inv, 0.0)
    return float(m) ** expo


def vector_equality_class(p: IndexLike, r: IndexLike) -> KClassId:
    """The class of vectors attaining ||x||_r = m^[(1/r)-(1/p)]_+ ||x||_p.

    Those are exactly the vectors in K_{sgn(p-r)}: constant modulus when
    p > r, everything when p = r, at most one nonzero when p < r.
    """
    s = sign_between(p, r)
    if s > 0:
        return KClassId.K1
    if s < 0:
        return KClassId.KMINUS1
    return KClassId.K0
