"""Induced matrix norms ||A||_{p,q} = max ||Ax||_q / ||x||_p.

Exact routes exist for p = 1 or one column (column maximum), q = inf or one
row (row maximum via the dual exponent), (p, q) = (2, 2) (largest singular
value) and, over the real field, (inf, 1) by incremental sign enumeration.
Everything else is estimated from below by a duality-map ascent with
restarts, one fused pass per half-step; results carry a certainty tag so
callers can tell exact values from estimates.

The ascent kernel takes one exponent pair per column, so best_norms stacks
the restarts of every (p, q) point it has to estimate into a few chunked
ascents instead of one ascent per point; best_norm is its one-pair case.
Its width is fixed: a converged restart freezes in place, and a point's
restarts leave together, so one iteration costs few numpy calls.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    ExtIndex,
    IndexLike,
    as_index,
    conjugate,
    vector_norm,
)

__all__ = [
    "MatrixValue",
    "MatrixLike",
    "Certainty",
    "NormResult",
    "SvdFactors",
    "DimensionError",
    "SvdConvergenceError",
    "as_matrix",
    "svd",
    "norm_closed_form",
    "norm_infty_one_exact",
    "norm_estimate",
    "norm_bruteforce",
    "best_norm",
    "best_norms",
    "maximizer_set_probe",
    "norm_ratio",
]

REAL = "real"
COMPLEX = "complex"

_TINY = 1e-300
_HUGE = 1.0 / _TINY
_NORMAL = np.finfo(float).tiny  # 2^-1022, the least normal float


class DimensionError(ValueError):
    """Raised when an exact enumeration would exceed its dimension cap."""


class SvdConvergenceError(RuntimeError):
    """Raised when the LAPACK singular value decomposition does not converge."""


@dataclass(frozen=True)
class MatrixValue:
    """A dense matrix together with its scalar field.

    The field marker decides which vectors x compete in max ||Ax||_q / ||x||_p:
    a real-entried matrix may still be treated over the complex field, where
    some norms (notably (inf, 1)) are strictly larger.

    Results that depend only on the matrix (its SVD, best_norm per
    arguments) are memoised on the value itself, so they live exactly as
    long as the matrix does.
    """

    entries: np.ndarray
    field: str = REAL
    # the class attribute ``field`` shadows dataclasses.field in this body
    _memo: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("matrix must be two-dimensional and nonempty")
        if self.field == REAL:
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0):
                    raise ValueError("real-field matrix has entries with nonzero imaginary part")
                arr = arr.real
            arr = np.array(arr, dtype=np.float64)  # the one copy, never the caller's array
        elif self.field == COMPLEX:
            arr = np.array(arr, dtype=np.complex128)
        else:
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        """Number of rows (the codomain dimension)."""
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        """Number of columns (the domain dimension)."""
        return self.entries.shape[1]

    @property
    def is_complex(self) -> bool:
        return self.field == COMPLEX

    def adjoint(self) -> "MatrixValue":
        """The conjugate transpose, built once and memoised; its adjoint is
        self.  The link back is weak, so the pair forms no reference cycle
        and both memos go as soon as this matrix does."""
        adj = self._memo.get("adjoint")
        if isinstance(adj, weakref.ref):
            adj = adj()
        if adj is None:
            adj = MatrixValue(self.entries.conj().T, self.field)
            adj._memo["adjoint"] = weakref.ref(self)
            self._memo["adjoint"] = adj
        return adj


MatrixLike = Union[MatrixValue, np.ndarray, list]


def as_matrix(A: MatrixLike, field: Optional[str] = None) -> MatrixValue:
    """Coerce to MatrixValue; plain arrays infer the field from their dtype."""
    if isinstance(A, MatrixValue):
        if field is not None and field != A.field:
            return MatrixValue(A.entries, field)
        return A
    arr = np.asarray(A)
    if field is None:
        field = COMPLEX if np.iscomplexobj(arr) else REAL
    return MatrixValue(arr, field)


class Certainty(str, enum.Enum):
    """How trustworthy a reported norm value is."""

    CLOSED_FORM = "exact-closed-form"
    ENUMERATION = "exact-enumeration"
    ESTIMATE = "lower-bound-estimate"

    @property
    def is_exact(self) -> bool:
        return self is not Certainty.ESTIMATE


@dataclass(frozen=True)
class NormResult:
    """A norm value with the witness vector that (nearly) attains it.

    The witness always has unit p-norm, so ||A witness||_q reproduces value
    up to rounding for the exact routes and up to convergence tolerance for
    estimates.
    """

    value: float
    witness: np.ndarray
    certainty: Certainty


def norm_ratio(A: MatrixLike, x, p: IndexLike, q: IndexLike) -> float:
    """||Ax||_q / ||x||_p, the quantity every witness certifies."""
    M = as_matrix(A)
    vec = np.asarray(x).reshape(-1)
    den = vector_norm(vec, p)
    if den == 0.0:
        raise ValueError("witness must be nonzero")
    return vector_norm(M.entries @ vec, q) / den


def _over(z: np.ndarray, d: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """z / d for real d.  numpy divides a complex number by a real one as
    the product with its reciprocal, so complex z takes that cheaper form
    directly: the same bits, up to the sign of a real or imaginary part
    that is or underflows to zero."""
    if z.dtype.kind == "c":
        return np.multiply(z, 1.0 / d, out=out)
    return np.divide(z, d, out=out)


def _phase(w: np.ndarray, a: Optional[np.ndarray] = None) -> np.ndarray:
    """w / |w| entrywise, 0 mapped to 0; sign() for real input.  a, when
    given, is |w|; without a zero or subnormal modulus in it (the common
    case) it needs no mask.  1 / |w| overflows at a subnormal |w|, so such
    entries are scaled by 2^54 first, exactly; the others keep their bits."""
    if w.dtype.kind != "c":
        return np.sign(w)
    a = np.abs(w) if a is None else a
    if a.min(initial=1.0) >= _NORMAL:
        return _over(w, a)
    w = w.copy()
    w[a < _NORMAL] = _ldexp(w[a < _NORMAL], 54)
    a = np.abs(w)
    return _over(w, np.where(a > 0, a, 1.0))


def _ldexp(x, e: int):
    """x * 2^e, exact within the float range, for real or complex x."""
    if np.iscomplexobj(x):
        return np.ldexp(x.real, e) + 1j * np.ldexp(x.imag, e)
    return np.ldexp(x, e)


def _pow2_normalized(arr: np.ndarray) -> tuple:
    """(arr / 2^e, e) for e the exponent of the largest modulus: exact, and
    safe to square or multiply at any scale of arr."""
    e = int(np.frexp(np.abs(arr).max())[1])
    return _ldexp(arr, -e), e


def _lp_cols(W: np.ndarray, p: ExtIndex) -> np.ndarray:
    """Column-wise p-norms with overflow-safe rescaling."""
    a = np.abs(W)
    if p.is_inf:
        return a.max(axis=0)
    v = p.value
    if v == 1.0:
        return a.sum(axis=0)
    peak = a.max(axis=0)
    safe = np.where(peak > 0, peak, 1.0)
    return safe * ((a / safe) ** v).sum(axis=0) ** (1.0 / v)


Exponent = Union[ExtIndex, np.ndarray]  # one for all columns, or one per column

_amax, _add = np.maximum.reduce, np.add.reduce


def _unit_map(top: bool, dual: bool) -> Callable:
    """The duality map at t = 1, the phase vector, or with top at t = inf,
    the phase of the lowest-index entry of maximal modulus and zero
    elsewhere; with the column 1-norms (with top, inf-norms) of W or, with
    dual, the t*-norms of the map, 1 (0 for a zero column)."""

    def step(W: np.ndarray) -> tuple:
        a = np.abs(W)
        peak = _amax(a, 0) if top or dual else None
        if top:
            at = (a.argmax(axis=0), np.arange(W.shape[1]))
            phi = np.zeros_like(W)
            phi[at] = _phase(W[at], peak)
        else:
            phi = _phase(W, a)
        if dual:
            return phi, (peak > 0).astype(float)
        return phi, peak if top else _add(a, 0)

    return step


def _by_peaks(W: np.ndarray) -> tuple:
    """(W / c, c) for c the largest modulus of each column (1 for a zero
    column), with W scaled by a power of 2 first, exactly, so that 1 / c
    cannot overflow."""
    e = np.frexp(_amax(np.abs(W), 0))[1]
    W = _ldexp(W, -e)
    c = _amax(np.abs(W), 0)
    c[c == 0] = 1.0
    return _over(W, c), np.ldexp(c, e)


def _peak_free_map(t, cplx: bool, dual: bool) -> Callable:
    """The ascent's half-step at finite t > 1, or at one finite t >= 1 per
    column (an array), without the per-column peak: phi = W |W|^(t-2) and,
    for s = sum |W|^t per column, the t-norms of W, s^(1/t), or with dual
    the t*-norms of phi, s^(1-1/t).  phi is s^(1-1/t) times each column's
    duality map, a positive multiple that the backward step's normalisation
    removes; at t = 2 it is W itself, with s from one vecdot.  The ascent
    feeds it |W| < m forward and |W| < n max(1, m^(q-1)) backward, so the
    sums stay in range except at extreme exponents.

    When the sum of some nonzero column is at most _TINY (it may have lost
    bits to underflow) or is not below 1/_TINY (its phi could overflow the
    next product; the caller ignores the overflow that such a step may
    meet), the step runs once more on W divided by its column peaks
    (_by_peaks), where every nonzero column's sum lies in [1, n]; a zero
    column is dead, with norm 0.  At complex t < 2, |w|^(t-2) overflows at
    w = 0 and may at a subnormal |w|: a step with such an entry reads it
    as 1 at w = 0, so phi = 0 there, and forms phase(w) |w|^(t-1) at a
    subnormal |w|.  A real phi is |w|^(t-1) with the sign of w, taken by
    np.sign where a t = 1 column's |w|^0 reads 1 at w = 0."""
    tm1, tm2 = t - 1.0, t - 2.0
    power = 1.0 - 1.0 / t if dual else 1.0 / t
    # zero entries need care at complex t < 2 and at real t = 1
    if isinstance(t, float):
        linear, zero_test = t == 2.0, cplx and t < 2.0
    else:
        linear, zero_test = False, bool(((t < 2.0) if cplx else (t == 1.0)).any())

    def sums(W: np.ndarray) -> tuple:
        if linear:
            phi, s = W, np.vecdot(W, W, axis=0)
            return phi, s.real if cplx else s
        a = np.abs(W)
        if not cplx:
            r = a**tm1
            if zero_test:
                phi = np.sign(W)
                phi *= r
            else:
                phi = np.copysign(r, W)
            r *= a
            return phi, _add(r, 0)
        low = None
        if zero_test and not a.ravel()[a.argmin()] >= _NORMAL:
            low = a < _NORMAL  # where |w|^(t-2) overflows or may
        pw = (a if low is None else np.where(low, 1.0, a)) ** tm2
        phi = W * pw
        pw *= a
        pw *= a
        if low is not None and a[low].any():  # subnormal moduli
            phi = np.where(low, _phase(W, a) * a**tm1, phi)
            pw = np.where(low, a**t, pw)
        return phi, _add(pw, 0)

    def step(W: np.ndarray) -> tuple:
        phi, s = sums(W)
        # arg-reductions, cheaper than min and max at these sizes, find a NaN
        # first, which fails both tests
        if s[s.argmax()] < _HUGE and s[s.argmin()] > _TINY:
            return phi, s**power
        small, peak = s <= _TINY, 1.0
        if not s[s.argmax()] < _HUGE or W[:, small].any():
            W, peak = _by_peaks(W)
            phi, s = sums(W)
            small = s <= _TINY  # the zero columns
        norms = s**power if dual else s**power * peak
        norms[small] = 0.0  # dead columns (a t = 1 column's s^0 reads 1)
        return phi, norms

    return step


def _ascent_map(t: Exponent, cplx: bool, dual: bool = False) -> Callable:
    """The ascent's half-step W -> (phi, norms) for exponent t, chosen once:
    phi is a positive multiple of the duality map of each column of W (the
    phase map at 1, the top-entry map at inf, and the peak-free map at
    every other exponent and for per-column exponents), and norms are the
    column t-norms of W or, with dual, the t*-norms of phi, 0 for a zero
    column.  cplx tells whether W is complex, as it is for every W of one
    ascent."""
    if isinstance(t, ExtIndex):
        if t.value == 1.0 or t.is_inf:
            return _unit_map(t.is_inf, dual)
        t = t.value
    return _peak_free_map(t, cplx, dual)


def _normalize_cols(X: np.ndarray, p: ExtIndex) -> np.ndarray:
    norms = _lp_cols(X, p)
    safe = np.where(norms > _TINY, norms, 1.0)
    return X / safe


RESTARTS = 32  # ascent starts per (p, q) point, plus m
MAX_ITER = 200  # iterations an ascent runs at most
ASCENT_TOL = 1e-10  # relative move in one step at which a restart freezes
SETTLE_WINDOW = 10  # iterations over which a block's best must keep rising
SETTLE_RTOL = 1e-12  # relative rise below which a block counts as settled


class _Ascent(NamedTuple):
    """Outcome of one ascent: for each block of columns, the best (value,
    witness) seen, the iterations it ran and why it stopped ("converged",
    "settled" or "max_iter"); and the terminal iterates of every column with
    their values."""

    best: list
    vals: np.ndarray
    X: np.ndarray
    iters: list
    stop: list


def _ascent(
    arr: np.ndarray,
    p: Exponent,
    q: Exponent,
    X0: np.ndarray,
    max_iter: int,
    tol: float,
    block: Optional[int] = None,
    *,
    settle: bool = True,
) -> _Ascent:
    """Batched duality-map ascent on the columns of X0, which have unit
    p-norm.

    Each step replaces x by the p-unit maximizer of Re <A* phi_q(Ax), x>,
    which never decreases ||Ax||_q / ||x||_p at the exact fixed points and in
    practice climbs to a local maximum quickly.  A column freezes the first
    time its value moves by at most tol (relative): it keeps that iterate,
    and so that value, in place while the rest of its block steps on.  p
    and q are both one exponent for every column, or both arrays with one
    per column (q finite, p > 1), which lets several (p, q) points share
    each iteration.  The best value and its iterate are kept per block of
    `block` columns (one block by default): first seen wins, then the
    lowest column.  A block stops once all its columns are frozen or, with
    settle, once its best rose by at most SETTLE_RTOL (relative) over the
    last SETTLE_WINDOW iterations (settled); only then do its columns leave
    the iteration.  Every best is still attained by an iterate, so it stays
    a lower bound; callers that read every column's terminal iterate turn
    settle off.  The ascent runs on A / 2^e, which moves no iterate, and the
    values are scaled back at the end, so no scale of A overflows a step.
    Both half-steps' maps are chosen once per call (per block drop for
    per-column exponents): the phase and top-entry maps at 1 and inf, and
    the peak-free map at every other exponent, which A / 2^e and the
    unit-p-norm iterates keep in range except at extreme exponents, where a
    step runs once more on its input divided by the column peaks.
    """
    arr, e = _pow2_normalized(arr)
    if isinstance(p, ExtIndex):
        pstar = conjugate(p)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            pstar = np.where(np.isinf(p), 1.0, p / (p - 1.0))
    adj = arr.conj().T
    cplx = np.iscomplexobj(arr) or np.iscomplexobj(X0)
    fwd, bwd = _ascent_map(q, cplx), _ascent_map(pstar, cplx, dual=True)
    # the phase and top-entry maps are unit already: their dual norms are 1
    unit = isinstance(pstar, ExtIndex) and pstar.value in (1.0, math.inf)
    X = X0
    X_out = np.empty_like(X0)  # every block writes its columns when it stops
    vals, vals_out = np.zeros(X.shape[1]), np.zeros(X.shape[1])
    k = block or X.shape[1]
    nblocks = X.shape[1] // k
    # per running block, in block order: its id, its best value and iterate,
    # and ring[i][t % W], its best after iteration t for the last W
    live, best_val = list(range(nblocks)), [-math.inf] * nblocks
    best_vec = [X[:, b * k].copy() for b in live]
    ring = [[-math.inf] * SETTLE_WINDOW for _ in live]
    best, iters, stop = [None] * nblocks, [0] * nblocks, ["converged"] * nblocks

    def retire(i: int, why: str) -> None:
        """Running block i stops: write its columns and best out."""
        b = live[i]
        X_out[:, b * k : (b + 1) * k] = X[:, i * k : (i + 1) * k]
        vals_out[b * k : (b + 1) * k] = vals[i * k : (i + 1) * k]
        best[b], iters[b], stop[b] = (best_val[i], best_vec[i]), t + 1, why

    # a step whose sums overflow runs again on peak-scaled input, and a norm
    # past the float range reads inf once scaled back
    with np.errstate(over="ignore"):
        prev, t = None, -1
        for t in range(max_iter):
            U, vals = fwd(arr @ X)
            settled = []
            for i, j in enumerate(vals.reshape(-1, k).argmax(axis=1).tolist()):
                j += i * k  # running block i holds columns i k .. (i + 1) k - 1
                if vals[j] > best_val[i]:
                    best_val[i], best_vec[i] = float(vals[j]), X[:, j].copy()
                if settle:
                    old, ring[i][t % SETTLE_WINDOW] = ring[i][t % SETTLE_WINDOW], best_val[i]
                    settled.append(best_val[i] - old <= SETTLE_RTOL * best_val[i])
            frozen, nf = None, 0
            if prev is not None:  # always set by the time a block can settle
                frozen = np.abs(vals - prev) <= tol * vals  # a dead column's 0 <= 0
                nf = np.count_nonzero(frozen)  # spares the per-block test in the common cases
                if nf in (0, frozen.size) or len(live) == 1:
                    drop = [nf == frozen.size] * len(live)
                else:
                    drop = frozen.reshape(-1, k).all(axis=1).tolist()
                drop = [d or s for d, s in zip(drop, settled)] if settle else drop
                if any(drop):
                    for i in (i for i, d in enumerate(drop) if d):
                        retire(i, "settled" if settle and settled[i] else "converged")
                    live, best_val, best_vec, ring = (
                        [x for x, d in zip(s, drop) if not d]
                        for s in (live, best_val, best_vec, ring)
                    )
                    if not live:
                        break
                    keep = ~np.repeat(drop, k)
                    X, U, vals, frozen = X[:, keep], U[:, keep], vals[keep], frozen[keep]
                    if not isinstance(q, ExtIndex):
                        q, pstar = q[keep], pstar[keep]
                        fwd, bwd = _ascent_map(q, cplx), _ascent_map(pstar, cplx, dual=True)
            prev = vals
            if t + 1 == max_iter:
                break  # X stays the iterate whose values vals holds
            Xn, norms = bwd(adj @ U)
            # a dual norm is 0 for a zero column of A* U and positive otherwise;
            # such a dead column keeps its iterate
            if np.count_nonzero(norms) < norms.size:
                dead = norms == 0.0
                norms = np.where(dead, 1.0, norms)
                frozen, nf = dead if frozen is None else frozen | dead, 1
            if not unit:
                Xn = _over(Xn, norms, out=Xn)
            if nf:
                np.copyto(Xn, X, where=frozen)
            X = Xn
        for i in range(len(live)):
            retire(i, "max_iter")
        best = [(float(np.ldexp(v, e)), vec) for v, vec in best]
        return _Ascent(best, np.ldexp(vals_out, e), X_out, iters, stop)


def _random_cols(rng: np.random.Generator, m: int, count: int, field: str) -> np.ndarray:
    if count <= 0:
        return np.zeros((m, 0), dtype=complex if field == COMPLEX else float)
    if field == COMPLEX:
        return rng.standard_normal((m, count)) + 1j * rng.standard_normal((m, count))
    return rng.standard_normal((m, count))


@functools.lru_cache(maxsize=32)
def _start_block(m: int, field: str, restarts: int, seed: int) -> np.ndarray:
    """The ascent's start columns for an m-column matrix of the field: the
    coordinate vectors, the all-ones vector, over the complex field one
    non-real constant-modulus vector, then seeded random columns, at least
    2, up to restarts columns in all; built once and shared read-only."""
    dtype = complex if field == COMPLEX else float
    fixed = [np.eye(m, dtype=dtype), np.ones((m, 1), dtype=dtype)]
    if field == COMPLEX:
        # one deterministic non-real constant-modulus start helps at (inf, 1)
        fixed.append(np.exp(2j * np.pi * np.arange(m) / max(m + 1, 3)).reshape(m, 1))
    n_fixed = sum(b.shape[1] for b in fixed)
    fixed.append(_random_cols(np.random.default_rng(seed), m, max(restarts - n_fixed, 2), field))
    X0 = np.hstack(fixed)
    X0.setflags(write=False)
    return X0


@functools.lru_cache(maxsize=64)
def _unit_start_block(m: int, field: str, restarts: int, seed: int, p: ExtIndex) -> np.ndarray:
    """_start_block's columns scaled to unit p-norm, the starts every
    ascent takes, built once and shared read-only."""
    X0 = _normalize_cols(_start_block(m, field, restarts, seed), p)
    X0.setflags(write=False)
    return X0


def norm_estimate(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    *,
    seed: int = 0,
) -> NormResult:
    """Lower-bound estimate of ||A||_{p,q} by multistart duality ascent.

    Consults the closed forms first and returns those exactly when they
    apply.  Deterministic for a fixed seed.
    """
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    closed = norm_closed_form(M, pi, qi)
    if closed is not None:
        return closed
    return _estimates(M, [(pi, qi)], seed)[0]


# elements (rows x columns) per stacked ascent of several points: a 32 x 32
# matrix with its 64 restarts stacks 8 points
STACK = 1 << 14


def _estimates(M: MatrixValue, pairs: list, seed: int) -> list:
    """Ascent estimates of ||M||_{p,q} for pairs without a closed form.

    Every point starts from the same block of restarts, scaled to unit
    p-norm.  Points are stacked side by side into one ascent with
    per-column exponents, in chunks of at most STACK elements; a chunk of
    one point runs on scalar exponents.
    """
    starts = functools.partial(_unit_start_block, M.m, M.field, RESTARTS + M.m, seed)
    k = starts(pairs[0][0]).shape[1]
    per = max(1, STACK // (max(M.n, M.m) * k))
    out = []
    for c in range(0, len(pairs), per):
        chunk = pairs[c : c + per]
        if len(chunk) == 1:
            (p, q), X = chunk[0], starts(chunk[0][0])
        else:
            p = np.repeat([pi.value for pi, _ in chunk], k)
            q = np.repeat([qi.value for _, qi in chunk], k)
            X = np.hstack([starts(pi) for pi, _ in chunk])
        for val, vec in _ascent(M.entries, p, q, X, MAX_ITER, ASCENT_TOL, k).best:
            out.append(NormResult(val, vec, Certainty.ESTIMATE))
    return out


def norm_closed_form(A: MatrixLike, p: IndexLike, q: IndexLike) -> Optional[NormResult]:
    """Exact ||A||_{p,q} where a closed form exists, else None.

    Covered: the zero matrix; p = q = 2 (largest singular value, witness the
    top right singular vector); p = 1 or one column (largest column q-norm,
    witness a coordinate vector); q = inf or one row (largest row p*-norm,
    as ||a x||_q = |a x| for a row a, witness the dual vector of that row,
    formed on the row / 2^e so that subnormal entries have a phase).  Ties
    resolve to the lowest index.
    """
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    arr = M.entries
    n, m = arr.shape
    dtype = complex if M.is_complex else float
    if not arr.any():
        e0 = np.zeros(m, dtype=dtype)
        e0[0] = 1.0
        return NormResult(0.0, e0, Certainty.CLOSED_FORM)
    if pi.value == 2.0 and qi.value == 2.0:
        f = svd(M)
        return NormResult(float(f.s[0]), f.v[:, 0].copy(), Certainty.CLOSED_FORM)
    if pi.value == 1.0 or m == 1:
        colnorms = _lp_cols(arr, qi)
        j = int(colnorms.argmax())
        witness = np.zeros(m, dtype=dtype)
        witness[j] = 1.0
        return NormResult(float(colnorms[j]), witness, Certainty.CLOSED_FORM)
    if qi.is_inf or n == 1:
        pstar = conjugate(pi)
        rownorms = _lp_cols(arr.T, pstar)
        i = int(rownorms.argmax())
        row = _pow2_normalized(arr[i, :])[0]
        if pi.is_inf:
            witness = np.conj(_phase(row))
            witness[np.abs(row) == 0] = 1.0
        else:
            a = np.abs(row)
            peak = a.max()
            witness = np.conj(_phase(row)) * (a / peak) ** (pstar.value - 1.0)
        witness = witness / vector_norm(witness, pi)
        return NormResult(float(rownorms[i]), witness.astype(dtype), Certainty.CLOSED_FORM)
    return None


# columns per block of an exhaustive enumeration; a real one holds the shared
# image of two blocks and the block's own image, 3.9 MB at n = 20
BLOCK = 1 << 13


def _sign_cols(idx, m: int) -> np.ndarray:
    """The sign vectors (first entry +1) with the indices idx, one per
    column (a vector for a scalar idx); bit b of an index sets the sign of
    entry b + 1."""
    idx = np.asarray(idx, dtype=np.uint64)
    X = np.ones((m,) + idx.shape)
    for bit in range(m - 1):
        X[bit + 1] = 1.0 - 2.0 * ((idx >> np.uint64(bit)) & np.uint64(1)).astype(float)
    return X


def _sign_images(B: np.ndarray):
    """Yield (Y, cols) over the blocks X of the 2^(m-1) sign vectors in
    index order, m = B.shape[1]: Y = B @ X and cols(j) = X[:, j], rebuilt
    only for the columns asked for.  No sign matrix is formed: the image of
    the signs of the 15 leading entries (all m if fewer; two blocks' worth)
    is built once by doubling (with w columns done, entry j fills columns w..2w-1 with
    base - b_j, then columns 0..w-1 get + b_j), which sums each column in
    entry order as a matrix product with two or more rows does.  Past it,
    each pair of blocks adds the image of its high signs (one
    matrix-vector product) to that shared image, into the reused Y."""
    n, m = B.shape
    total = 1 << (m - 1)
    low = min(m, BLOCK.bit_length() + 1)
    base = np.empty((n, 1 << (low - 1)))
    base[:, 0] = B[:, 0]
    w = 1
    for j in range(1, low):
        np.subtract(base[:, :w], B[:, j, None], out=base[:, w : 2 * w])
        base[:, :w] += B[:, j, None]
        w *= 2
    halves = [(h, base[:, h : h + BLOCK]) for h in range(0, w, BLOCK)]
    if m == low:
        for h, half in halves:
            yield half, lambda j, s=h: _sign_cols(s + j, m)
        return
    Y = np.empty((n, BLOCK))
    for start in range(0, total, w):
        # the high signs alone: index bit b - 1 sets the sign of entry b
        high = [-1.0 if start >> (b - 1) & 1 else 1.0 for b in range(low, m)]
        shift = B[:, low:] @ np.array(high)
        for h, half in halves:
            yield np.add(half, shift[:, None], out=Y), lambda j, s=start + h: _sign_cols(s + j, m)


def _top(vals: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(-vals, kind="stable")[:k] from a stable sort of only the
    values at or above the k-th largest, kept in index order (ties match)."""
    c = max(vals.size - k, 0)
    cand = np.flatnonzero(vals >= np.partition(vals, c)[c])
    return cand[np.argsort(-vals[cand], kind="stable")[:k]]


def _phase_block(start: int, stop: int, m: int, g: int) -> np.ndarray:
    """Columns start..stop-1 of the grid of g-th roots of unity with first
    entry 1.  Base-g digit t of the index, most significant first, picks
    entry t + 1 (the column order of np.meshgrid with indexing="ij")."""
    idx = np.arange(start, stop, dtype=np.int64)
    phases = np.exp(2j * np.pi * np.arange(g) / g)
    X = np.ones((m, idx.size), dtype=complex)
    for t in range(m - 1, 0, -1):
        X[t, :] = phases[idx % g]
        idx //= g
    return X


MAX_REAL_COLS = 24  # columns of a real (inf,1) sign enumeration


def norm_infty_one_exact(A: MatrixLike) -> NormResult:
    """||A||_{inf,1} of a real-field matrix by sign enumeration.

    x -> ||Ax||_1 is convex, so its maximum over the unit inf-ball sits at
    an extreme point, over the reals a sign vector: enumerating {-1, +1}^m
    (first entry fixed to +1) is exact.  Refuses m beyond MAX_REAL_COLS,
    and complex-field matrices, whose extreme points are not finitely many
    (best_norm estimates those by ascent).
    """
    M = as_matrix(A)
    if M.is_complex:
        raise ValueError("sign enumeration is exact over the real field only")
    if M.m > MAX_REAL_COLS:
        raise DimensionError(f"sign enumeration capped at {MAX_REAL_COLS} columns, got {M.m}")
    best, pick = -math.inf, None
    for Y, cols in _sign_images(M.entries):
        vals = np.abs(Y, out=Y).sum(axis=0)
        j = int(vals.argmax())
        if vals[j] > best:
            best, pick = float(vals[j]), (cols, j)
    cols, j = pick
    return NormResult(best, cols(j).copy(), Certainty.ENUMERATION)


def _lattice_side(m: int, budget: int) -> int:
    """Points per axis of the real brute-force lattice (at most 9), or 0 to
    skip it when even its 2^m corners would exceed half the budget."""
    if 2**m > budget // 2:
        return 0
    k = 2
    while (k + 1) ** m <= budget // 2 and k < 9:
        k += 1
    return k


def norm_bruteforce(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    budget: int = 10_000,
    seed: int = 0,
) -> NormResult:
    """Sampled lower bound on ||A||_{p,q}, independent of the closed forms.

    Spends the budget on structured candidates (coordinate vectors, sign or
    phase patterns, a coarse lattice while its 2^m corners fit in half the
    budget) plus random directions, then polishes the ten best by ascent.
    Deterministic for a fixed seed.
    """
    if budget < 100:
        raise ValueError("budget too small to be meaningful")
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    arr = M.entries
    m = M.m
    dtype = complex if M.is_complex else float
    rng = np.random.default_rng(seed)
    blocks = [np.eye(m, dtype=dtype), np.ones((m, 1), dtype=dtype)]
    if not M.is_complex:
        k = _lattice_side(m, budget)
        if k:
            axis = np.linspace(-1.0, 1.0, k)
            mesh = np.meshgrid(*([axis] * m), indexing="ij")
            blocks.append(np.stack([g.reshape(-1) for g in mesh]))  # its zero column goes below
    else:
        if 4 ** m <= budget // 4:
            phases = np.array([1, -1, 1j, -1j], dtype=complex)
            mesh = np.meshgrid(*([phases] * m), indexing="ij")
            blocks.append(np.stack([g.reshape(-1) for g in mesh]))
        count = budget // 8
        moduli = rng.random((m, count))
        angles = np.exp(2j * np.pi * rng.random((m, count)))
        blocks.append(moduli * angles)
    used = sum(b.shape[1] for b in blocks)
    blocks.append(_random_cols(rng, m, budget - used, M.field))
    X = np.hstack(blocks)
    X = X[:, np.abs(X).sum(axis=0) > 0]
    X = _normalize_cols(X, pi)
    vals = _lp_cols(arr @ X, qi)
    order = _top(vals, 10)
    best = float(vals[order[0]])
    best_x = X[:, order[0]].copy()
    [(val, vec)] = _ascent(arr, pi, qi, X[:, order], 100, 1e-12).best
    if val > best:
        best, best_x = float(val), vec
    return NormResult(best, best_x, Certainty.ESTIMATE)


def best_norm(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    *,
    seed: int = 0,
    budget: Optional[int] = None,
) -> NormResult:
    """Strongest available route for ||A||_{p,q}.

    Closed form when one exists, sign enumeration for real (inf, 1) within
    the dimension cap, otherwise the ascent estimate (optionally topped up
    with a brute-force pass when a budget is given).  Memoised on the
    matrix per (p, q, seed, budget); the witness is read-only.
    """
    return best_norms(A, [(p, q)], seed=seed, budget=budget)[0]


def best_norms(
    A: MatrixLike,
    pairs: Sequence,
    *,
    seed: int = 0,
    budget: Optional[int] = None,
) -> list:
    """best_norm for each (p, q) in pairs, one NormResult per pair.

    Routes are chosen per pair as best_norm does, and results share its
    memo.  The pairs left to the ascent are estimated together: their
    restarts are stacked into as few ascents as the element cap allows, so
    each iteration's fixed cost is paid once for all of them.
    """
    M = as_matrix(A)
    keys = [(as_index(p), as_index(q), seed, budget) for p, q in pairs]
    found, todo = {}, {}
    for key in keys:
        if key in M._memo or key in found or key in todo:
            continue
        pi, qi = key[:2]
        res = norm_closed_form(M, pi, qi)
        if res is None and pi.is_inf and qi.value == 1.0:
            if not M.is_complex and M.m <= MAX_REAL_COLS:
                res = norm_infty_one_exact(M)
        if res is None:
            todo[key] = (pi, qi)
        else:
            found[key] = res
    if todo:
        estimates = _estimates(M, list(todo.values()), seed)
        for (key, (pi, qi)), res in zip(todo.items(), estimates):
            if budget is not None:
                other = norm_bruteforce(M, pi, qi, budget=budget, seed=seed)
                if other.value > res.value:
                    res = other
            found[key] = res
    for key, res in found.items():
        res.witness.setflags(write=False)
        M._memo[key] = res
    return [M._memo[key] for key in keys]


def maximizer_set_probe(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    count: int = 6,
    seed: int = 0,
    rel_tol: float = 1e-6,
) -> list:
    """Up to count pairwise non-proportional near-maximizers of the ratio.

    Runs the ascent from many starts, keeps terminal iterates whose ratio is
    within rel_tol (relative) of the best seen, and deduplicates vectors that
    agree up to a scalar.  A closed-form witness, when available, seeds the
    batch so a true maximizer is always present.
    """
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    X0 = _start_block(M.m, M.field, max(16, 4 * count) + M.m + 2, seed)
    closed = norm_closed_form(M, pi, qi)
    if closed is not None and vector_norm(closed.witness, pi) > 0:
        X0 = np.hstack([closed.witness.reshape(-1, 1).astype(X0.dtype), X0])
    run = _ascent(M.entries, pi, qi, _normalize_cols(X0, pi), 300, 1e-12, settle=False)
    vals, X = run.vals, run.X
    best = float(vals.max())
    if closed is not None:
        best = max(best, closed.value)
    if best <= 0.0:
        return []
    keep: list = []
    order = np.argsort(-vals, kind="stable")
    for j in order:
        if vals[j] < best * (1.0 - rel_tol):
            break
        x = X[:, j]
        nx = float(np.linalg.norm(x))
        if nx <= _TINY:
            continue
        if not any(
            abs(np.vdot(y, x)) >= (1.0 - 1e-8) * nx * float(np.linalg.norm(y)) for y in keep
        ):
            keep.append(x.copy())
            if len(keep) >= count:
                break
    return keep


@dataclass(frozen=True)
class SvdFactors:
    """A = u @ diag(s) @ v* with unitary u (n x n), v (m x m), s descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def sigma_matrix(self) -> np.ndarray:
        n = self.u.shape[0]
        m = self.v.shape[0]
        out = np.zeros((n, m), dtype=float)
        k = min(n, m)
        out[:k, :k] = np.diag(self.s[:k])
        return out

    def reconstruct(self) -> np.ndarray:
        return self.u @ self.sigma_matrix() @ self.v.conj().T


def svd(A: MatrixLike) -> SvdFactors:
    """Full singular value decomposition by LAPACK (numpy.linalg.svd).

    Computed once per matrix and memoised on it, so the factors are
    read-only.  The top singular value leads; complex-capable.  It runs on
    A / 2^e, where LAPACK does not rescale the matrix by a factor of its
    own, so 2^k A has the same factors and singular values 2^k s.
    """
    M = as_matrix(A)
    f = M._memo.get("svd")
    if f is None:
        arr, e = _pow2_normalized(M.entries)
        try:
            u, s, vh = np.linalg.svd(arr)
        except np.linalg.LinAlgError as err:
            raise SvdConvergenceError(str(err)) from err
        with np.errstate(over="ignore"):
            s = np.ldexp(s, e)
        f = SvdFactors(u=u, s=s, v=vh.conj().T)
        for a in (f.u, f.s, f.v):
            a.setflags(write=False)
        M._memo["svd"] = f
    return f
