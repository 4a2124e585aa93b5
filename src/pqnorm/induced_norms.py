"""Induced matrix norms ||A||_{p,q} = max ||Ax||_q / ||x||_p.

Exact routes exist for p = 1 (column maximum), q = inf (row maximum via the
dual exponent), (p, q) = (2, 2) (largest singular value) and, over the real
field, (inf, 1) by incremental sign enumeration.  Everything else is estimated
from below by a duality-map ascent with restarts, one fused pass per half-step;
results carry a certainty tag so callers can tell exact values from estimates.

The ascent kernel takes one exponent pair per column, so best_norms stacks
the restarts of every (p, q) point it has to estimate into a few chunked
ascents instead of one ascent per point; best_norm is its one-pair case.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    DEFAULT_TOL,
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
    "EstimatorSettings",
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
        arr = np.array(self.entries, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("matrix must be two-dimensional and nonempty")
        if self.field == REAL:
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0):
                    raise ValueError("real-field matrix has entries with nonzero imaginary part")
                arr = arr.real
            arr = arr.astype(np.float64)
        elif self.field == COMPLEX:
            arr = arr.astype(np.complex128)
        else:
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if not np.all(np.isfinite(arr)):
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


def _phase(w: np.ndarray, a: Optional[np.ndarray] = None) -> np.ndarray:
    """w / |w| entrywise, 0 mapped to 0; sign() for real input.  a, when
    given, is |w|."""
    if not np.iscomplexobj(w):
        return np.sign(w)
    a = np.abs(w) if a is None else a
    return w / np.where(a > 0, a, 1.0)


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


def _dual_step(W: np.ndarray, t: Exponent):
    """Column t-norms of W, the duality map r^(t-1) * phase(w) for r = |w| /
    peak, and that map's t*-norm s^(1-1/t), s = sum r^(t-1) * r: one abs, one
    power.  The map degenerates at t = 1 to the phase vector and at t = inf
    to the lowest-index entry of maximal modulus.  t may also be an array of
    finite exponents, one per column: r^(t-1) is exactly 1 at t = 1, so the
    general form covers those columns too (zero columns get dual norm 0)."""
    a = np.abs(W)
    peak = a.max(axis=0)
    if isinstance(t, ExtIndex):
        if t.value == 1.0:
            return a.sum(axis=0), _phase(W, a), (peak > 0).astype(float)
        if t.is_inf:
            top = (a.argmax(axis=0), np.arange(W.shape[1]))
            phi = np.zeros_like(W)
            phi[top] = _phase(W[top], peak)
            return peak, phi, (peak > 0).astype(float)
        t = t.value
    safe = np.where(peak > 0, peak, 1.0)
    phi = _phase(W, a)
    r = np.divide(a, safe, out=a)
    rp = r ** (t - 1.0)
    s = (rp * r).sum(axis=0)
    phi *= rp
    dual = s ** (1.0 - 1.0 / t)
    if not isinstance(t, float):
        dual *= peak > 0
    return safe * s ** (1.0 / t), phi, dual


def _normalize_cols(X: np.ndarray, p: Exponent) -> np.ndarray:
    if not isinstance(p, ExtIndex):
        out = np.empty_like(X)
        for v in set(p.tolist()):
            cols = p == v
            out[:, cols] = _normalize_cols(X[:, cols], as_index(v))
        return out
    norms = _lp_cols(X, p)
    safe = np.where(norms > _TINY, norms, 1.0)
    return X / safe


class _Ascent(NamedTuple):
    """Outcome of one ascent: for each block of columns, the best (value,
    witness) seen; and the terminal values and iterates of every column."""

    best: list
    vals: np.ndarray
    X: np.ndarray


def _ascent(
    arr: np.ndarray,
    p: Exponent,
    q: Exponent,
    X0: np.ndarray,
    max_iter: int,
    tol: float,
    block: Optional[int] = None,
) -> _Ascent:
    """Batched duality-map ascent on the columns of X0.

    Each step replaces x by the p-unit maximizer of Re <A* phi_q(Ax), x>,
    which never decreases ||Ax||_q / ||x||_p at the exact fixed points and in
    practice climbs to a local maximum quickly.  A column freezes the first
    time its value moves by at most tol (relative), keeping that iterate and
    value; only the columns still active are stepped.  p and q are both
    one exponent for every column, or both arrays with one per column (q
    finite, p > 1), which lets several (p, q) points share each iteration.
    The best value and its iterate are kept per block of `block` columns
    (one block by default): first seen wins, then the lowest column.  The
    ascent runs on A / 2^e, which moves no iterate, and the values are
    scaled back at the end, so no scale of A overflows a step.
    """
    arr, e = _pow2_normalized(arr)
    if isinstance(p, ExtIndex):
        pstar = conjugate(p)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            pstar = np.where(np.isinf(p), 1.0, p / (p - 1.0))
    adj = arr.conj().T
    X_out = _normalize_cols(X0, p)
    vals = vals_out = np.zeros(X_out.shape[1])
    block = block or X_out.shape[1]
    nblocks = X_out.shape[1] // block
    best_val = [-math.inf] * nblocks
    best_vec = [X_out[:, b * block].copy() for b in range(nblocks)]
    live = np.arange(X_out.shape[1])
    segments = _segments(live, block, nblocks)
    X = X_out
    prev = None
    for _ in range(max_iter):
        vals, U, _ = _dual_step(arr @ X, q)
        for b, lo, hi in segments:
            j = lo + int(vals[lo:hi].argmax())
            if vals[j] > best_val[b]:
                best_val[b] = float(vals[j])
                best_vec[b] = X[:, j].copy()
        if prev is not None:
            done = np.abs(vals - prev) <= tol * np.maximum(vals, _TINY)
            if done.any():
                X_out[:, live[done]] = X[:, done]
                vals_out[live[done]] = vals[done]
                keep = ~done
                live, X, U, vals = live[keep], X[:, keep], U[:, keep], vals[keep]
                if not live.size:
                    break
                if not isinstance(q, ExtIndex):
                    q, pstar = q[keep], pstar[keep]
                segments = _segments(live, block, nblocks)
        prev = vals
        _, Xn, norms = _dual_step(adj @ U, pstar)
        dead = norms <= _TINY
        if dead.any():
            Xn[:, dead] = X[:, dead]
            norms = np.where(dead, 1.0, norms)
        X = np.divide(Xn, norms, out=Xn)
    X_out[:, live] = X
    vals_out[live] = vals
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        best_val = [float(np.ldexp(v, e)) for v in best_val]
        return _Ascent(list(zip(best_val, best_vec)), np.ldexp(vals_out, e), X_out)


def _segments(live: np.ndarray, block: int, nblocks: int) -> list:
    """(b, lo, hi) for each block b with live columns: live[lo:hi] are its
    columns, live being ascending."""
    if nblocks == 1:
        return [(0, 0, live.size)]
    cuts = np.searchsorted(live, np.arange(nblocks + 1) * block).tolist()
    return [(b, lo, hi) for b, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if lo < hi]


def _random_cols(rng: np.random.Generator, m: int, count: int, field: str) -> np.ndarray:
    if count <= 0:
        return np.zeros((m, 0), dtype=complex if field == COMPLEX else float)
    if field == COMPLEX:
        return rng.standard_normal((m, count)) + 1j * rng.standard_normal((m, count))
    return rng.standard_normal((m, count))


def _default_starts(M: MatrixValue, restarts: int, rng: np.random.Generator) -> np.ndarray:
    m = M.m
    dtype = complex if M.is_complex else float
    fixed = [np.eye(m, dtype=dtype), np.ones((m, 1), dtype=dtype)]
    if M.is_complex:
        # one deterministic non-real constant-modulus start helps at (inf, 1)
        fixed.append(np.exp(2j * np.pi * np.arange(m) / max(m + 1, 3)).reshape(m, 1))
    n_fixed = sum(b.shape[1] for b in fixed)
    fixed.append(_random_cols(rng, m, max(restarts - n_fixed, 2), M.field))
    return np.hstack(fixed)


@dataclass(frozen=True)
class EstimatorSettings:
    """Knobs for the ascent estimator; restarts defaults to 32 + m."""

    restarts: Optional[int] = None
    max_iter: int = 200
    tol: float = 1e-10
    seed: int = 0


def norm_estimate(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    settings: Optional[EstimatorSettings] = None,
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
    return _estimates(M, [(pi, qi)], settings or EstimatorSettings())[0]


STACK = 1 << 13  # elements (rows x columns) per stacked ascent of several points


def _estimates(M: MatrixValue, pairs: list, cfg: EstimatorSettings) -> list:
    """Ascent estimates of ||M||_{p,q} for pairs without a closed form.

    Every point starts from the same block of restarts.  Points are stacked
    side by side into one ascent with per-column exponents, in chunks of at
    most STACK elements; a chunk of one point runs on scalar exponents.
    """
    restarts = cfg.restarts if cfg.restarts is not None else 32 + M.m
    X0 = _default_starts(M, restarts, np.random.default_rng(cfg.seed))
    k = X0.shape[1]
    per = max(1, STACK // (max(M.n, M.m) * k))
    out = []
    for c in range(0, len(pairs), per):
        chunk = pairs[c : c + per]
        if len(chunk) == 1:
            (p, q), X = chunk[0], X0
        else:
            p = np.repeat([pi.value for pi, _ in chunk], k)
            q = np.repeat([qi.value for _, qi in chunk], k)
            X = np.tile(X0, len(chunk))
        for val, vec in _ascent(M.entries, p, q, X, cfg.max_iter, cfg.tol, k).best:
            out.append(NormResult(val, vec, Certainty.ESTIMATE))
    return out


def norm_closed_form(A: MatrixLike, p: IndexLike, q: IndexLike) -> Optional[NormResult]:
    """Exact ||A||_{p,q} where a closed form exists, else None.

    Covered: the zero matrix; p = 1 (largest column q-norm, witness a
    coordinate vector); q = inf (largest row p*-norm, witness the dual
    vector of that row); p = q = 2 (largest singular value, witness the top
    right singular vector).  Ties resolve to the lowest index.
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
    if pi.value == 1.0:
        colnorms = _lp_cols(arr, qi)
        j = int(colnorms.argmax())
        witness = np.zeros(m, dtype=dtype)
        witness[j] = 1.0
        return NormResult(float(colnorms[j]), witness, Certainty.CLOSED_FORM)
    if qi.is_inf:
        pstar = conjugate(pi)
        rownorms = _lp_cols(arr.T, pstar)
        i = int(rownorms.argmax())
        row = arr[i, :]
        if pi.is_inf:
            witness = np.conj(_phase(row))
            witness[np.abs(row) == 0] = 1.0
        else:
            a = np.abs(row)
            peak = a.max()
            witness = np.conj(_phase(row)) * (a / peak) ** (pstar.value - 1.0)
        witness = witness / vector_norm(witness, pi)
        return NormResult(float(rownorms[i]), witness.astype(dtype), Certainty.CLOSED_FORM)
    if pi.value == 2.0 and qi.value == 2.0:
        f = svd(M)
        return NormResult(float(f.s[0]), f.v[:, 0].copy(), Certainty.CLOSED_FORM)
    return None


BLOCK = 1 << 14  # columns per block of an exhaustive enumeration


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
    index order, m = B.shape[1]: Y = B @ X and cols(j) = X[:, j].  Past one
    block the low 14 bits repeat, so the image of the 15 leading entries is
    formed once, each block adds that of its high signs into the reused Y,
    and cols rebuilds only the columns asked for."""
    m = B.shape[1]
    total = 1 << (m - 1)
    if total <= BLOCK:
        X = _sign_cols(np.arange(total), m)
        yield B @ X, lambda j: X[:, j]
        return
    low = BLOCK.bit_length()
    base = B[:, :low] @ _sign_cols(np.arange(BLOCK), low)
    Y = np.empty_like(base)
    for start in range(0, total, BLOCK):
        shift = B[:, low:] @ _sign_cols(start, m)[low:]
        yield np.add(base, shift[:, None], out=Y), lambda j, s=start: _sign_cols(s + j, m)


def _top8(vals: np.ndarray) -> np.ndarray:
    """np.argsort(-vals, kind="stable")[:8] from a stable sort of only the
    values at or above the 8th largest, kept in index order (ties match)."""
    k = max(vals.size - 8, 0)
    cand = np.flatnonzero(vals >= np.partition(vals, k)[k])
    return cand[np.argsort(-vals[cand], kind="stable")[:8]]


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
MAX_COMPLEX_COLS = 6  # columns of a complex (inf,1) phase grid, over A or A*
PHASE_GRID = 8  # phases per entry of that grid


def _phase_grid(M: MatrixValue) -> tuple:
    """(B, e, top values, top columns, upper), memoised on M: the stable top
    8 of the complex (inf,1) phase grid on B, which is A / 2^e or its
    adjoint, whichever has fewer columns.  x -> ||B x||_1 is convex and
    blind to a global phase, and the hull of the g-th roots of unity holds
    the disc of radius cos(pi/g), so upper = grid maximum / cos(pi/g), with
    a factor 1 + 4 (n + m) 2^-52 for rounding, bounds ||A||_{inf,1}."""
    memo = M._memo.get("phase_grid")
    if memo is None:
        arr, e = _pow2_normalized(M.entries)
        B = arr if M.m <= M.n else arr.conj().T
        k, g = B.shape[1], PHASE_GRID
        # running stable top 8 over the grid blocks: earlier columns win
        # ties, exactly as one argsort over the whole grid would order them
        top_vals, top_X, total = np.zeros(0), np.zeros((k, 0), dtype=complex), g ** (k - 1)
        for start in range(0, total, BLOCK):
            X = np.hstack([top_X, _phase_block(start, min(start + BLOCK, total), k, g)])
            vals = np.concatenate([top_vals, np.abs(B @ X[:, top_vals.size :]).sum(axis=0)])
            order = _top8(vals)
            top_vals, top_X = vals[order], X[:, order]
        hull = math.cos(math.pi / g) if k > 1 else 1.0
        with np.errstate(over="ignore"):
            upper = float(np.ldexp(top_vals[0] / hull * (1.0 + 4 * (M.n + M.m) * 2.0**-52), e))
        memo = M._memo["phase_grid"] = (B, e, top_vals, top_X, upper)
    return memo


def norm_infty_one_exact(A: MatrixLike) -> NormResult:
    """||A||_{inf,1} by extreme-point search over the unit inf-ball.

    Real field: the maximum sits at a sign vector, so enumerating
    {-1, +1}^m (first entry fixed to +1) is exact; refuses m beyond
    MAX_REAL_COLS.  Complex field: _phase_grid with ascent polish, reported
    as a lower-bound estimate; refuses min(n, m) beyond MAX_COMPLEX_COLS.
    From a maximizer y over A*, the witness is x = phase(A* y), for which
    ||A x||_1 >= ||A* y||_1.
    """
    M = as_matrix(A)
    arr = M.entries
    n, m = arr.shape
    if not M.is_complex:
        if m > MAX_REAL_COLS:
            raise DimensionError(f"sign enumeration capped at {MAX_REAL_COLS} columns, got {m}")
        best, pick = -math.inf, None
        for Y, cols in _sign_images(arr):
            vals = np.abs(Y, out=Y).sum(axis=0)
            j = int(vals.argmax())
            if vals[j] > best:
                best, pick = float(vals[j]), (cols, j)
        cols, j = pick
        return NormResult(best, cols(j).copy(), Certainty.ENUMERATION)
    if min(n, m) > MAX_COMPLEX_COLS:
        raise DimensionError(f"phase grid capped at {MAX_COMPLEX_COLS} columns, got {min(n, m)}")
    B, e, top_vals, top_X, _ = _phase_grid(M)
    [(val, vec)] = _ascent(B, as_index("inf"), as_index(1), top_X, 100, 1e-12).best
    if top_vals[0] >= val:
        val, vec = float(top_vals[0]), top_X[:, 0].copy()
    if B.shape[1] != m:
        vec = _phase(B @ vec)
        vec[vec == 0] = 1.0
        val = float(np.abs(B.conj().T @ vec).sum())
    with np.errstate(over="ignore"):
        return NormResult(float(np.ldexp(val, e)), vec, Certainty.ESTIMATE)


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
            lattice = np.stack([g.reshape(-1) for g in mesh])
            lattice = lattice[:, np.abs(lattice).sum(axis=0) > 0]
            blocks.append(lattice)
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
    order = np.argsort(-vals, kind="stable")[:10]
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
    settings: Optional[EstimatorSettings] = None,
    budget: Optional[int] = None,
) -> NormResult:
    """Strongest available route for ||A||_{p,q}.

    Closed form when one exists, sign enumeration for real (inf, 1) within
    the dimension cap, otherwise the ascent estimate (optionally topped up
    with a brute-force pass when a budget is given).  Memoised on the
    matrix per (p, q, seed, settings, budget); the witness is read-only.
    """
    return best_norms(A, [(p, q)], seed=seed, settings=settings, budget=budget)[0]


def best_norms(
    A: MatrixLike,
    pairs: Sequence,
    *,
    seed: int = 0,
    settings: Optional[EstimatorSettings] = None,
    budget: Optional[int] = None,
) -> list:
    """best_norm for each (p, q) in pairs, one NormResult per pair.

    Routes are chosen per pair as best_norm does, and results share its
    memo.  The pairs left to the ascent are estimated together: their
    restarts are stacked into as few ascents as the element cap allows, so
    each iteration's fixed cost is paid once for all of them.
    """
    M = as_matrix(A)
    keys = [(as_index(p), as_index(q), seed, settings, budget) for p, q in pairs]
    found, todo = {}, {}
    for key in keys:
        if key in M._memo or key in found or key in todo:
            continue
        pi, qi = key[:2]
        res = norm_closed_form(M, pi, qi)
        if res is None and pi.is_inf and qi.value == 1.0:
            try:
                res = norm_infty_one_exact(M)
            except DimensionError:
                pass
        if res is None:
            todo[key] = (pi, qi)
        else:
            found[key] = res
    if todo:
        estimates = _estimates(M, list(todo.values()), settings or EstimatorSettings(seed=seed))
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
    rng = np.random.default_rng(seed)
    restarts = max(16, 4 * count) + M.m + 2
    X0 = _default_starts(M, restarts, rng)
    closed = norm_closed_form(M, pi, qi)
    if closed is not None and vector_norm(closed.witness, pi) > 0:
        X0 = np.hstack([closed.witness.reshape(-1, 1).astype(X0.dtype), X0])
    run = _ascent(M.entries, pi, qi, X0, 300, 1e-12)
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
        duplicate = False
        for y in keep:
            if abs(np.vdot(y, x)) >= (1.0 - 1e-8) * nx * float(np.linalg.norm(y)):
                duplicate = True
                break
        if not duplicate:
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
    read-only.  The top singular value leads; complex-capable.
    """
    M = as_matrix(A)
    f = M._memo.get("svd")
    if f is None:
        try:
            u, s, vh = np.linalg.svd(M.entries)
        except np.linalg.LinAlgError as e:
            raise SvdConvergenceError(str(e)) from e
        f = SvdFactors(u=u, s=s, v=vh.conj().T)
        for a in (f.u, f.s, f.v):
            a.setflags(write=False)
        M._memo["svd"] = f
    return f
