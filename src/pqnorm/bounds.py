"""The norm-comparison bound, its equality detection, duality, monotonicity.

The central inequality is
    ||A||_{r,s} <= m^{[(1/p)-(1/r)]_+} * n^{[(1/s)-(1/q)]_+} * ||A||_{p,q},
valid for all exponents in [1, inf]; its factor, bound_factor, is the
product of the vector comparisons ||x||_p <= c ||x||_r on the domain and
||y||_s <= c ||y||_q on the codomain.  This module evaluates both sides,
decides equality at tolerance, verifies the adjoint identity
||A*||_{q*,p*} = ||A||_{p,q}, checks the equivalent monotonicity statement,
and implements the sign-signature transfer rule (equality at one (r,s)
carries to every (r2,s2) with the same signs of p-r and q-s).

Norm values may be exact or lower-bound estimates; NormBracket pairs an
estimate with a certified upper bound, the same inequality read from the
exactly known anchors (1, q), (p, inf) and (2, 2), and at (inf, 1) a
semidefinite certificate from the estimate's witness, so that equality
questions are answered soundly (yes / no / undetermined) even on estimated
paths.  Every such comparison is one rule, _at_most: two lower bounds that
disagree give None (undetermined), and only a lower bound above a
certified upper bound gives False, at the one slack _tol gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import INF, ONE, TWO, IndexLike, as_index, as_tol, conjugate, sign_between
from .core import vector_comparison_factor
from .induced_norms import (
    Certainty,
    MatrixLike,
    MatrixValue,
    NormResult,
    _NORMAL,
    _lp_cols,
    _normalized,
    _peak_exponent,
    _phase,
    _scaled_back,
    _scaled_sigma1,
    as_matrix,
    best_norm,
    best_norms,
)

__all__ = [
    "bound_factor",
    "BoundReport",
    "check_inequality",
    "duality_check",
    "inequality_grid_check",
    "monotonicity_check",
    "monotonicity_check_in_s",
    "transfer_equality",
    "norm_upper_bound",
    "NormBracket",
    "bracket_norm",
    "decide_equality",
    "EXACT_EQ_TOL",
]

EXACT_EQ_TOL = 1e-8


def _tol(tol: Optional[float]) -> float:
    """The slack of every comparison between brackets: tol, or EXACT_EQ_TOL
    if None, whether the brackets read are exact or estimated.  A "yes"
    rests on lower ends, which are attained values, and a "no" on certified
    upper ends, so neither needs a wider slack on an estimate."""
    return EXACT_EQ_TOL if tol is None else tol


def bound_factor(
    p: IndexLike, q: IndexLike, r: IndexLike, s: IndexLike, m: int, n: int
) -> float:
    """m^{[(1/p)-(1/r)]_+} * n^{[(1/s)-(1/q)]_+}, with 1/inf = 0."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    return vector_comparison_factor(p, r, m) * vector_comparison_factor(s, q, n)


def _inf_one_certificate(arr: np.ndarray, x: np.ndarray) -> float:
    """Certified upper bound on ||arr||_{inf,1} from any vector x: the
    semidefinite bound of Nesterov (1998) at a diagonal read from x.

    With y = phase(Ax), D = (|A* y|, |A x|) and mu the least eigenvalue of
    K = Diag(D) - [[0, A*], [A, 0]], 2 Re y* A x <= sum (D_i - mu) |z_i|^2
    for every z = (x, y); entries of modulus at most 1 and the rescaling
    (t x, y / t) give ||A||_{inf,1} <= sqrt(sum_x (D - mu) sum_y (D - mu)).
    Any real D gives a bound, in both fields (the form is Hermitian); at a
    maximizer x = phase(A* y) it is the value itself when K is positive
    semidefinite.  arr is A / 2^e (_pow2_normalized), on which no product
    overflows; norm_upper_bound scales the bound back.  eigvalsh is
    backward stable (Householder tridiagonalisation, Higham 2002, ch. 19):
    its mu is exact for K + E, ||E||_2 <= c N^2 u ||K||_F with N = m + n
    and u = 2^-53, so by Weyl's inequality mu less N^2 2^-50 ||K||_F (c = 8)
    is a lower bound; the sums, product and root, at most (N + 3) u
    relative, are covered by the factor 1 + (N + 4) 2^-52.
    """
    n, m = arr.shape
    Ax = arr @ x
    D = np.concatenate([np.abs(arr.conj().T @ _phase(Ax)), np.abs(Ax)])
    K = np.zeros((m + n, m + n), dtype=arr.dtype)
    K[:m, m:], K[m:, :m] = -arr.conj().T, -arr
    K[np.diag_indices(m + n)] = D
    mu = np.linalg.eigvalsh(K)[0] - (m + n) ** 2 * 2.0**-50 * np.linalg.norm(K)
    return math.sqrt((D[:m] - mu).sum() * (D[m:] - mu).sum()) * (1.0 + (m + n + 4) * 2.0**-52)


def norm_upper_bound(A: MatrixLike, p: IndexLike, q: IndexLike) -> float:
    """Certified upper bound on ||A||_{p,q}, memoised on the matrix.

    The minimum over the exact anchors (p0, q0) = (1, q), (p, inf), (2, 2)
    of bound_factor(p0, q0, p, q) * ||A||_{p0,q0}, read as the largest
    column q-norm, the largest row p*-norm and the top singular value; at
    (inf, 1) also _inf_one_certificate at the witness of best_norm (seed
    0), in either field.  Every term is formed on A / 2^e, as the estimate
    is, and the minimum is scaled back once, so at the ends of the float
    range the bound rounds as the estimate does and stays above it.
    """
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    key = ("upper_bound", pi, qi)
    if key not in M._memo:
        arr, e = _normalized(M)
        values = (_lp_cols(arr, qi).max(), _lp_cols(arr.T, conjugate(pi)).max(), _scaled_sigma1(M))
        anchors = zip(((ONE, qi), (pi, INF), (TWO, TWO)), values)
        bounds = [bound_factor(*a, pi, qi, M.m, M.n) * float(v) for a, v in anchors]
        if pi.is_inf and qi.value == 1.0:
            bounds.append(_inf_one_certificate(arr, best_norm(M, INF, ONE).witness))
        M._memo[key] = _scaled_back(min(bounds), e)
    return M._memo[key]


def _in_range(M: MatrixValue) -> tuple:
    """(S, e): S = M and e = 0 when no value a verdict on M reads can leave
    the normal range, else S = A / 2^e from _pow2_normalized, memoised on M.
    Verdicts do not change under positive scaling, so they may be taken on
    S.  Every norm of A lies in [rho, n m rho] for rho its largest modulus,
    and a verdict reads them times comparison factors and amplitudes within
    (n m)^(+-1), so within [rho / (n m), (n m)^2 rho].  M is kept when that
    lies in [2^-1022, 2^1022], where a value plus its slack stays finite:
    with 2^(e-1) <= rho < 2^e and n m <= 2^b, when -1021 + b <= e <= 1022 - 2 b.
    Only e is read for that; A / 2^e is formed only when M is not kept."""
    if "in_range" not in M._memo:
        e, b = _peak_exponent(M.entries), (M.n * M.m).bit_length()
        keep = -1021 + b <= e <= 1022 - 2 * b  # a zero matrix has e = 0
        M._memo["in_range"] = () if keep else (MatrixValue(_normalized(M)[0], M.field), e)
    return M._memo["in_range"] or (M, 0)


@dataclass(frozen=True)
class NormBracket:
    """Two-sided enclosure lower <= ||A||_{p,q} <= upper.

    result carries the witness behind the lower bound.  When the value is
    exact, lower == upper == result.value.
    """

    lower: float
    upper: float
    result: NormResult

    @property
    def is_exact(self) -> bool:
        return self.result.certainty.is_exact

    def le(self, target: float, tol: Optional[float]) -> Optional[bool]:
        """Is ||A|| <= target within _tol(tol)?  None if undecidable."""
        return _at_most((self.lower, self.upper), (target, target), _tol(tol))


def bracket_norm(
    A: MatrixLike, p: IndexLike, q: IndexLike, *, seed: int = 0
) -> NormBracket:
    """Enclose ||A||_{p,q}: exact routes collapse the bracket to a point.

    An estimate that exceeds the certified bound by rounding alone (at most
    1e-12 relative) means both sit on the norm, so the upper end is raised
    to the estimate instead of inverting the bracket.
    """
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    res = best_norm(M, pi, qi, seed=seed)
    if res.certainty.is_exact:
        return NormBracket(res.value, res.value, res)
    upper = norm_upper_bound(M, pi, qi)
    if upper < res.value <= upper * (1.0 + 1e-12):
        upper = res.value
    return NormBracket(res.value, upper, res)


@dataclass(frozen=True)
class BoundReport:
    """The comparison bound at one (p,q,r,s), read from decide_equality:
    lhs and rhs_norm are the lower ends of its brackets, equality is its
    verdict, True "yes", False "no" and None undetermined, and tol is the
    slack it read, the caller's tol or EXACT_EQ_TOL, exact or estimated."""

    lhs: float
    factor: float
    rhs_norm: float
    slack: float
    equality: Optional[bool]
    lhs_certainty: Certainty
    rhs_certainty: Certainty
    tol: float

    @property
    def bound(self) -> float:
        return self.factor * self.rhs_norm

    @property
    def is_exact(self) -> bool:
        return self.lhs_certainty.is_exact and self.rhs_certainty.is_exact


def check_inequality(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    r: IndexLike,
    s: IndexLike,
    tol: Optional[float] = None,
    *,
    seed: int = 0,
) -> BoundReport:
    """Evaluate ||A||_{r,s} <= factor * ||A||_{p,q} and flag equality, both
    through decide_equality, at its slack _tol(tol)."""
    verdict, details = decide_equality(A, p, q, r, s, tol, seed=seed)
    lb, rb, factor = details["lhs"], details["rhs"], details["factor"]
    return BoundReport(
        lhs=lb.lower,
        factor=factor,
        rhs_norm=rb.lower,
        slack=factor * rb.lower - lb.lower,
        equality={"yes": True, "no": False, "undetermined": None}[verdict],
        lhs_certainty=lb.result.certainty,
        rhs_certainty=rb.result.certainty,
        tol=details["tol"],
    )


def _at_most(x: tuple, y: tuple, tol: float) -> Optional[bool]:
    """Three-state u <= v for u in [x_lo, x_hi] and v in [y_lo, y_hi], up
    to slack tol relative to the larger of the two ends compared.

    True when x_hi <= y_lo + tol max(x_hi, y_lo); False only when
    x_lo > y_hi + tol max(x_lo, y_hi), which no values inside the brackets
    can give; otherwise None (undetermined).  A point is the pair (x, x).
    The slack is floored at tol times the least normal float, so it is
    relative, and the test scale-free, wherever either end is normal.
    """
    (x_lo, x_hi), (y_lo, y_hi) = x, y
    if x_hi <= y_lo + tol * max(x_hi, y_lo, _NORMAL):
        return True
    if x_lo > y_hi + tol * max(x_lo, y_hi, _NORMAL):
        return False
    return None


def _all(verdicts: list) -> Optional[bool]:
    """False if any verdict is False, else None if any is None, else True."""
    if False in verdicts:
        return False
    return None if None in verdicts else True


def duality_check(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    tol: Optional[float] = None,
    *,
    seed: int = 0,
) -> Optional[bool]:
    """Does ||A*||_{q*,p*} match ||A||_{p,q}?

    True when the two values agree within _tol(tol).  False only when one
    side's value exceeds the other side's certified upper bound by more
    than that; two lower bounds that merely disagree give None
    (undetermined).
    """
    as_tol(tol)
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    a = bracket_norm(M, pi, qi, seed=seed)
    b = bracket_norm(M.adjoint(), conjugate(qi), conjugate(pi), seed=seed)
    return _all([_at_most((x.lower,) * 2, (y.lower, y.upper), _tol(tol)) for x, y in ((a, b), (b, a))])


def inequality_grid_check(
    A: MatrixLike,
    grid: Sequence[IndexLike],
    tol: Optional[float] = None,
    *,
    seed: int = 0,
) -> tuple:
    """(verdict, least slack) of the comparison bound at every (p,q,r,s)
    with (p,q) and (r,s) in grid x grid.

    Each of these compares the lower end at (r,s) with factor times the
    bracket at (p,q) within _tol(tol): False only past a certified bound,
    None when only lower bounds cross (see duality_check).  The slack is
    (bound - lhs) / bound on the lower ends.  The points are estimated
    together."""
    as_tol(tol)
    M = as_matrix(A)
    pairs = [(as_index(a), as_index(b)) for a in grid for b in grid]
    best_norms(M, pairs, seed=seed)  # one stacked ascent, read back
    brackets = [bracket_norm(M, *pt, seed=seed) for pt in pairs]
    verdicts, min_slack, t = [], math.inf, _tol(tol)
    for (p, q), rb in zip(pairs, brackets):
        for (r, s), lb in zip(pairs, brackets):
            factor = bound_factor(p, q, r, s, M.m, M.n)
            bound = factor * rb.lower
            min_slack = min(min_slack, (bound - lb.lower) / max(bound, 1e-300))
            verdicts.append(_at_most((lb.lower,) * 2, (bound, factor * rb.upper), t))
    return _all(verdicts), min_slack


def _ascending(grid: Sequence[IndexLike], name: str) -> list:
    grid = [as_index(r) for r in grid]
    if any(grid[i].value > grid[i + 1].value for i in range(len(grid) - 1)):
        raise ValueError(f"{name} must be sorted ascending")
    return grid


def _chain(A: MatrixLike, points: list, tol: Optional[float], seed: int) -> Optional[bool]:
    """||A||_{p,q} along the points in order must neither fall nor rise past
    the comparison bound (bound_factor) from one point to the next, at slack
    _tol(tol); estimated together, None where only lower bounds disagree
    and False only when certified (see duality_check)."""
    as_tol(tol)
    M = as_matrix(A)
    best_norms(M, points, seed=seed)  # one stacked ascent, read back
    brackets = [bracket_norm(M, *pt, seed=seed) for pt in points]
    verdicts, t = [], _tol(tol)
    for x, y, a, b in zip(points, points[1:], brackets, brackets[1:]):
        c = bound_factor(*x, *y, M.m, M.n)
        verdicts.append(_at_most((a.lower,) * 2, (b.lower, b.upper), t))
        verdicts.append(_at_most((b.lower,) * 2, (c * a.lower, c * a.upper), t))
    return _all(verdicts)


def monotonicity_check(
    A: MatrixLike,
    s_fixed: IndexLike,
    r_grid: Sequence[IndexLike],
    tol: Optional[float] = None,
    *,
    seed: int = 0,
) -> Optional[bool]:
    """For fixed s and r ascending: ||A||_{r,s} must not decrease and
    m^{1/r}*||A||_{r,s} must not increase; _chain over (r, s), r ascending."""
    si = as_index(s_fixed)
    return _chain(A, [(r, si) for r in _ascending(r_grid, "r_grid")], tol, seed)


def monotonicity_check_in_s(
    A: MatrixLike,
    r_fixed: IndexLike,
    s_grid: Sequence[IndexLike],
    tol: Optional[float] = None,
    *,
    seed: int = 0,
) -> Optional[bool]:
    """For fixed r and s ascending: ||A||_{r,s} must not increase and
    n^{-1/s}*||A||_{r,s} must not decrease; _chain over (r, s), s descending."""
    ri = as_index(r_fixed)
    return _chain(A, [(ri, s) for s in reversed(_ascending(s_grid, "s_grid"))], tol, seed)


def transfer_equality(
    p: IndexLike,
    q: IndexLike,
    r: IndexLike,
    s: IndexLike,
    r2: IndexLike,
    s2: IndexLike,
) -> bool:
    """Does equality at (r,s) imply equality at (r2,s2)?

    Pure sign logic: true iff sgn(p-r2) = sgn(p-r) and sgn(q-s2) = sgn(q-s).
    No norms are computed.
    """
    return (sign_between(p, r2), sign_between(q, s2)) == (sign_between(p, r), sign_between(q, s))


def decide_equality(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    r: IndexLike,
    s: IndexLike,
    tol: Optional[float] = None,
    *,
    seed: int = 0,
) -> tuple:
    """Three-state equality decision for ||A||_{r,s} = factor * ||A||_{p,q}.

    Returns (verdict, details) with verdict in {"yes", "no", "undetermined"}.
    Since the left side never exceeds the bound, equality is bound <= lhs:
    _at_most of the scaled right bracket against the left one at slack
    details["tol"] = _tol(tol), True "yes", False "no" (certified), None
    undetermined; (r, s) = (p, q) is "yes" (factor 1).  The slack is the
    same at exact and estimated points: a "yes" rests on the left lower end,
    an attained value, and a "no" on the bound's certified upper end.
    Both sides are estimated together, in one stacked ascent.  The details
    hold A's own brackets; the verdict is read from those of _in_range(A),
    which differ only where A's values could leave the normal range.
    """
    as_tol(tol)
    M = as_matrix(A)
    pi, qi, ri, si = as_index(p), as_index(q), as_index(r), as_index(s)

    def brackets(X: MatrixValue) -> tuple:
        best_norms(X, [(ri, si), (pi, qi)], seed=seed)  # read back through the memo
        return bracket_norm(X, ri, si, seed=seed), bracket_norm(X, pi, qi, seed=seed)

    lb, rb = brackets(M)
    S, _ = _in_range(M)
    slb, srb = (lb, rb) if S is M else brackets(S)
    factor = bound_factor(pi, qi, ri, si, M.m, M.n)
    tol = _tol(tol)
    details = {
        "factor": factor,
        "lhs": lb,
        "rhs": rb,
        "tol": tol,
    }
    if (ri, si) == (pi, qi):
        return "yes", details
    verdict = _at_most((factor * srb.lower, factor * srb.upper), (slb.lower, slb.upper), tol)
    return {True: "yes", False: "no", None: "undetermined"}[verdict], details
