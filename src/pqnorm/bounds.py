"""The norm-comparison bound, its equality detection, duality, monotonicity.

The central inequality is
    ||A||_{r,s} <= m^{[(1/p)-(1/r)]_+} * n^{[(1/s)-(1/q)]_+} * ||A||_{p,q},
valid for all exponents in [1, inf].  This module evaluates both sides,
decides equality at tolerance, verifies the adjoint identity
||A*||_{q*,p*} = ||A||_{p,q}, checks the equivalent monotonicity statement,
and implements the sign-signature transfer rule (equality at one (r,s)
carries to every (r2,s2) with the same signs of p-r and q-s).

Norm values may be exact or lower-bound estimates; NormBracket pairs an
estimate with a certified upper bound so that equality questions can be
answered soundly (yes / no / undetermined) even on estimated paths.  The
duality and monotonicity checks use the same upper bounds: two lower
bounds that disagree give None (undetermined), and only a lower bound
above a certified upper bound gives False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ExtIndex, IndexLike, as_index, conjugate, sign_between, vector_norm
from .induced_norms import (
    MAX_COMPLEX_COLS,
    Certainty,
    MatrixLike,
    NormResult,
    _phase_grid,
    as_matrix,
    best_norm,
    best_norms,
    svd,
)

__all__ = [
    "bound_factor",
    "BoundReport",
    "check_inequality",
    "duality_check",
    "monotonicity_check",
    "monotonicity_check_in_s",
    "transfer_equality",
    "norm_upper_bound",
    "NormBracket",
    "bracket_norm",
    "decide_equality",
    "EXACT_EQ_TOL",
    "ESTIMATED_EQ_TOL",
]

EXACT_EQ_TOL = 1e-8
ESTIMATED_EQ_TOL = 1e-4


def bound_factor(
    p: IndexLike, q: IndexLike, r: IndexLike, s: IndexLike, m: int, n: int
) -> float:
    """m^{[(1/p)-(1/r)]_+} * n^{[(1/s)-(1/q)]_+}, with 1/inf = 0."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    pi, qi, ri, si = as_index(p), as_index(q), as_index(r), as_index(s)
    em = max(pi.inv - ri.inv, 0.0)
    en = max(si.inv - qi.inv, 0.0)
    return float(m) ** em * float(n) ** en


def norm_upper_bound(A: MatrixLike, p: IndexLike, q: IndexLike) -> float:
    """Certified upper bound on ||A||_{p,q}.

    Three exactly-known anchors each dominate the norm through the
    comparison inequality itself:
      columns:  m^{1-1/p} * max_j ||col_j||_q   (anchor (1, q))
      rows:     n^{1/q}   * max_i ||row_i||_{p*} (anchor (p, inf))
      spectral: m^{[1/2-1/p]_+} n^{[1/q-1/2]_+} * s_1  (anchor (2, 2))
    Complex (inf, 1) within the phase-grid cap adds the grid's certified
    upper end, memoised with the grid.  The minimum is returned.
    """
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    arr = M.entries
    n, m = arr.shape
    col = float(m) ** (1.0 - pi.inv) * max(
        vector_norm(arr[:, j], qi) for j in range(m)
    )
    pstar = conjugate(pi)
    row = float(n) ** qi.inv * max(vector_norm(arr[i, :], pstar) for i in range(n))
    s1 = float(svd(M).s[0])
    spectral = (
        float(m) ** max(0.5 - pi.inv, 0.0)
        * float(n) ** max(qi.inv - 0.5, 0.0)
        * s1
    )
    if M.is_complex and pi.is_inf and qi.value == 1.0 and min(n, m) <= MAX_COMPLEX_COLS:
        return min(col, row, spectral, _phase_grid(M)[-1])
    return min(col, row, spectral)


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

    def le(self, target: float, tol: float) -> Optional[bool]:
        """Is ||A|| <= target (within relative tol)?  None if undecidable."""
        slack = tol * max(abs(target), self.upper, 1e-300)
        if self.upper <= target + slack:
            return True
        if self.lower > target + slack:
            return False
        return None

    def ge(self, target: float, tol: float) -> Optional[bool]:
        slack = tol * max(abs(target), self.upper, 1e-300)
        if self.lower >= target - slack:
            return True
        if self.upper < target - slack:
            return False
        return None

    def eq(self, target: float, tol: float) -> Optional[bool]:
        a = self.le(target, tol)
        b = self.ge(target, tol)
        if a is True and b is True:
            return True
        if a is False or b is False:
            return False
        return None


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
    """Evaluation of the comparison bound at one (p,q,r,s)."""

    lhs: float
    factor: float
    rhs_norm: float
    slack: float
    equality: bool
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
    lhs: Optional[NormResult] = None,
    rhs: Optional[NormResult] = None,
) -> BoundReport:
    """Evaluate ||A||_{r,s} <= factor * ||A||_{p,q} and flag equality.

    Precomputed NormResults may be passed to avoid recomputation in sweeps.
    The default tolerance is 1e-8 when both norms are exact, 1e-4 otherwise.
    """
    M = as_matrix(A)
    pi, qi, ri, si = as_index(p), as_index(q), as_index(r), as_index(s)
    left = lhs if lhs is not None else best_norm(M, ri, si, seed=seed)
    right = rhs if rhs is not None else best_norm(M, pi, qi, seed=seed)
    factor = bound_factor(pi, qi, ri, si, M.m, M.n)
    bound = factor * right.value
    slack = bound - left.value
    if tol is None:
        tol = (
            EXACT_EQ_TOL
            if (left.certainty.is_exact and right.certainty.is_exact)
            else ESTIMATED_EQ_TOL
        )
    equality = abs(slack) <= tol * max(bound, 1e-300)
    return BoundReport(
        lhs=left.value,
        factor=factor,
        rhs_norm=right.value,
        slack=slack,
        equality=equality,
        lhs_certainty=left.certainty,
        rhs_certainty=right.certainty,
        tol=tol,
    )


def _not_above(t: float, lhs: tuple, rhs: tuple, seed: int) -> Optional[bool]:
    """Three-state c1 ||A1||_{p1,q1} <= c2 ||A2||_{p2,q2}, each side given as
    (c, A, p, q), up to slack t relative to the larger side.

    True when the two lower bounds already satisfy it.  False only when the
    left lower bound exceeds even the right certified upper bound, which no
    pair of true norms can do; otherwise None (undetermined).
    """
    (c1, A1, p1, q1), (c2, A2, p2, q2) = lhs, rhs
    x = c1 * best_norm(A1, p1, q1, seed=seed).value

    def within(y: float) -> bool:
        return x <= y + t * max(x, y, 1e-300)

    if within(c2 * best_norm(A2, p2, q2, seed=seed).value):
        return True
    if within(c2 * bracket_norm(A2, p2, q2, seed=seed).upper):
        return None
    return False


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

    True when the two values agree within tol (default 1e-9 when both are
    exact, 1e-3 with an estimate involved).  False only when one side's
    value exceeds the other side's certified upper bound by more than that;
    two lower bounds that merely disagree give None (undetermined).
    """
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    adj = (M.adjoint(), conjugate(qi), conjugate(pi))
    exact = best_norm(M, pi, qi, seed=seed).certainty.is_exact and (
        best_norm(*adj, seed=seed).certainty.is_exact
    )
    t = tol if tol is not None else (1e-9 if exact else 1e-3)
    a, b = (1.0, M, pi, qi), (1.0, *adj)
    return _all([_not_above(t, a, b, seed), _not_above(t, b, a, seed)])


def _monotone(
    M, points: list, weights: list, tol: Optional[float], seed: int
) -> Optional[bool]:
    """Along the (p, q) points in order, each norm is at most the next and
    each weighted norm at least the next weighted one, up to one-sided slack
    (tol, default 1e-6 between exact values and 1e-3 otherwise).  The
    points are estimated together; a violation is False only when certified
    (see _not_above)."""
    results = best_norms(M, points, seed=seed)
    verdicts = []
    for i in range(len(points) - 1):
        a, b = results[i], results[i + 1]
        t = tol if tol is not None else (
            1e-6 if a.certainty.is_exact and b.certainty.is_exact else 1e-3
        )
        u, v = (M, *points[i]), (M, *points[i + 1])
        verdicts.append(_not_above(t, (1.0, *u), (1.0, *v), seed))
        verdicts.append(_not_above(t, (weights[i + 1], *v), (weights[i], *u), seed))
    return _all(verdicts)


def _ascending(grid: Sequence[IndexLike], name: str) -> list:
    grid = [as_index(r) for r in grid]
    if any(grid[i].value > grid[i + 1].value for i in range(len(grid) - 1)):
        raise ValueError(f"{name} must be sorted ascending")
    return grid


def monotonicity_check(
    A: MatrixLike,
    s_fixed: IndexLike,
    r_grid: Sequence[IndexLike],
    tol: Optional[float] = None,
    *,
    seed: int = 0,
) -> Optional[bool]:
    """For fixed s and r ascending: ||A||_{r,s} must not decrease and
    m^{1/r}*||A||_{r,s} must not increase, up to one-sided slack.  None when
    only lower bounds disagree (see duality_check)."""
    M = as_matrix(A)
    si = as_index(s_fixed)
    grid = _ascending(r_grid, "r_grid")
    weights = [float(M.m) ** r.inv for r in grid]
    return _monotone(M, [(r, si) for r in grid], weights, tol, seed)


def monotonicity_check_in_s(
    A: MatrixLike,
    r_fixed: IndexLike,
    s_grid: Sequence[IndexLike],
    tol: Optional[float] = None,
    *,
    seed: int = 0,
) -> Optional[bool]:
    """For fixed r and s ascending: ||A||_{r,s} must not increase and
    n^{-1/s}*||A||_{r,s} must not decrease, up to one-sided slack.  None
    when only lower bounds disagree (see duality_check)."""
    M = as_matrix(A)
    ri = as_index(r_fixed)
    grid = _ascending(s_grid, "s_grid")[::-1]
    weights = [float(M.n) ** (-s.inv) for s in grid]
    return _monotone(M, [(ri, s) for s in grid], weights, tol, seed)


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
    pi, qi = as_index(p), as_index(q)
    return sign_between(pi, as_index(r2)) == sign_between(pi, as_index(r)) and (
        sign_between(qi, as_index(s2)) == sign_between(qi, as_index(s))
    )


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
    Sound on estimated paths: the left bracket's lower bound against the
    right bracket's upper bound certifies "yes"; the reverse comparison
    certifies "no"; anything else is undetermined.
    """
    M = as_matrix(A)
    pi, qi, ri, si = as_index(p), as_index(q), as_index(r), as_index(s)
    lb = bracket_norm(M, ri, si, seed=seed)
    rb = bracket_norm(M, pi, qi, seed=seed)
    factor = bound_factor(pi, qi, ri, si, M.m, M.n)
    if tol is None:
        tol = EXACT_EQ_TOL if (lb.is_exact and rb.is_exact) else ESTIMATED_EQ_TOL
    details = {
        "factor": factor,
        "lhs": lb,
        "rhs": rb,
        "tol": tol,
    }
    bound_hi = factor * rb.upper
    bound_lo = factor * rb.lower
    scale = max(bound_hi, lb.upper, 1e-300)
    if lb.lower >= bound_hi - tol * scale:
        return "yes", details
    if lb.upper < bound_lo - tol * scale:
        return "no", details
    return "undetermined", details
