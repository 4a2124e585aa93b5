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
paths.  The duality and monotonicity checks compare a value with such a
bracket: two lower bounds that disagree give None (undetermined), and only
a lower bound above a certified upper bound gives False.
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
    _lp_cols,
    _phase,
    _pow2_normalized,
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
    return vector_comparison_factor(p, r, m) * vector_comparison_factor(s, q, n)


def _inf_one_certificate(M: MatrixValue, x: np.ndarray) -> float:
    """Certified upper bound on ||M||_{inf,1} from any vector x: the
    semidefinite bound of Nesterov (1998) at a diagonal read from x.

    With y = phase(Ax), D = (|A* y|, |A x|) and mu the least eigenvalue of
    K = Diag(D) - [[0, A*], [A, 0]], 2 Re y* A x <= sum (D_i - mu) |z_i|^2
    for every z = (x, y); entries of modulus at most 1 and the rescaling
    (t x, y / t) give ||A||_{inf,1} <= sqrt(sum_x (D - mu) sum_y (D - mu)).
    Any real D gives a bound, in both fields (the form is Hermitian); at a
    maximizer x = phase(A* y) it is the value itself when K is positive
    semidefinite.  Formed on A / 2^e and scaled back exactly.  eigvalsh is
    backward stable (Householder tridiagonalisation, Higham 2002, ch. 19):
    its mu is exact for K + E, ||E||_2 <= c N^2 u ||K||_F with N = m + n
    and u = 2^-53, so by Weyl's inequality mu less N^2 2^-50 ||K||_F (c = 8)
    is a lower bound; the sums, product and root, at most (N + 3) u
    relative, are covered by the factor 1 + (N + 4) 2^-52.
    """
    arr, e = _pow2_normalized(M.entries)
    n, m = arr.shape
    Ax = arr @ x
    D = np.concatenate([np.abs(arr.conj().T @ _phase(Ax)), np.abs(Ax)])
    K = np.zeros((m + n, m + n), dtype=arr.dtype)
    K[:m, m:], K[m:, :m] = -arr.conj().T, -arr
    K[np.diag_indices(m + n)] = D
    mu = np.linalg.eigvalsh(K)[0] - (m + n) ** 2 * 2.0**-50 * np.linalg.norm(K)
    upper = math.sqrt((D[:m] - mu).sum() * (D[m:] - mu).sum()) * (1.0 + (m + n + 4) * 2.0**-52)
    with np.errstate(over="ignore"):
        return float(np.ldexp(upper, e))


def norm_upper_bound(A: MatrixLike, p: IndexLike, q: IndexLike) -> float:
    """Certified upper bound on ||A||_{p,q}, memoised on the matrix.

    The minimum over the exact anchors (p0, q0) = (1, q), (p, inf), (2, 2)
    of bound_factor(p0, q0, p, q) * ||A||_{p0,q0}, read as the largest
    column q-norm, the largest row p*-norm and the top singular value; at
    (inf, 1) also _inf_one_certificate at the witness of best_norm (seed
    0), in either field.
    """
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    key = ("upper_bound", pi, qi)
    if key not in M._memo:
        arr = M.entries
        values = (_lp_cols(arr, qi).max(), _lp_cols(arr.T, conjugate(pi)).max(), svd(M).s[0])
        anchors = zip(((ONE, qi), (pi, INF), (TWO, TWO)), values)
        bounds = [bound_factor(*a, pi, qi, M.m, M.n) * float(v) for a, v in anchors]
        if pi.is_inf and qi.value == 1.0:
            bounds.append(_inf_one_certificate(M, best_norm(M, INF, ONE).witness))
        M._memo[key] = min(bounds)
    return M._memo[key]


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
    as_tol(tol)
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


def _not_above(t: float, x: float, c: float, bracket: NormBracket) -> Optional[bool]:
    """Three-state x <= c ||A||, ||A|| enclosed by bracket, up to slack t
    relative to the larger side.

    True when x is within reach of c times the lower end already.  False
    only when x exceeds even c times the certified upper end, which no true
    norm can give; otherwise None (undetermined).
    """

    def within(y: float) -> bool:
        return x <= y + t * max(x, y, 1e-300)

    if within(c * bracket.lower):
        return True
    return None if within(c * bracket.upper) else False


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
    as_tol(tol)
    M = as_matrix(A)
    pi, qi = as_index(p), as_index(q)
    a = bracket_norm(M, pi, qi, seed=seed)
    b = bracket_norm(M.adjoint(), conjugate(qi), conjugate(pi), seed=seed)
    t = tol if tol is not None else (1e-9 if a.is_exact and b.is_exact else 1e-3)
    return _all([_not_above(t, a.lower, 1.0, b), _not_above(t, b.lower, 1.0, a)])


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
    m^{1/r}*||A||_{r,s} must not increase, up to one-sided slack (tol,
    default 1e-6 between exact values and 1e-3 otherwise).  The points are
    estimated together; a violation is False only when certified, and None
    when only lower bounds disagree (see duality_check)."""
    as_tol(tol)
    M = as_matrix(A)
    si = as_index(s_fixed)
    grid = _ascending(r_grid, "r_grid")
    weights = [float(M.m) ** r.inv for r in grid]
    best_norms(M, [(r, si) for r in grid], seed=seed)  # one stacked ascent, read back
    brackets = [bracket_norm(M, r, si, seed=seed) for r in grid]
    verdicts = []
    for i, (a, b) in enumerate(zip(brackets, brackets[1:])):
        t = tol if tol is not None else (1e-6 if a.is_exact and b.is_exact else 1e-3)
        verdicts.append(_not_above(t, a.lower, 1.0, b))
        verdicts.append(_not_above(t, weights[i + 1] * b.lower, weights[i], a))
    return _all(verdicts)


def monotonicity_check_in_s(
    A: MatrixLike,
    r_fixed: IndexLike,
    s_grid: Sequence[IndexLike],
    tol: Optional[float] = None,
    *,
    seed: int = 0,
) -> Optional[bool]:
    """For fixed r and s ascending: ||A||_{r,s} must not increase and
    n^{-1/s}*||A||_{r,s} must not decrease.  Since ||A||_{r,s} =
    ||A*||_{s*,r*}, this is monotonicity_check on A* at s_fixed = r* over
    the conjugates s*, which ascend as s descends."""
    grid = _ascending(s_grid, "s_grid")
    duals = [conjugate(s) for s in reversed(grid)]
    return monotonicity_check(as_matrix(A).adjoint(), conjugate(r_fixed), duals, tol, seed=seed)


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
    certifies "no"; anything else is undetermined; (r, s) = (p, q) is "yes"
    (factor 1).  Both sides are estimated together, in one stacked ascent.
    """
    as_tol(tol)
    M = as_matrix(A)
    pi, qi, ri, si = as_index(p), as_index(q), as_index(r), as_index(s)
    best_norms(M, [(ri, si), (pi, qi)], seed=seed)  # read back through the memo
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
    if (ri, si) == (pi, qi):
        return "yes", details
    bound_hi = factor * rb.upper
    bound_lo = factor * rb.lower
    scale = max(bound_hi, lb.upper, 1e-300)
    if lb.lower >= bound_hi - tol * scale:
        return "yes", details
    if lb.upper < bound_lo - tol * scale:
        return "no", details
    return "undetermined", details
