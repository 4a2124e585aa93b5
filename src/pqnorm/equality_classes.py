"""Membership deciders for the four equality classes of the norm bound.

A matrix belongs to E_{1,inf}(p,q), E_{1,1}(p,q), E_{inf,inf}(p,q), or
E_{inf,1}(p,q) when the comparison bound
||A||_{r,s} <= factor * ||A||_{p,q} is attained for every (r,s) in the
corresponding open sign quadrant around (p,q).  Each decider implements the
characterization for its class:

  E_{1,inf}: entries of maximal modulus are isolated and the residual
             matrix has small norm;
  E_{1,1}:   the extremal columns have constant modulus, are orthogonal to
             the rest, and the column bound is tight;
  E_{inf,inf}: the row-wise mirror, decided on the adjoint;
  E_{inf,1}: a unimodular eigenvector of A*A maps to a constant-modulus
             image with the right amplitude.

E_{inf,1} is decided through the eigenspaces of A*A in both fields, with
eigenvalues grouped to a margin set by tol, so a near-member whose
eigenspace noise has split is still found.  A simple group holds one
candidate, its rounded vector.  A degenerate group, and the degenerate top
singular subspace of the SVD characterization, are searched by one
function, _unimodular_vectors, for unit-modulus vectors whose image under a
given map has constant modulus too.  Over the reals it enumerates 2^(k-1)
sign patterns on k pivot coordinates of a k-dimensional span, one block at
a time, so a caller stops at the first vector it accepts.  Over the complex
field it is the batched phase projection _unimodular_in_subspace: every
start vector is a column of one matrix, stopped column by column and
yielded as it stops, so the first accepted vector ends the search.

Verdicts are yes / no / undetermined.  A yes or no read against a norm
bracket is exact when that bracket is (_settle), and undetermined is always
estimate-backed.  Undetermined appears only when a needed norm is available
solely as an estimate whose bracket straddles the decision line, when that
heuristic subspace search is inconclusive, or when a real eigenspace needs
more sign patterns than the enumeration allows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    ExtIndex,
    INF,
    IndexLike,
    KClassId,
    ONE,
    as_index,
    as_tol,
    conjugate,
    index_str,
    k_class_test,
    sign_between,
    vector_norm,
)
from .induced_norms import (
    MatrixLike,
    MatrixValue,
    SvdFactors,
    _domain_vector,
    _ldexp,
    _normalized,
    _sign_images,
    as_matrix,
    svd,
)
from .bounds import (
    NormBracket,
    _in_range,
    bound_factor,
    bracket_norm,
    decide_equality,
    norm_upper_bound,
)
from .generators import extremal_pair_classes, unitary_with_first_column

__all__ = [
    "ClassId",
    "Condition",
    "ClassVerdict",
    "ExtremalStats",
    "extremal_stats",
    "check_E1inf",
    "check_E11",
    "check_Einfinf",
    "check_Einf1",
    "check_svd_equality",
    "check_class",
    "sufficient_e1inf",
    "sufficient_e11",
    "sufficient_einfinf",
    "maximizer_eigencheck",
    "PreconditionError",
    "DavReport",
    "dav_normal_form",
]


class ClassId(enum.Enum):
    """The four equality classes, labeled by their extremal index pair."""

    E_1INF = "E_1inf"
    E_11 = "E_11"
    E_INFINF = "E_infinf"
    E_INF1 = "E_inf1"

    @property
    def extremal_pair(self) -> tuple:
        """(r, s) at the far corner of the quadrant: 1 on a +1 sign, inf on -1."""
        return tuple(ONE if sig > 0 else INF for sig in self.sign_signature)

    @property
    def sign_signature(self) -> tuple:
        """(sgn(p-r), sgn(q-s)) for (r,s) in the class's open quadrant."""
        return {
            ClassId.E_1INF: (1, -1),
            ClassId.E_11: (1, 1),
            ClassId.E_INFINF: (-1, -1),
            ClassId.E_INF1: (-1, 1),
        }[self]

    @staticmethod
    def from_quadrant(
        p: IndexLike, q: IndexLike, r: IndexLike, s: IndexLike
    ) -> Optional["ClassId"]:
        by_signature = {cls.sign_signature: cls for cls in ClassId}
        return by_signature.get((sign_between(p, r), sign_between(q, s)))

    @staticmethod
    def parse(token: str) -> "ClassId":
        for cls in ClassId:
            if cls.value == token:
                return cls
        raise ValueError(f"unknown class token {token!r}")


@dataclass(frozen=True)
class Condition:
    """One named membership condition with its measured evidence."""

    name: str
    satisfied: Optional[bool]
    measured: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ClassVerdict:
    member: str  # "yes" | "no" | "undetermined"
    conditions: List[Condition]
    certificate: Optional[object]
    certainty: str  # "exact" | "estimate-backed"

    @property
    def is_member(self) -> Optional[bool]:
        if self.member == "yes":
            return True
        if self.member == "no":
            return False
        return None


@dataclass(frozen=True)
class ExtremalStats:
    """The scalar extremal quantities of a matrix.

    rho: largest entry modulus (= ||A||_{1,inf});
    sigma_col: largest column l1 norm (= ||A||_{1,1});
    sigma_row: largest row l1 norm (= ||A||_{inf,inf});
    tau: common modulus of the entries of A v, when a probe vector v with a
    constant-modulus image is supplied.
    """

    rho: float
    sigma_col: float
    sigma_row: float
    tau: Optional[float] = None


def extremal_stats(A: MatrixLike, v=None, tol: float = DEFAULT_TOL) -> ExtremalStats:
    as_tol(tol)
    M = as_matrix(A)
    arr, e = _normalized(M)
    a = np.abs(arr)
    tau = None if v is None else _constant_modulus(arr @ _domain_vector(M, v), tol)
    stats = (a.max(), a.sum(axis=0).max(), a.sum(axis=1).max(), tau)
    with np.errstate(over="ignore"):  # sums past the float range read inf
        return ExtremalStats(*(None if x is None else float(np.ldexp(x, e)) for x in stats))


def _verdict(member, conditions, certificate=None, certainty="exact") -> ClassVerdict:
    return ClassVerdict(member, list(conditions), certificate, certainty)


def _scale_free(
    decide: Callable, A: MatrixLike, p: IndexLike, q: IndexLike, tol: float, seed: int, cls=None
) -> ClassVerdict:
    """The one entry of every decider, called with its public arguments:
    checks tol, converts A and the exponents, takes A / 2^e where
    bounds._in_range rescales A (the evidence is then measured there, and
    a first condition says so), and for a class cls answers
    _zero_or_trivial's early outs; only then does decide(S, p, q, tol,
    seed) run."""
    as_tol(tol)
    S, e = _in_range(as_matrix(A))
    p, q = as_index(p), as_index(q)
    early = _zero_or_trivial(S, p, q, cls) if cls else None
    verdict = early or decide(S, p, q, tol, seed)
    if e == 0:
        return verdict
    conds = [Condition("rescaled-to-normal-range", True, {"e": e}), *verdict.conditions]
    return ClassVerdict(verdict.member, conds, verdict.certificate, verdict.certainty)


def _zero_or_trivial(
    M: MatrixValue, p: ExtIndex, q: ExtIndex, cls: ClassId
) -> Optional[ClassVerdict]:
    """Degenerate early outs shared by all four deciders.

    The zero matrix attains 0 = factor * 0 everywhere.  And when p is the
    class's extremal r or q its extremal s, no (r,s) meets the quadrant's
    strict inequalities, so membership is vacuous.
    """
    if not M.entries.any():
        return _verdict(
            "yes",
            [Condition("zero-matrix", True, {"note": "0 = factor * 0 at every (r,s)"})],
        )
    r_ext, s_ext = cls.extremal_pair
    if p == r_ext or q == s_ext:
        return _verdict(
            "yes",
            [
                Condition(
                    "class-trivial",
                    True,
                    {
                        "note": "no (r,s) satisfies the quadrant constraints at this (p,q)",
                        "p": index_str(p),
                        "q": index_str(q),
                    },
                )
            ],
        )
    return None


def _settle(resolved, conds, bracket: NormBracket, certificate=None) -> ClassVerdict:
    """The verdict on a three-state test read against bracket: None is
    undetermined (estimate-backed); True and False are yes and no, exact
    when the bracket is.  The certificate is kept only on a yes."""
    if resolved is None:
        return _verdict("undetermined", conds, certainty="estimate-backed")
    certainty = "exact" if bracket.is_exact else "estimate-backed"
    if resolved:
        return _verdict("yes", conds, certificate, certainty)
    return _verdict("no", conds, None, certainty)


# ---------------------------------------------------------------------------
# E_{1,inf}
# ---------------------------------------------------------------------------


def _isolated_extremal_entries(arr: np.ndarray, tol: float):
    """Check that every entry of maximal modulus is the sole entry above
    noise in both its row and its column.  Returns (ok, mask, rho)."""
    a = np.abs(arr)
    rho = float(a.max())
    mask = a >= rho * (1.0 - tol)
    big = a > tol * rho
    # the entries above noise in the row and in the column, besides this one
    alone = (big.sum(axis=1, keepdims=True) == big) & (big.sum(axis=0, keepdims=True) == big)
    return bool(alone[mask].all()), mask, rho


def check_E1inf(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = 0,
) -> ClassVerdict:
    """Is ||A||_{1,inf} = ||A||_{p,q}, i.e. does the bound hold with
    equality for all r < p, s > q?

    For p <= q: the entries of maximal modulus rho must be isolated in
    their rows and columns, and the matrix C left after zeroing them must
    satisfy ||C||_{p,q} <= rho; under exact isolation the norm splits as
    ||A||_{p,q} = max(rho, ||C||_{p,q}).  The residual's bracket decides
    first: its upper end is far tighter than A's, so only it settles a yes.
    When it straddles rho, A's own bracket is read, since membership is
    ||A||_{p,q} <= rho itself: the entries below tol rho that the isolation
    test admits beside the isolated ones can lift ||A||_{p,q} above both
    rho and ||C||_{p,q}, so at the tolerance edge only A's lower end
    settles a no.  For p > q: membership holds exactly when at most one
    entry is nonzero.
    """
    return _scale_free(_decide_e1inf, A, p, q, tol, seed, ClassId.E_1INF)


def _decide_e1inf(A: MatrixValue, p: ExtIndex, q: ExtIndex, tol: float, seed: int) -> ClassVerdict:
    arr = A.entries
    a = np.abs(arr)
    rho = float(a.max())
    if sign_between(p, q) > 0:  # p > q
        count = int((a > tol * rho).sum())
        cond = Condition("at-most-one-nonzero-entry", count <= 1, {"count": count, "rho": rho})
        return _verdict("yes" if count <= 1 else "no", [cond])
    ok_i, mask, rho = _isolated_extremal_entries(arr, tol)
    cond_i = Condition(
        "extremal-entries-isolated",
        ok_i,
        {"rho": rho, "extremal_count": int(mask.sum())},
    )
    if not ok_i:
        return _verdict("no", [cond_i])
    C = arr.copy()
    C[mask] = 0.0
    cb = used = bracket_norm(MatrixValue(C, A.field), p, q, seed=seed)
    resolved = cb.le(rho, tol)
    if resolved is None:
        ab = bracket_norm(A, p, q, seed=seed)
        if (alt := ab.le(rho, tol)) is not None:
            resolved, used = alt, ab
    measured = {"rho": rho, "residual_bracket": (cb.lower, cb.upper), "residual_exact": cb.is_exact}
    cond_ii = Condition("residual-norm-at-most-rho", resolved, measured)
    return _settle(resolved, [cond_i, cond_ii], used)


def sufficient_e1inf(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Cheap sufficient test for E_{1,inf}(p,q) membership.

    Requires the isolation property; then p <= q together with
    m^{1-1/p} * n^{1/q} * ||C||_{1,inf} <= rho guarantees membership,
    using only entry arithmetic (no induced-norm computation).
    """
    as_tol(tol)
    M, _ = _in_range(as_matrix(A))
    pi, qi = as_index(p), as_index(q)
    arr = M.entries
    if not arr.any():
        return True
    ok_i, mask, rho = _isolated_extremal_entries(arr, tol)
    if not ok_i or sign_between(pi, qi) > 0:  # p <= q is required
        return False
    C = np.abs(arr).copy()
    C[mask] = 0.0
    return bound_factor(ONE, INF, pi, qi, M.m, M.n) * float(C.max()) <= rho


# ---------------------------------------------------------------------------
# E_{1,1} and its adjoint mirror E_{inf,inf}
# ---------------------------------------------------------------------------


def _column_conditions(M: MatrixValue, tol: float):
    """Extremal-column structure: (cond_i_ok, cond_ii_ok, sigma, mask)."""
    arr, e = _normalized(M)
    a = np.abs(arr)
    col_l1 = a.sum(axis=0)
    mask = col_l1 >= col_l1.max() * (1.0 - tol)
    peaks = a[:, mask].max(axis=0)
    ok_i = bool((peaks - a[:, mask].min(axis=0) <= tol * np.maximum(peaks, 1e-300)).all())
    l2 = np.sqrt((a * a).sum(axis=0))
    gram = np.abs((arr.conj().T @ arr)[mask])  # extremal columns against every column
    gram[np.arange(gram.shape[0]), np.flatnonzero(mask)] = 0.0
    ok_ii = bool((gram <= tol * np.maximum(np.outer(l2[mask], l2), 1e-300)).all())
    with np.errstate(over="ignore"):  # sigma may pass the float range: inf
        return ok_i, ok_ii, float(np.ldexp(col_l1.max(), e)), mask


def check_E11(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = 0,
) -> ClassVerdict:
    """Is ||A||_{1,1} = n^{1-1/q} * ||A||_{p,q} (equality for r < p, s < q)?

    Necessary: every column whose l1 norm equals sigma = ||A||_{1,1} has
    constant entry modulus and is orthogonal to all other columns.  The
    membership equation itself is the tightness of the column bound, which
    is certified through a norm bracket.  For p > 2 the class collapses to
    matrices with exactly one nonzero, constant-modulus column.
    """
    return _scale_free(_decide_e11, A, p, q, tol, seed, ClassId.E_11)


def _decide_e11(A: MatrixValue, p: ExtIndex, q: ExtIndex, tol: float, seed: int) -> ClassVerdict:
    arr = A.entries
    n, m = arr.shape
    a = np.abs(arr)
    if sign_between(p, as_index(2)) > 0:  # p > 2: exactly one constant-modulus column
        peak = float(a.max())
        nz_cols = [j for j in range(m) if a[:, j].max() > tol * peak]
        single = len(nz_cols) == 1
        const = single and k_class_test(arr[:, nz_cols[0]], KClassId.K1, tol)
        conds = [
            Condition("single-nonzero-column", single, {"nonzero_columns": nz_cols}),
            Condition("column-constant-modulus", const if single else None, {}),
        ]
        return _verdict("yes" if (single and const) else "no", conds)
    ok_i, ok_ii, sigma, mask = _column_conditions(A, tol)
    cond_i = Condition(
        "extremal-columns-constant-modulus",
        ok_i,
        {"sigma": sigma, "extremal_columns": [int(j) for j in np.nonzero(mask)[0]]},
    )
    cond_ii = Condition("extremal-columns-orthogonal", ok_ii, {})
    if not ok_i or not ok_ii:
        return _verdict("no", [cond_i, cond_ii])
    target = sigma / bound_factor(p, q, ONE, ONE, m, n)
    ab = bracket_norm(A, p, q, seed=seed)
    resolved = ab.le(target, tol)
    measured = {
        "sigma": sigma, "norm_target": target,
        "norm_bracket": (ab.lower, ab.upper), "norm_exact": ab.is_exact,
    }
    cond_iii = Condition("column-bound-tight", resolved, measured)
    j = int(np.flatnonzero(mask)[0])
    cert = {"column_index": j, "column": arr[:, j].copy()}
    return _settle(resolved, [cond_i, cond_ii, cond_iii], ab, cert)


def check_Einfinf(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = 0,
) -> ClassVerdict:
    """Is ||A||_{inf,inf} = m^{1/p} * ||A||_{p,q} (equality for r > p, s > q)?

    Decided on the adjoint: A is a member exactly when A* satisfies the
    column criteria at the conjugate pair (q*, p*).  Conditions are
    reported in row form; for q < 2 the class collapses to matrices with
    exactly one nonzero, constant-modulus row.
    """
    dual = check_E11(as_matrix(A).adjoint(), conjugate(q), conjugate(p), tol, seed=seed)
    conds = [
        Condition(c.name.replace("column", "row"), c.satisfied, dict(c.measured))
        for c in dual.conditions
    ]
    return ClassVerdict(dual.member, conds, dual.certificate, dual.certainty)


def _sufficient_11_terms(p: float, mm: int, nn: int, sigma: float, c11: float) -> float:
    """Left-hand side of the closeness inequality behind the E_{1,1}
    sufficient test.  At p = 2 the bracket term's limit is 0 wherever
    c11 < sigma sqrt(nn) mm, as sufficient_e11's c11 < sigma keeps it."""
    t1 = (2.0 * mm * nn) ** (1.0 - 1.0 / p) * (c11 / sigma)
    coef = 2.0 ** (1.0 - 1.0 / p) - 1.0
    if c11 == 0.0 or coef == 0.0 or p == 2.0:
        return t1
    ratio = c11 / sigma
    bracket = (
        (p / 2.0) ** (1.0 / (2.0 - p))
        * float(nn) ** ((-3.0 * p * p + 2.0 * p + 4.0) / (2.0 * p * (2.0 - p)))
        * float(mm) ** (-2.0 * (p - 1.0) / (2.0 - p))
        * ratio ** (2.0 / (2.0 - p))
    )
    return t1 + coef * bracket


def sufficient_e11(A: MatrixLike, p: IndexLike, q: IndexLike, tol: float = DEFAULT_TOL) -> bool:
    """Sufficient test for E_{1,1}(p,q) using only entry arithmetic.

    Requires the two structural column properties, p <= 2 and q <= p; then
    the relative weight c11 / sigma of the non-extremal columns must meet
    the closeness inequality of _sufficient_11_terms.  No norm is computed
    to confirm a True: a norm above the target would mean a wrong
    inequality, which the test suite looks for.  Why the test suffices:

    - q drops out.  For q <= p, ||A||_{p,q} <= n^{1/q-1/p} ||A||_{p,p}, and
      the E_{1,1} target sigma n^{1/q-1} is that same factor times the
      (p,p) target sigma n^{1/p-1}; so the test reads p only.
    - p = 2.  The extremal columns are orthogonal to every column, so A*A
      is block-diagonal and ||A||_2 = max(sigma / sqrt(n), ||C||_2), with
      ||C||_2 <= ||C||_F <= sqrt(m) c11.  So sqrt(mn) c11 <= sigma is
      enough; the first term demands sqrt(2mn) c11 <= sigma, and the
      bracket term is 0 at p = 2.
    - 1 < p < 2 rests on the closeness inequality itself, the source
      paper's; its full text is not at hand, so it is cited, not re-derived.
    """
    as_tol(tol)
    M, _ = _in_range(as_matrix(A))
    pi, qi = as_index(p), as_index(q)
    arr = M.entries
    if not arr.any():
        return True
    ok_i, ok_ii, sigma, mask = _column_conditions(M, tol)
    if not ok_i or not ok_ii or pi.value > 2.0 or sign_between(qi, pi) > 0:
        return False  # p <= 2 and q <= p are required
    C = arr.copy()
    C[:, mask] = 0.0
    c11 = float(np.abs(C).sum(axis=0).max())
    return _sufficient_11_terms(pi.value, M.m, M.n, sigma, c11) <= 1.0


def sufficient_einfinf(A: MatrixLike, p: IndexLike, q: IndexLike, tol: float = DEFAULT_TOL) -> bool:
    """Sufficient test for E_{inf,inf}(p,q): the adjoint mirror of the
    E_{1,1} test, requiring q >= 2 and p >= q."""
    return sufficient_e11(as_matrix(A).adjoint(), conjugate(q), conjugate(p), tol)


# ---------------------------------------------------------------------------
# E_{inf,1}
# ---------------------------------------------------------------------------


def _constant_modulus(w: np.ndarray, tol: float) -> Optional[float]:
    """Common modulus of the entries of w, or None if they differ."""
    return float(np.abs(w).mean()) if k_class_test(w, KClassId.K1, tol) else None


def _eigen_residual_ok(arr: np.ndarray, e: int, v: np.ndarray, tol: float) -> tuple:
    """(v is an eigenvector of A*A to relative residual tol, its eigenvalue),
    for arr = A / 2^e from _pow2_normalized."""
    z = arr.conj().T @ (arr @ v)
    nz = float(np.linalg.norm(z))
    if nz == 0.0:
        return True, 0.0
    lam = float((np.vdot(v, z) / np.vdot(v, v)).real)
    resid = float(np.linalg.norm(z - lam * v))
    with np.errstate(over="ignore"):
        return resid <= tol * nz, float(np.ldexp(lam, 2 * e))



def _unit_phase(Z: np.ndarray, floor: float) -> np.ndarray:
    """Z / |Z| entrywise, with 1 wherever |Z| <= floor."""
    a = np.abs(Z)
    return np.where(a > floor, Z / np.where(a > 0, a, 1.0), 1.0)


_SEARCH_TRIES = 24  # random starts of one unimodular subspace search
_SEARCH_ITERS = 400  # iterations it runs at most


def _unimodular_in_subspace(
    Q: np.ndarray,
    rng: np.random.Generator,
    W: Optional[np.ndarray] = None,
) -> Iterator[np.ndarray]:
    """Heuristic search for unit-modulus vectors x inside span(Q), lazily.

    Q has orthonormal columns.  When W is given (an isometry on the same
    coefficient space: the matrix restricted to an eigenspace, divided by
    its singular value), the image coordinates W (Q* x) must have constant
    modulus too; a search through the first torus alone cannot see that
    constraint, so it stalls on fully degenerate eigenspaces where span(Q)
    is everything.

    The starts are the columns of Q, the projection of the all-ones vector
    and _SEARCH_TRIES seeded random vectors of span(Q), at every size; the
    unimodular vectors of a small structured matrix (DFT 3, complex
    Hadamard 4) are found from these without a grid of roots of unity.
    Every start is a column of one batch, advanced together by alternating
    phase projection between the constant-modulus torus (both tori when W
    is given) and the subspace.  A column stops on its own: without W when
    its step falls below 1e-14 relative, with W when both moduli are
    constant to 1e-12 or it dies.  The columns that stop in an iteration
    are yielded in start order (without W, those still moving after
    _SEARCH_ITERS steps come last) if their entries have modulus 1 and
    their in-subspace residual is below 1e-8, and they are no unimodular
    multiple of an earlier one; so a caller that stops at the first it
    accepts steps no column further.
    """
    m, k = Q.shape
    Qh = Q.conj().T
    draws = rng.standard_normal((_SEARCH_TRIES, 2, k))
    starts = [
        Q,
        Q @ (Qh @ np.ones((m, 1), dtype=complex)),
        Q @ (draws[:, 0] + 1j * draws[:, 1]).T,
    ]
    X = np.hstack(starts).astype(complex)
    act = np.flatnonzero(np.linalg.norm(X, axis=0) > 0)
    C = Qh @ X  # subspace coordinates, advanced only when W is given
    out = []

    def fresh(cols):
        for x in X[:, cols].T:
            a = np.abs(x)
            if a.min() <= 1e-8:
                continue
            w = x / a
            if np.linalg.norm(Q @ (Qh @ w) - w) > 1e-8 * math.sqrt(m):
                continue
            if not any(abs(np.vdot(u, w)) >= (1.0 - 1e-8) * m for u in out):
                out.append(w)
                yield w

    for _ in range(_SEARCH_ITERS):
        if act.size == 0:
            return
        if W is None:
            Xa = X[:, act]
            Xn = Q @ (Qh @ _unit_phase(Xa, 0.0))
            step = np.linalg.norm(Xn - Xa, axis=0)
            X[:, act] = Xn
            moving = step > 1e-14 * np.maximum(np.linalg.norm(Xa, axis=0), 1e-300)
            yield from fresh(act[~moving])
            act = act[moving]
            continue
        Ca = Qh @ _unit_phase(Q @ C[:, act], 1e-14)
        Y = W @ Ca
        ty = np.abs(Y).mean(axis=0)
        Ca = np.where(ty > 0, W.conj().T @ (_unit_phase(Y, 1e-14) * ty), Ca)
        Xa = Q @ Ca
        a = np.abs(Xa)
        b = np.abs(W @ Ca)
        amax, bmax = a.max(axis=0), b.max(axis=0)
        dead = amax <= 1e-300
        x_dev = (amax - a.min(axis=0)) / np.where(dead, 1.0, amax)
        y_dev = np.where(bmax > 0, (bmax - b.min(axis=0)) / np.where(bmax > 0, bmax, 1.0), 0.0)
        done = ~dead & (x_dev <= 1e-12) & (y_dev <= 1e-12)
        C[:, act] = Ca
        X[:, act] = Xa
        yield from fresh(act[done])
        act = act[~(dead | done)]
    if W is None:
        yield from fresh(act)


_SIGN_BITS = 24  # a real span of dimension k is enumerated when k - 1 <= _SIGN_BITS


def _unimodular_vectors(
    Q: np.ndarray,
    B: Optional[np.ndarray] = None,
    sval: float = 1.0,
    *,
    tol: float = DEFAULT_TOL,
    slack: float = 1e-8,
    rng: Optional[np.random.Generator] = None,
) -> Optional[tuple]:
    """(vectors, exhaustive): an iterator over unit-modulus vectors x in
    span(Q), given B only those whose image B x has constant nonzero
    modulus (to relative tol); None when a real span of dimension k needs
    more than 2^_SIGN_BITS sign patterns.

    Complex Q: the heuristic search _unimodular_in_subspace, with image map
    W = B Q / sval, an isometry when B acts on span(Q) as sval times one,
    yielding each candidate as its start converges; never exhaustive.

    Real Q (orthonormal columns): sign vectors, each within entrywise
    distance slack of span(Q) when exhaustive.  k pivot rows are picked
    greedily (largest residual row, projected out in turn), so Q[piv] is
    invertible and T = Q Q[piv]^-1 has T[piv] = I: the x in span(Q) with
    x[piv] = s is T s.  The 2^(k-1) patterns s are enumerated on the stack
    [T[rest]; B T].  For x = Q c + e with |e| <= slack entrywise, T s
    differs from x by at most rho = slack (1 + max row sum of |T[rest]|),
    so a pattern whose other entries lie within rho of +-1 (and whose image
    is constant up to that difference) is rounded to a sign vector and its
    image tested exactly.  The search is exhaustive when rho < 1, where
    rounding cannot flip a sign; otherwise rho is capped at 1/2.  Only the
    direction of B matters here.  The survivors of each block of 2^13
    patterns are yielded with first entry +1, in the index order of the
    full enumeration, before the next block is formed: a caller that stops
    at the first vector it accepts holds one block at most.
    """
    if np.iscomplexobj(Q):
        W = None if B is None else (B @ Q) / sval
        return _unimodular_in_subspace(Q, rng, W), False
    m, k = Q.shape
    if k - 1 > _SIGN_BITS:
        return None
    R = Q.copy()
    piv = []
    for _ in range(k):
        i = int(np.argmax(np.einsum("ij,ij->i", R, R)))
        piv.append(i)
        R -= np.outer(R @ R[i], R[i]) / (R[i] @ R[i])
    T = np.linalg.solve(Q[piv].T, Q.T).T
    others = np.delete(np.arange(m), piv)
    rest = T[others]
    r = others.size
    rho = slack * (1.0 + np.abs(rest).sum(axis=1).max(initial=0.0))
    exhaustive = rho < 1.0
    rho = min(rho, 0.5)
    # the image of T s is within delta of that of x, entrywise
    delta = 0.0 if B is None else rho * np.abs(B[:, others]).sum(axis=1).max(initial=0.0)

    def blocks():
        for Y, cols in _sign_images(rest if B is None else np.vstack([rest, B @ T])):
            np.abs(Y, out=Y)
            ok = (np.abs(Y[:r] - 1.0) <= rho).all(axis=0)
            if B is not None:
                peaks = Y[r:].max(axis=0)
                ok &= peaks - Y[r:].min(axis=0) <= tol * peaks + (2.0 + tol) * delta
            idx = np.flatnonzero(ok)
            if idx.size:
                X = np.sign(T @ cols(idx))
                if B is not None:
                    Z = np.abs(B @ X)
                    peaks = Z.max(axis=0)
                    X = X[:, (peaks > 0) & (peaks - Z.min(axis=0) <= tol * peaks)]
                X = X * X[0]
                yield from X[:, np.lexsort(X < 0)].T

    return blocks(), exhaustive


def check_Einf1(
    A: MatrixLike,
    p: IndexLike,
    q: IndexLike,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = 0,
) -> ClassVerdict:
    """Is ||A||_{inf,1} = m^{1/p} n^{1-1/q} ||A||_{p,q} (equality for
    r > p, s < q)?

    Membership holds exactly when some vector v with unit-modulus entries
    is an eigenvector of A*A, has a constant-modulus image A v, and its
    norm ratio attains ||A||_{p,q}.  Both fields search the eigenspaces of
    A*A for such a v, with the eigenvalues sigma^2 / sigma_1^2 grouped
    wherever neighbours lie within (1 + 2 sqrt(m)) max(tol, 1e-8).  A v
    whose eigen-residual passes tol lies within sqrt(m) tol / (gap - tol)
    of its group's span, entrywise, for the gap that separates the group
    from the rest of the spectrum.  A simple group's one candidate is its
    rounded vector, which that bound makes exhaustive; a real k-dimensional
    group is searched by _unimodular_vectors with that slack (undetermined past
    k = 25), a complex one heuristically (undetermined when the search
    fails).  Only the groups whose amplitude fits the window from the exact
    lower bound sigma_1 m^-(1/p-1/2)_+ n^-(1/2-1/q)_+ <= ||A||_{p,q} to the
    certified norm_upper_bound are searched: a group outside it would give a
    ratio outside the norm's enclosure.  So a "no" without a candidate is
    exact unless a group's search was not exhaustive.  The norm bracket is
    formed only once a candidate needs it.
    """
    return _scale_free(_decide_einf1, A, p, q, tol, seed, ClassId.E_INF1)


def _decide_einf1(A: MatrixValue, p: ExtIndex, q: ExtIndex, tol: float, seed: int) -> ClassVerdict:
    arr = A.entries
    n, m = arr.shape
    scaled, e = _normalized(A)
    f = svd(A)
    svals = f.s.tolist()
    # the ratio at a candidate of singular value s is s / amp
    amp = float(m) ** (p.inv - 0.5) * float(n) ** (0.5 - q.inv)
    t = max(tol, 1e-8)
    mu = np.zeros(m)  # eigenvalues of A*A over the largest, null space included
    mu[: f.s.size] = (f.s / f.s[0]) ** 2
    gaps = np.append(mu[:-1] - mu[1:], np.inf)
    edges = [0, *(np.flatnonzero(gaps[:-1] > (1.0 + 2.0 * math.sqrt(m)) * t) + 1).tolist(), m]
    groups = [(i, j, svals[i] if i < len(svals) else 0.0) for i, j in zip(edges, edges[1:])]
    ab = None
    # a member's ratio is ||A||_{p,q}, which low, an exact lower bound, and
    # the certified upper bound enclose
    low = svals[0] / bound_factor(p, q, 2, 2, m, n)
    high = norm_upper_bound(A, p, q)
    lo, hi = amp * low * (1.0 - tol), amp * high * (1.0 + tol)
    searched = [g for g in groups if lo <= g[2] <= hi and g[2] > 0]
    measured = {"window": (lo, hi), "singular_values": svals}
    conds = [Condition("amplitude-compatible-eigenspaces", bool(searched), measured)]
    V = f.v.astype(complex) if A.is_complex else f.v
    eig_tol = max(tol, 1e-7) if A.is_complex else tol  # the computed vectors' phase error
    rng = np.random.default_rng(seed) if A.is_complex else None
    count = 0
    incomplete = unresolved = loose = False
    for i, j, sval in searched:
        if j - i == 1:  # one candidate: the vector rounded to unit moduli
            w = _unit_phase(V[:, i], 0.0)
            found = [w if A.is_complex else w * w[0]]  # real: first entry +1
        else:
            # within one eigengroup the matrix acts as sval times an isometry
            slack = math.sqrt(m) * t / (min(gaps[i - 1] if i else np.inf, gaps[j - 1]) - t)
            out = _unimodular_vectors(
                V[:, i:j], scaled, np.ldexp(sval, -e), tol=tol, slack=slack, rng=rng
            )
            if out is None:
                incomplete = True
                measured = {"dimension": j - i, "max_dimension": _SIGN_BITS + 1}
                conds.append(Condition("sign-enumeration-cap", None, measured))
                continue
            found, exhaustive = out
            if not (exhaustive or A.is_complex):
                loose = True
                measured = {"dimension": j - i, "slack": slack}
                conds.append(Condition("sign-enumeration-exhaustive", False, measured))
        for w in found:
            tau = _constant_modulus(arr @ w, tol)
            if not tau:
                continue
            ok_eig, lam = _eigen_residual_ok(scaled, e, w, eig_tol)
            if not ok_eig:
                continue
            # the ratio at w is a lower bound on the norm: does the norm exceed it?
            ab = ab or bracket_norm(A, p, q, seed=seed)
            res = ab.le(vector_norm(arr @ w, q) / vector_norm(w, p), tol)
            if res is True:
                measured = {"lambda": lam, "tau": tau}
                conds.append(Condition("eigenvector-with-matching-amplitude", True, measured))
                return _settle(True, conds, ab, {"v": w, "tau": tau, "lambda": lam})
            unresolved |= res is None
            count += 1
            break  # every candidate of one eigenspace has the same ratio, sval / amp
        else:
            incomplete |= A.is_complex and j - i > 1  # the heuristic search failed
    undecided = incomplete or unresolved
    state = None if undecided else False
    conds.append(Condition("eigenvector-with-matching-amplitude", state, {"eigenspaces": count}))
    if undecided:
        return _verdict("undetermined", conds, certainty="estimate-backed")
    # a "no" without a candidate used no norm estimate: the window rests on
    # the exact lower bound and the certified upper bound
    exact = not loose and (ab is None or ab.is_exact)
    return _verdict("no", conds, certainty="exact" if exact else "estimate-backed")


# ---------------------------------------------------------------------------
# SVD characterization at the (2,2) anchor
# ---------------------------------------------------------------------------


def _svd_with_first_vector(
    M: MatrixValue, f: SvdFactors, k: int, v_new: np.ndarray
) -> Optional[SvdFactors]:
    """Rebuild the factorization so the leading right-singular vector is
    v_new (a unit vector inside the top singular subspace, of dimension k).

    The new basis of that subspace is V_k Q, for Q the unitary completion
    (unitary_with_first_column) of its coordinates c = V_k* v_new, scaled
    to unit length.  The rebuilt factorization must still reproduce A.
    """
    arr = M.entries
    s1 = float(f.s[0])
    dtype = complex if (M.is_complex or np.iscomplexobj(v_new)) else float
    Qv = f.v[:, :k]
    c = Qv.conj().T @ v_new
    Vt = Qv @ unitary_with_first_column(c / np.linalg.norm(c))
    Ut = (arr @ Vt) / s1
    V = f.v.astype(dtype).copy()
    U = f.u.astype(dtype).copy()
    V[:, :k] = Vt
    U[:, :k] = Ut
    cand = SvdFactors(u=U, s=f.s, v=V)
    err = float(np.abs(cand.reconstruct() - arr).max())
    if err > 1e-8 * max(s1, 1.0):
        return None
    return cand


def check_svd_equality(
    A: MatrixLike,
    r: IndexLike,
    s: IndexLike,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = 0,
) -> ClassVerdict:
    """Does ||A||_{r,s} equal m^{[1/2-1/r]_+} n^{[1/s-1/2]_+} ||A||_{2,2}?

    Holds exactly when A admits a singular value decomposition whose
    leading left singular vector lies in K_{sgn(2-s)}, leading right
    singular vector in K_{-sgn(2-r)}, and whose top singular value leads.
    Simple top singular values make the test conclusive.  A degenerate top
    subspace is searched on one side, as each side's vector determines the
    other's: a K_{-1} side by its coordinate vectors, else the K_1 side by
    _unimodular_vectors, filtered by the map to the partner (A, or A* on
    the left) when that must be K_1 too.  Only a complex search, or a real
    one past the sign-pattern cap (the phase search's real vectors), is not
    exhaustive; it falls back to a direct norm-equality test, the one path
    that can end undetermined.  The certificate is a full factorization in
    the required form.
    """
    return _scale_free(_decide_svd, A, r, s, tol, seed)


def _decide_svd(A: MatrixValue, r: ExtIndex, s: ExtIndex, tol: float, seed: int) -> ClassVerdict:
    f = svd(A)
    if not A.entries.any():
        return _verdict(
            "yes",
            [Condition("zero-matrix", True, {})],
            certificate=f,
        )
    ku, kv = extremal_pair_classes(r, s)
    arr = A.entries
    s1 = float(f.s[0])
    conds = [
        Condition(
            "required-singular-vector-classes",
            None,
            {"left": ku.value, "right": kv.value, "top_singular_value": s1},
        )
    ]
    k = int((f.s >= s1 * (1.0 - 1e-8)).sum())  # the top singular values lead
    # direct test on the computed leading pair
    if k_class_test(f.u[:, 0], ku, tol) and k_class_test(f.v[:, 0], kv, tol):
        conds.append(Condition("leading-pair-in-required-classes", True, {}))
        return _verdict("yes", conds, certificate=f)
    if k == 1:
        note = {"note": "top singular value is simple; the pair is unique up to phase"}
        conds.append(Condition("leading-pair-in-required-classes", False, note))
        return _verdict("no", conds)
    # one side is searched: for v in the top right subspace u = A v / s1 lies
    # in the top left one and v = A* u / s1.  A K_{-1} side goes first (its
    # coordinate vectors, exhaustively), else the K_1 side, filtered by the
    # map to its partner when that must be K_1 too
    right = kv is KClassId.KMINUS1 or (ku is not KClassId.KMINUS1 and kv is KClassId.K1)
    scaled, e = _normalized(A)
    Q, B, kc, want = (
        (f.v[:, :k], scaled, kv, ku) if right else (f.u[:, :k], scaled.conj().T, ku, kv)
    )
    s1e = np.ldexp(s1, -e)
    if kc is KClassId.KMINUS1:
        coords = np.eye(Q.shape[0], dtype=arr.dtype)
        found = (x for x in coords if np.linalg.norm(Q @ (Q.conj().T @ x) - x) <= 1e-8)
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        Qf = Q.astype(complex) if A.is_complex else Q
        out = _unimodular_vectors(Qf, B if want is KClassId.K1 else None, s1e, tol=tol, rng=rng)
        if out is None:  # past the sign-pattern cap: the phase search, real vectors only
            unit = (w / np.linalg.norm(w) for w in _unimodular_vectors(Q + 0j, rng=rng)[0])
            out = (x.real for x in unit if np.abs(x.imag).max() <= 1e-10), False
        found, exhaustive = out
    for x in found:
        x = x / np.linalg.norm(x)
        y = B @ x / s1e
        if k_class_test(y, want, tol):
            cert = _svd_with_first_vector(A, f, k, x if right else y)
            name = ("right" if right else "left") + "-vector-with-valid-partner"
            conds.append(Condition(name, True, {}))
            return _verdict("yes", conds, certificate=cert)
    if exhaustive:
        conds.append(
            Condition(
                "top-subspace-representative",
                False,
                {"note": "all class representatives in the top subspace fail"},
            )
        )
        return _verdict("no", conds)
    # direct equality fallback: the spectral anchor upper bound coincides
    # with the claimed value, so an estimate reaching it certifies equality
    verdict, details = decide_equality(A, 2, 2, r, s, tol, seed=seed)
    lb, target = details["lhs"], details["factor"] * details["rhs"].upper
    if verdict == "undetermined":
        note = {"note": "heuristic subspace search inconclusive", "target": target}
        conds.append(Condition("constant-modulus-search", None, note))
        return _settle(None, conds, lb)
    reached = verdict == "yes"
    # a "yes" rests on the left lower end, a "no" on its upper end
    end = {"reached": lb.lower} if reached else {"upper": lb.upper}
    conds.append(Condition("norm-attains-spectral-bound", reached, {"target": target, **end}))
    return _settle(reached, conds, lb)


def check_class(
    A: MatrixLike,
    cls: ClassId,
    p: IndexLike,
    q: IndexLike,
    tol: float = DEFAULT_TOL,
    *,
    seed: int = 0,
) -> ClassVerdict:
    """Dispatch to the decider for the given equality class."""
    if not isinstance(cls, ClassId):
        cls = ClassId.parse(cls)
    fn: Callable = {
        ClassId.E_1INF: check_E1inf,
        ClassId.E_11: check_E11,
        ClassId.E_INFINF: check_Einfinf,
        ClassId.E_INF1: check_Einf1,
    }[cls]
    return fn(A, p, q, tol, seed=seed)


# ---------------------------------------------------------------------------
# Maximizer eigencheck and the diagonal normal form
# ---------------------------------------------------------------------------


class PreconditionError(ValueError):
    """A hypothesis of the eigencheck is not met by the supplied vector."""


def maximizer_eigencheck(
    A: MatrixLike,
    v,
    p: IndexLike,
    q: IndexLike,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Must a maximizer shaped like v be an eigenvector of A*A?  Test it.

    Hypotheses (raising PreconditionError when violated): the nonzero
    entries of v share a common modulus, likewise the entries of A v, and
    either 1 < p < inf, or p = 1 with v of full constant modulus, or
    p = inf with at most one nonzero entry in v.  Returns whether A*A v is
    proportional to v within tol (residual against the Rayleigh quotient).
    """
    as_tol(tol)
    M = as_matrix(A)
    pi = as_index(p)
    vec = _domain_vector(M, v, error=PreconditionError)
    if not vec.any():
        raise PreconditionError("the zero vector cannot be a maximizer")
    arr, e = _normalized(M)
    for x, name in ((vec, "v"), (arr @ vec, "A v")):
        a = np.abs(x)
        peak = float(a.max())
        nz = a > tol * peak
        if peak > 0.0 and a[nz].max() - a[nz].min() > tol * peak:
            raise PreconditionError(f"nonzero entries of {name} must share one modulus")
    if pi.value == 1.0:
        if not k_class_test(vec, KClassId.K1, tol):
            raise PreconditionError("p = 1 requires v with all entries of equal modulus")
    elif pi.is_inf:
        if not k_class_test(vec, KClassId.KMINUS1, tol):
            raise PreconditionError("p = inf requires v with at most one nonzero entry")
    return _eigen_residual_ok(arr, e, vec, tol)[0]


@dataclass(frozen=True)
class DavReport:
    """Outcome of the diagonal normal-form construction.

    When ok, d and v_diag are diagonal unitary matrices such that every row
    sum of D A V equals tau and every column sum equals n*tau/m; a failure
    retains the measured sums as the refutation.
    """

    ok: bool
    tau: float
    row_sums: np.ndarray
    col_sums: np.ndarray
    d: Optional[np.ndarray] = None
    v_diag: Optional[np.ndarray] = None


def dav_normal_form(A: MatrixLike, v, tol: float = DEFAULT_TOL) -> DavReport:
    """Build D = diag(conj(Av)/tau) and V = diag(v) and test the sum rules.

    Requires v with unit-modulus entries and a constant-modulus image; the
    row sums of D A V then equal tau automatically, while the column-sum
    rule is equivalent to v being an eigenvector of A*A.  Returns the
    report with the diagonals only when every sum matches.  The algebra is
    the same in either field: v is complex when it or A is.
    """
    as_tol(tol)
    M = as_matrix(A)
    vec = _domain_vector(M, v)
    vec = vec.astype(complex if M.is_complex or np.iscomplexobj(vec) else float)
    arr, e = _normalized(M)  # sums are formed on A / 2^e, then scaled back
    n, m = arr.shape
    w = arr @ vec
    tau = _constant_modulus(w, tol)
    if not (_constant_modulus(vec, tol) and tau):
        return DavReport(False, 0.0, np.zeros(0), np.zeros(0))
    D = np.diag(np.conj(w) / tau)
    V = np.diag(vec)
    dav = D @ arr @ V
    row_sums = dav.sum(axis=1)
    col_sums = dav.sum(axis=0)
    col_target = n * tau / m
    ok = bool(
        np.all(np.abs(row_sums - tau) <= tol * tau)
        and np.all(np.abs(col_sums - col_target) <= tol * max(tau, col_target))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        tau, row_sums, col_sums = (_ldexp(x, e) for x in (tau, row_sums, col_sums))
    if not ok:
        return DavReport(False, float(tau), row_sums, col_sums)
    return DavReport(True, float(tau), row_sums, col_sums, d=D, v_diag=V)
