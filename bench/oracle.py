"""Reference values computed with numpy alone, independent of pqnorm.

Exact oracles exist for the closed-form cases: p = 1 (largest column
q-norm), q = inf (largest row p*-norm), (2,2) (largest singular value from
LAPACK), and real (inf,1) for few columns (sign enumeration).  For every
other pair, `norm_interval` gives a sound enclosure [lo, hi] of the true
norm, so any lower bound pqnorm reports must stay below hi and any upper
bound above lo.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL_TOL = 1e-9
SIGN_ENUM_MAX_COLS = 12


def dual(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def vnorm(x: np.ndarray, p: float) -> float:
    return float(np.linalg.norm(x, ord=p))


def exact_norm(A: np.ndarray, p: float, q: float, complex_field: bool):
    """||A||_{p,q} where numpy can compute it exactly, else None."""
    if p == 1.0:
        return max(vnorm(A[:, j], q) for j in range(A.shape[1]))
    if math.isinf(q):
        ps = dual(p)
        return max(vnorm(A[i, :], ps) for i in range(A.shape[0]))
    if p == 2.0 and q == 2.0:
        return float(np.linalg.norm(A, 2))
    if math.isinf(p) and q == 1.0 and not complex_field and A.shape[1] <= SIGN_ENUM_MAX_COLS:
        m = A.shape[1]
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=m - 1)), dtype=float)
        X = np.hstack([np.ones((signs.shape[0], 1)), signs]).T
        return float(np.abs(A @ X).sum(axis=0).max())
    return None


def norm_interval(A: np.ndarray, p: float, q: float) -> tuple:
    """A sound enclosure lo <= ||A||_{p,q} <= hi.

    lo: the best ratio ||Ax||_q / ||x||_p over coordinate vectors and the
    top right singular vector.  hi: the three comparison-inequality anchors
    (columns, rows, spectral).
    """
    n, m = A.shape
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    cols = max(vnorm(A[:, j], q) for j in range(m))
    rows = max(vnorm(A[i, :], dual(p)) for i in range(n))
    _, s, vh = np.linalg.svd(A)
    v = vh[0].conj()
    lo = max(cols, vnorm(A @ v, q) / vnorm(v, p))
    hi = min(
        m ** (1.0 - inv_p) * cols,
        n ** inv_q * rows,
        m ** max(0.5 - inv_p, 0.0) * n ** max(inv_q - 0.5, 0.0) * float(s[0]),
    )
    return lo, hi


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def not_above(a: float, b: float, tol: float = REL_TOL) -> bool:
    """a <= b up to a relative rounding slack."""
    return a <= b + tol * max(abs(a), abs(b), 1e-300)
