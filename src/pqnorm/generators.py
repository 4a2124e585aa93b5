"""Constructors for matrices that attain the norm-comparison bound.

Families: SVD-built matrices whose top singular vectors sit in prescribed
K-classes, Hadamard (Sylvester) and discrete-Fourier matrices, rank-one
tensor products, and single-entry matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import IndexLike, KClassId, vector_equality_class
from .induced_norms import COMPLEX, REAL, MatrixValue, _phase, as_matrix

__all__ = [
    "unitary_with_first_column",
    "gen_svd_extremal",
    "gen_hadamard",
    "gen_dft",
    "gen_tensor_product",
    "gen_single_entry",
    "GeneratorSpec",
    "build_generator",
    "kclass_unit_vector",
    "extremal_pair_classes",
]


def _qr_completion(c: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """The Q of the QR factorization of [c, fill], for a unit vector c and
    len(c) - 1 columns fill: unitary whatever fill's rank, its other
    columns fill orthonormalised against c, and its first column c once the
    phase of R[0, 0] is restored."""
    Q, R = np.linalg.qr(np.column_stack([c, fill]))
    Q[:, 0] *= _phase(R[:1, 0])
    return Q


def unitary_with_first_column(c) -> np.ndarray:
    """A unitary matrix whose first column is the given unit vector.

    The QR completion of c by the first d - 1 coordinate vectors
    (_qr_completion), so c = e1 gives the identity, bit for bit.  Rejects
    vectors that are zero or not unit-length (within 1e-12).
    """
    vec = np.asarray(c).reshape(-1)
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise ValueError("zero vector has no unitary completion")
    if not abs(nrm - 1.0) <= 1e-12:  # nan too
        raise ValueError(f"first column must be unit length, got |c| = {nrm!r}")
    return _qr_completion(vec, np.eye(vec.shape[0], vec.shape[0] - 1))


def kclass_unit_vector(
    k: KClassId, dim: int, rng: np.random.Generator, field_tag: str
) -> np.ndarray:
    """A deterministic unit-l2 representative of the K-class.

    K1: constant modulus 1/sqrt(dim) with phases (or signs) drawn from rng;
    K-1 (at most one nonzero): the first coordinate vector; K0: a random
    unit vector.
    """
    if k is KClassId.KMINUS1:
        e = np.zeros(dim, dtype=complex if field_tag == COMPLEX else float)
        e[0] = 1.0
        return e
    if k is KClassId.K1:
        if field_tag == COMPLEX:
            phases = np.exp(2j * np.pi * rng.random(dim))
        else:
            phases = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
        return phases / np.sqrt(dim)
    if field_tag == COMPLEX:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    else:
        v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def extremal_pair_classes(r: IndexLike, s: IndexLike) -> tuple:
    """K-classes required of the top singular vectors for equality at (r,s)
    against the (2,2) anchor: (class of u1, class of v1), the vectors that
    attain ||u||_s = c ||u||_2 and ||v||_2 = c ||v||_r."""
    return vector_equality_class(2, s), vector_equality_class(r, 2)


def _completed_unitary(
    first: np.ndarray, rng: np.random.Generator, field_tag: str
) -> np.ndarray:
    """A unitary with the unit vector `first` as its first column, the rest
    seeded Gaussian columns of the field orthonormalised against it."""
    shape = (first.shape[0], first.shape[0] - 1)
    fill = rng.standard_normal(shape)
    if field_tag == COMPLEX:
        fill = fill + 1j * rng.standard_normal(shape)
    return _qr_completion(first, fill)


def gen_svd_extremal(
    m: int,
    n: int,
    r: IndexLike,
    s: IndexLike,
    sigma: Sequence[float],
    seed: int = 0,
    field_tag: str = COMPLEX,
) -> MatrixValue:
    """An n x m matrix attaining ||A||_{r,s} = factor * ||A||_{2,2}.

    Built as U diag(sigma) V* where the first columns of U and V are placed
    in the K-classes that characterize equality at (r,s) against the (2,2)
    anchor.  sigma must be nonincreasing from a maximal first value; the
    remaining columns of U and V are seeded Gaussian columns orthonormalised
    against the first (_completed_unitary), so results are reproducible per
    seed.
    """
    sig = [float(x) for x in sigma]
    if not sig:
        raise ValueError("sigma must be nonempty")
    if not all(math.isfinite(x) for x in sig):
        raise ValueError("singular values must be finite")
    if any(x < 0 for x in sig):
        raise ValueError("singular values must be nonnegative")
    if any(x > sig[0] for x in sig[1:]):
        raise ValueError("sigma must start with its maximal value")
    if any(sig[i] < sig[i + 1] for i in range(len(sig) - 1)):
        raise ValueError("sigma must be nonincreasing")
    if len(sig) > min(m, n):
        raise ValueError("more singular values than min(m, n)")
    ku, kv = extremal_pair_classes(r, s)
    rng = np.random.default_rng(seed)
    u1 = kclass_unit_vector(ku, n, rng, field_tag)
    v1 = kclass_unit_vector(kv, m, rng, field_tag)
    U = _completed_unitary(u1, rng, field_tag)
    V = _completed_unitary(v1, rng, field_tag)
    S = np.zeros((n, m), dtype=float)
    for i, x in enumerate(sig):
        S[i, i] = x
    A = U @ S @ V.conj().T
    return MatrixValue(A, field_tag)


def gen_hadamard(k: int) -> MatrixValue:
    """Sylvester Hadamard matrix of a power-of-two order: entries are all
    +-1 and the columns are mutually orthogonal (H*H = kI)."""
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError(f"order must be a power of two, got {k}")
    H = np.array([[1.0]])
    while H.shape[0] < k:
        H = np.block([[H, H], [H, -H]])
    return MatrixValue(H, REAL)


def gen_dft(k: int) -> MatrixValue:
    """Discrete Fourier matrix: entries omega^(j*l) with omega = e^{-2 pi i / k};
    all entry moduli 1 and A*A = kI."""
    if k < 1:
        raise ValueError("order must be positive")
    j = np.arange(k)
    W = np.exp(-2j * np.pi * np.outer(j, j) / k)
    return MatrixValue(W, COMPLEX)


def gen_tensor_product(c, b) -> MatrixValue:
    """Rank-one matrix with entries A_ij = c_i * b_j.

    Its induced norm factorizes: ||A||_{r,s} = ||b||_{r*} * ||c||_s.
    """
    cv = np.asarray(c).reshape(-1)
    bv = np.asarray(b).reshape(-1)
    A = np.outer(cv, bv)
    tag = COMPLEX if np.iscomplexobj(A) else REAL
    return MatrixValue(A, tag)


def gen_single_entry(m: int, n: int, i: int, j: int, rho: float) -> MatrixValue:
    """n x m zero matrix with a single entry rho at 0-based row i, column j.

    Such a matrix has ||A||_{r,s} = rho for every exponent pair.
    """
    if not math.isfinite(rho):
        raise ValueError("rho must be finite")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not (0 <= i < n and 0 <= j < m):
        raise ValueError(f"index ({i}, {j}) out of range for a {n}x{m} matrix")
    A = np.zeros((n, m))
    A[i, j] = float(rho)
    return MatrixValue(A, REAL)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative request for one generated matrix (CLI-facing)."""

    kind: str  # hadamard | dft | tensor | single | svd
    m: int = 2
    n: int = 2
    r: Optional[IndexLike] = None
    s: Optional[IndexLike] = None
    sigma: Sequence[float] = field(default_factory=lambda: (2.0, 1.0))
    seed: int = 0
    field_tag: str = COMPLEX
    b: Optional[Sequence[complex]] = None
    c: Optional[Sequence[complex]] = None
    i: int = 0
    j: int = 0
    rho: float = 1.0


def build_generator(spec: GeneratorSpec) -> MatrixValue:
    """Materialize the matrix a GeneratorSpec describes."""
    if spec.kind == "hadamard":
        return gen_hadamard(spec.m)
    if spec.kind == "dft":
        return gen_dft(spec.m)
    if spec.kind == "tensor":
        if spec.b is None or spec.c is None:
            raise ValueError("tensor generation requires both vectors b and c")
        return gen_tensor_product(spec.c, spec.b)
    if spec.kind == "single":
        return gen_single_entry(spec.m, spec.n, spec.i, spec.j, spec.rho)
    if spec.kind == "svd":
        if spec.r is None or spec.s is None:
            raise ValueError("svd generation requires the extremal pair (r, s)")
        return gen_svd_extremal(
            spec.m, spec.n, spec.r, spec.s, spec.sigma, spec.seed, spec.field_tag
        )
    raise ValueError(f"unknown generator kind {spec.kind!r}")
