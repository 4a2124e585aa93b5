"""Shared fixtures: the random corpus, cached norm tables, and the curated
suite of matrices with known class structure."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pqnorm import (
    as_matrix,
    best_norm,
    gen_dft,
    gen_hadamard,
    gen_single_entry,
    gen_tensor_product,
    index_str,
    as_index,
)

GRID5 = [as_index(t) for t in (1, 1.5, 2, 3, "inf")]


# matrices taken to the ends of the float range by at_scale
EDGE_MATRICES = [
    np.ones((2, 2)),
    np.random.default_rng(1).standard_normal((3, 4)),
    np.random.default_rng(2).standard_normal((3, 2))
    + 1j * np.random.default_rng(3).standard_normal((3, 2)),
    # at the top, both parts of the first entry are finite but its modulus is not
    np.array([[1.5 + 1.5j, 0.5], [-0.5j, 1.0]]),
]
EDGE_IDS = ["ones", "gauss3x4", "complex3x2", "complex-modulus"]


def at_scale(A: np.ndarray, k) -> np.ndarray:
    """2^k A, real and imaginary parts apart; k = "top" is the largest k
    that keeps every entry finite."""
    if k == "top":
        k = 1024 - max(math.frexp(float(np.abs(x).max()))[1] for x in (A.real, A.imag))
    X = np.ldexp(A.real, k)
    return X + 1j * np.ldexp(A.imag, k) if np.iscomplexobj(A) else X


def grid_key(p, q) -> tuple:
    return (index_str(as_index(p)), index_str(as_index(q)))


def make_corpus(count: int = 200):
    """Seeded random matrices, m, n <= 3, alternating real and complex."""
    mats = []
    for i in range(count):
        r = np.random.default_rng(1000 + i)
        n = int(r.integers(1, 4))
        m = int(r.integers(1, 4))
        if i % 2 == 0:
            arr = r.standard_normal((n, m))
            mats.append(as_matrix(arr, field="real"))
        else:
            arr = r.standard_normal((n, m)) + 1j * r.standard_normal((n, m))
            mats.append(as_matrix(arr, field="complex"))
    return mats


@pytest.fixture(scope="session")
def corpus():
    return make_corpus(200)


@pytest.fixture(scope="session")
def corpus_tables(corpus):
    """Per-matrix norm tables over GRID5 for A and its adjoint."""
    tables = []
    for M in corpus:
        tab = {grid_key(p, q): best_norm(M, p, q, seed=0) for p in GRID5 for q in GRID5}
        adj = M.adjoint()
        tab_adj = {
            grid_key(p, q): best_norm(adj, p, q, seed=0) for p in GRID5 for q in GRID5
        }
        tables.append((tab, tab_adj))
    return tables


def make_curated():
    """Named matrices with hand-understood class structure at (p,q)=(2,2)."""
    B = np.array([[1.0, 1.0], [-1.0, 1.0]])
    suite = [
        ("worked-complex", as_matrix(B, field="complex")),
        ("worked-real", as_matrix(B, field="real")),
        ("hadamard-2", gen_hadamard(2)),
        ("hadamard-4", gen_hadamard(4)),
        ("dft-3", gen_dft(3)),
        ("diag-3-1", as_matrix(np.diag([3.0, 1.0]), field="real")),
        ("upper-triangular", as_matrix(np.array([[3.0, 1.0], [0.0, 1.0]]), field="real")),
        ("single-entry-3x3", gen_single_entry(3, 3, 2, 1, 5.0)),
        ("single-column", as_matrix(np.array([[1.0], [1.0]]), field="real")),
        ("single-row", as_matrix(np.array([[1.0, 1.0, 1.0]]), field="real")),
        (
            "tensor-k1",
            gen_tensor_product(np.array([1.0, 1j]), np.array([1.0, -1.0])),
        ),
        ("ones-2x2", as_matrix(np.ones((2, 2)), field="real")),
        ("diag-2-1", as_matrix(np.diag([2.0, 1.0]), field="real")),
        ("near-diagonal", as_matrix(np.array([[3.0, 0.0], [0.0, 2.9]]), field="real")),
        ("identity-3", as_matrix(np.eye(3), field="real")),
        (
            "hadamard-zero-column",
            as_matrix(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]), field="real"),
        ),
        (
            "random-3x2-complex",
            as_matrix(
                np.random.default_rng(77).standard_normal((3, 2))
                + 1j * np.random.default_rng(78).standard_normal((3, 2)),
                field="complex",
            ),
        ),
    ]
    return suite


@pytest.fixture(scope="session")
def curated():
    return make_curated()
