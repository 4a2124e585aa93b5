"""Induced norms: SVD, closed forms, exact enumeration, estimator, oracle.

Frozen values below are either hand-derived (derivation in the comment) or
cross-checked against the independent sampling oracle norm_bruteforce,
which explores the unit sphere directly and does not share the closed-form
code paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqnorm import (
    Certainty,
    DimensionError,
    EstimatorSettings,
    MatrixValue,
    as_index,
    as_matrix,
    best_norm,
    bracket_norm,
    conjugate,
    gen_dft,
    gen_svd_extremal,
    maximizer_set_probe,
    norm_bruteforce,
    norm_closed_form,
    norm_estimate,
    norm_infty_one_exact,
    norm_ratio,
    svd,
    vector_norm,
)
from pqnorm.induced_norms import (
    BLOCK,
    MAX_COMPLEX_COLS,
    PHASE_GRID,
    STACK,
    _TINY,
    _ascent,
    _default_starts,
    _dual_step,
    _lattice_side,
    _normalize_cols,
    _phase,
    _phase_block,
    _phase_grid,
    _sign_cols,
    _sign_images,
    _top8,
    best_norms,
)

B = np.array([[1.0, 1.0], [-1.0, 1.0]])
GRID = [1, 1.5, 2, 3, "inf"]


def rand_matrix(i, n, m, complex_=False):
    r = np.random.default_rng(i)
    if complex_:
        return as_matrix(
            r.standard_normal((n, m)) + 1j * r.standard_normal((n, m)),
            field="complex",
        )
    return as_matrix(r.standard_normal((n, m)), field="real")


class TestMatrixValue:
    def test_field_inference(self):
        assert as_matrix(np.eye(2)).field == "real"
        assert as_matrix(np.eye(2) * (1 + 0j)).field == "complex"
        assert as_matrix(np.eye(2), field="complex").is_complex

    def test_rejects_real_tag_on_complex_entries(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[1j]]), field="real")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf, 1.0]]))
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.nan]]))

    def test_rejects_empty_and_non_2d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            as_matrix(np.zeros(3))

    def test_entries_read_only(self):
        M = as_matrix(np.eye(2))
        with pytest.raises((ValueError, RuntimeError)):
            M.entries[0, 0] = 5.0

    def test_adjoint_involution(self):
        M = rand_matrix(5, 3, 2, complex_=True)
        back = M.adjoint().adjoint()
        assert np.array_equal(back.entries, M.entries)
        assert M.adjoint().n == M.m and M.adjoint().m == M.n

    def test_adjoint_memoised(self):
        # one adjoint per matrix, so its memo (SVD, norms) is shared too;
        # no reference cycle keeps the pair alive past the matrix
        import weakref

        M = rand_matrix(6, 3, 2, complex_=True)
        adj = M.adjoint()
        assert M.adjoint() is adj and adj.adjoint() is M
        assert np.array_equal(adj.entries, M.entries.conj().T)
        entries, alive = M.entries.copy(), weakref.ref(M)
        del M
        assert alive() is None
        assert np.array_equal(adj.adjoint().entries, entries)
        gone = weakref.ref(rand_matrix(7, 2, 2).adjoint())
        assert gone() is None


class TestSvd:
    def test_against_numpy_many(self):
        for i in range(30):
            r = np.random.default_rng(i)
            n, m = int(r.integers(1, 7)), int(r.integers(1, 7))
            M = rand_matrix(100 + i, n, m, complex_=bool(i % 2))
            f = svd(M)
            ref = np.linalg.svd(M.entries, compute_uv=False)
            assert np.allclose(f.s, ref, rtol=1e-10, atol=1e-12)

    def test_factors_unitary_and_reconstruct(self):
        M = rand_matrix(7, 5, 3, complex_=True)
        f = svd(M)
        assert np.allclose(f.u.conj().T @ f.u, np.eye(5), atol=1e-12)
        assert np.allclose(f.v.conj().T @ f.v, np.eye(3), atol=1e-12)
        assert np.allclose(f.reconstruct(), M.entries, atol=1e-12)
        assert all(f.s[i] >= f.s[i + 1] for i in range(len(f.s) - 1))

    def test_rank_deficient_and_zero(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
        f = svd(as_matrix(A))
        assert f.s[1] <= 1e-12 * f.s[0]
        fz = svd(as_matrix(np.zeros((2, 3))))
        assert np.allclose(fz.s, 0.0)
        assert np.allclose(fz.reconstruct(), 0.0)

    def test_wide_matrix(self):
        M = rand_matrix(11, 2, 5, complex_=True)
        f = svd(M)
        assert f.u.shape == (2, 2) and f.v.shape == (5, 5)
        assert np.allclose(f.reconstruct(), M.entries, atol=1e-12)


    def test_rank_deficient_generated(self):
        # rank-one outputs of gen_svd_extremal on which one-sided Jacobi
        # sweeps never converged
        cases = [
            (2, 4, "inf", "inf", 126, "complex"),
            (5, 6, "inf", 1, 87, "real"),
            (4, 5, "inf", 1, 103, "real"),
        ]
        for m, n, r, s, seed, field in cases:
            E = gen_svd_extremal(m, n, r, s, [2.0], seed=seed, field_tag=field)
            f = svd(E)
            assert np.allclose(f.s, [2.0] + [0.0] * (min(m, n) - 1), atol=1e-12)
            assert np.allclose(f.u.conj().T @ f.u, np.eye(n), atol=1e-12)
            assert np.allclose(f.v.conj().T @ f.v, np.eye(m), atol=1e-12)
            assert np.allclose(f.reconstruct(), E.entries, atol=1e-12)


class TestMemo:
    def test_repeat_call_hits(self):
        M = rand_matrix(12, 3, 3, complex_=True)
        a = best_norm(M, 1.7, 2.3, seed=1)
        assert best_norm(M, 1.7, 2.3, seed=1) is a
        assert best_norm(M, as_index(1.7), "2.3", seed=1) is a
        assert svd(M) is svd(M)

    def test_other_arguments_miss(self):
        M = rand_matrix(13, 3, 3)
        a = best_norm(M, 1.7, 2.3, seed=1)
        assert best_norm(M, 1.7, 2.3, seed=2) is not a
        assert best_norm(M, 1.7, 2.3, seed=1, budget=500) is not a
        assert best_norm(M, 1.7, 2.3, seed=1, settings=EstimatorSettings(seed=1)) is not a
        C = as_matrix(M, field="complex")
        assert best_norm(C, 1.7, 2.3, seed=1) is not a
        assert svd(C) is not svd(M)

    def test_cached_arrays_read_only(self):
        M = rand_matrix(14, 3, 2)
        f = svd(M)
        for arr in (best_norm(M, 1.7, 2.3).witness, best_norm(M, 2, 2).witness, f.u, f.s, f.v):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestClosedForms:
    # ||A||_{1,q} = max_j ||col_j||_q; ||A||_{p,inf} = max_i ||row_i||_{p*};
    # ||A||_{2,2} = top singular value.
    def test_p1_column_route(self):
        A = np.array([[3.0, 1.0], [0.0, 1.0]])
        # col l1: (3, 2) -> 3; col l2: (3, sqrt(2)) -> 3; col linf: (3, 1) -> 3
        for q, want in [(1, 3.0), (2, 3.0), ("inf", 3.0)]:
            res = norm_closed_form(A, 1, q)
            assert res is not None and math.isclose(res.value, want, rel_tol=1e-12)
            assert res.certainty is Certainty.CLOSED_FORM

    def test_q_inf_row_route(self):
        A = np.array([[3.0, 1.0], [0.0, 1.0]])
        # rows (3,1) and (0,1); p=1 -> p*=inf: max|row| = 3
        # p=2 -> p*=2: sqrt(10); p=inf -> p*=1: row sums (4,1) -> 4
        assert math.isclose(norm_closed_form(A, 1, "inf").value, 3.0, rel_tol=1e-12)
        assert math.isclose(
            norm_closed_form(A, 2, "inf").value, math.sqrt(10.0), rel_tol=1e-12
        )
        assert math.isclose(norm_closed_form(A, "inf", "inf").value, 4.0, rel_tol=1e-12)

    def test_22_spectral(self):
        A = np.array([[3.0, 1.0], [0.0, 1.0]])
        # A^T A = [[9,3],[3,2]]; top eigenvalue (11+sqrt(85))/2
        want = math.sqrt((11.0 + math.sqrt(85.0)) / 2.0)
        assert math.isclose(norm_closed_form(A, 2, 2).value, want, rel_tol=1e-12)

    def test_no_closed_form_interior(self):
        assert norm_closed_form(np.eye(2), 1.5, 2.5) is None

    def test_zero_matrix(self):
        res = norm_closed_form(np.zeros((2, 2)), 1.7, 2.3)
        assert res is not None and res.value == 0.0

    def test_witnesses_achieve_value(self):
        for i in range(8):
            M = rand_matrix(200 + i, 3, 3, complex_=bool(i % 2))
            for (p, q) in [(1, 1), (1, 2), (1, "inf"), (2, "inf"), ("inf", "inf"), (2, 2)]:
                res = norm_closed_form(M, p, q)
                got = norm_ratio(M, res.witness, p, q)
                assert math.isclose(got, res.value, rel_tol=1e-9, abs_tol=1e-12)


class TestInftyOneExact:
    def test_worked_example_real(self):
        res = norm_infty_one_exact(as_matrix(B, field="real"))
        assert res.value == 2.0
        assert res.certainty is Certainty.ENUMERATION

    def test_hand_values(self):
        # [[3,1],[0,1]]: x=(1,1) -> |4|+|1| = 5 (dominates (1,-1) -> 3)
        assert norm_infty_one_exact(np.array([[3.0, 1.0], [0.0, 1.0]])).value == 5.0
        # diag(3,1): always |3|+|1| = 4
        assert norm_infty_one_exact(np.diag([3.0, 1.0])).value == 4.0
        # ones 2x2: x=(1,1) -> 4
        assert norm_infty_one_exact(np.ones((2, 2))).value == 4.0

    def test_complex_worked_example(self):
        # maximizer (1, i): ||A(1,i)||_1 = |1+i| + |-1+i| = 2*sqrt(2)
        res = norm_infty_one_exact(as_matrix(B, field="complex"))
        assert math.isclose(res.value, 2.0 * math.sqrt(2.0), rel_tol=1e-9)

    def test_witness_reproduces_value(self):
        for i in range(6):
            M = rand_matrix(300 + i, 3, 3, complex_=bool(i % 2))
            res = norm_infty_one_exact(M)
            got = norm_ratio(M, res.witness, "inf", 1)
            assert math.isclose(got, res.value, rel_tol=1e-9)

    def test_dimension_cap(self):
        # the cap is checked before any sign vector is formed
        M = rand_matrix(1, 2, 25)
        with pytest.raises(DimensionError):
            norm_infty_one_exact(M)

    def test_phase_blocks_match_full_grid(self):
        # g^(m-1) columns span several blocks; the running top 8 must pick
        # the columns one stable argsort over the whole grid would pick
        g, m = PHASE_GRID, MAX_COMPLEX_COLS
        assert g ** (m - 1) > BLOCK
        phases = np.exp(2j * np.pi * np.arange(g) / g)
        mesh = np.meshgrid(*([phases] * (m - 1)), indexing="ij")
        full = np.vstack([np.ones(g ** (m - 1))] + [t.reshape(-1) for t in mesh])
        assert np.array_equal(_phase_block(0, full.shape[1], m, g), full)
        assert np.array_equal(_phase_block(20000, 20100, m, g), full[:, 20000:20100])
        for A in (np.ones((m, m), dtype=complex), rand_matrix(7, m + 1, m, complex_=True).entries):
            vals = np.abs(A @ full).sum(axis=0)
            top = np.argsort(-vals, kind="stable")[:8]
            [(val, vec)] = _ascent(A, as_index("inf"), as_index(1), full[:, top], 100, 1e-12).best
            if vals[top[0]] >= val:
                val, vec = vals[top[0]], full[:, top[0]]
            res = norm_infty_one_exact(A)
            assert res.value == val
            assert np.array_equal(res.witness, vec)

    RANDOM_SHAPES = [(2, 4), (8, 4), (3, 5), (8, 5), (6, 6), (8, 6), (4, 6)]

    @pytest.mark.parametrize(
        "A",
        [gen_dft(k) for k in (3, 5, 6)]
        + [rand_matrix(1500 + n * m, n, m, complex_=True) for n, m in RANDOM_SHAPES],
        ids=["dft3", "dft5", "dft6"] + [f"{n}x{m}" for n, m in RANDOM_SHAPES],
    )
    def test_eight_phases_match_sixteen(self, A):
        # DFT 3, 5 and 6 have phases off the 8-point grid; after the ascent
        # polish the 8-phase value matches a 16-phase grid over the same
        # side (A or A*, whichever has fewer columns) to 1e-12 relative
        M = as_matrix(A)
        B = M.entries if M.m <= M.n else M.entries.conj().T
        k, g = B.shape[1], 16
        best_vals, best_X = np.zeros(0), np.zeros((k, 0), dtype=complex)
        for start in range(0, g ** (k - 1), BLOCK):
            X = np.hstack([best_X, _phase_block(start, min(start + BLOCK, g ** (k - 1)), k, g)])
            vals = np.abs(B @ X).sum(axis=0)
            top = np.argsort(-vals, kind="stable")[:8]
            best_vals, best_X = vals[top], X[:, top]
        [(val, _)] = _ascent(B, as_index("inf"), as_index(1), best_X, 100, 1e-12).best
        want = max(val, best_vals[0])
        assert abs(norm_infty_one_exact(M).value - want) <= 1e-12 * want

    def test_adjoint_side(self):
        # the grid runs over min(n, m) columns: a complex 2x6 scores 8 grid
        # columns of A*, and a 6x8 gets the grid instead of DimensionError;
        # the witness phase(A* y) reproduces the value on A itself
        for n, m in [(2, 6), (6, 8), (1, 5)]:
            M = rand_matrix(1520 + n, n, m, complex_=True)
            B, _, top_vals, top_X, upper = _phase_grid(M)
            assert B.shape == (m, n) and top_X.shape == (n, min(8, PHASE_GRID ** (n - 1)))
            res = norm_infty_one_exact(M)
            assert np.abs(np.abs(res.witness) - 1.0).max() <= 1e-12
            assert math.isclose(norm_ratio(M, res.witness, "inf", 1), res.value, rel_tol=1e-12)
            adj = norm_infty_one_exact(M.adjoint()).value
            assert res.value >= adj * (1.0 - 1e-12)
            assert res.value <= upper
        with pytest.raises(DimensionError):
            norm_infty_one_exact(rand_matrix(1530, 7, 9, complex_=True))

    def test_matches_oracle(self):
        for i in range(6):
            M = rand_matrix(400 + i, 2, 3, complex_=False)
            exact = norm_infty_one_exact(M).value
            probe = norm_bruteforce(M, "inf", 1, budget=4000, seed=1).value
            assert probe <= exact + 1e-9 * exact
            assert probe >= exact - 1e-6 * exact


class TestBruteforceOracle:
    def test_budget_guard(self):
        with pytest.raises(ValueError):
            norm_bruteforce(np.eye(2), 2, 2, budget=10)

    def test_lattice_bounded_by_budget(self):
        # the real lattice has at least 2^m points; it is planned, not built,
        # here: at m = 32 it would hold 2^32 columns
        assert _lattice_side(32, 10_000) == 0
        assert _lattice_side(13, 10_000) == 0
        assert [_lattice_side(m, 10_000) for m in (1, 2, 4, 12)] == [9, 9, 8, 2]
        assert _lattice_side(8, 200) == 0

    def test_never_exceeds_exact_value(self):
        # the oracle is a max over feasible points: always a valid lower bound
        for i in range(10):
            M = rand_matrix(500 + i, 3, 2, complex_=bool(i % 2))
            for (p, q) in [(1, 1.5), (2, 2), ("inf", "inf"), (1, "inf")]:
                exact = norm_closed_form(M, p, q)
                if exact is None:
                    continue
                probe = norm_bruteforce(M, p, q, budget=2000, seed=i)
                assert probe.value <= exact.value * (1.0 + 1e-9)
                assert probe.value >= exact.value * (1.0 - 1e-5)


class TestEstimator:
    def test_dominates_oracle_on_interior_pairs(self):
        for i in range(10):
            M = rand_matrix(600 + i, 3, 3, complex_=bool(i % 2))
            for (p, q) in [(1.5, 1.5), (1.7, 2.3), (3, 1.5)]:
                est = norm_estimate(M, p, q)
                probe = norm_bruteforce(M, p, q, budget=3000, seed=i)
                assert est.value >= probe.value * (1.0 - 1e-7)

    def test_witness_achieves_estimate(self):
        M = rand_matrix(9, 3, 3, complex_=True)
        res = norm_estimate(M, 1.7, 2.3)
        got = norm_ratio(M, res.witness, 1.7, 2.3)
        assert math.isclose(got, res.value, rel_tol=1e-9)

    def test_single_entry_all_pairs(self):
        # a single-entry matrix has ||A||_{p,q} = rho for every p, q
        A = np.zeros((3, 3))
        A[2, 1] = 5.0
        for (p, q) in [(1.7, 2.3), (1.5, 1.5), (3, 3)]:
            res = norm_estimate(A, p, q)
            assert math.isclose(res.value, 5.0, rel_tol=1e-10)

    def test_settings_deterministic(self):
        M = rand_matrix(10, 3, 3, complex_=True)
        a = norm_estimate(M, 1.7, 2.3, EstimatorSettings(seed=4))
        b = norm_estimate(M, 1.7, 2.3, EstimatorSettings(seed=4))
        assert a.value == b.value
        assert np.array_equal(a.witness, b.witness)

    def test_best_norm_routes(self):
        assert best_norm(B, 2, 2).certainty is Certainty.CLOSED_FORM
        assert best_norm(as_matrix(B, field="real"), "inf", 1).certainty is (
            Certainty.ENUMERATION
        )
        assert best_norm(B, 1.7, 2.3).certainty is Certainty.ESTIMATE
        # budget top-up may only improve the value
        plain = best_norm(B, 1.7, 2.3)
        topped = best_norm(B, 1.7, 2.3, budget=2000)
        assert topped.value >= plain.value


# The column helpers the ascent used before its step was fused into
# _dual_step, kept verbatim as the reference for it.


def _phase_masked(w: np.ndarray) -> np.ndarray:
    """w / |w| entrywise, 0 mapped to 0; sign() for real input."""
    if np.iscomplexobj(w):
        a = np.abs(w)
        out = np.zeros_like(w)
        nz = a > 0
        out[nz] = w[nz] / a[nz]
        return out
    return np.sign(w)


def _lp_cols(W, p):
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


def _phi_cols(W, t):
    """Column-wise duality map |w|^(t-1) * phase(w).

    At the boundary exponents the map degenerates: t = 1 yields the phase
    vector, t = inf selects the lowest-index entry of maximal modulus.
    """
    if t.value == 1.0:
        return _phase_masked(W)
    if t.is_inf:
        a = np.abs(W)
        idx = a.argmax(axis=0)
        cols = np.arange(W.shape[1])
        out = np.zeros_like(W)
        out[idx, cols] = _phase_masked(W[idx, cols])
        return out
    a = np.abs(W)
    peak = a.max(axis=0)
    safe = np.where(peak > 0, peak, 1.0)
    return ((a / safe) ** (t.value - 1.0)) * _phase_masked(W)


def _ascent_all_columns(arr, p, q, X0, max_iter, tol):
    """The ascent that steps every column until all have converged: the
    reference for per-column stopping."""
    pstar = conjugate(p)
    X = _normalize_cols(X0.copy(), p)
    best_val = -math.inf
    prev = None
    for _ in range(max_iter):
        Y = arr @ X
        vals = _lp_cols(Y, q)
        best_val = max(best_val, float(vals.max()))
        if prev is not None and np.all(np.abs(vals - prev) <= tol * np.maximum(vals, _TINY)):
            break
        prev = vals
        Xn = _phi_cols(arr.conj().T @ _phi_cols(Y, q), pstar)
        norms = _lp_cols(Xn, p)
        dead = norms <= _TINY
        if dead.any():
            Xn[:, dead] = X[:, dead]
            norms = np.where(dead, 1.0, norms)
        X = Xn / norms
    return best_val


class TestAscent:
    PAIRS = [(1.5, 1.5), (1.5, 3), (3, 1.5), (4, 1.2), ("inf", 3), (3, 1)]

    def test_per_column_stopping_matches_all_columns(self):
        # freezing a column once its value moves by at most tol changes the
        # best value by a few tol at most
        for i in range(24):
            r = np.random.default_rng(1000 + i)
            n, m = int(r.integers(1, 9)), int(r.integers(1, 9))
            M = rand_matrix(1000 + i, n, m, complex_=bool(i % 2))
            for p, q in self.PAIRS:
                pi, qi = as_index(p), as_index(q)
                X0 = _default_starts(M, 32 + m, np.random.default_rng(0))
                want = _ascent_all_columns(M.entries, pi, qi, X0, 200, 1e-10)
                [(got, vec)], vals, X = _ascent(M.entries, pi, qi, X0, 200, 1e-10)
                assert abs(got - want) <= 1e-8 * want, (i, p, q)
                assert math.isclose(norm_ratio(M, vec, p, q), got, rel_tol=1e-9)
                assert vals.max() <= got and X.shape == X0.shape

    def test_fused_step_matches_old_helpers(self):
        # every pair on the grid plus (4, 1.2), both fields, a zero column,
        # the zero matrix and 2^(+-1000): the fused step climbs like the
        # separate norm and duality-map helpers did
        pairs = [(p, q) for p in GRID for q in GRID] + [(4, 1.2)]
        for i in range(2):
            A = rand_matrix(1100 + i, 4, 5, complex_=bool(i)).entries.copy()
            A[:, 1] = 0.0
            scaled = [np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k) for k in (-1000, 1000)]
            for arr in [A, np.zeros_like(A)] + [S if i else S.real for S in scaled]:
                X0 = _default_starts(as_matrix(arr), 37, np.random.default_rng(0))
                for p, q in pairs:
                    pi, qi = as_index(p), as_index(q)
                    want = _ascent_all_columns(arr, pi, qi, X0, 200, 1e-10)
                    [(got, _)] = _ascent(arr, pi, qi, X0, 200, 1e-10).best
                    assert abs(got - want) <= 1e-8 * want, (i, p, q)


class TestWorkedExample:
    def test_complex_grid_formula(self):
        # for r >= 2 >= s: 2^{(1/s)-(1/r)+(1/2)}
        M = as_matrix(B, field="complex")
        for r in [2, 3, 4, "inf"]:
            for s in [1, 1.5, 2]:
                want = 2.0 ** (
                    as_index(s).inv - as_index(r).inv + 0.5
                )
                got = best_norm(M, r, s).value
                assert math.isclose(got, want, rel_tol=1e-6), (r, s)

    def test_real_strictness(self):
        Mr = as_matrix(B, field="real")
        assert best_norm(Mr, "inf", 1).value == 2.0
        assert math.isclose(best_norm(Mr, 2, 2).value, math.sqrt(2.0), rel_tol=1e-9)


class TestDualityOnClosedForms:
    # ||A*||_{q*,p*} = ||A||_{p,q}; both sides exact on the corner routes
    def test_corner_pairs(self):
        for i in range(8):
            M = rand_matrix(700 + i, 3, 2, complex_=bool(i % 2))
            adj = M.adjoint()
            for (p, q) in [(1, 1), (1, 2), (1, "inf"), (2, "inf"), ("inf", "inf"), (2, 2)]:
                a = best_norm(M, p, q)
                b = best_norm(adj, conjugate(as_index(q)), conjugate(as_index(p)))
                assert math.isclose(a.value, b.value, rel_tol=1e-12, abs_tol=1e-15)


class TestMaximizerProbe:
    def test_degenerate_direction_count(self):
        # B^T B = 2 I: every direction maximizes at (2,2)
        vs = maximizer_set_probe(as_matrix(B, field="complex"), 2, 2)
        assert len(vs) >= 2

    def test_simple_direction_count(self):
        vs = maximizer_set_probe(np.diag([3.0, 1.0]), 2, 2)
        assert len(vs) == 1


@given(
    st.integers(0, 10_000),
    st.sampled_from(GRID),
    st.sampled_from(GRID),
    st.floats(0.1, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_norm_scaling_homogeneity(seed, p, q, c):
    M = rand_matrix(seed, 2, 2, complex_=bool(seed % 2))
    a = best_norm(M, p, q, seed=0).value
    scaled = as_matrix(M.entries * c, field=M.field)
    b = best_norm(scaled, p, q, seed=0).value
    assert abs(b - c * a) <= 1e-8 * max(1.0, c * a)


@given(st.integers(0, 10_000), st.sampled_from(GRID), st.sampled_from(GRID))
@settings(max_examples=40, deadline=None)
def test_ratio_never_exceeds_norm(seed, p, q):
    M = rand_matrix(seed, 3, 2, complex_=bool(seed % 2))
    r = np.random.default_rng(seed)
    x = r.standard_normal(2) + (1j * r.standard_normal(2) if M.is_complex else 0)
    val = best_norm(M, p, q, seed=0).value
    assert norm_ratio(M, x, p, q) <= val * (1.0 + 1e-7)


@given(
    st.integers(0, 10_000),
    st.integers(1, MAX_COMPLEX_COLS),
    st.integers(1, MAX_COMPLEX_COLS),
    st.integers(-1000, 1000),
)
@settings(max_examples=25, deadline=None)
def test_phase_grid_upper_end(seed, n, m, k):
    # the grid's certified upper end lies above the polished value and the
    # sampling oracle, on A and on 2^k A alike; both scale exactly by 2^k
    A = rand_matrix(seed, n, m, complex_=True).entries
    for arr in (A, np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k)):
        M = as_matrix(arr)
        upper = _phase_grid(M)[-1]
        assert upper >= norm_infty_one_exact(M).value
        assert upper >= norm_bruteforce(M, "inf", 1, budget=2000).value
        br = bracket_norm(M, "inf", 1)
        assert br.lower <= br.upper <= upper
    scaled = as_matrix(arr)
    assert _phase_grid(scaled)[-1] == math.ldexp(_phase_grid(as_matrix(A))[-1], k)
    assert norm_infty_one_exact(scaled).value == math.ldexp(norm_infty_one_exact(A).value, k)


def _dual_step_samples():
    r = np.random.default_rng(2024)
    for complex_ in (False, True):
        W = r.standard_normal((5, 6)) + (1j * r.standard_normal((5, 6)) if complex_ else 0.0)
        W[:, 2] = 0.0
        W[1, 4] = 0.0
        yield W
        yield np.zeros_like(W)
        for k in (-1000, 1000):
            S = np.ldexp(W.real, k) + 1j * np.ldexp(W.imag, k)
            yield S if complex_ else S.real


class TestDualStep:
    EXPONENTS = [1, 1.5, 2, 3, "inf", 4, 1.2]

    def test_phase_matches_masked_form(self):
        for W in _dual_step_samples():
            assert np.array_equal(_phase(W), _phase_masked(W))

    def test_matches_old_helpers(self):
        # the map itself is bit-identical; the two norms agree to rounding
        for W in _dual_step_samples():
            for t in self.EXPONENTS:
                ti = as_index(t)
                norms, phi, dual = _dual_step(W, ti)
                ref = _phi_cols(W, ti)
                assert np.array_equal(phi, ref), t
                np.testing.assert_allclose(norms, _lp_cols(W, ti), rtol=1e-14, atol=0)
                np.testing.assert_allclose(
                    dual, _lp_cols(ref, conjugate(ti)), rtol=1e-14, atol=0
                )


def _stacked_samples():
    """Matrices for the stacked-ascent checks: Gaussians in both fields with
    a zero column, the zero matrix, one row, one column, and 2^(+-1000)."""
    for i, complex_ in enumerate((False, True)):
        A = rand_matrix(1400 + i, 4, 5, complex_=complex_).entries.copy()
        A[:, 1] = 0.0
        yield A
        yield np.zeros_like(A)
        yield rand_matrix(1410 + i, 1, 4, complex_=complex_).entries
        yield rand_matrix(1420 + i, 5, 1, complex_=complex_).entries
        for k in (-1000, 1000):
            yield np.ldexp(A.real, k) + (1j * np.ldexp(A.imag, k) if complex_ else 0.0)


# best_norm values and witness digests (sha256 of the witness bytes, first
# 16 hex digits), frozen from the one-point ascent before the kernel took
# per-column exponents; the samples are those of _frozen_matrices
FROZEN_SINGLE_POINT = {
    ("r4x4", 1.5, 3): ("0x1.834692bee60eap+1", "f6e65f6ddc1e2d0f"),
    ("r4x4", 3, 1.5): ("0x1.7c8130e75ba8cp+2", "6fe69135b8fe5531"),
    ("r4x4", 4, 1.2): ("0x1.ff46820b6f9e4p+2", "5a443a315f0a7bf8"),
    ("r4x4", "inf", 2): ("0x1.d6d4f4a830e88p+2", "76a449f8269ad0c3"),
    ("r4x4", 2, 1): ("0x1.d9ed408da1386p+2", "a7e62df56573a635"),
    ("r4x4", "inf", 1.5): ("0x1.1ca23512d0a37p+3", "76a449f8269ad0c3"),
    ("r4x4", 1.5, 1.5): ("0x1.100abb9ee83fbp+2", "05a13fe61594605d"),
    ("c5x3", 1.5, 3): ("0x1.09fb48dc3b9bfp+2", "8b6670eed4ac64c1"),
    ("c5x3", 3, 1.5): ("0x1.178b27ccc458ep+3", "b751e1b3605a38a9"),
    ("c5x3", 4, 1.2): ("0x1.88d1d16f5dc4ap+3", "d03e94a4e368d133"),
    ("c5x3", "inf", 2): ("0x1.353ab03402935p+3", "067a396f4c2a3448"),
    ("c5x3", 2, 1): ("0x1.8c68a0f5f10fcp+3", "18277e45143c8145"),
    ("c5x3", "inf", 1.5): ("0x1.8c475d24e0033p+3", "88b6b5ddf319e21f"),
    ("c5x3", 1.5, 1.5): ("0x1.9f4add2c15026p+2", "05725ce0f76db6ff"),
    ("r3x6", 1.5, 3): ("0x1.3a7cd6310dcc9p+1", "244abe6f1b77cbc9"),
    ("r3x6", 3, 1.5): ("0x1.2f24b197c3571p+2", "d3412ccc9c97272b"),
    ("r3x6", 4, 1.2): ("0x1.97722f68520cap+2", "3a0745e0e02bed26"),
    ("r3x6", "inf", 2): ("0x1.c0924c19e068ap+2", "436979213dbbbdb1"),
    ("r3x6", 2, 1): ("0x1.4883a8ab5f828p+2", "e90498534d0a6256"),
    ("r3x6", "inf", 1.5): ("0x1.0599ba7bddc88p+3", "436979213dbbbdb1"),
    ("r3x6", 1.5, 1.5): ("0x1.7dd1af262e962p+1", "c2f5f90ffacb3f40"),
    ("c8x8", 1.5, 3): ("0x1.223ce8c263f04p+2", "09e22707f9564ab2"),
    ("c8x8", 3, 1.5): ("0x1.a8800516248cbp+3", "a5ab8ebc916fb8ff"),
    ("c8x8", 4, 1.2): ("0x1.5ace5c94c0552p+4", "12f0b1359a5abe4e"),
    ("c8x8", "inf", 2): ("0x1.2a82af0bc91a9p+4", "808297aff94be2dd"),
    ("c8x8", 2, 1): ("0x1.38babd9a1de3ep+4", "bfd28c3373116343"),
    ("c8x8", "inf", 1.5): ("0x1.96227e8d57b64p+4", "59b125e1b8db6a58"),
    ("c8x8", 1.5, 1.5): ("0x1.fcc8bd1f011f4p+2", "56a0f2092486b671"),
    ("c8x8", "inf", 1): ("0x1.8a89969abb132p+5", "2646679626689555"),
    ("r12x10", 1.5, 3): ("0x1.fadf1b1ae5b22p+1", "2c763f6c68c71c5f"),
    ("r12x10", 3, 1.5): ("0x1.8dda22e23f81cp+3", "b10bcc35c43af737"),
    ("r12x10", 4, 1.2): ("0x1.563699588b7a4p+4", "620fbfc66c41a187"),
    ("r12x10", "inf", 2): ("0x1.182165059f904p+4", "2f4b693cbb42a713"),
    ("r12x10", 2, 1): ("0x1.3f16451cce0e7p+4", "3a9f1921eb1ba830"),
    ("r12x10", "inf", 1.5): ("0x1.8fbcfd798b382p+4", "2f4b693cbb42a713"),
    ("r12x10", 1.5, 1.5): ("0x1.c84f1cf9a0ec0p+2", "df4aab1514227a3a"),
}


def _frozen_matrices():
    r = np.random.default_rng(20261018)
    yield "r4x4", MatrixValue(r.standard_normal((4, 4)))
    yield "c5x3", MatrixValue(r.standard_normal((5, 3)) + 1j * r.standard_normal((5, 3)), "complex")
    yield "r3x6", MatrixValue(r.standard_normal((3, 6)))
    yield "c8x8", MatrixValue(r.standard_normal((8, 8)) + 1j * r.standard_normal((8, 8)), "complex")
    yield "r12x10", MatrixValue(r.standard_normal((12, 10)))


class TestStackedAscent:
    PAIRS = [(p, q) for p in GRID for q in GRID] + [(4, 1.2)]

    def test_dual_step_per_column_exponents(self):
        # an exponent array runs the general form on every column, t = 1
        # included: the same map, norms and dual norms as one exponent each
        ts = np.array([1.0, 1.5, 2.0, 3.0, 4.0, 1.2])
        for W in _dual_step_samples():
            norms, phi, dual = _dual_step(W, ts)
            for j, t in enumerate(ts):
                n1, phi1, dual1 = _dual_step(W[:, [j]], as_index(t))
                np.testing.assert_allclose(phi[:, [j]], phi1, rtol=1e-14, atol=0)
                np.testing.assert_allclose(norms[j], n1[0], rtol=1e-14, atol=0)
                np.testing.assert_allclose(dual[j], dual1[0], rtol=1e-14, atol=0)

    def test_matches_single_points(self):
        # every grid pair plus (4, 1.2) in one best_norms call against one
        # best_norm per pair on a fresh copy: same routes, values within
        # 1e-12 relative and never lower by more, witnesses that certify them
        for arr in _stacked_samples():
            field = "complex" if np.iscomplexobj(arr) else "real"
            one, many = MatrixValue(arr, field), MatrixValue(arr, field)
            stacked = best_norms(many, self.PAIRS)
            for (p, q), got in zip(self.PAIRS, stacked):
                want = best_norm(one, p, q)
                assert got.certainty is want.certainty, (p, q)
                if want.certainty.is_exact:
                    assert got.value == want.value and np.array_equal(got.witness, want.witness)
                    continue
                assert abs(got.value - want.value) <= 1e-12 * want.value, (arr.shape, p, q)
                ratio = norm_ratio(many, got.witness, p, q)
                assert math.isclose(ratio, got.value, rel_tol=1e-9), (arr.shape, p, q)

    def test_single_point_frozen(self):
        import hashlib

        for name, M in _frozen_matrices():
            for (label, p, q), (value, digest) in FROZEN_SINGLE_POINT.items():
                if label != name:
                    continue
                res = best_norm(M, p, q)
                assert res.value == float.fromhex(value), (name, p, q)
                got = hashlib.sha256(np.ascontiguousarray(res.witness).tobytes()).hexdigest()
                assert got[:16] == digest, (name, p, q)

    def test_fills_best_norm_memo(self):
        M = rand_matrix(1430, 5, 4, complex_=True)
        results = best_norms(M, self.PAIRS + self.PAIRS[:3], seed=3)
        assert len(results) == len(self.PAIRS) + 3
        for (p, q), res in zip(self.PAIRS, results):
            assert M._memo[(as_index(p), as_index(q), 3, None, None)] is res
            assert best_norm(M, p, q, seed=3) is res
            assert not res.witness.flags.writeable

    def test_chunks_within_element_cap(self, monkeypatch):
        import pqnorm.induced_norms as mod

        shapes = []

        def recording(arr, p, q, X0, *args):
            shapes.append((arr.shape, X0.shape, not isinstance(p, mod.ExtIndex)))
            return _ascent(arr, p, q, X0, *args)

        monkeypatch.setattr(mod, "_ascent", recording)
        for n, m in [(32, 32), (20, 12), (3, 3)]:
            best_norms(rand_matrix(1440 + n, n, m, complex_=True), self.PAIRS)
        assert any(stacked for _, _, stacked in shapes)
        for (n, m), (_, cols), stacked in shapes:
            if stacked:
                assert max(n, m) * cols <= STACK


def _sign_block(start, stop, m):
    """The sign vectors (first entry +1) indexed start..stop-1; bit b of the
    index sets the sign of entry b + 1."""
    idx = np.arange(start, stop)
    bits = (idx[None, :] >> np.arange(m - 1)[:, None]) & 1
    return np.vstack([np.ones((1, idx.size)), 1.0 - 2.0 * bits])


def _blockwise_infty_one(arr):
    """Real (inf, 1) by enumerating one block of materialised sign vectors
    at a time: the reference for the incremental enumeration."""
    m = arr.shape[1]
    best, best_x = -math.inf, None
    total = 1 << (m - 1)
    for start in range(0, total, BLOCK):
        X = _sign_block(start, min(start + BLOCK, total), m)
        vals = np.abs(arr @ X).sum(axis=0)
        j = int(vals.argmax())
        if vals[j] > best:
            best, best_x = float(vals[j]), X[:, j].copy()
    return best, best_x


class TestSignEnumeration:
    SIZES = [2, 8, 15, 16, 17, 20]

    def test_sign_cols_order(self):
        for m in (1, 2, 5, 17):
            total = 1 << (m - 1)
            assert np.array_equal(_sign_cols(np.arange(total), m), _sign_block(0, total, m))
        want = np.hstack([_sign_block(70000, 70001, 18), _sign_block(3, 4, 18)])
        assert np.array_equal(_sign_cols([70000, 3], 18), want)
        assert np.array_equal(_sign_cols(70000, 18), want[:, 0])

    def test_images_match_materialised_blocks(self):
        # one block is formed directly; past it the shared low-bit image
        # plus each block's high-sign image agrees to a few ulps per entry
        for m in self.SIZES:
            Bm = np.random.default_rng(m).standard_normal((3, m))
            scale = 8 * np.finfo(float).eps * np.abs(Bm).sum(axis=1)[:, None]
            start = 0
            for Y, cols in _sign_images(Bm):
                X = _sign_block(start, start + Y.shape[1], m)
                if m <= 15:
                    assert np.array_equal(Y, Bm @ X)
                assert np.all(np.abs(Y - Bm @ X) <= scale), m
                js = np.array([0, Y.shape[1] // 2, Y.shape[1] - 1])
                assert np.array_equal(cols(js), X[:, js])
                assert np.array_equal(cols(1), X[:, 1])
                start += Y.shape[1]
            assert start == 1 << (m - 1)

    def test_norm_matches_blockwise_reference(self):
        for m in self.SIZES:
            A = rand_matrix(1200 + m, 3, m).entries
            want, want_x = _blockwise_infty_one(A)
            res = norm_infty_one_exact(A)
            assert np.array_equal(res.witness, want_x), m
            assert abs(res.value - want) <= 4 * np.spacing(want), m

    def test_top8_matches_stable_argsort(self):
        # many exact ties, and sizes at and below 8
        r = np.random.default_rng(7)
        for size in (1, 2, 7, 8, 9, 64, 65, 300, BLOCK + 8):
            for hi in (1, 3, 50):
                vals = r.integers(0, hi, size).astype(float)
                assert np.array_equal(_top8(vals), np.argsort(-vals, kind="stable")[:8])
