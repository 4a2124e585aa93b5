"""Induced norms: SVD, closed forms, exact enumeration, estimator, oracle.

Frozen values below are either hand-derived (derivation in the comment) or
cross-checked against the independent sampling oracle norm_bruteforce,
which explores the unit sphere directly and does not share the closed-form
code paths.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqnorm import (
    Certainty,
    DimensionError,
    MatrixValue,
    as_index,
    as_matrix,
    best_norm,
    bracket_norm,
    conjugate,
    gen_dft,
    gen_hadamard,
    gen_svd_extremal,
    maximizer_set_probe,
    norm_bruteforce,
    norm_closed_form,
    norm_estimate,
    norm_infty_one_exact,
    norm_ratio,
    norm_upper_bound,
    svd,
    vector_norm,
)
from pqnorm.bounds import _inf_one_certificate
from pqnorm.induced_norms import (
    BLOCK,
    STACK,
    _TINY,
    _ascent,
    _ascent_map,
    _lattice_side,
    _ldexp,
    _normalize_cols,
    _peak_free_map,
    _phase,
    _phase_block,
    _pow2_normalized,
    _sign_cols,
    _sign_images,
    _start_block,
    _top,
    _unit_start_block,
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

    def test_entries_are_a_private_copy(self):
        # one copy in the field's dtype, whatever the input's dtype, and
        # never the caller's array, which stays writeable
        for arr, field, dtype in [
            (np.eye(2), "real", np.float64),
            (np.eye(2, dtype=np.int64), "real", np.float64),
            (np.eye(2) * (1 + 0j), "real", np.float64),
            (np.eye(2), "complex", np.complex128),
            (np.eye(2) * (1 + 1j), "complex", np.complex128),
        ]:
            M = MatrixValue(arr, field)
            assert M.entries.dtype == dtype and not np.shares_memory(M.entries, arr)
            assert arr.flags.writeable and np.array_equal(M.entries, arr)

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

    def test_exact_under_pow2_scaling(self):
        # LAPACK rescales a matrix whose entries all lie below 2^-458 or
        # above 2^458 by a factor of its own; the SVD runs on A / 2^e, so
        # 2^k A has the same factors and exactly 2^k times the values
        for complex_ in (False, True):
            M = rand_matrix(12, 4, 3, complex_=complex_)
            f = svd(M)
            for k in (-1000, -669, 669, 1000):
                g = svd(as_matrix(_ldexp(M.entries, k), M.field))
                assert np.array_equal(g.s, np.ldexp(f.s, k)), (complex_, k)
                assert np.array_equal(g.u, f.u) and np.array_equal(g.v, f.v), (complex_, k)


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

    def test_subnormal_row_witness(self):
        # the q = inf witness is formed on the row / 2^e, so entries below
        # 2^-1024, whose reciprocal modulus overflows, still get a phase;
        # subnormal values carry about 16 bits, hence the loose match
        M = as_matrix(np.array([[1 + 1j, 2 - 1j], [0.5j, 1]]) * 2.0**-1060)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in ("inf", 2):
                res = best_norm(M, p, "inf")
                assert np.isfinite(res.witness).all(), p
                got = norm_ratio(M, res.witness, p, "inf")
                assert math.isclose(got, res.value, rel_tol=1e-4), p
            assert norm_upper_bound(M, 1.5, 3) > 0.0

    def test_subnormal_entry_next_to_a_normal_one(self):
        # the row / 2^e leaves a subnormal entry subnormal when the row also
        # holds a normal one; its phase is still finite, so every witness
        # certifies the value
        M = as_matrix(np.array([[1, 3e-310 + 3e-310j]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in ("inf", 3, 1.5):
                res = best_norm(M, p, "inf")
                assert np.isfinite(res.witness).all(), p
                got = norm_ratio(M, res.witness, p, "inf")
                assert math.isclose(got, res.value, rel_tol=1e-12), p

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_row_and_one_column(self, field):
        # ||a x||_q = |a x| for a row a, so ||a||_{p,q} = ||a||_{p*} for every
        # q; ||c x||_q = |x| ||c||_q for a column c, so ||c||_{p,q} = ||c||_q
        r = np.random.default_rng(5)
        a = r.standard_normal(20) + (1j * r.standard_normal(20) if field == "complex" else 0.0)
        for A in (a[None, :], a[:, None]):
            M = as_matrix(A, field)
            res = best_norm(M, "inf", 1)
            assert res.certainty is Certainty.CLOSED_FORM, A.shape
            assert math.isclose(res.value, np.abs(a).sum(), rel_tol=1e-12), A.shape
            res = best_norm(M, 1.5, 3)
            assert res.certainty.is_exact, A.shape
            assert math.isclose(res.value, vector_norm(a, 3), rel_tol=1e-12), A.shape
            assert math.isclose(norm_ratio(M, res.witness, 1.5, 3), res.value, rel_tol=1e-12)


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
        # maximizer (1, i): ||A(1,i)||_1 = |1+i| + |-1+i| = 2*sqrt(2); the
        # complex field has no sign enumeration, and the ascent's witness
        # certifies its own value, so the bracket closes
        M = as_matrix(B, field="complex")
        with pytest.raises(ValueError):
            norm_infty_one_exact(M)
        br = bracket_norm(M, "inf", 1)
        assert br.result.certainty is Certainty.ESTIMATE
        assert math.isclose(br.lower, 2.0 * math.sqrt(2.0), rel_tol=1e-12)
        assert br.upper <= br.lower * (1.0 + 1e-12)

    def test_witness_reproduces_value(self):
        # the real enumeration and the complex ascent alike
        for i in range(6):
            M = rand_matrix(300 + i, 3, 3, complex_=bool(i % 2))
            res = best_norm(M, "inf", 1)
            assert res.certainty is (Certainty.ESTIMATE if M.is_complex else Certainty.ENUMERATION)
            got = norm_ratio(M, res.witness, "inf", 1)
            assert math.isclose(got, res.value, rel_tol=1e-9)

    def test_dimension_cap(self):
        # the cap is checked before any sign vector is formed
        M = rand_matrix(1, 2, 25)
        with pytest.raises(DimensionError):
            norm_infty_one_exact(M)

    def test_phase_blocks_match_full_grid(self):
        # any block of the grid is the same columns of np.meshgrid's
        g, m = 8, 6
        phases = np.exp(2j * np.pi * np.arange(g) / g)
        mesh = np.meshgrid(*([phases] * (m - 1)), indexing="ij")
        full = np.vstack([np.ones(g ** (m - 1))] + [t.reshape(-1) for t in mesh])
        assert np.array_equal(_phase_block(0, full.shape[1], m, g), full)
        assert np.array_equal(_phase_block(20000, 20100, m, g), full[:, 20000:20100])

    RANDOM_SHAPES = [(2, 4), (8, 4), (3, 5), (8, 5), (6, 6), (8, 6), (4, 6)]

    @pytest.mark.parametrize(
        "A",
        [gen_dft(k) for k in (3, 5, 6)]
        + [rand_matrix(1500 + n * m, n, m, complex_=True) for n, m in RANDOM_SHAPES],
        ids=["dft3", "dft5", "dft6"] + [f"{n}x{m}" for n, m in RANDOM_SHAPES],
    )
    def test_eight_phases_match_sixteen(self, A):
        # DFT 3, 5 and 6 have phases off an 8-point grid; the ascent's value
        # matches a polished 16-phase grid over the smaller side (A or A*,
        # whichever has fewer columns) to 1e-10 relative, and the certified
        # upper end lies above both
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
        got = best_norm(M, "inf", 1).value
        assert abs(got - want) <= 1e-10 * want
        assert norm_upper_bound(M, "inf", 1) >= max(got, want)

    def test_adjoint_side(self):
        # ||A||_{inf,1} = ||A*||_{inf,1}: the ascent on A and on A* agree,
        # at every size; the unimodular witness reproduces the value, which
        # the certified upper end encloses
        for n, m in [(2, 6), (6, 8), (1, 5), (7, 9)]:
            M = rand_matrix(1520 + n, n, m, complex_=True)
            res = best_norm(M, "inf", 1)
            assert np.abs(np.abs(res.witness) - 1.0).max() <= 1e-12
            assert math.isclose(norm_ratio(M, res.witness, "inf", 1), res.value, rel_tol=1e-12)
            adj = best_norm(M.adjoint(), "inf", 1).value
            assert math.isclose(res.value, adj, rel_tol=1e-10)
            assert res.value <= norm_upper_bound(M, "inf", 1)

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
        a = norm_estimate(M, 1.7, 2.3, seed=4)
        b = norm_estimate(M, 1.7, 2.3, seed=4)
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


# The column helpers the ascent used before its step was fused into one
# pass, kept verbatim as the reference for its maps.


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


def _unit_starts(M, restarts, p):
    """The start block at seed 0, built afresh, scaled to unit p-norm, as
    _ascent takes them."""
    return _normalize_cols(_start_block.__wrapped__(M.m, M.field, restarts, 0), as_index(p))


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
                X0 = _unit_starts(M, 32 + m, p)
                want = _ascent_all_columns(M.entries, pi, qi, X0, 200, 1e-10)
                run = _ascent(M.entries, pi, qi, X0, 200, 1e-10)
                [(got, vec)], vals, X = run.best, run.vals, run.X
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
                for p, q in pairs:
                    pi, qi = as_index(p), as_index(q)
                    X0 = _unit_starts(as_matrix(arr), 37, p)
                    want = _ascent_all_columns(arr, pi, qi, X0, 200, 1e-10)
                    [(got, _)] = _ascent(arr, pi, qi, X0, 200, 1e-10).best
                    assert abs(got - want) <= 1e-8 * want, (i, p, q)

    def test_stop_reasons(self):
        # on a rank-one matrix one step reaches the fixed point, which the
        # third evaluation confirms; one iteration is max_iter; DFT 11 at
        # (3, 1.5) settles while columns still climb
        u = np.array([[1.0], [2.0], [-1.0]])
        M = as_matrix(u @ np.array([[1.0, -3.0, 0.5]]))
        X0 = _unit_starts(M, 35, 1.5)
        p, q = as_index(1.5), as_index(3)
        run = _ascent(M.entries, p, q, X0, 200, 1e-10)
        assert (run.iters, run.stop) == ([3], ["converged"])
        run = _ascent(M.entries, p, q, X0, 1, 1e-10)
        assert (run.iters, run.stop) == ([1], ["max_iter"])
        D = gen_dft(11)
        X0 = _unit_starts(D, 43, 3)
        run = _ascent(D.entries, as_index(3), as_index(1.5), X0, 200, 1e-10)
        assert run.stop == ["settled"] and run.iters[0] < 200
        full = _ascent(D.entries, as_index(3), as_index(1.5), X0, 200, 1e-10, settle=False)
        assert full.stop == ["max_iter"]

    def test_terminal_values_are_the_iterates_values(self):
        # each column's terminal value is the ratio of its terminal iterate,
        # also for the columns max_iter stops: DFT 11 at (3, 1.5) with the
        # probe's 300 iterations and tol 1e-12 leaves most of them live, and
        # short runs leave live columns in both fields, stacked or not
        D = gen_dft(11)
        X0 = _unit_starts(D, 37, 3)
        run = _ascent(D.entries, as_index(3), as_index(1.5), X0, 300, 1e-12, settle=False)
        assert run.stop == ["max_iter"]
        cases = [(D, 3, 1.5, run)]
        for i, (n, m) in enumerate([(5, 4), (7, 9)]):
            M = rand_matrix(1250 + i, n, m, complex_=bool(i % 2))
            k = _unit_starts(M, 32 + m, 1).shape[1]
            for max_iter in (1, 2, 5):
                for p, q in self.PAIRS:
                    X0 = _unit_starts(M, 32 + m, p)
                    run = _ascent(M.entries, as_index(p), as_index(q), X0, max_iter, 1e-12)
                    cases.append((M, p, q, run))
                ps, qs = np.repeat([1.5, 3.0], k), np.repeat([3.0, 1.5], k)
                X0 = np.hstack([_unit_starts(M, 32 + m, p) for p in (1.5, 3)])
                run = _ascent(M.entries, ps, qs, X0, max_iter, 1e-12, k)
                cases += [(M, 1.5, 3, run._replace(vals=run.vals[:k], X=run.X[:, :k]))]
                cases += [(M, 3, 1.5, run._replace(vals=run.vals[k:], X=run.X[:, k:]))]
        for M, p, q, run in cases:
            for j, val in enumerate(run.vals):
                got = norm_ratio(M, run.X[:, j], p, q)
                assert math.isclose(got, val, rel_tol=1e-12), (M.entries.shape, p, q, j)

    def test_settling_truncates_the_run(self):
        # a settled block reports exactly what the run without the rule has
        # seen by the same iteration; per block when points are stacked
        for i, (n, m) in enumerate([(8, 8), (6, 3), (16, 16)]):
            M = rand_matrix(1200 + i, n, m, complex_=bool(i % 2))
            for p, q in self.PAIRS:
                pi, qi = as_index(p), as_index(q)
                X0 = _unit_starts(M, 32 + m, p)
                run = _ascent(M.entries, pi, qi, X0, 200, 1e-10)
                cut = _ascent(M.entries, pi, qi, X0, run.iters[0], 1e-10, settle=False)
                assert run.best[0][0] == cut.best[0][0], (i, p, q)
                assert np.array_equal(run.best[0][1], cut.best[0][1])
            k = X0.shape[1]
            ps = np.repeat([1.5, 3.0, 4.0], k)
            qs = np.repeat([3.0, 1.5, 1.2], k)
            X0 = np.hstack([_unit_starts(M, 32 + m, p) for p in (1.5, 3, 4)])
            run = _ascent(M.entries, ps, qs, X0, 200, 1e-10, k)
            assert len(run.iters) == len(run.stop) == 3
            for b, (p, q) in enumerate([(1.5, 3), (3, 1.5), (4, 1.2)]):
                X0 = _unit_starts(M, 32 + m, p)
                one = _ascent(M.entries, as_index(p), as_index(q), X0, 200, 1e-10)
                assert abs(run.best[b][0] - one.best[0][0]) <= 1e-12 * one.best[0][0]
                assert run.stop[b] in ("converged", "settled", "max_iter")


class TestStartBlock:
    def test_matches_default_starts(self):
        # built once per (m, field, restarts, seed), read-only, and the same
        # bytes as a fresh, uncached build for that column count and field
        for i, (n, m, complex_, restarts, seed) in enumerate(
            [(4, 4, False, 36, 0), (5, 4, True, 36, 0), (3, 7, True, 40, 5), (2, 1, False, 33, 2)]
        ):
            M = rand_matrix(1600 + i, n, m, complex_=complex_)
            X0 = _start_block(m, M.field, restarts, seed)
            want = _start_block.__wrapped__(m, M.field, restarts, seed)
            assert X0.dtype == want.dtype and X0.shape == want.shape
            assert X0.tobytes() == want.tobytes()
            assert not X0.flags.writeable
            assert _start_block(m, M.field, restarts, seed) is X0
        assert _start_block.cache_info().maxsize is not None

    def test_unit_block_is_the_normalized_block(self):
        # the starts every ascent takes: the start block scaled to unit
        # p-norm, bit for bit, built once per (m, field, restarts, seed, p)
        # and read-only
        for m, field, restarts, seed in [(4, "real", 36, 0), (4, "complex", 36, 0), (7, "complex", 40, 5)]:
            for p in (1.5, 2, 3, "inf"):
                pi = as_index(p)
                X0 = _unit_start_block(m, field, restarts, seed, pi)
                want = _normalize_cols(_start_block(m, field, restarts, seed), pi)
                assert X0.dtype == want.dtype and X0.tobytes() == want.tobytes()
                assert not X0.flags.writeable
                assert _unit_start_block(m, field, restarts, seed, pi) is X0
        assert _unit_start_block.cache_info().maxsize is not None


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

    def test_generic_complex_single_maximizer(self):
        # a generic complex 8x4 has one (2,2) maximizer up to phase; the
        # probe reads every column's terminal iterate, so columns frozen
        # before they converge would count as further "distinct" maximizers
        for seed in range(4):
            assert len(maximizer_set_probe(rand_matrix(seed, 8, 4, complex_=True), 2, 2)) == 1

    PROBE_PAIRS = [(2, 2), (1.5, 3), (3, 1.5), ("inf", 1), (3, 3)]
    PROBE_COUNTS = {
        "dft2": [6, 4, 2, 2, 2],
        "dft4": [6, 6, 6, 6, 4],
        "dft8": [6, 6, 6, 6, 6],
        "had2": [6, 4, 4, 3, 2],
        "had4": [6, 6, 4, 3, 4],
        "had8": [6, 6, 6, 6, 6],
    }

    def test_dft_hadamard_counts(self):
        for name, want in self.PROBE_COUNTS.items():
            k = int(name[3:])
            M = gen_dft(k) if name.startswith("dft") else gen_hadamard(k)
            got = [len(maximizer_set_probe(M, p, q)) for p, q in self.PROBE_PAIRS]
            assert got == want, name


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
    st.integers(1, 8),
    st.integers(1, 8),
    st.booleans(),
    st.sampled_from([-1000, -669, 0, 669, 1000]),
)
@settings(max_examples=30, deadline=None)
def test_inf_one_upper_end(seed, n, m, complex_, k):
    # the certificate, rounded upward, lies above best_norm and the sampling
    # oracle in both fields (for a real matrix, above the complex-field value
    # too), and so does the certified upper end up to the rounding of its
    # exact anchors; both scale exactly by 2^k
    M = rand_matrix(seed, n, m, complex_=complex_)
    scaled = as_matrix(_ldexp(M.entries, k), M.field)
    res = best_norm(M, "inf", 1)
    upper, cert = norm_upper_bound(M, "inf", 1), _inf_one_certificate(M, res.witness)
    lower = max(res.value, norm_bruteforce(M, "inf", 1, budget=500).value)
    assert cert >= lower and upper >= lower * (1.0 - 1e-12)
    if not complex_:
        assert cert >= best_norm(as_matrix(M.entries, "complex"), "inf", 1).value
    assert norm_upper_bound(scaled, "inf", 1) == math.ldexp(upper, k)
    assert _inf_one_certificate(scaled, res.witness) == math.ldexp(cert, k)
    br = bracket_norm(scaled, "inf", 1)
    assert br.lower == math.ldexp(res.value, k) and br.lower <= br.upper


SETTLE_PAIRS = [
    (p, q) for p in (1.5, 2, 3, "inf") for q in (1, 1.5, 2, 3) if (p, q) not in [(2, 2), ("inf", 1)]
]


@given(
    st.integers(0, 10_000),
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
    st.integers(-1000, 1000),
)
@settings(max_examples=25, deadline=None)
def test_settled_estimates_against_full_run(seed, n, m, complex_, k):
    # best_norms' settled ascent against one run per point without the
    # rule: at most 1e-9 below it, below the certified upper bound (up to
    # the 1e-12 rounding slack bracket_norm allows), and exactly 2^k times
    # the value on 2^k A
    M = rand_matrix(seed, n, m, complex_=complex_)
    got = best_norms(M, SETTLE_PAIRS)
    scaled = best_norms(as_matrix(_ldexp(M.entries, k), M.field), SETTLE_PAIRS)
    for (p, q), res, big in zip(SETTLE_PAIRS, got, scaled):
        X0 = _unit_starts(M, 32 + m, p)
        [(full, _)] = _ascent(M.entries, as_index(p), as_index(q), X0, 200, 1e-10, settle=False).best
        assert res.value >= (1.0 - 1e-9) * full, (p, q)
        assert res.value <= norm_upper_bound(M, p, q) * (1.0 + 1e-12), (p, q)
        assert big.value == math.ldexp(res.value, k), (p, q)


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
    def test_phase_matches_masked_form(self):
        # the product w * (1 / |w|) against the masked division: bit for bit
        # on the samples (zero entries, 2^(+-1000)); on entries whose two
        # parts lie up to 2^2000 apart the values still agree, but a part
        # that underflows to zero may take the other sign of zero
        for W in _dual_step_samples():
            assert _phase(W).tobytes() == _phase_masked(W).tobytes()
        r = np.random.default_rng(11)
        parts = [np.ldexp(r.standard_normal((6, 40)), r.integers(-1000, 1000, (6, 40))) for _ in "ri"]
        spread = parts[0] + 1j * parts[1]
        assert np.array_equal(_phase(spread), _phase_masked(spread))

    def test_subnormal_moduli_keep_a_phase(self):
        # 1 / |w| overflows at a subnormal |w|: such entries get their phase
        # from w 2^54, every other entry keeps the masked form's bits, and
        # the phase and top-entry maps built on it stay finite
        W = np.array([[3e-310 + 3e-310j, 0.0, 1e-320j], [1.0 - 2.0j, 4e-310, 0.0]])
        want = _phase_masked(_ldexp(W, 54))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _phase(W)
            maps = [_ascent_map(as_index(t), True, dual)(W) for t in (1, "inf") for dual in (0, 1)]
        assert np.array_equal(got, want)
        assert np.array_equal(got[1, :1], _phase_masked(W[1, :1]))
        for phi, norms in maps:
            assert np.isfinite(phi).all() and np.isfinite(norms).all()

    def test_matches_old_helpers(self):
        # the phase and top-entry maps (t = 1 and inf) are bit-identical to
        # the old helpers; the two norms agree to rounding (the peak-free
        # map at every other t is checked in TestPeakFreeMap)
        for W in _dual_step_samples():
            for t in (1, "inf"):
                ti = as_index(t)
                phi, norms = _ascent_map(ti, np.iscomplexobj(W))(W)
                phi_d, dual = _ascent_map(ti, np.iscomplexobj(W), dual=True)(W)
                assert np.array_equal(phi_d, phi), t
                ref = _phi_cols(W, ti)
                assert np.array_equal(phi, ref), t
                np.testing.assert_allclose(norms, _lp_cols(W, ti), rtol=1e-14, atol=0)
                np.testing.assert_allclose(
                    dual, _lp_cols(ref, conjugate(ti)), rtol=1e-14, atol=0
                )


def _map_samples():
    """_dual_step_samples scaled into the ascent's range (largest modulus in
    [1/2, 1)), the same shapes without zero entries, and with one column
    whose squares underflow."""
    r = np.random.default_rng(2025)
    for W in _dual_step_samples():
        if W.any():
            W = _pow2_normalized(W)[0]
        yield W
        full = _pow2_normalized(W + r.uniform(0.5, 1.0, W.shape) * (W == 0))[0]
        yield full
        full[:, 3] = _ldexp(full[:, 3], -520)
        yield full


def _assert_positive_multiple(phi, norms, W, dual, t, rtol):
    """phi is a positive multiple of the old helpers' duality map of W per
    column, zero on zero columns; the forward norms are the t-norms of W,
    the backward ones the t*-norms of phi itself."""
    ti = as_index(t)
    ref = _phi_cols(W, ti)
    live = np.abs(ref).max(axis=0) > 0
    assert not phi[:, ~live].any()
    c = np.linalg.norm(phi[:, live], axis=0) / np.linalg.norm(ref[:, live], axis=0)
    assert np.all(c > 0)
    np.testing.assert_allclose(phi[:, live], ref[:, live] * c, rtol=rtol, atol=0)
    want = _lp_cols(phi, conjugate(ti)) if dual else _lp_cols(W, ti)
    np.testing.assert_allclose(norms, want, rtol=rtol, atol=0)


class _RescaleCount:
    """Counts the calls of _by_peaks while installed: the peak-scaled passes
    of the peak-free map."""

    def __init__(self, monkeypatch):
        import pqnorm.induced_norms as mod

        self.calls = 0
        by_peaks = mod._by_peaks

        def counted(W):
            self.calls += 1
            return by_peaks(W)

        monkeypatch.setattr(mod, "_by_peaks", counted)


class TestLinearMap:
    def test_positive_multiple_of_the_map(self):
        # the peak-free map at t = 2: W itself (the duality map times its
        # column peaks) where no column sum of squares underflows; the
        # forward norms are the 2-norms of W, the backward ones the 2-norms
        # of the map returned, which the ascent divides it by
        for W in _map_samples():
            for dual in (False, True):
                phi, norms = _peak_free_map(2.0, np.iscomplexobj(W), dual)(W)
                _assert_positive_multiple(phi, norms, W, dual, 2, 1e-14)

    def test_inputs_stay_in_range(self, monkeypatch):
        # no peak is taken because the ascent feeds the map |W| < m forward
        # and |Z| < n max(1, m^(q-1)) backward at any scale of A, so the
        # column sums stay finite except at extreme exponents: there the
        # step runs once more on peak-scaled input (q = 64 then p* = 101
        # overflows), and no inf or NaN comes out of any step; values scale
        # exactly by 2^k
        import pqnorm.induced_norms as mod

        rescales = _RescaleCount(monkeypatch)
        seen = []
        peak_free = mod._peak_free_map

        def spy(t, cplx, dual):
            step = peak_free(t, cplx, dual)

            def recorded(W):
                calls = rescales.calls
                phi, norms = step(W)
                finite = np.isfinite(phi).all() and np.isfinite(norms).all()
                seen.append((dual, float(np.abs(W).max()), rescales.calls > calls, finite))
                return phi, norms

            return recorded

        monkeypatch.setattr(mod, "_peak_free_map", spy)
        exponents = (1.01, 1.5, 2, 3, 64)
        pairs = [(p, q) for p in exponents for q in exponents if (p, q) != (2, 2)]
        pairs += [("inf", 2), (2, 1)]  # one half-step on the phase or top-entry map
        for i, (n, m) in enumerate([(4, 4), (5, 3), (3, 7), (8, 8)]):
            A = rand_matrix(1700 + i, n, m, complex_=bool(i % 2)).entries
            for p, q in pairs:
                cap = n * max(1.0, m ** (q - 1.0))
                values = []
                for k in (-1000, 0, 1000):
                    seen.clear()
                    values.append(best_norm(as_matrix(_ldexp(A, k)), p, q).value)
                    assert seen and all(ok for *_, ok in seen), (n, m, p, q, k)
                    assert all(top < (cap if dual else m) for dual, top, *_ in seen)
                    if (p, q) == (1.01, 64):
                        assert any(rescaled for _, _, rescaled, _ in seen)
                assert values[0] == math.ldexp(values[1], -1000)
                assert values[2] == math.ldexp(values[1], 1000)


class TestPeakFreeMap:
    EXPONENTS = (1.01, 1.2, 1.5, 3, 4, 64)

    def test_positive_multiple_of_the_map(self):
        # at every finite t > 1 the map is a positive multiple of the old
        # helpers' per column, also with complex zero entries at t < 2 and
        # on the column whose sums underflow, which takes a peak-scaled pass
        for W in _map_samples():
            for t in self.EXPONENTS:
                for dual in (False, True):
                    phi, norms = _peak_free_map(float(t), np.iscomplexobj(W), dual)(W)
                    _assert_positive_multiple(phi, norms, W, dual, t, 1e-13)

    def test_per_column_exponents(self):
        # one exponent per column, t = 1 columns and zero entries included:
        # column by column a positive multiple of the one-exponent map, with
        # its norms; a t = 1 column's dual norm is 1, and 0 once it is zero
        ts = np.array([1.0, 1.5, 2.0, 3.0, 1.0, 1.2])
        for W in _map_samples():
            for dual in (False, True):
                phi, norms = _peak_free_map(ts, np.iscomplexobj(W), dual)(W)
                for j, t in enumerate(ts):
                    _assert_positive_multiple(phi[:, [j]], norms[[j]], W[:, [j]], dual, t, 1e-13)

    def test_scales_past_the_range_fall_back(self, monkeypatch):
        # called on W at 2^(+-1000), past the range the ascent feeds it,
        # every exponent's column sums leave (_TINY, 1/_TINY) (at t = 64
        # they underflow to 0 or overflow to inf): the map takes exactly one
        # peak-scaled pass (none at 2^0), and still returns a positive
        # multiple of the map with no inf or NaN
        rescales = _RescaleCount(monkeypatch)
        r = np.random.default_rng(2026)
        for cplx in (False, True):
            W = r.standard_normal((5, 6)) + (1j * r.standard_normal((5, 6)) if cplx else 0.0)
            for k in (-1000, 0, 1000):
                S = _ldexp(W, k)
                for t in (1.01, 1.5, 3, 64):
                    for dual in (False, True):
                        calls = rescales.calls
                        with np.errstate(over="ignore"):  # as the ascent calls it
                            phi, norms = _peak_free_map(float(t), cplx, dual)(S)
                        assert np.isfinite(phi).all() and np.isfinite(norms).all()
                        assert rescales.calls - calls == (k != 0), (cplx, k, t)
                        _assert_positive_multiple(phi, norms, S, dual, t, 1e-13)

    def test_zero_column_takes_no_fallback(self, monkeypatch):
        # a zero column of A leaves a dead column in W (and a zero row, a
        # zero entry in every column of A* U): exact zero sums are dead
        # columns, so no step of the real 4 x 5 Gaussian with A[:, 1] = 0
        # takes a peak-scaled pass at (2, 1.5)
        rescales = _RescaleCount(monkeypatch)
        A = rand_matrix(1100, 4, 5).entries.copy()
        A[:, 1] = 0.0
        res = best_norm(A, 2, 1.5)
        assert rescales.calls == 0
        X0 = _unit_starts(as_matrix(A), 37, 2)
        want = _ascent_all_columns(A, as_index(2), as_index(1.5), X0, 200, 1e-10)
        assert abs(res.value - want) <= 1e-8 * want

    def test_integer_complex_inputs_take_no_rescale(self, monkeypatch):
        # exact zero entries, which the coordinate and all-ones starts meet
        # on every step of integer-structured complex matrices, give phi = 0
        # there within the peak-free form: no step takes a peak-scaled pass
        rescales = _RescaleCount(monkeypatch)
        for A in (B, gen_hadamard(8).entries):
            res = best_norm(as_matrix(A, "complex"), 3, 1.5)
            assert res.certainty is Certainty.ESTIMATE
        assert rescales.calls == 0

    def test_subnormal_moduli(self):
        # at complex t < 2, |w|^(t-2) overflows at a subnormal |w|: such a
        # step forms phi as phase(w) |w|^(t-1), a positive multiple of the
        # map (phases taken on W 2^54), and whole ascents stay finite
        W = _pow2_normalized(rand_matrix(1800, 4, 3, complex_=True).entries)[0]
        W[0, 0], W[1, 1], W[2, 2] = 3e-310 + 3e-310j, 0.0, 1e-320j
        ts = np.array([1.0, 1.5, 1.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1.01, 1.5, ts):
                for dual in (False, True):
                    phi, norms = _peak_free_map(t, True, dual)(W)
                    for j, tj in enumerate(np.broadcast_to(t, 3)):
                        ref = _phase_masked(_ldexp(W[:, j], 54)) * np.abs(W[:, j]) ** (tj - 1.0)
                        c = np.linalg.norm(phi[:, j]) / np.linalg.norm(ref)
                        np.testing.assert_allclose(phi[:, j], c * ref, rtol=1e-13, atol=0)
                        ti = as_index(tj)
                        want = _lp_cols(phi[:, [j]], conjugate(ti)) if dual else _lp_cols(W[:, [j]], ti)
                        np.testing.assert_allclose(norms[j], want[0], rtol=1e-13, atol=0)
            M = as_matrix(W, "complex")
            pairs = [(p, q) for p in GRID for q in GRID] + [(4, 1.2), (1.01, 64), (64, 1.01)]
            for one, many in zip([best_norm(M, p, q) for p, q in pairs], best_norms(M, pairs)):
                assert np.isfinite([one.value, many.value]).all()
                assert np.isfinite(one.witness).all() and np.isfinite(many.witness).all()


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
# per-column exponents; the samples are those of _frozen_matrices.  The
# complex entries were frozen again when the kernel began to freeze columns
# in place and to form the complex duality map with one product: both move
# low bits only (values by at most 3.4e-16 relative).  The (inf, 2) and
# (2, 1) entries were frozen again when the ascent's half-steps at exponent
# 2 became the linear map (W unscaled, 2-norm by one vecdot): values moved
# by at most 2.1e-16 relative, witnesses in low bits.  Half-steps at
# exponents other than 1, 2 and inf then took the peak-free map (phi =
# W |W|^(t-2), no per-column peak), and the entries that moved were frozen
# again: values by at most 5.9e-16 relative, witnesses in low bits
FROZEN_SINGLE_POINT = {
    ("r4x4", 1.5, 3): ("0x1.834692bee60ebp+1", "f85227442062b793"),
    ("r4x4", 3, 1.5): ("0x1.7c8130e75ba8dp+2", "afe91c84ffa0e91f"),
    ("r4x4", 4, 1.2): ("0x1.ff46820b6f9e4p+2", "637e3e1c3dd33158"),
    ("r4x4", "inf", 2): ("0x1.d6d4f4a830e88p+2", "76a449f8269ad0c3"),
    ("r4x4", 2, 1): ("0x1.d9ed408da1386p+2", "f639a5856b322578"),
    ("r4x4", "inf", 1.5): ("0x1.1ca23512d0a36p+3", "76a449f8269ad0c3"),
    ("r4x4", 1.5, 1.5): ("0x1.100abb9ee83fcp+2", "e5c3854b45d35a6c"),
    ("c5x3", 1.5, 3): ("0x1.09fb48dc3b9c1p+2", "3b2a48c99377fd47"),
    ("c5x3", 3, 1.5): ("0x1.178b27ccc458ep+3", "c1226da703f8d31b"),
    ("c5x3", 4, 1.2): ("0x1.88d1d16f5dc49p+3", "8afea0c94a0a5710"),
    ("c5x3", "inf", 2): ("0x1.353ab03402934p+3", "209658a3c8603d9c"),
    ("c5x3", 2, 1): ("0x1.8c68a0f5f10fcp+3", "90b7ce3057a4370c"),
    ("c5x3", "inf", 1.5): ("0x1.8c475d24e0032p+3", "1be64ed55712e77b"),
    ("c5x3", 1.5, 1.5): ("0x1.9f4add2c15026p+2", "527190dbd6d9b107"),
    ("r3x6", 1.5, 3): ("0x1.3a7cd6310dccap+1", "9c2405dff507f67a"),
    ("r3x6", 3, 1.5): ("0x1.2f24b197c3572p+2", "e853adf313ba3eb2"),
    ("r3x6", 4, 1.2): ("0x1.97722f68520c9p+2", "3a0745e0e02bed26"),
    ("r3x6", "inf", 2): ("0x1.c0924c19e068ap+2", "436979213dbbbdb1"),
    ("r3x6", 2, 1): ("0x1.4883a8ab5f828p+2", "30092824304117fa"),
    ("r3x6", "inf", 1.5): ("0x1.0599ba7bddc87p+3", "436979213dbbbdb1"),
    ("r3x6", 1.5, 1.5): ("0x1.7dd1af262e965p+1", "3f12d242b5e92397"),
    ("c8x8", 1.5, 3): ("0x1.223ce8c263f02p+2", "044533fd04854742"),
    ("c8x8", 3, 1.5): ("0x1.a8800516248cdp+3", "3d8574eace17435c"),
    ("c8x8", 4, 1.2): ("0x1.5ace5c94c0551p+4", "83e945adae375a63"),
    ("c8x8", "inf", 2): ("0x1.2a82af0bc91a8p+4", "57765391229c178b"),
    ("c8x8", 2, 1): ("0x1.38babd9a1de3dp+4", "6ec3fad8c2f775dc"),
    ("c8x8", "inf", 1.5): ("0x1.96227e8d57b62p+4", "a4c4d69d65711593"),
    ("c8x8", 1.5, 1.5): ("0x1.fcc8bd1f011f1p+2", "fd2893add4507466"),
    ("c8x8", "inf", 1): ("0x1.8a89969abb132p+5", "2646679626689555"),
    ("r12x10", 1.5, 3): ("0x1.fadf1b1ae5b22p+1", "b936a5863f34ab82"),
    ("r12x10", 3, 1.5): ("0x1.8dda22e23f81ap+3", "5ba7fe978a799d10"),
    ("r12x10", 4, 1.2): ("0x1.563699588b7a5p+4", "621b92e78e2f3328"),
    ("r12x10", "inf", 2): ("0x1.182165059f903p+4", "2f4b693cbb42a713"),
    ("r12x10", 2, 1): ("0x1.3f16451cce0e7p+4", "88333e409eb95805"),
    ("r12x10", "inf", 1.5): ("0x1.8fbcfd798b382p+4", "2f4b693cbb42a713"),
    ("r12x10", 1.5, 1.5): ("0x1.c84f1cf9a0ebdp+2", "a3be5c5a76f51e85"),
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
            assert M._memo[(as_index(p), as_index(q), 3, None)] is res
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

    def test_images_by_doubling_bit_for_bit(self):
        # the doubled images against per-block matrix products: the first
        # min(m, 15) entries' product (two blocks' worth of low signs) plus
        # the image of the entries past them; products with two or more rows
        # sum each column in entry order, so the two agree bit for bit
        lead = BLOCK.bit_length() + 1
        for m in (1, 2, 13, 14, 15, 20):
            for n in (2, 17):
                Bm = np.random.default_rng(100 * m + n).standard_normal((n, m))
                k = min(m, lead)
                start = 0
                for Y, cols in _sign_images(Bm):
                    idx = np.arange(start, start + Y.shape[1])
                    high = Bm[:, k:] @ _sign_cols(start, m)[k:]
                    want = Bm[:, :k] @ _sign_cols(idx % (1 << (k - 1)), k) + high[:, None]
                    assert np.array_equal(Y, want), (m, n, start)
                    js = np.array([0, Y.shape[1] // 3, Y.shape[1] - 1])
                    assert np.array_equal(cols(js), _sign_cols(idx[js], m))
                    start += Y.shape[1]
                assert start == 1 << (m - 1)

    def test_norm_matches_blockwise_reference(self):
        for m in self.SIZES:
            A = rand_matrix(1200 + m, 3, m).entries
            want, want_x = _blockwise_infty_one(A)
            res = norm_infty_one_exact(A)
            assert np.array_equal(res.witness, want_x), m
            assert abs(res.value - want) <= 4 * np.spacing(want), m

    def test_top_matches_stable_argsort(self):
        # many exact ties, and sizes at, below and above k
        r = np.random.default_rng(7)
        for k in (1, 8, 10):
            for size in (1, 2, 7, 8, 9, 10, 11, 64, 65, 300, BLOCK + 8):
                for hi in (1, 3, 50):
                    vals = r.integers(0, hi, size).astype(float)
                    want = np.argsort(-vals, kind="stable")[:k]
                    assert np.array_equal(_top(vals, k), want), (k, size, hi)
