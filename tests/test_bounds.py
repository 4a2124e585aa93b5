"""Dimension-factor bound, certification brackets, duality and monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqnorm import (
    EXACT_EQ_TOL,
    BoundReport,
    Certainty,
    NormResult,
    ClassId,
    NormBracket,
    as_index,
    as_matrix,
    best_norm,
    bound_factor,
    bracket_norm,
    check_class,
    check_inequality,
    conjugate,
    decide_equality,
    duality_check,
    gen_hadamard,
    gen_svd_extremal,
    inequality_grid_check,
    gen_tensor_product,
    monotonicity_check,
    monotonicity_check_in_s,
    norm_bruteforce,
    norm_closed_form,
    norm_ratio,
    norm_upper_bound,
    transfer_equality,
)
from pqnorm.bounds import _at_most, _inf_one_certificate, _tol
from pqnorm.induced_norms import _pow2_normalized, _scaled_back

from conftest import EDGE_IDS, EDGE_MATRICES, at_scale

B = np.array([[1.0, 1.0], [-1.0, 1.0]])
GRID = [1, 1.5, 2, 3, "inf"]


class TestBoundFactor:
    def test_hand_values(self):
        # factor = m^{max(1/p - 1/r, 0)} * n^{max(1/s - 1/q, 0)}
        assert bound_factor(2, 2, 2, 2, 4, 7) == 1.0
        assert bound_factor(2, 2, "inf", 2, 4, 7) == 2.0  # m^{1/2}
        assert bound_factor(2, 2, 2, 1, 4, 7) == 7.0 ** 0.5  # n^{1/2}
        assert bound_factor(1, "inf", "inf", 1, 3, 5) == 3.0 * 5.0
        assert math.isclose(
            bound_factor(1.5, 3, 3, 1.5, 8, 9),
            8.0 ** (2 / 3 - 1 / 3) * 9.0 ** (2 / 3 - 1 / 3),
            rel_tol=1e-12,
        )

    def test_one_sided(self):
        # shrinking the target domain exponent only, factor stays 1
        assert bound_factor("inf", 2, 2, 2, 6, 6) == 1.0
        assert bound_factor(2, 1, 2, 2, 6, 6) == 1.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            bound_factor(2, 2, 2, 2, 0, 3)


class TestNormUpperBound:
    def test_dominates_true_norm(self):
        for i in range(10):
            r = np.random.default_rng(900 + i)
            M = as_matrix(r.standard_normal((3, 3)))
            for p in GRID:
                for q in GRID:
                    ub = norm_upper_bound(M, p, q)
                    val = best_norm(M, p, q).value
                    assert ub >= val * (1.0 - 1e-12)

    def test_tight_on_closed_forms(self):
        M = as_matrix(np.diag([3.0, 1.0]))
        # p=1: column route is exact
        assert math.isclose(norm_upper_bound(M, 1, 2), 3.0, rel_tol=1e-12)
        # q=inf: row route is exact
        assert math.isclose(norm_upper_bound(M, 2, "inf"), 3.0, rel_tol=1e-12)

    def test_second_call_is_a_memo_hit(self, monkeypatch):
        import pqnorm.bounds as mod

        M = as_matrix(np.random.default_rng(910).standard_normal((6, 6)) * (1 + 1j))
        first = norm_upper_bound(M, 1.5, 3)

        def unused(*args):
            raise AssertionError("the bound was computed again")

        monkeypatch.setattr(mod, "_lp_cols", unused)
        monkeypatch.setattr(mod, "_scaled_sigma1", unused)
        assert norm_upper_bound(M, 1.5, 3) == first
        assert norm_upper_bound(as_matrix(M), "1.5", 3.0) == first


class TestInfOneCertificate:
    def test_closes_at_a_certified_maximum(self):
        # where K is positive semidefinite at the ascent's witness (the
        # semidefinite relaxation is exact there), the certificate is the
        # estimate up to the eigenvalue margin and the ascent's own shortfall
        r = np.random.default_rng(6)
        cases = [
            as_matrix(B, field="complex"),
            as_matrix(np.array([[1, 1], [1, -1j]])),
            as_matrix(r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4))),
        ]
        for M in cases:
            res = best_norm(M, "inf", 1)
            cert = _inf_one_certificate(M.entries, res.witness)
            assert res.value <= cert <= res.value * (1.0 + 1e-10)
            assert bracket_norm(M, "inf", 1).upper <= cert

    def test_real_past_the_enumeration_cap(self):
        # 30 columns: no sign enumeration, so the real (inf, 1) point is an
        # ascent estimate, and the certificate still encloses it and the
        # sampling oracle
        M = as_matrix(np.random.default_rng(44).standard_normal((3, 30)))
        res = best_norm(M, "inf", 1)
        assert res.certainty is Certainty.ESTIMATE
        cert = _inf_one_certificate(M.entries, res.witness)
        assert cert >= res.value and cert >= norm_bruteforce(M, "inf", 1, budget=2000).value
        assert norm_upper_bound(M, "inf", 1) <= cert

    def test_zero_matrix(self):
        M = as_matrix(np.zeros((2, 3), dtype=complex))
        assert _inf_one_certificate(M.entries, np.ones(3)) == 0.0


def _anchor_minimum(M, p, q):
    """The certified bound read from norm_closed_form's values at the
    anchors (1, q), (p, inf) and (2, 2), plus at (inf, 1) the certificate at
    best_norm's witness: the reference for norm_upper_bound."""
    pi, qi = as_index(p), as_index(q)
    anchors = ((as_index(1), qi), (pi, as_index("inf")), (as_index(2), as_index(2)))
    bounds = [bound_factor(*a, pi, qi, M.m, M.n) * norm_closed_form(M, *a).value for a in anchors]
    if pi.is_inf and qi.value == 1.0:
        bounds.append(_inf_one_certificate(M.entries, best_norm(M, "inf", 1).witness))
    return min(bounds)


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_upper_bound_dominates_lower_bounds(n, m, complex_, seed):
    # every lower bound stays below the certified bound, up to rounding, and
    # no bracket inverts, over the whole exponent grid; the bound is the
    # minimum over the closed forms at its anchors, bit for bit
    r = np.random.default_rng(seed)
    A = r.standard_normal((n, m)) + (1j * r.standard_normal((n, m)) if complex_ else 0.0)
    M = as_matrix(A)
    for p in GRID:
        for q in GRID:
            ub = norm_upper_bound(M, p, q)
            assert ub == _anchor_minimum(M, p, q), (p, q)
            assert ub >= best_norm(M, p, q).value * (1.0 - 1e-12), (p, q)
            assert ub >= norm_bruteforce(M, p, q, budget=500).value * (1.0 - 1e-12), (p, q)
            br = bracket_norm(M, p, q)
            assert br.lower <= br.upper, (p, q)


class TestNormBracket:
    def test_three_way_logic(self):
        res = best_norm(np.eye(1), 2, 2)
        b = NormBracket(lower=1.0, upper=1.0 + 1e-12, result=res)
        assert b.le(2.0, 1e-9) is True
        wide = NormBracket(lower=1.0, upper=3.0, result=res)
        assert wide.le(0.5, 1e-9) is False  # lower already beats target

    def test_le_reads_tol_alone(self):
        # one slack for exact and estimated brackets: at tol 1e-8 a target
        # 1e-6 below the upper end is "below" the exact norm, and settles
        # nothing for an estimate whose lower end lies further down; at tol
        # 1e-5 both are "at most" the target
        exact = bracket_norm(gen_hadamard(2), 2, 2)
        assert exact.le(exact.upper * (1 - 1e-6), 1e-8) is False
        assert exact.le(exact.upper * (1 - 1e-6), 1e-5) is True
        r = np.random.default_rng(5)
        est = bracket_norm(r.standard_normal((4, 3)), 1.5, 3)
        assert not est.is_exact and est.lower < est.upper * (1 - 1e-5)
        assert est.le(est.upper * (1 - 1e-6), 1e-8) is None
        assert est.le(est.upper * (1 - 1e-6), 1e-5) is True
        assert est.le(est.lower * (1 - 1e-3), 1e-8) is False

    def test_bracket_norm_contains_truth(self):
        for i in range(8):
            r = np.random.default_rng(950 + i)
            M = as_matrix(r.standard_normal((3, 2)))
            for (p, q) in [(1, 2), (2, 2), (1.5, 3)]:
                br = bracket_norm(M, p, q)
                val = best_norm(M, p, q).value
                assert br.lower <= val * (1 + 1e-12)
                assert br.upper >= val * (1 - 1e-12)
                assert br.lower <= br.upper * (1 + 1e-12)

    def test_rank_one_tensor_never_inverts(self):
        # ||c b^T||_{r,s} = ||b||_{r*} ||c||_s: the ascent reaches it to the
        # last ulp, one ulp above the rounded certified bound at (3,3)
        T = gen_tensor_product(np.ones(8) / math.sqrt(8), np.ones(5) / math.sqrt(5))
        for p, q in [(3, 3), (3, 1.5), (1.5, 3)]:
            br = bracket_norm(T, p, q)
            assert not br.is_exact
            assert br.lower <= br.upper

    @pytest.mark.parametrize("k", [-1000, -669, 669, 1000])
    def test_exact_power_of_two_scaling(self, k):
        # 2^k A is exact in floating point, so every exact route must return
        # 2^k times the unscaled value, and no bracket may overflow,
        # underflow or invert
        for i in range(8):
            r = np.random.default_rng(980 + i)
            n, m = int(r.integers(1, 5)), int(r.integers(1, 5))
            A0 = r.standard_normal((n, m))
            field = "real"
            if i % 2:
                A0 = A0 + 1j * r.standard_normal((n, m))
                field = "complex"
            M0 = as_matrix(A0, field=field)
            M = as_matrix(np.ldexp(A0.real, k) + 1j * np.ldexp(A0.imag, k), field=field)
            for p in GRID:
                for q in GRID:
                    br = bracket_norm(M, p, q)
                    assert math.isfinite(br.lower) and math.isfinite(br.upper), (i, p, q)
                    assert 0.0 < br.lower <= br.upper, (i, p, q)
                    if br.is_exact:
                        want = math.ldexp(best_norm(M0, p, q).value, k)
                        assert abs(br.lower - want) <= 1e-12 * want, (i, p, q)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-1000, 1000),
        complex_=st.booleans(),
        p=st.sampled_from(GRID),
        q=st.sampled_from(GRID),
    )
    def test_power_of_two_scaling_property(self, seed, k, complex_, p, q):
        # any k in [-1000, 1000]: exact values scale by 2^k, brackets stay
        # finite and ordered, and no class verdict changes
        r = np.random.default_rng(seed)
        n, m = int(r.integers(1, 4)), int(r.integers(1, 4))
        A0 = r.standard_normal((n, m)) + (1j * r.standard_normal((n, m)) if complex_ else 0.0)
        field = "complex" if complex_ else "real"
        M0 = as_matrix(A0, field=field)
        M = as_matrix(np.ldexp(A0.real, k) + 1j * np.ldexp(A0.imag, k), field=field)
        for pp in GRID:
            for qq in GRID:
                br = bracket_norm(M, pp, qq)
                assert math.isfinite(br.lower) and math.isfinite(br.upper), (pp, qq)
                assert 0.0 < br.lower <= br.upper, (pp, qq)
                res = best_norm(M, pp, qq)
                if res.certainty.is_exact:
                    want = math.ldexp(best_norm(M0, pp, qq).value, k)
                    assert abs(res.value - want) <= 1e-12 * want, (pp, qq)
        for cls in ClassId:
            assert check_class(M, cls, p, q).member == check_class(M0, cls, p, q).member, cls

    @pytest.mark.parametrize("A", EDGE_MATRICES, ids=EDGE_IDS)
    @pytest.mark.parametrize("end", ["top", -1010, -1071, -1074])
    def test_float_range_edges(self, A, end):
        # at the largest 2^k that keeps every entry finite, norms pass the
        # float range; at 2^-1010 they are normal but below 1e-300; at
        # 2^-1071 and 2^-1074 entries are subnormal.  Every
        # route and anchor is formed on A / 2^e and scaled back once, so
        # each bracket is that of A / 2^e scaled back (ends overflowed to inf
        # or rounded to a subnormal alike): none inverts, and no
        # RuntimeWarning is raised.  Anchors read from raw entries round
        # apart from the estimate: 5e-324 ones read [1.5e-323, 1e-323] at (inf, 2)
        X = as_matrix(at_scale(A, end))
        S, e = _pow2_normalized(X.entries)
        S = as_matrix(S)
        for p in GRID:
            for q in GRID:
                br, br0 = bracket_norm(X, p, q), bracket_norm(S, p, q)
                assert br.lower <= br.upper, (p, q)
                assert br.lower == _scaled_back(br0.lower, e), (p, q)
                assert br.upper == _scaled_back(br0.upper, e), (p, q)
        assert best_norm(np.full((2, 2), 1e308), "inf", "inf").value == math.inf

    def test_bracket_exact_pair_collapses(self):
        br = bracket_norm(np.diag([3.0, 1.0]), 2, 2)
        assert math.isclose(br.lower, br.upper, rel_tol=1e-12)


class TestCheckInequality:
    def test_report_fields(self):
        rep = check_inequality(B, 2, 2, "inf", 1)
        assert isinstance(rep, BoundReport)
        # ||B||_{inf,1} = 2 (real); bound = m^{1/2} n^{1/2} ||B||_{2,2}
        #              = 2 * sqrt(2) = 2.828...
        assert math.isclose(rep.lhs, 2.0, rel_tol=1e-9)
        assert math.isclose(rep.bound, 2.0 * math.sqrt(2.0), rel_tol=1e-9)
        assert rep.slack >= 0.0
        assert rep.equality is False

    def test_full_grid_nonnegative_slack(self):
        for i in range(6):
            r = np.random.default_rng(980 + i)
            n, m = int(r.integers(1, 4)), int(r.integers(1, 4))
            M = as_matrix(
                r.standard_normal((n, m))
                + (1j * r.standard_normal((n, m)) if i % 2 else 0)
            )
            for p in GRID:
                for q in GRID:
                    for rr in GRID:
                        for s in GRID:
                            rep = check_inequality(M, p, q, rr, s)
                            assert rep.slack >= -1e-4 * max(rep.bound, 1e-300)

    def test_equality_detected_on_attainer(self):
        # ||B complex||_{inf,1} = 2 sqrt(2) = sqrt(2)*2*... = m^{1/2} n^{1/2} s1?
        # factor(2,2 -> inf,1) = m^{1/2} n^{1/2} = 2; s1 = sqrt(2); bound = 2 sqrt 2
        # the README's quickstart example
        rep = check_inequality(as_matrix(B, field="complex"), 2, 2, "inf", 1)
        assert rep.equality is True

    def test_undetermined_pair_reads_none(self):
        # the flag is decide_equality's verdict: two estimates whose bracket
        # (1.5,2) straddles the other's lower end settle nothing, where the
        # raw comparison of the lower ends read False
        A = np.random.default_rng(1).standard_normal((3, 4))
        rep = check_inequality(A, 1.5, 2, 1.5, 3)
        assert decide_equality(A, 1.5, 2, 1.5, 3)[0] == "undetermined"
        assert rep.equality is None and rep.factor == 1.0 and rep.slack > 0.0
        lb, rb = bracket_norm(A, 1.5, 3), bracket_norm(A, 1.5, 2)
        assert (rep.lhs, rep.rhs_norm) == (lb.lower, rb.lower)


class TestInequalityGrid:
    def test_three_states(self, monkeypatch):
        # every estimate lowered to 0.99 of itself is still a lower bound:
        # the crossed lower ends settle nothing, and the slack reads them.
        # The grid holds 3: on {1, 2, inf} sign enumeration makes every
        # real point exact, and over the complex field no lowered lower end
        # crosses on these entries
        import pqnorm.induced_norms as ind

        A = np.random.default_rng(1).standard_normal((3, 4))
        verdict, slack = inequality_grid_check(A, [1, 2, 3, "inf"])
        assert verdict is True and -1e-4 <= slack <= 0.0  # 0 where (r,s) = (p,q)
        estimates = ind._estimates

        def lowered(M, pairs, seed):
            return [NormResult(0.99 * r.value, r.witness, r.certainty)
                    for r in estimates(M, pairs, seed)]

        monkeypatch.setattr(ind, "_estimates", lowered)
        verdict, slack = inequality_grid_check(as_matrix(A), [1, 2, 3, "inf"])
        assert verdict is None and slack < -1e-4
        assert inequality_grid_check(as_matrix(A), [1, 2, 3, "inf"], tol=0.02)[0] is True

    def test_certified_crossing_is_false(self):
        # a lower end at (2,2) above the certified bound sqrt(2) ||B||_{1,1}
        M = as_matrix(B)
        best_norm(M, 2, 2)  # the memo entry the check reads back
        key = (as_index(2), as_index(2), 0, None)
        M._memo[key] = NormResult(3.0, M._memo[key].witness, Certainty.ESTIMATE)
        assert inequality_grid_check(M, [1, 2])[0] is False


class TestTol:
    # the one slack rule of every comparison between brackets
    def test_rule(self):
        # the caller's tol, EXACT_EQ_TOL when None, on exact and estimated
        # brackets alike
        assert _tol(None) == EXACT_EQ_TOL
        assert _tol(1e-9) == 1e-9 and _tol(0.0) == 0.0
        assert _tol(1e-2) == 1e-2

    def test_estimates_5e_4_apart_are_undetermined(self):
        # a planted pair of estimates 5e-4 apart, both inside the other's
        # certified bracket: read at the default slack 1e-8 the two lower
        # bounds disagree (None); a tol of 1e-3 reads True
        r = np.random.default_rng(1280)
        M = as_matrix(r.standard_normal((3, 3)))
        v = 0.99 * best_norm(M, 1.5, 3).value
        _plant(M, 1.5, 3, v)
        _plant(M.adjoint(), 1.5, 3, v * (1 + 5e-4))  # ||A*||_{q*,p*} at (1.5, 3)
        assert duality_check(M, 1.5, 3) is None
        assert duality_check(M, 1.5, 3, tol=1e-3) is True
        M = as_matrix(r.standard_normal((3, 3)))
        v = 0.99 * best_norm(M, 1.5, 1.5).value
        _plant(M, 1.5, 1.5, v * (1 + 5e-4))  # above the (3, 1.5) lower end
        _plant(M, 3, 1.5, v)
        assert monotonicity_check(M, 1.5, [1.5, 3]) is None
        assert monotonicity_check(M, 1.5, [1.5, 3], tol=1e-3) is True


class TestDuality:
    def test_exact_routes(self):
        for i in range(5):
            r = np.random.default_rng(1100 + i)
            M = as_matrix(r.standard_normal((3, 2)) + 1j * r.standard_normal((3, 2)))
            for (p, q) in [(1, 1), (1, "inf"), (2, 2), ("inf", "inf")]:
                assert duality_check(M, p, q)

    def test_estimated_routes(self):
        r = np.random.default_rng(1200)
        M = as_matrix(r.standard_normal((3, 3)))
        assert duality_check(M, 1.5, 3)


def _plant(M, p, q, value):
    """Replace the memoised best_norm(M, p, q) by an estimate of value."""
    res = best_norm(M, p, q)
    M._memo[(as_index(p), as_index(q), 0, None)] = NormResult(
        value, res.witness, Certainty.ESTIMATE
    )


class TestCertifiedDisagreement:
    # two lower bounds that disagree are undetermined; a lower bound above
    # the other side's certified upper bound is a contradiction

    def test_false_verify_fail_cleared(self):
        # real 32x32 Gaussians on which both (inf,1) estimates fall short of
        # each other by more than 1e-3, yet below the certified upper bound
        for seed in (3, 5):
            M = as_matrix(np.random.default_rng(seed).standard_normal((32, 32)))
            a = best_norm(M, "inf", 1)
            b = best_norm(M.adjoint(), "inf", 1)
            assert abs(a.value - b.value) > 1e-3 * max(a.value, b.value)
            assert max(a.value, b.value) < norm_upper_bound(M, "inf", 1)
            assert duality_check(M, "inf", 1) is None

    def test_planted_duality_contradiction(self):
        r = np.random.default_rng(1250)
        M = as_matrix(r.standard_normal((3, 3)))
        assert duality_check(M, 1.5, 3) is True
        upper = max(norm_upper_bound(M, 1.5, 3), norm_upper_bound(M.adjoint(), 1.5, 3))
        _plant(M.adjoint(), 1.5, 3, 1.01 * best_norm(M, 1.5, 3).value)
        assert duality_check(M, 1.5, 3) is None
        _plant(M.adjoint(), 1.5, 3, 10.0 * upper)
        assert duality_check(M, 1.5, 3) is False

    def test_estimate_above_exact_value(self):
        M = as_matrix(np.random.default_rng(1260).standard_normal((3, 2)))
        _plant(M.adjoint(), 2, 2, 1.5 * best_norm(M, 2, 2).value)
        assert duality_check(M, 2, 2) is False

    def test_planted_monotonicity_contradiction(self):
        r = np.random.default_rng(1270)
        M = as_matrix(r.standard_normal((3, 3)))
        assert monotonicity_check(M, 2, GRID) is True
        # (3, 2) below the exact (2, 2): the lower bounds disagree, but the
        # certified upper bound of (3, 2) does not
        _plant(M, 3, 2, 0.99 * best_norm(M, 2, 2).value)
        assert monotonicity_check(M, 2, GRID) is None
        # (1.5, 2) above the exact (2, 2): a contradiction
        _plant(M, 1.5, 2, 2.0 * best_norm(M, 2, 2).value)
        assert monotonicity_check(M, 2, GRID) is False
        M = as_matrix(r.standard_normal((3, 3)))
        assert monotonicity_check_in_s(M, 2, GRID) is True
        # (2, 3) below ||A||_{2,2} / n^{1/2-1/3}: the lower bounds disagree,
        # but the certified upper bound of (2, 3) does not
        low = best_norm(M, 2, 2).value / bound_factor(2, 3, 2, 2, M.m, M.n)
        assert norm_upper_bound(M, 2, 3) > low
        _plant(M, 2, 3, 0.99 * low)
        assert monotonicity_check_in_s(M, 2, GRID) is None
        # (2, 3) far above the exact (2, 2): a contradiction
        _plant(M, 2, 3, 2.0 * best_norm(M, 2, 2).value)
        assert monotonicity_check_in_s(M, 2, GRID) is False


class TestMonotonicity:
    def test_in_r_and_s(self):
        r = np.random.default_rng(1300)
        M = as_matrix(r.standard_normal((3, 3)))
        assert monotonicity_check(M, 2, GRID)
        assert monotonicity_check_in_s(M, 2, GRID)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            monotonicity_check(B, 2, [2, 1, 3])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        complex_=st.booleans(),
        r=st.sampled_from(GRID),
        picks=st.sets(st.integers(0, len(GRID) - 1), min_size=2),
    )
    def test_in_s_against_the_adjoint_route(self, seed, complex_, r, picks):
        # the s-direction read the other way, by ||A||_{r,s} = ||A*||_{s*,r*}:
        # monotonicity_check on A* at r* over the conjugates of s_grid
        # reversed, from A*'s own estimates.  Neither verdict is True where
        # the other is False, and neither moves under exact scaling by 2^k
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = rng.standard_normal((n, m)) + (1j * rng.standard_normal((n, m)) if complex_ else 0.0)
        s_grid = [GRID[i] for i in sorted(picks)]
        duals = [conjugate(s) for s in reversed(s_grid)]
        seen = set()
        for k in (-1000, -3, 0, 5, 1000):
            M = as_matrix(at_scale(A, k), field="complex" if complex_ else "real")
            old = monotonicity_check(M.adjoint(), conjugate(r), duals)
            pair = (monotonicity_check_in_s(M, r, s_grid), old)
            assert set(pair) != {True, False}, (k, pair)
            seen.add(pair)
        assert len(seen) == 1, seen

    def test_direction_is_real(self):
        # ||A||_{r,s} grows with r (domain ball grows) and shrinks with s
        M = as_matrix(np.ones((2, 2)))
        vals_r = [best_norm(M, rr, 2).value for rr in GRID]
        assert all(a <= b + 1e-12 for a, b in zip(vals_r, vals_r[1:]))
        vals_s = [best_norm(M, 2, ss).value for ss in GRID]
        assert all(a >= b - 1e-12 for a, b in zip(vals_s, vals_s[1:]))


class TestTransferEquality:
    def test_outward_moves_transfer(self):
        # equality at (p,q) propagates to any (r,s) on the same side:
        # r beyond p in the direction away from the base pair, s likewise
        assert transfer_equality(2, 2, "inf", 1, "inf", 1)
        assert transfer_equality(2, 2, 3, 1.5, 4, 1.2)

    def test_same_quadrant_transfers(self):
        # membership is a property of the open sign quadrant, so any move
        # that stays strictly on the same side of (p,q) transfers
        assert transfer_equality(2, 2, 3, 1.5, 2.5, 1.5)
        assert transfer_equality(2, 2, 3, 1.5, "inf", 1)

    def test_boundary_and_crossing_do_not(self):
        assert not transfer_equality(2, 2, 3, 1.5, 2, 1.5)  # r2 hits p
        assert not transfer_equality(2, 2, 3, 1.5, 1.5, 1.5)  # crosses to r < p
        assert not transfer_equality(2, 2, 3, 1.5, 3, 3)  # s-side crosses


class TestDecideEquality:
    def test_yes_case(self):
        # diag(2,1) at (p,q)=(r,s): factor 1, equality trivially
        verdict, details = decide_equality(np.diag([2.0, 1.0]), 2, 2, 2, 2)
        assert verdict == "yes"
        assert details["factor"] == 1.0

    def test_no_case(self):
        # diag(2,1): ||A||_{inf,1} = 3 < m^{1/2} n^{1/2} ||A||_{2,2} = 2*2 = 4
        verdict, _ = decide_equality(np.diag([2.0, 1.0]), 2, 2, "inf", 1)
        assert verdict == "no"

    def test_attainer_yes(self):
        verdict, _ = decide_equality(as_matrix(B, field="complex"), 2, 2, "inf", 1)
        assert verdict == "yes"

    def test_tautology_is_an_exact_yes(self):
        # (r, s) = (p, q) on an estimated pair: the factor is 1, so "yes"
        # whatever the bracket's width; details are those of any call
        r = np.random.default_rng(1500)
        M = as_matrix(r.standard_normal((5, 4)) + 1j * r.standard_normal((5, 4)))
        verdict, details = decide_equality(M, 1.5, 3, 1.5, 3)
        assert verdict == "yes"
        assert sorted(details) == ["factor", "lhs", "rhs", "tol"]
        assert details["factor"] == 1.0 and details["tol"] == EXACT_EQ_TOL
        assert details["lhs"] == details["rhs"] == bracket_norm(M, 1.5, 3)
        assert details["lhs"].upper > 1.1 * details["lhs"].lower

    def test_explicit_tol_is_kept_on_estimates(self):
        # an explicit tol is the slack whether a side is estimated or both
        # are exact, as in the class deciders
        r = np.random.default_rng(1505)
        M = as_matrix(r.standard_normal((4, 3)))
        _, details = decide_equality(M, 2, 2, 1.5, 3, tol=1e-9)
        assert not details["lhs"].is_exact and details["rhs"].is_exact
        assert details["tol"] == 1e-9
        assert check_inequality(M, 2, 2, 1.5, 3, tol=1e-9).tol == 1e-9
        _, details = decide_equality(gen_hadamard(4), 2, 2, 1, 1, tol=1e-9)
        assert details["tol"] == 1e-9

    def test_one_stacked_ascent(self, monkeypatch):
        # both sides estimated: one ascent serves them (a complex point that
        # needs its second round adds one), and the verdict and brackets
        # match two separate bracket_norm calls on fresh copies
        import pqnorm.induced_norms as mod

        calls = []
        ascent = mod._ascent

        def counting(*args, **kwargs):
            calls.append(args[3].shape)
            return ascent(*args, **kwargs)

        monkeypatch.setattr(mod, "_ascent", counting)
        for i, (n, m, complex_) in enumerate([(5, 4, True), (4, 4, False), (8, 8, True), (3, 6, False)]):
            r = np.random.default_rng(1510 + i)
            A = r.standard_normal((n, m)) + (1j * r.standard_normal((n, m)) if complex_ else 0.0)
            for p, q, rr, s in [(3, 1.5, 1.5, 3), (1.5, 3, 3, 1.5), (1.5, 1.5, 3, 3)]:
                calls.clear()
                verdict, details = decide_equality(as_matrix(A), p, q, rr, s)
                if complex_:
                    # both points' first rounds (two fixed starts, every other
                    # coordinate vector and 15 of the 30 random columns), then
                    # at most one second round of the points that need it
                    assert calls[0] == (m, 2 * (17 + (m + 1) // 2)), (i, p, q)
                    assert calls[1:] in ([], [(m, 15 + m // 2)], [(m, 2 * (15 + m // 2))]), (i, p, q)
                else:
                    assert calls == [(m, 2 * (32 + m))], (i, p, q)  # both points' restarts
                lhs, rhs = bracket_norm(as_matrix(A), rr, s), bracket_norm(as_matrix(A), p, q)
                for got, want in ((details["lhs"], lhs), (details["rhs"], rhs)):
                    assert abs(got.lower - want.lower) <= 1e-12 * want.lower, (i, p, q)
                    assert got.upper == want.upper
                factor = bound_factor(p, q, rr, s, m, n)
                hi, lo = factor * rhs.upper, factor * rhs.lower
                scale = max(hi, lhs.upper)
                want = (
                    "yes"
                    if lhs.lower >= hi - 1e-4 * scale
                    else "no" if lhs.upper < lo - 1e-4 * scale else "undetermined"
                )
                assert verdict == want, (i, p, q)


def _toward(corner: float, lam: float) -> float:
    """The exponent lam of the way from 2 to corner (1 or inf), in 1/r."""
    u = 0.5 + lam * ((1.0 if corner == 1.0 else 0.0) - 0.5)
    return math.inf if u == 0.0 else 1.0 / u


# Noise 10^-k on a planted member of an open quadrant of (2,2).  At k >= 6
# the value gap, about noise^2 times a dimension constant, lies below tol
# 1e-8 at every point of the quadrant, so every point answers "yes" or is
# undetermined.  At k = 3 it lies above 1e-8 at the corner, but it falls to
# 0 toward (2,2) (the comparison factor tends to 1 there), so the interior
# points are taken at least halfway from (2,2) to the corner in 1/r and
# 1/s.  Even there a matrix whose constant is small answers "no" at the
# corner and "yes" inside (2 of 4000 at the midpoints, 3 of 30000 nine
# tenths of the way, in a sweep of fixed seeds), so the examples are
# derandomized rather than drawn afresh each run.  k = 4 and 5 are left
# out: there the gap is about 1e-8 and falls on either side of it from one
# point to the next, as "equality within tol" allows.
@given(
    corner=st.sampled_from([(1.0, 1.0), (1.0, math.inf), (math.inf, 1.0), (math.inf, math.inf)]),
    complex_=st.booleans(),
    n=st.integers(2, 6),
    m=st.integers(2, 6),
    k=st.sampled_from([3, 6, 7, 8, 9, 10, 11, 12]),
    seed=st.integers(0, 2**16),
    lams=st.lists(st.floats(0.5, 0.95), min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sign_region_answers_one_way(corner, complex_, n, m, k, seed, lams):
    # the paper: for a fixed A, attainment depends only on the signs of
    # r - p and s - q, so the corner and two interior points of its
    # quadrant never answer both "yes" and "no"
    field_tag = "complex" if complex_ else "real"
    sigma = [2.0] + [1.0] * (min(n, m) - 1)
    M = gen_svd_extremal(m, n, *corner, sigma, seed=seed, field_tag=field_tag)
    r = np.random.default_rng(seed)
    E = r.standard_normal((n, m)) + (1j * r.standard_normal((n, m)) if complex_ else 0.0)
    A = as_matrix(M.entries + 10.0**-k * E, field=field_tag)
    points = [corner] + [(_toward(corner[0], a), _toward(corner[1], b)) for a, b in (lams[:2], lams[2:])]
    verdicts = {decide_equality(A, 2, 2, *pt)[0] for pt in points}
    assert not {"yes", "no"} <= verdicts, (points, verdicts)


def _complex_4x3():
    """A + iB for the first two 4 x 3 standard-normal draws of seed 0."""
    r = np.random.default_rng(0)
    A = r.standard_normal((4, 3))
    return as_matrix(A + 1j * r.standard_normal((4, 3)))


class TestHugeFiniteExponent:
    # at q = 5e18 and above, |w / c|^q of a column's peak read 1 +- 1 ulp
    # to the q-th power: inf or 0, so the estimate read inf (above its
    # witness's ratio 1.639) and the bracket inverted
    @pytest.mark.parametrize("q", [5e18, 1e20, 1e300])
    def test_estimate_is_sound(self, q):
        C = _complex_4x3()
        res = best_norm(C, 1.5, q)
        upper = norm_upper_bound(C, 1.5, q)
        assert math.isfinite(res.value)
        # at most the certified bound, up to bracket_norm's rounding allowance
        assert res.value <= upper * (1.0 + 1e-12)
        ratio = norm_ratio(C, res.witness, 1.5, q)
        assert abs(ratio - res.value) <= 1e-12 * res.value
        br = bracket_norm(C, 1.5, q)
        assert br.lower <= br.upper

    def test_no_unsound_equality(self):
        assert decide_equality(_complex_4x3(), 2, 2, 1.5, 1e20)[0] != "yes"


@given(
    st.sampled_from(GRID),
    st.sampled_from(GRID),
    st.sampled_from(GRID),
    st.sampled_from(GRID),
    st.integers(1, 9),
    st.integers(1, 9),
)
@settings(max_examples=120, deadline=None)
def test_factor_at_least_one(p, q, r, s, m, n):
    f = bound_factor(p, q, r, s, m, n)
    assert f >= 1.0
    # composing two factor steps never beats the direct factor
    direct = bound_factor(p, q, r, s, m, n)
    via = bound_factor(p, q, 2, 2, m, n) * bound_factor(2, 2, r, s, m, n)
    assert via >= direct * (1.0 - 1e-12)


def _not_above_reference(t, x, c, lo, hi):
    """The former comparison of duality_check and monotonicity_check,
    x <= c ||A|| with ||A|| in [lo, hi], kept as the reference."""

    def within(y):
        return x <= y + t * max(x, y, 1e-300)

    if within(c * lo):
        return True
    return None if within(c * hi) else False


def _le_reference(lower, upper, target, tol):
    """The former NormBracket.le, kept as the reference."""
    slack = tol * max(abs(target), upper, 1e-300)
    if upper <= target + slack:
        return True
    return False if lower > target + slack else None


# (x, y, tol, verdict of u <= v for u in x, v in y)
AT_MOST_CASES = [
    ((1.0, 1.0), (1.0, 1.0), 0.0, True),  # equal points
    ((0.0, 0.0), (0.0, 0.0), 0.0, True),
    ((1.0, 1.0), (2.0, 3.0), 0.0, True),  # a point below a bracket
    ((1.0, 2.0), (1.5, 3.0), 0.0, None),  # overlapping brackets
    ((4.0, 5.0), (1.0, 3.0), 0.0, False),  # certified above
    ((1.0 + 1e-10,) * 2, (1.0, 1.0), 1e-9, True),  # within the slack
    ((1.0 + 1e-8,) * 2, (1.0, 1.0), 1e-9, False),
    ((1.0 + 1e-8,) * 2, (1.0, 1.1), 1e-9, None),  # reaches only the upper end
    # NormBracket.le's False scales by the bracket's lower end: 1.2 beats
    # the target 1 by more than 0.1 * 1.2, where the former slack 0.1 * 3
    # (the upper end) answered None
    ((1.2, 3.0), (1.0, 1.0), 0.1, False),
    # decide_equality's "yes" scales by the left lower end: a bound of 1.05
    # against a left side in [1, 2] at tol 0.03 was "yes" through the
    # former slack 0.03 * 2 (the left upper end)
    ((1.05, 1.05), (1.0, 2.0), 0.03, None),
]


class TestAtMost:
    @pytest.mark.parametrize("x, y, tol, verdict", AT_MOST_CASES)
    def test_case_table(self, x, y, tol, verdict):
        assert _at_most(x, y, tol) is verdict

    def test_against_the_former_comparisons(self):
        # duality and monotonicity (a point against a scaled bracket) give
        # the former answers everywhere, NormBracket.le its former True
        # cases and every former False; each False is certified: the whole
        # left bracket lies above the whole right one
        res = best_norm(np.eye(1), 2, 2)
        values = [0.0, 0.5, 1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.1, 2.0, 3.0]
        brackets = [(a, b) for a in values for b in values if a <= b]
        for t in (0.0, 1e-9, 1e-6, 1e-3, 0.1):
            for lo, hi in brackets:
                for x in values:
                    for c in (0.5, 1.0, 2.0):
                        got = _at_most((x, x), (c * lo, c * hi), t)
                        assert got is _not_above_reference(t, x, c, lo, hi)
                    old, new = _le_reference(lo, hi, x, t), NormBracket(lo, hi, res).le(x, t)
                    assert (new is True) == (old is True)
                    assert old is not False or new is False
                    assert new is not False or lo > x
                for y in brackets:
                    assert _at_most((lo, hi), y, t) is not False or lo > y[1]


@given(st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_bracket_le_ge_consistent(seed):
    r = np.random.default_rng(seed)
    M = as_matrix(r.standard_normal((2, 3)))
    br = bracket_norm(M, 1.5, 2.5, seed=0)
    # a value the bracket certifies as exceeded lies below its lower end
    mid = 0.5 * (br.lower + br.upper)
    if br.le(mid, 1e-9) is False:
        assert br.lower > mid


# Each call reads "no", "undetermined" or False on Hadamard 4 with a negative
# or NaN tolerance, where the default reads "yes" / True: every comparison
# against such a tolerance fails.
_TOL_CALLS = {
    "decide_equality": lambda H, t: decide_equality(H, 2, 2, 1, 1, tol=t),
    "check_class": lambda H, t: check_class(H, ClassId.E_11, 2, 2, t),
    "duality_check": lambda H, t: duality_check(H, 1.5, 3, tol=t),
    "monotonicity_check": lambda H, t: monotonicity_check(H, 2, [1, 2, 3], tol=t),
    "monotonicity_check_in_s": lambda H, t: monotonicity_check_in_s(H, 2, [1, 2, 3], tol=t),
    "check_inequality": lambda H, t: check_inequality(H, 2, 2, 1, 1, tol=t),
}


class TestLibraryTolerance:
    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", list(_TOL_CALLS))
    def test_unsound_tol_rejected(self, name, tol):
        with pytest.raises(ValueError, match="finite tolerance >= 0"):
            _TOL_CALLS[name](gen_hadamard(4), tol)

    def test_defaults_unchanged(self):
        H = gen_hadamard(4)
        assert decide_equality(H, 2, 2, 1, 1)[0] == "yes"
        assert decide_equality(H, 2, 2, 1, 1, tol=None)[0] == "yes"
        assert check_class(H, ClassId.E_11, 2, 2).member == "yes"
        assert duality_check(H, 1.5, 3) is True
        assert monotonicity_check(H, 2, [1, 2, 3]) is True
        assert monotonicity_check_in_s(H, 2, [1, 2, 3]) is True
        assert check_inequality(H, 2, 2, 1, 1).equality is True

    @pytest.mark.parametrize("name", list(_TOL_CALLS))
    def test_zero_tol_accepted(self, name):
        _TOL_CALLS[name](gen_hadamard(4), 0.0)
