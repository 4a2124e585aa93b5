"""Dimension-factor bound, certification brackets, duality and monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqnorm import (
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
    decide_equality,
    duality_check,
    gen_hadamard,
    gen_tensor_product,
    monotonicity_check,
    monotonicity_check_in_s,
    norm_bruteforce,
    norm_closed_form,
    norm_upper_bound,
    transfer_equality,
)
from pqnorm.bounds import _inf_one_certificate

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
        monkeypatch.setattr(mod, "svd", unused)
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
            cert = _inf_one_certificate(M, res.witness)
            assert res.value <= cert <= res.value * (1.0 + 1e-10)
            assert bracket_norm(M, "inf", 1).upper <= cert

    def test_real_past_the_enumeration_cap(self):
        # 30 columns: no sign enumeration, so the real (inf, 1) point is an
        # ascent estimate, and the certificate still encloses it and the
        # sampling oracle
        M = as_matrix(np.random.default_rng(44).standard_normal((3, 30)))
        res = best_norm(M, "inf", 1)
        assert res.certainty is Certainty.ESTIMATE
        cert = _inf_one_certificate(M, res.witness)
        assert cert >= res.value and cert >= norm_bruteforce(M, "inf", 1, budget=2000).value
        assert norm_upper_bound(M, "inf", 1) <= cert

    def test_zero_matrix(self):
        M = as_matrix(np.zeros((2, 3), dtype=complex))
        assert _inf_one_certificate(M, np.ones(3)) == 0.0


def _anchor_minimum(M, p, q):
    """The certified bound read from norm_closed_form's values at the
    anchors (1, q), (p, inf) and (2, 2), plus at (inf, 1) the certificate at
    best_norm's witness: the reference for norm_upper_bound."""
    pi, qi = as_index(p), as_index(q)
    anchors = ((as_index(1), qi), (pi, as_index("inf")), (as_index(2), as_index(2)))
    bounds = [bound_factor(*a, pi, qi, M.m, M.n) * norm_closed_form(M, *a).value for a in anchors]
    if pi.is_inf and qi.value == 1.0:
        bounds.append(_inf_one_certificate(M, best_norm(M, "inf", 1).witness))
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
        assert not rep.equality

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
        rep = check_inequality(as_matrix(B, field="complex"), 2, 2, "inf", 1)
        assert rep.equality


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
        # ||A||_{2,3} = ||A*||_{1.5,2}, read on the adjoint, far above (2, 2)
        _plant(M.adjoint(), 1.5, 2, 2.0 * best_norm(M, 2, 2).value)
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
        assert details["factor"] == 1.0 and details["tol"] == 1e-4
        assert details["lhs"] == details["rhs"] == bracket_norm(M, 1.5, 3)
        assert details["lhs"].upper > 1.1 * details["lhs"].lower

    def test_one_stacked_ascent(self, monkeypatch):
        # both sides estimated: one ascent serves them, and the verdict and
        # brackets match two separate bracket_norm calls on fresh copies
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
