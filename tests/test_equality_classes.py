"""Equality-class membership checks, sufficient tests, and normal forms.

Every expected verdict below is hand-verifiable: the comments carry the
argument (which vectors attain the norm, why a condition fails).  The
random cases are cross-checked against decide_equality, which uses the
norm machinery rather than the structural conditions.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqnorm import (
    ClassId,
    ClassVerdict,
    DavReport,
    PreconditionError,
    as_index,
    as_matrix,
    best_norm,
    bound_factor,
    bracket_norm,
    check_E11,
    check_E1inf,
    check_Einf1,
    check_Einfinf,
    check_class,
    check_svd_equality,
    dav_normal_form,
    decide_equality,
    extremal_stats,
    gen_dft,
    gen_hadamard,
    gen_single_entry,
    gen_svd_extremal,
    gen_tensor_product,
    maximizer_eigencheck,
    sufficient_e11,
    sufficient_e1inf,
    sufficient_einfinf,
    svd,
)
from pqnorm import equality_classes
from pqnorm.core import DEFAULT_TOL
from pqnorm.induced_norms import BLOCK, _sign_cols, _sign_images

from conftest import make_corpus, make_curated

B = np.array([[1.0, 1.0], [-1.0, 1.0]])
BC = as_matrix(B, field="complex")
BR = as_matrix(B, field="real")
J = as_matrix(np.ones((2, 2)), field="real")
D21 = as_matrix(np.diag([2.0, 1.0]), field="real")


class TestClassId:
    def test_parse_and_values(self):
        assert ClassId.parse("E_inf1") is ClassId.E_INF1
        assert ClassId.parse("E_1inf") is ClassId.E_1INF
        with pytest.raises(ValueError):
            ClassId.parse("E_22")

    def test_from_quadrant(self):
        # membership quadrant is keyed by sgn(p-r), sgn(q-s)
        assert ClassId.from_quadrant(2, 2, 1, 3) is ClassId.E_1INF
        assert ClassId.from_quadrant(2, 2, 1, 1) is ClassId.E_11
        assert ClassId.from_quadrant(2, 2, 3, 3) is ClassId.E_INFINF
        assert ClassId.from_quadrant(2, 2, 3, 1) is ClassId.E_INF1
        assert ClassId.from_quadrant(2, 2, 2, 3) is None  # on the boundary

    def test_extremal_pair(self):
        assert ClassId.E_11.extremal_pair == (as_index(1), as_index(1))
        assert ClassId.E_1INF.extremal_pair == (as_index(1), as_index("inf"))


class TestZeroAndTrivial:
    def test_zero_matrix_in_every_class(self):
        Z = np.zeros((2, 3))
        for cls in ClassId:
            v = check_class(Z, cls, 2, 2)
            assert v.member == "yes", cls

    def test_trivial_quadrants(self):
        # when (p,q) leaves a class's quadrant empty, membership is vacuous
        assert check_E11(np.array([[2.0], [1.0]]), 2, 1).member == "yes"
        assert check_E1inf(np.array([[1.0, 2.0]]), 1, 2).member == "yes"
        assert check_Einfinf(J, "inf", 2).member == "yes"
        assert check_Einf1(BR, "inf", 2).member == "yes"
        assert check_Einf1(BR, 2, 1).member == "yes"

    def test_verdict_carries_conditions(self):
        v = check_E11(gen_hadamard(2), 2, 2)
        assert isinstance(v, ClassVerdict)
        assert all(c.satisfied for c in v.conditions)
        assert v.is_member


class TestE1inf:
    def test_single_entry_yes_everywhere(self):
        SE = gen_single_entry(2, 2, 0, 0, 3.0)
        assert check_E1inf(SE, 2, 2).member == "yes"
        assert check_E1inf(SE, 3, 1.5).member == "yes"  # p > q branch

    def test_diag_isolated_dominant(self):
        # rho = 2 isolated; residual C = diag(0,1) has norm 1 <= 2
        assert check_E1inf(D21, 2, 2).member == "yes"

    def test_non_isolated_no(self):
        assert check_E1inf(J, 2, 2).member == "no"
        assert check_E1inf(gen_hadamard(2), 2, 2).member == "no"

    def test_p_gt_q_requires_single_nonzero(self):
        # for p > q two nonzero entries already break equality
        A = np.diag([2.0, 1e-6])
        assert check_E1inf(A, 3, 1.5).member == "no"

    def test_dominance_required(self):
        # isolated max entry but residual block too large at (2,2):
        # C = [[0,0,0],[0,1.9,1.9]] has ||C||_{2,2} = hypot(1.9,1.9) > 2
        A = np.array([[2.0, 0.0, 0.0], [0.0, 1.9, 1.9]])
        assert check_E1inf(A, 2, 2).member == "no"

    def test_q_inf_trivial(self):
        # at q = inf the class's open quadrant (s > q) is empty
        A = np.array([[2.0, 0.0, 0.0], [0.0, 1.9, 1.9]])
        assert check_E1inf(A, 2, "inf").member == "yes"


class TestE11:
    def test_worked_unitary_family(self):
        for k in (2, 4):
            H = gen_hadamard(k)
            assert check_E11(H, 2, 2).member == "yes"
            assert check_Einfinf(H, 2, 2).member == "yes"
        F = gen_dft(3)
        assert check_E11(F, 2, 2).member == "yes"
        assert check_Einfinf(F, 2, 2).member == "yes"

    def test_ones_no(self):
        # both columns extremal but not orthogonal: <c0, c1> = 2
        assert check_E11(J, 2, 2).member == "no"

    def test_single_entry_no(self):
        SE = gen_single_entry(2, 2, 0, 0, 3.0)
        assert check_E11(SE, 2, 2).member == "no"
        assert check_Einfinf(SE, 2, 2).member == "no"

    def test_p_gt_2_single_column(self):
        # for p > 2 membership needs exactly one nonzero column w/ constant
        # modulus entries
        col = np.zeros((2, 2))
        col[:, 0] = [1.0, -1.0]
        assert check_E11(col, 3, 1.5).member == "yes"
        assert check_E11(gen_hadamard(2), 3, 1.5).member == "no"

    def test_zero_column_padding_allowed(self):
        # appending a zero column keeps Hadamard structure intact
        H = gen_hadamard(2).entries
        A = np.hstack([H, np.zeros((2, 1))])
        assert check_E11(as_matrix(A, field="real"), 2, 2).member == "yes"

    def test_nonconstant_extremal_column_no(self):
        A = np.array([[2.0, 0.0], [1.0, 0.0]])  # col 0 extremal, moduli differ
        assert check_E11(A, 2, 2).member == "no"

    def test_column_conditions_power_of_two_scaling(self):
        # a +-2 column on a Gaussian 3x3: unscaled squared norms and Gram
        # entries overflow or underflow at 2^(+-1000), and sample 5 then
        # read "undetermined" at (1.5, 1.5) where the unscaled matrix reads "no"
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(8):
            A = rng.standard_normal((3, 3))
            A[:, 0] = rng.choice([-2.0, 2.0], size=3)
            samples.append(A)
        Ac = samples[1] * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 3)))
        for A in samples + [Ac]:
            for arr in (A, A.conj().T):
                want = equality_classes._column_conditions(arr, DEFAULT_TOL)
                for k in (-1000, 1000):
                    S = np.ldexp(arr.real, k) + 1j * np.ldexp(arr.imag, k)
                    got = equality_classes._column_conditions(
                        S if np.iscomplexobj(arr) else S.real, DEFAULT_TOL
                    )
                    assert got[:2] == want[:2] and np.array_equal(got[3], want[3])
                    assert got[2] == math.ldexp(want[2], k)
        A = samples[5]
        for check in (check_E11, check_Einfinf):
            for p in [1, 1.5, 2, 3, "inf"]:
                for q in [1, 1.5, 2, 3, "inf"]:
                    v0 = check(A, p, q)
                    for k in (-1000, 1000):
                        v = check(np.ldexp(A, k), p, q)
                        assert v.member == v0.member, (check.__name__, p, q, k)
                        assert [(c.name, c.satisfied) for c in v.conditions] == [
                            (c.name, c.satisfied) for c in v0.conditions
                        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_column_sum_past_float_max(self):
        # the largest modulus has exponent 1024, so the column sum sigma
        # passes the float range: a verdict, not an OverflowError
        for A in (np.array([[1e308], [1e308]]), np.array([[1e308, 1e308]])):
            S = np.ldexp(A, -1024)
            for check in (check_E11, check_Einfinf):
                v, v0 = check(A, 1.5, 1.5), check(S, 1.5, 1.5)
                assert v.member == v0.member, (A.shape, check.__name__)
                assert [(c.name, c.satisfied) for c in v.conditions] == [
                    (c.name, c.satisfied) for c in v0.conditions
                ]
            for suff in (sufficient_e11, sufficient_einfinf):
                assert suff(A, 1.5, 1.5) == suff(S, 1.5, 1.5), (A.shape, suff.__name__)


class TestEinf1:
    def test_worked_complex_vs_real(self):
        # complex field admits v=(1,i): Av = (1+i, -1+i), both modulus sqrt2
        assert check_Einf1(BC, 2, 2).member == "yes"
        # real field only has sign vectors; Bv always has a zero entry
        assert check_Einf1(BR, 2, 2).member == "no"

    def test_ones_yes(self):
        # v = (1,1): Av = (2,2) constant modulus, A*Av = (4,4) = 2^2 v
        assert check_Einf1(J, 2, 2).member == "yes"

    def test_tensor_k1_pair(self):
        T = gen_tensor_product(np.array([1.0, 1j]), np.array([1.0, -1.0]))
        assert check_Einf1(T, 2, 2).member == "yes"
        assert check_Einf1(T, 3, 1.5).member == "yes"

    def test_tensor_coordinate_right_no(self):
        # b = e1 is not constant-modulus for m = 2, so no unimodular maximizer
        T = gen_tensor_product(np.array([1.0, 1.0], dtype=complex), np.array([1.0, 0.0]))
        assert check_Einf1(T, 2, 2).member == "no"

    def test_single_entry_no(self):
        SE = gen_single_entry(2, 2, 0, 0, 3.0)
        assert check_Einf1(as_matrix(SE.entries, field="complex"), 2, 2).member == "no"

    def test_power_of_two_scaling(self):
        # the eigen-residual test formed A*A v unscaled, which overflowed at
        # 2^1000 and turned both members into "no" or "undetermined"
        for k in (-1000, 1000):
            for A, field in ((J.entries, "real"), (B, "complex")):
                assert check_Einf1(as_matrix(np.ldexp(A, k), field=field), 2, 2).member == "yes"


def _blockwise_constant_image_signs(arr, tol):
    """The sign vectors with a constant-modulus image from materialised
    blocks of sign vectors: the reference for the image filter of
    _unimodular_vectors."""
    m = arr.shape[1]
    total = 1 << (m - 1)
    out = []
    for start in range(0, total, BLOCK):
        X = _sign_cols(np.arange(start, min(start + BLOCK, total)), m)
        W = np.abs(arr @ X)
        peaks = W.max(axis=0)
        ok = (peaks > 0) & (peaks - W.min(axis=0) <= tol * np.maximum(peaks, 1e-300))
        out += [X[:, j].copy() for j in np.nonzero(ok)[0]]
    return out


def _blockwise_signs_in_span(Q):
    """Sign vectors in span(Q) from materialised blocks: the reference for
    _unimodular_vectors over the reals."""
    m = Q.shape[0]
    P = Q @ Q.T
    total = 1 << (m - 1)
    out = []
    for start in range(0, total, BLOCK):
        X = _sign_cols(np.arange(start, min(start + BLOCK, total)), m)
        resid = np.linalg.norm(P @ X - X, axis=0)
        out += [X[:, j] for j in np.nonzero(resid <= 1e-8 * math.sqrt(m))[0]]
    return out


def _reference_einf1_real(M, p, q, tol=DEFAULT_TOL, seed=0):
    """check_Einf1's former real-field decider, kept as the reference: all
    2^(m-1) sign vectors are enumerated, and those with a constant-modulus
    image are tested for the eigenvector and amplitude conditions.  Returns
    (member, certainty, the candidates that passed the eigenvector test and
    so had their amplitude compared with the norm)."""
    pi, qi = as_index(p), as_index(q)
    early = equality_classes._zero_or_trivial(M, pi, qi, ClassId.E_INF1)
    if early is not None:
        return early.member, early.certainty, []
    arr = M.entries
    scaled, e = equality_classes._pow2_normalized(arr)
    ab = bracket_norm(M, pi, qi, seed=seed)
    certainty = "exact" if ab.is_exact else "estimate-backed"
    candidates = []
    for W, cols in _sign_images(arr):
        np.abs(W, out=W)
        peaks = W.max(axis=0)
        spread = peaks - W.min(axis=0)
        ok = (peaks > 0) & (spread <= tol * np.maximum(peaks, 1e-300))
        candidates.extend(cols(np.flatnonzero(ok)).T)
    if not candidates:
        return "no", "exact", []
    unresolved = False
    eigen = []
    for v in candidates:
        ok_eig, lam = equality_classes._eigen_residual_ok(scaled, e, v, tol)
        if not ok_eig:
            continue
        eigen.append(v)
        res = equality_classes._resolve_amplitude(M, v, pi, qi, ab, tol)
        if res is True:
            return "yes", certainty, eigen
        if res is None:
            unresolved = True
    if unresolved:
        return "undetermined", "estimate-backed", eigen
    return "no", certainty, eigen


# the (p,q) pairs of the cross-check: none leaves the E_inf1 quadrant empty
EINF1_PAIRS = [(2, 2), (1.5, 3), (3, 1.5), (1, 2), (2, "inf"), (1, "inf"), (4, 4)]


def _einf1_matches_reference(M, pairs=EINF1_PAIRS, tol=DEFAULT_TOL) -> int:
    """Assert that check_Einf1 gives the reference's member at every pair,
    and its certainty except for an exact "no" that needs no norm estimate
    or an estimate-backed "no" from a search that is not exhaustive;
    returns the number of moves to exact."""
    moved = 0
    n, m = M.entries.shape
    for p, q in pairs:
        want, want_cert, eigen = _reference_einf1_real(M, p, q, tol)
        got = check_Einf1(M, p, q, tol)
        assert got.member == want, (M.entries.tolist(), p, q)
        if got.member == "no" and any(c.name == "sign-enumeration-exhaustive" for c in got.conditions):
            # an eigenvalue group too close to the rest for its search to be
            # exhaustive: the "no" is not exact (test_einf1_close_groups_not_exact)
            assert got.certainty == "estimate-backed"
            continue
        if got.certainty != want_cert:
            assert (got.member, want_cert, got.certainty) == ("no", "estimate-backed", "exact")
            # every candidate the reference compared with the norm falls
            # below the exact bound ||A||_{p,q} >= sigma_1 m^-(1/p-1/2)_+
            # n^-(1/2-1/q)_+, so refuting it needs no estimate
            pi, qi = as_index(p), as_index(q)
            floor = svd(M).s[0] * m ** -max(pi.inv - 0.5, 0) * n ** -max(0.5 - qi.inv, 0)
            for v in eigen:
                ratio = np.linalg.norm(M.entries @ v, qi.value) / np.linalg.norm(v, pi.value)
                assert ratio < floor, (M.entries.tolist(), p, q)
            moved += 1
    return moved


def _structured_real_corpus():
    """Real matrices with n, m <= 8: Gaussian, {-1,0,1} and +-1 entries,
    Sylvester Hadamard orders 1-8 with their leading sub-blocks and
    Kronecker products, and rank-one sign tensors."""
    r = np.random.default_rng(2024)
    mats = []
    for kind in range(3):
        for _ in range(6):
            n, m = (int(x) for x in r.integers(1, 9, size=2))
            if kind == 0:
                mats.append(r.standard_normal((n, m)))
            elif kind == 1:
                mats.append(r.integers(-1, 2, size=(n, m)).astype(float))
            else:
                mats.append(r.choice([-1.0, 1.0], size=(n, m)))
    for k in (1, 2, 4, 8):
        H = gen_hadamard(k).entries
        mats += [H, H[: max(k // 2, 1)], H[:, : max(k - 1, 1)]]
    H2 = gen_hadamard(2).entries
    mats += [np.kron(H2, np.ones((2, 2))), np.kron(gen_hadamard(4).entries, H2[:1])]
    for n, m in ((3, 5), (6, 8)):
        c, b = r.choice([-1.0, 1.0], size=n), r.choice([-1.0, 1.0], size=m)
        mats.append(np.outer(c, b))
    return [as_matrix(A, field="real") for A in mats]


class TestSignEnumerationSites:
    # (m, entry range) of integer 3 x m matrices with 7 to 3165 sign vectors
    # of constant-modulus image; m = 2 uses a hand-made matrix with two
    CASES = [(2, 0), (8, 2), (15, 1), (16, 2), (17, 2), (20, 5)]

    def test_einf1_real_candidates(self):
        # the eigenspace path decides as the full enumeration did, on the
        # enumeration cases, the structured corpus and the real matrices
        # of the tier-1 corpus and curated suite (also at tol 1e-4)
        for m, k in self.CASES:
            if m == 2:
                A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
            else:
                A = np.random.default_rng(m).integers(-k, k + 1, size=(3, m)).astype(float)
            _einf1_matches_reference(as_matrix(A, field="real"), [(2, 2), (1.5, 3)])
        moved = sum(_einf1_matches_reference(M) for M in _structured_real_corpus())
        assert moved > 0  # constant-image sign vectors that are no eigenvectors
        tier1 = [M for M in make_corpus(60) if not M.is_complex]
        tier1 += [M for _, M in make_curated() if not M.is_complex]
        for M in tier1:
            _einf1_matches_reference(M, [(2, 2), (3, 1.5)])
            _einf1_matches_reference(M, [(2, 2), (1.5, 3)], tol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["gauss", "ternary", "sign", "repeated"]),
        n=st.integers(1, 6),
        m=st.integers(1, 16),
        pair=st.sampled_from(EINF1_PAIRS),
    )
    def test_einf1_matches_enumeration_property(self, seed, kind, n, m, pair):
        # repeated columns and small integer entries give degenerate
        # eigenspaces, where grouping singular values to 1e-8 could split a
        # true eigenspace
        r = np.random.default_rng(seed)
        if kind == "gauss":
            A = r.standard_normal((n, m))
        elif kind == "ternary":
            A = r.integers(-1, 2, size=(n, m)).astype(float)
        elif kind == "sign":
            A = r.choice([-1.0, 1.0], size=(n, m))
        else:
            A = r.choice([-1.0, 1.0], size=(n, 2))[:, r.integers(0, 2, size=m)]
        _einf1_matches_reference(as_matrix(A, field="real"), [pair])

    def test_einf1_perturbed_members(self):
        # Hadamard, Kronecker and rank-one sign tensor members moved by noise
        # well below tol: their split eigenvalues are grouped again and the
        # groups searched with the slack the residual test allows, so the
        # eigenspace path answers as the full enumeration does
        r = np.random.default_rng(7)
        bases = [gen_hadamard(k).entries for k in (2, 4, 8, 16)]
        bases += [np.kron(gen_hadamard(4).entries, np.ones((1, 2))), gen_hadamard(8).entries[:4]]
        for n, m in ((3, 5), (6, 8)):
            bases.append(np.outer(r.choice([-1.0, 1.0], size=n), r.choice([-1.0, 1.0], size=m)))
        members = 0
        for tol, eta in ((1e-4, 1e-6), (1e-6, 1e-8)):
            for B in bases:
                M = as_matrix(B + eta * r.standard_normal(B.shape), field="real")
                _einf1_matches_reference(M, tol=tol)
                members += check_Einf1(M, 2, 2, tol).member == "yes"
        assert members >= 10  # H4, H16, the Kronecker product and both tensors

    def test_einf1_close_groups_not_exact(self):
        # A = diag(1, 1, 1 - 2.5e-8) U^T: the double top eigenvalue of A^T A
        # has the plane x3 = x1 + x2 as eigenspace, and the third lies 5e-8
        # below.  A sign vector passing the residual test at tol 1e-8 may lie
        # up to sqrt(3) 1e-8 / 4e-8 = 0.43 from the plane entrywise, and the
        # plane's rest row (1, 1) stretches that to 1.3 > 1, so rounding is
        # not guaranteed: no sign vector lies on the plane, but the "no" is
        # not exact
        u = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 2.0], [1.0, 1.0, -1.0]])
        U = (u / np.linalg.norm(u, axis=1, keepdims=True)).T
        A = np.diag([1.0, 1.0, 1.0 - 2.5e-8]) @ U.T
        v = check_Einf1(as_matrix(A, field="real"), 2, 2)
        assert (v.member, v.certainty) == ("no", "estimate-backed")
        loose = [c for c in v.conditions if c.name == "sign-enumeration-exhaustive"]
        assert loose and loose[0].satisfied is False and loose[0].measured["dimension"] == 2

    def test_sign_vectors_in_span(self):
        # the set is what is under test: past one block of patterns the
        # order of the survivors (which only picks a certificate) may differ
        # from the full enumeration's, so both sides are compared sorted
        def sign_vectors(Q, B=None):
            found, exhaustive = equality_classes._unimodular_vectors(Q, B)
            assert exhaustive
            return sorted(map(tuple, found))

        def check(Q):
            want = _blockwise_signs_in_span(Q)
            assert want and sign_vectors(Q) == sorted(map(tuple, want)), Q.shape

        for m, _ in self.CASES:
            # k = 4: three sign vectors and a Gaussian direction
            r = np.random.default_rng(m)
            S = _sign_cols(r.integers(0, 1 << (m - 1), size=3), m)
            check(np.linalg.qr(np.hstack([S, r.standard_normal((m, 1))]))[0])
        x = _sign_cols(77, 16)
        check(x.reshape(16, 1) / 4.0)  # k = 1
        H = gen_hadamard(16).entries
        check(H / 4.0)  # k = m: every sign vector
        # with an image map, k = m reproduces the full enumeration's filter
        want = _blockwise_constant_image_signs(H, DEFAULT_TOL)
        assert sign_vectors(svd(H).v, H) == sorted(map(tuple, want))

    def test_cap_answers_none(self):
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((32, 26)))[0]
        assert equality_classes._unimodular_vectors(Q) is None


class TestEinf1Large:
    def test_real_32_gaussians_exact_no(self):
        for seed in range(3):
            A = np.random.default_rng(seed).standard_normal((32, 32))
            v = check_Einf1(as_matrix(A, field="real"), 2, 2)
            assert (v.member, v.certainty) == ("no", "exact"), seed

    def test_rank_deficient_skips_its_null_cluster(self):
        # a numerically null cluster of 28 singular values sits far below any
        # member's amplitude, so it is not enumerated (it is past the cap)
        r = np.random.default_rng(5)
        A = r.standard_normal((30, 2)) @ r.standard_normal((2, 30))
        v = check_Einf1(as_matrix(A, field="real"), 2, 2)
        assert (v.member, v.certainty) == ("no", "exact")
        T = np.outer(r.choice([-1.0, 1.0], size=30), r.choice([-1.0, 1.0], size=30))
        assert check_Einf1(as_matrix(T, field="real"), 1.5, 3).member == "yes"

    def test_hadamard_32_past_the_cap(self):
        v = check_Einf1(gen_hadamard(32), 2, 2)
        assert (v.member, v.certainty) == ("undetermined", "estimate-backed")
        cap = [c for c in v.conditions if c.name == "sign-enumeration-cap"]
        assert cap and cap[0].measured == {"dimension": 32, "max_dimension": 25}


def _complex(A):
    return as_matrix(A.entries, field="complex")


def _reference_search(Q, rng, W=None, tries=24, iters=400):
    """The unbatched search, one start at a time: the reference the batched
    kernel must reproduce up to rounding."""
    m, k = Q.shape
    P = Q @ Q.conj().T
    starts = [Q[:, j] for j in range(k)] + [P @ np.ones(m, dtype=complex)]
    starts += [Q @ (rng.standard_normal(k) + 1j * rng.standard_normal(k)) for _ in range(tries)]
    if m <= 4:
        g = 8 if m >= 4 else (16 if W is None else 24)
        phases = np.exp(2j * np.pi * np.arange(g) / g)
        mesh = np.meshgrid(*([phases] * (m - 1)), indexing="ij")
        Xg = np.vstack([np.ones(g ** (m - 1))] + [t.reshape(-1) for t in mesh])
        fit = np.linalg.norm(Q @ (Q.conj().T @ Xg) - Xg, axis=0)
        starts += [Xg[:, j] for j in np.argsort(fit, kind="stable")[: 8 if W is None else 12]]
    out = []
    for x in starts:
        if np.linalg.norm(x) == 0:
            continue
        c = Q.conj().T @ x
        ok = W is None
        for _ in range(iters):
            if W is None:
                xn = P @ equality_classes._unit_phase(x, 0.0)
                step = np.linalg.norm(xn - x)
                small = step <= 1e-14 * max(np.linalg.norm(x), 1e-300)
                x = xn
                if small:
                    break
                continue
            c = Q.conj().T @ equality_classes._unit_phase(Q @ c, 1e-14)
            y = W @ c
            ty = np.abs(y).mean()
            if ty > 0:
                c = W.conj().T @ (equality_classes._unit_phase(y, 1e-14) * ty)
            x = Q @ c
            a, b = np.abs(x), np.abs(W @ c)
            if a.max() <= 1e-300:
                break
            y_dev = 0.0 if b.max() <= 0 else (b.max() - b.min()) / b.max()
            if (a.max() - a.min()) / a.max() <= 1e-12 and y_dev <= 1e-12:
                ok = True
                break
        a = np.abs(x)
        if not ok or a.min() <= 1e-8:
            continue
        w = x / a
        if np.linalg.norm(P @ w - w) > 1e-8 * math.sqrt(m):
            continue
        if not any(abs(np.vdot(u, w)) >= (1.0 - 1e-8) * m for u in out):
            out.append(w)
    return out


def _same_up_to_phase(got, want, tol=1e-9):
    """got and want hold the same vectors, each matched to tol after its
    best unimodular scalar, in any order."""
    assert len(got) == len(want) > 0
    for u in got:
        dist = []
        for v in want:
            c = np.vdot(v, u)
            dist.append(np.abs(u - c / abs(c) * v).max() if c else np.inf)
        assert min(dist) <= tol


class TestUnimodularSearch:
    """The batched phase-projection search behind degenerate eigenspaces.

    It yields candidates in the order their columns converge, and a
    candidate found by several starts may come from a different one than in
    the one-start-at-a-time reference: the two lists agree as sets of
    vectors up to a unimodular scalar, and the order only picks the
    certificate."""

    @pytest.mark.parametrize(
        "A, Q",
        [(gen_dft(3), None), (gen_dft(6), np.eye(6)), (_complex(gen_hadamard(4)), None)],
        ids=["dft3", "dft6", "hadamard4"],
    )
    def test_matches_unbatched_reference(self, A, Q):
        # For DFT-6 the basis is fixed to the identity: in a generic basis of
        # this fully degenerate space the one-start-at-a-time reference is
        # itself chaotic (a 1e-15 rotation of Q moves its candidates by up
        # to 2), so only an exactly shared basis makes the two comparable.
        arr = A.entries
        if Q is None:
            Q = svd(arr).v
        Q = Q.astype(complex)
        for W in (arr @ Q / math.sqrt(A.m), None):
            got = list(equality_classes._unimodular_in_subspace(Q, np.random.default_rng(5), W))
            _same_up_to_phase(got, _reference_search(Q, np.random.default_rng(5), W))

    @pytest.mark.parametrize(
        "A", [gen_dft(3), gen_dft(6), _complex(gen_hadamard(4))], ids=["dft3", "dft6", "hadamard4"]
    )
    def test_candidates_certified_in_svd_basis(self, A):
        # whatever basis the SVD returns, every candidate is unimodular and in
        # the span, and with an image map its image has constant modulus
        arr = A.entries
        Q = svd(arr).v.astype(complex)
        m = A.m
        for W in (arr @ Q / math.sqrt(m), None):
            got = list(equality_classes._unimodular_in_subspace(Q, np.random.default_rng(5), W))
            assert len(got) > 0
            for w in got:
                assert np.abs(np.abs(w) - 1.0).max() <= 1e-9
                assert np.linalg.norm(Q @ (Q.conj().T @ w) - w) <= 1e-8 * math.sqrt(m)
                if W is not None:
                    image = np.abs(arr @ w)
                    assert image.max() - image.min() <= 1e-9 * image.max()

    def test_same_seed_same_candidates(self):
        A = gen_dft(6).entries
        Q = svd(A).v.astype(complex)
        for W in (A @ Q / math.sqrt(6), None):
            a = list(equality_classes._unimodular_in_subspace(Q, np.random.default_rng(3), W))
            b = list(equality_classes._unimodular_in_subspace(Q, np.random.default_rng(3), W))
            assert len(a) > 0 and len(a) == len(b)
            assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_first_candidate_stops_early(self, monkeypatch):
        # complexified H2 with its image map: most starts converge within a
        # few steps and some never do.  The first candidate comes long
        # before iters steps; only the whole list pays them.  Each step
        # takes two phase projections, counted by a spy.
        arr = _complex(gen_hadamard(2)).entries
        Q = svd(arr).v.astype(complex)
        W = arr @ Q / math.sqrt(2.0)
        steps = []
        unit_phase = equality_classes._unit_phase

        def spy(Z, floor):
            steps.append(Z.shape)
            return unit_phase(Z, floor)

        monkeypatch.setattr(equality_classes, "_unit_phase", spy)
        search = equality_classes._unimodular_in_subspace(Q, np.random.default_rng(0), W)
        w = next(search)
        assert np.abs(np.abs(w) - 1.0).max() <= 1e-9
        assert 0 < len(steps) // 2 <= 10
        steps.clear()
        list(equality_classes._unimodular_in_subspace(Q, np.random.default_rng(0), W))
        assert len(steps) // 2 >= 100

    @pytest.mark.parametrize(
        "A",
        [gen_dft(k) for k in range(2, 9)] + [_complex(gen_hadamard(k)) for k in (2, 4, 8)],
        ids=[f"dft{k}" for k in range(2, 9)] + [f"hadamard{k}" for k in (2, 4, 8)],
    )
    def test_biunimodular_einf1_certificate(self, A):
        # every singular value is equal, so the eigenspace is searched whole
        verdict = check_Einf1(A, 2, 2)
        assert verdict.member == "yes"
        v = verdict.certificate["v"]
        arr = A.entries
        assert np.abs(np.abs(v) - 1.0).max() <= 1e-9
        z = arr.conj().T @ (arr @ v)
        lam = np.vdot(v, z).real / np.vdot(v, v).real
        assert np.linalg.norm(z - lam * v) <= 1e-7 * np.linalg.norm(z)
        image = np.abs(arr @ v)
        assert image.max() - image.min() <= 1e-9 * image.max()

    def test_svd_equality_degenerate_complex(self, monkeypatch):
        # the top subspace of a diagonal unitary is everything and its
        # computed leading vector e_1 is not in K_1, so (inf,2) needs the
        # search without an image constraint; it finds (1,1,1)/sqrt3
        image_maps = []
        search = equality_classes._unimodular_in_subspace

        def spy(Q, rng, W=None):
            image_maps.append(W)
            return search(Q, rng, W)

        monkeypatch.setattr(equality_classes, "_unimodular_in_subspace", spy)
        verdict = check_svd_equality(as_matrix(np.diag([1.0, 1j, -1.0])), "inf", 2)
        assert verdict.member == "yes"
        assert image_maps == [None]
        lead = verdict.certificate.v[:, 0]
        assert np.allclose(np.abs(lead), 1.0 / math.sqrt(3.0))


class TestSvdEquality:
    def test_diag_cases(self):
        # (r,s)=(1,1): needs u1 in K1 (constant modulus); u1 = e1 fails for n=2
        assert check_svd_equality(D21, 1, 1).member == "no"
        # (1,3): (Ku,Kv) = (K-1,K-1); e1 is a coordinate vector -> yes
        assert check_svd_equality(D21, 1, 3).member == "yes"
        # (2,2) trivially yes
        assert check_svd_equality(D21, 2, 2).member == "yes"

    def test_hadamard_real_vs_complex(self):
        # (3,1.5) needs (K1,K1); real H2 sign vectors map to vectors with a
        # zero entry, so no real pair exists; complexified H2 has (1,i) pairs
        assert check_svd_equality(gen_hadamard(2), 3, 1.5).member == "no"
        H2C = as_matrix(gen_hadamard(2).entries, field="complex")
        assert check_svd_equality(H2C, 3, 1.5).member == "yes"
        assert check_svd_equality(gen_hadamard(2), 1, 1).member == "yes"

    def test_worked_matrix(self):
        assert check_svd_equality(BC, 3, 1.5).member == "yes"
        assert check_svd_equality(BR, 3, 1.5).member == "no"
        assert check_svd_equality(BC, "inf", 1).member == "yes"

    def test_certificate_attains(self):
        v = check_svd_equality(BC, 3, 1.5)
        assert v.certificate is not None
        # certificate is a full SVD whose leading pair lies in the required
        # classes; its first right vector must attain the spectral norm
        x = v.certificate.v[:, 0]
        f = svd(BC)
        got = np.linalg.norm(BC.entries @ x, 2) / np.linalg.norm(x, 2)
        assert math.isclose(got, f.s[0], rel_tol=1e-9)
        assert np.allclose(v.certificate.reconstruct(), BC.entries, atol=1e-8)
        # leading pair constant-modulus on both sides
        u = v.certificate.u[:, 0]
        assert np.allclose(np.abs(u), np.abs(u[0]), atol=1e-9)
        assert np.allclose(np.abs(x), np.abs(x[0]), atol=1e-9)

    def test_cross_check_with_decide_equality(self):
        # structural verdict must agree with the norm computation
        for (M, r, s) in [
            (D21, 1, 3),
            (D21, 1, 1),
            (BC, 3, 1.5),
            (BR, 3, 1.5),
            (gen_hadamard(2), 1, 1),
        ]:
            structural = check_svd_equality(M, r, s).member
            numeric, _ = decide_equality(M, 2, 2, r, s)
            if "undetermined" not in (structural, numeric):
                assert structural == numeric, (r, s)

    def test_generated_extremal_instances(self):
        E = gen_svd_extremal(3, 3, 3, 1.5, (2.0, 1.0, 0.5), seed=1)
        f = svd(E)
        assert np.allclose(f.s, [2.0, 1.0, 0.5], atol=1e-10)
        assert check_svd_equality(E, 3, 1.5).member == "yes"


def _reference_svd_equality(A, r, s, tol=DEFAULT_TOL, seed=0):
    """check_svd_equality's former decider, kept as the reference: both
    sides are searched in turn, the real K_1 candidates are every sign vector
    of the top subspace, listed before any partner is tested, and the
    complex ones come from the phase search without an image map."""
    from pqnorm.core import KClassId, k_class_test
    from pqnorm.generators import extremal_pair_classes

    ev = equality_classes
    M = as_matrix(A)
    ri, si = as_index(r), as_index(s)
    f = svd(M)
    if not M.entries.any():
        return ev._verdict("yes", [ev.Condition("zero-matrix", True, {})], certificate=f)
    ku, kv = extremal_pair_classes(ri, si)
    arr = M.entries
    n, m = arr.shape
    s1 = float(f.s[0])
    conds = []

    def u_ok(u):
        return ku is KClassId.K0 or k_class_test(u, ku, tol)

    def v_ok(v):
        return kv is KClassId.K0 or k_class_test(v, kv, tol)

    top = [i for i in range(len(f.s)) if f.s[i] >= s1 * (1.0 - 1e-8)]
    if u_ok(f.u[:, 0]) and v_ok(f.v[:, 0]):
        return ev._verdict("yes", conds, certificate=f)
    if len(top) == 1:
        return ev._verdict("no", conds)
    Qv, Qu = f.v[:, top], f.u[:, top]
    rng = np.random.default_rng(seed)
    exhaustive = True

    def _k1_candidates(Q):
        nonlocal exhaustive
        if not M.is_complex:
            out = ev._unimodular_vectors(Q.real.astype(float))
            if out is not None and out[1]:
                return [x / math.sqrt(Q.shape[0]) for x in out[0]]
        exhaustive = False
        cands = []
        for w in ev._unimodular_in_subspace(Q.astype(complex), rng):
            x = w / np.linalg.norm(w)
            if not M.is_complex:
                if np.abs(x.imag).max() > 1e-10:
                    continue
                x = x.real.astype(float)
            cands.append(x)
        return cands

    def _candidates(kc, Q):
        if kc is KClassId.KMINUS1:
            coords = np.eye(Q.shape[0], dtype=arr.dtype)
            return [e for e in coords if np.linalg.norm(Q @ (Q.conj().T @ e) - e) <= 1e-8]
        return _k1_candidates(Q) if kc is KClassId.K1 else []

    for v in _candidates(kv, Qv):
        if u_ok(arr @ v / s1):
            cert = ev._svd_with_first_vector(M, f, len(top), v)
            return ev._verdict("yes", conds, certificate=cert)
    for u in _candidates(ku, Qu):
        v = arr.conj().T @ u / s1
        if v_ok(v):
            cert = ev._svd_with_first_vector(M, f, len(top), v)
            return ev._verdict("yes", conds, certificate=cert)
    if kv is KClassId.KMINUS1 or ku is KClassId.KMINUS1:
        exhaustive = True
    if exhaustive:
        return ev._verdict("no", conds)
    target = bound_factor(2, 2, ri, si, m, n) * s1
    lb = bracket_norm(M, ri, si, seed=seed)
    margin = 1.0 - max(tol, ev.ESTIMATED_EQ_TOL)
    if lb.lower >= target * margin:
        return ev._verdict("yes", conds, certainty="estimate-backed")
    if lb.upper < target * margin:
        return ev._verdict("no", conds, certainty="exact" if lb.is_exact else "estimate-backed")
    return ev._verdict("undetermined", conds, certainty="estimate-backed")


def _svd_equality_corpus():
    """Structured and Gaussian matrices in both fields, small enough for the
    reference's full sign listing and its bracket fallback."""
    r = np.random.default_rng(11)
    mats = [as_matrix(gen_hadamard(k).entries, field="real") for k in (2, 4, 8)]
    mats += [_complex(gen_hadamard(4)), gen_dft(3)]
    for n in (3, 5, 8):
        mats.append(as_matrix(np.linalg.qr(r.standard_normal((n, n)))[0], field="real"))
    Z = r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))
    mats.append(as_matrix(np.linalg.qr(Z)[0], field="complex"))
    for _ in range(4):
        n, m = (int(x) for x in r.integers(1, 6, size=2))
        mats.append(as_matrix(r.standard_normal((n, m)), field="real"))
        mats.append(as_matrix(r.standard_normal((n, m)) + 1j * r.standard_normal((n, m))))
    # degenerate top values: K_1 pairs on both sides, and K_{-1} on both
    for i, (rr, ss) in ((0, (3, 1.5)), (2, (1, 3))):
        mats.append(gen_svd_extremal(4, 4, rr, ss, (2.0, 2.0, 0.5, 0.25), seed=i))
    mats.append(as_matrix(np.diag([3.0, 3.0, 1.0]), field="real"))
    mats.append(as_matrix(np.kron(gen_hadamard(2).entries, np.ones((2, 2))), field="real"))
    return mats


SVD_INDICES = [1, 1.5, 2, 3, "inf"]
REAL_ORTHOGONAL_20 = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 20)))[0]


class TestSvdEqualityOneSide:
    """check_svd_equality searches one side of the top singular subspace
    through the shared unimodular-vector kernel."""

    def test_matches_two_sided_reference(self):
        # no yes <-> no flip, no decided -> undetermined, no exact ->
        # estimate-backed; estimate-backed "yes" may become exact
        moved = 0
        for M in _svd_equality_corpus():
            for r in SVD_INDICES:
                for s in SVD_INDICES:
                    got = check_svd_equality(M, r, s)
                    want = _reference_svd_equality(M, r, s)
                    case = (M.entries.tolist(), r, s)
                    if want.member != "undetermined":
                        assert got.member == want.member, case
                    if want.certainty == "exact":
                        assert got.certainty == "exact", case
                    moved += (want.certainty, got.certainty) == ("estimate-backed", "exact")
                    if got.member == "yes" and got.certainty == "exact":
                        assert np.allclose(got.certificate.reconstruct(), M.entries, atol=1e-8)
        assert moved > 0  # complex K_1 pairs found with the image map

    @pytest.mark.parametrize(
        "A",
        [gen_dft(k) for k in (3, 5, 6, 7, 8)] + [_complex(gen_hadamard(k)) for k in (8, 16)],
        ids=[f"dft{k}" for k in (3, 5, 6, 7, 8)] + ["hadamard8", "hadamard16"],
    )
    def test_complex_k1_pairs_exact(self, A):
        # every singular value is equal; the right search with the image map
        # A / s1 finds a unimodular v whose image is unimodular too
        for r, s in ((3, 1.5), ("inf", 1)):
            v = check_svd_equality(A, r, s)
            assert (v.member, v.certainty) == ("yes", "exact")
            assert np.allclose(v.certificate.reconstruct(), A.entries, atol=1e-8)

    @pytest.mark.parametrize(
        "r, s, member",
        [(3, 1.5, "no"), (3, 2, "yes"), (3, 3, "no"), ("inf", 1, "no")],
    )
    def test_real_orthogonal_20(self, r, s, member):
        # the top subspace is everything: 2^19 sign vectors, filtered by
        # their images block by block instead of listed
        v = check_svd_equality(as_matrix(REAL_ORTHOGONAL_20, field="real"), r, s)
        assert (v.member, v.certainty) == (member, "exact")


class TestSufficientConditions:
    def test_e1inf(self):
        SE = gen_single_entry(2, 2, 0, 0, 3.0)
        assert sufficient_e1inf(SE, 2, 2) is True
        assert sufficient_e1inf(gen_hadamard(2), 2, 2) is False

    def test_e1inf_implies_membership(self):
        # no false positives: sufficient -> the full check agrees
        rng = np.random.default_rng(42)
        hits = 0
        for i in range(40):
            A = np.zeros((2, 2))
            A[0, 0] = 3.0
            A[1, 1] = rng.uniform(0.0, 2.9)
            if sufficient_e1inf(A, 2, 2):
                hits += 1
                assert check_E1inf(A, 2, 2).member == "yes"
        assert hits > 0

    def test_e11_closeness_example(self):
        # a nearly-Hadamard matrix fails the closeness inequality
        assert sufficient_e11(np.array([[1.0, 0.9], [1.0, -0.9]]), 2, 2) is False

    def test_e11_single_column(self):
        col = np.array([[1.0], [1.0]])
        assert sufficient_e11(col, 1, 1) is True
        assert check_E11(col, 1, 1).member == "yes"

    def test_einfinf_single_row(self):
        row = np.array([[1.0, 1.0]])
        assert sufficient_einfinf(row, "inf", 2) is True
        assert check_Einfinf(row, "inf", 2).member == "yes"

    def test_no_false_positives_small(self):
        rng = np.random.default_rng(7)
        for i in range(25):
            A = rng.standard_normal((2, 2))
            for (fn, chk, p, q) in [
                (sufficient_e1inf, check_E1inf, 2, 2),
                (sufficient_e11, check_E11, 1.5, 1.5),
                (sufficient_einfinf, check_Einfinf, 3, 3),
            ]:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    flag = fn(A, p, q)
                if flag:
                    assert chk(A, p, q).member == "yes"


class TestMaximizerEigencheck:
    def test_ones_passes(self):
        assert maximizer_eigencheck(J, np.array([1.0, 1.0]), 2, 2) is True

    def test_rejects_nonmaximizer_shape(self):
        with pytest.raises(PreconditionError):
            maximizer_eigencheck(J, np.array([1.0, 0.5]), 2, 2)

    def test_p1_requires_constant_modulus(self):
        with pytest.raises(PreconditionError):
            maximizer_eigencheck(J, np.array([1.0, 0.0]), 1, 2)

    def test_pinf_accepts_coordinate(self):
        ok = maximizer_eigencheck(np.diag([2.0, 1.0]), np.array([1.0, 0.0]), "inf", 2)
        assert ok is True


# A v = (1, 1, 1) for v = (1, 1, 1), a constant-modulus image, but
# A^T A v = (1, 5, -3) is not parallel to v
NOT_EIGEN = np.array([[0.0, 2.0, -1.0], [2.0, 1.0, -2.0], [-1.0, 2.0, 0.0]])
SCALES = [-1000, -300, -30, 30, 511, 1000]


class TestPowerOfTwoScaling:
    """maximizer_eigencheck, dav_normal_form and extremal_stats work on
    A / 2^e and scale what they report back exactly."""

    @pytest.mark.parametrize("k", SCALES)
    def test_maximizer_eigencheck(self, k):
        # unscaled, A*A v underflowed to 0 (a false True at 2^-300) or
        # overflowed (an error at 2^511)
        v = np.ones(3)
        assert maximizer_eigencheck(np.ldexp(NOT_EIGEN, k), v, 2, 2) is False
        assert maximizer_eigencheck(np.ldexp(J.entries, k), np.ones(2), 2, 2) is True

    @pytest.mark.parametrize("k", SCALES)
    def test_dav_normal_form(self, k):
        # the tolerance floor tol * max(tau, 1) was absolute below scale 1,
        # so column sums off by 4 * 2^-30 passed
        rep = dav_normal_form(np.ldexp(NOT_EIGEN, k), np.ones(3))
        assert not rep.ok and rep.tau == math.ldexp(1.0, k)
        assert np.array_equal(rep.col_sums, np.ldexp([1.0, 5.0, -3.0], k))
        rep = dav_normal_form(as_matrix(np.ldexp(B, k), field="complex"), np.array([1.0, 1j]))
        assert rep.ok and rep.tau == math.ldexp(dav_normal_form(BC, np.array([1.0, 1j])).tau, k)
        # tau = 1/2 and column sums 1/2 +- 8e-9: within tol absolutely, not
        # relatively (A^T A v leaves v's direction by 1.6e-8 relative)
        A = 4e-9 * np.ones((2, 2)) + np.diag([0.5, -0.5])
        assert not dav_normal_form(np.ldexp(A, k), np.array([1.0, -1.0])).ok

    @pytest.mark.parametrize("k", SCALES)
    def test_extremal_stats(self, k):
        st = extremal_stats(np.ldexp(NOT_EIGEN, k), np.ones(3))
        want = [math.ldexp(x, k) for x in (2.0, 5.0, 5.0, 1.0)]
        assert [st.rho, st.sigma_col, st.sigma_row, st.tau] == want


class TestDavNormalForm:
    def test_ones(self):
        rep = dav_normal_form(J, np.array([1.0, 1.0]))
        assert isinstance(rep, DavReport)
        assert rep.ok
        assert math.isclose(rep.tau, 2.0, abs_tol=1e-12)
        assert np.allclose(rep.row_sums, 2.0)
        assert np.allclose(rep.col_sums, 2.0)  # n*tau/m = tau here

    def test_worked_complex(self):
        rep = dav_normal_form(BC, np.array([1.0, 1j]))
        assert rep.ok
        assert math.isclose(rep.tau, math.sqrt(2.0), abs_tol=1e-12)
        # d and v_diag are diagonal unitary matrices; D A V has row sums tau
        # and column sums n*tau/m (= tau for square)
        assert np.allclose(np.abs(np.diag(rep.d)), 1.0)
        assert np.allclose(np.abs(np.diag(rep.v_diag)), 1.0)
        W = rep.d @ BC.entries @ rep.v_diag
        assert np.allclose(W.sum(axis=1), rep.tau)
        assert np.allclose(W.sum(axis=0), rep.tau)

    def test_absent_when_not_attained(self):
        rep = dav_normal_form(D21, np.array([1.0, 1.0]))
        assert rep.ok is False


class TestExtremalStats:
    def test_hand_values(self):
        st = extremal_stats(np.array([[3.0, 1.0], [0.0, 1.0]]))
        assert st.rho == 3.0
        assert st.sigma_col == 3.0  # max column l1 mass
        assert st.sigma_row == 4.0  # max row l1 mass
        assert st.tau is None  # no probe vector supplied


class TestDispatcher:
    def test_check_class_routes(self):
        assert check_class(J, ClassId.E_INF1, 2, 2).member == "yes"
        assert check_class(J, "E_11", 2, 2).member == "no"

    def test_membership_implies_equality_at_quadrant_points(self):
        # if check says yes, the magnitude identity must hold numerically
        cases = [
            (J, ClassId.E_INF1, ("inf", 1)),
            (gen_hadamard(2), ClassId.E_11, (1, 1)),
            (gen_hadamard(2), ClassId.E_INFINF, ("inf", "inf")),
            (D21, ClassId.E_1INF, (1, "inf")),
        ]
        for M, cls, (r, s) in cases:
            assert check_class(M, cls, 2, 2).member == "yes"
            v22 = best_norm(M, 2, 2).value
            Mv = as_matrix(M) if not isinstance(M, type(J)) else M
            f = bound_factor(2, 2, r, s, Mv.m, Mv.n)
            vrs = best_norm(M, r, s).value
            assert math.isclose(vrs, f * v22, rel_tol=1e-9), (cls, r, s)
