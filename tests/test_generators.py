"""Matrix generators: structure invariants and norm identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqnorm import (
    GeneratorSpec,
    KClassId,
    as_index,
    best_norm,
    bound_factor,
    build_generator,
    check_svd_equality,
    conjugate,
    extremal_pair_classes,
    gen_dft,
    gen_hadamard,
    gen_single_entry,
    gen_svd_extremal,
    gen_tensor_product,
    k_class_test,
    kclass_unit_vector,
    svd,
    unitary_with_first_column,
    vector_norm,
)


class TestHadamard:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_orthogonal_sign_matrix(self, k):
        H = gen_hadamard(k)
        G = H.entries
        assert G.shape == (k, k)
        assert np.all(np.abs(G) == 1.0)
        assert np.allclose(G.T @ G, k * np.eye(k))

    def test_rejects_non_powers(self):
        for k in (0, 3, 6, -2):
            with pytest.raises(ValueError):
                gen_hadamard(k)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_norm_identities(self, k):
        # ||H||_{2,2} = sqrt(k); ||H||_{1,1} = k (column mass);
        # the (1,1) value equals sqrt(k) * ||H||_{2,2}
        H = gen_hadamard(k)
        s22 = best_norm(H, 2, 2).value
        v11 = best_norm(H, 1, 1).value
        assert math.isclose(s22, math.sqrt(k), rel_tol=1e-9)
        assert math.isclose(v11, k, rel_tol=1e-9)
        assert math.isclose(v11, math.sqrt(k) * s22, rel_tol=1e-9)


class TestDft:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_scaled_unitary(self, k):
        F = gen_dft(k)
        W = F.entries
        assert np.allclose(np.abs(W), 1.0)
        assert np.allclose(W.conj().T @ W, k * np.eye(k), atol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_dft(0)


class TestUnitaryCompletion:
    def test_first_column_and_unitarity(self):
        c = np.array([1.0, 1j]) / math.sqrt(2)
        U = unitary_with_first_column(c)
        assert np.allclose(U[:, 0], c)
        assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12)

    def test_coordinate_vector_exact(self):
        e1 = np.array([1.0, 0.0, 0.0])
        U = unitary_with_first_column(e1)
        assert np.allclose(U[:, 0], e1)
        assert np.allclose(U.conj().T @ U, np.eye(3), atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            unitary_with_first_column(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            unitary_with_first_column(np.zeros(2))

    @given(st.integers(0, 2000), st.integers(2, 6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_vectors(self, seed, d, cplx):
        r = np.random.default_rng(seed)
        v = r.standard_normal(d) + (1j * r.standard_normal(d) if cplx else 0)
        v = v / np.linalg.norm(v)
        U = unitary_with_first_column(v)
        assert np.allclose(U[:, 0], v, atol=1e-12)
        assert np.allclose(U.conj().T @ U, np.eye(d), atol=1e-11)


class TestKClassVectors:
    def test_classes_realized(self):
        rng = np.random.default_rng(0)
        for tag in ("real", "complex"):
            v1 = kclass_unit_vector(KClassId.K1, 4, rng, tag)
            assert k_class_test(v1, KClassId.K1)
            vm = kclass_unit_vector(KClassId.KMINUS1, 4, rng, tag)
            assert k_class_test(vm, KClassId.KMINUS1)
            assert not k_class_test(v1, KClassId.KMINUS1)
        assert math.isclose(np.linalg.norm(v1), 1.0, rel_tol=1e-12)

    def test_k0_is_a_seeded_unit_vector(self):
        # K_0 places no restriction: a random unit vector of the field's
        # dtype, reproduced by the same generator state, in neither other class
        for tag, dtype in (("real", np.float64), ("complex", np.complex128)):
            v = kclass_unit_vector(KClassId.K0, 5, np.random.default_rng(4), tag)
            assert v.dtype == dtype
            assert math.isclose(np.linalg.norm(v), 1.0, rel_tol=1e-12)
            again = kclass_unit_vector(KClassId.K0, 5, np.random.default_rng(4), tag)
            assert np.array_equal(v, again)
            assert not k_class_test(v, KClassId.K1)
            assert not k_class_test(v, KClassId.KMINUS1)

    def test_extremal_pair_classes(self):
        # (r,s) past (2,2): s < 2 pulls u1 to K1, r > 2 pulls v1 to K1
        assert extremal_pair_classes(3, 1.5) == (KClassId.K1, KClassId.K1)
        assert extremal_pair_classes(1, 3) == (KClassId.KMINUS1, KClassId.KMINUS1)
        assert extremal_pair_classes(1, 1.5) == (KClassId.K1, KClassId.KMINUS1)
        assert extremal_pair_classes(3, 3) == (KClassId.KMINUS1, KClassId.K1)


class TestSvdExtremal:
    def test_prescribed_spectrum(self):
        E = gen_svd_extremal(3, 3, 3, 1.5, (2.0, 1.0, 0.5), seed=1)
        assert np.allclose(svd(E).s, [2.0, 1.0, 0.5], atol=1e-10)

    def test_seed_reproducible(self):
        a = gen_svd_extremal(3, 2, "inf", 1, (2.0, 1.0), seed=9)
        b = gen_svd_extremal(3, 2, "inf", 1, (2.0, 1.0), seed=9)
        assert np.array_equal(a.entries, b.entries)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gen_svd_extremal(2, 2, 3, 1.5, ())
        with pytest.raises(ValueError):
            gen_svd_extremal(2, 2, 3, 1.5, (1.0, 2.0))  # increasing
        with pytest.raises(ValueError):
            gen_svd_extremal(2, 2, 3, 1.5, (2.0, -1.0))  # negative
        with pytest.raises(ValueError):
            gen_svd_extremal(2, 2, 3, 1.5, (2.0, 1.0, 0.5))  # too many

    @pytest.mark.parametrize(
        "sigma", [(math.inf, 1.0), (2.0, math.nan), (math.nan,), (2.0, -math.inf)]
    )
    def test_non_finite_sigma(self, sigma):
        # rejected before any product is formed (an inf used to reach the
        # matmul and warn, and a NaN passed the ordering checks)
        with pytest.raises(ValueError, match="^singular values must be finite$"):
            gen_svd_extremal(2, 2, 2, 2, sigma)

    @pytest.mark.parametrize("pair", [(3, 1.5), (1, 3), (1, 1.5), (3, 3)])
    def test_attains_equality(self, pair):
        r, s = pair
        E = gen_svd_extremal(3, 3, r, s, (2.0, 1.0, 0.5), seed=5)
        assert check_svd_equality(E, r, s).member == "yes"
        # and the norm identity holds numerically
        f = bound_factor(2, 2, r, s, E.m, E.n)
        vrs = best_norm(E, r, s).value
        assert vrs >= f * 2.0 * (1.0 - 1e-7)

    def test_real_field(self):
        E = gen_svd_extremal(2, 2, 3, 1.5, (2.0, 1.0), seed=3, field_tag="real")
        assert not E.is_complex
        assert check_svd_equality(E, 3, 1.5).member == "yes"


class TestTensorProduct:
    def test_norm_factorizes(self):
        # ||c (x) b||_{r,s} = ||b||_{r*} ||c||_s
        b = np.array([1.0, -1.0, 2.0])
        c = np.array([1.0, 1j])
        T = gen_tensor_product(c, b)
        for (r, s) in [(1, 1), (2, 2), ("inf", 1), (1.5, 3), (3, "inf")]:
            want = vector_norm(b, conjugate(as_index(r))) * vector_norm(
                c, as_index(s)
            )
            got = best_norm(T, r, s).value
            assert math.isclose(got, want, rel_tol=1e-7), (r, s)

    def test_shape_and_entries(self):
        T = gen_tensor_product(np.array([2.0, 3.0]), np.array([1.0, -1.0, 4.0]))
        assert T.entries.shape == (2, 3)
        assert T.entries[1, 2] == 12.0


class TestSingleEntry:
    def test_structure(self):
        S = gen_single_entry(3, 3, 2, 1, 5.0)
        assert S.entries[2, 1] == 5.0
        assert np.abs(S.entries).sum() == 5.0

    def test_norm_constant_in_exponents(self):
        S = gen_single_entry(3, 2, 1, 2, 4.0)
        for (r, s) in [(1, 1), (2, 2), ("inf", "inf"), (1.7, 2.3)]:
            assert math.isclose(best_norm(S, r, s).value, 4.0, rel_tol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_single_entry(2, 2, 0, 0, 0.0)
        with pytest.raises(ValueError):
            gen_single_entry(2, 2, 5, 0, 1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_rho(self, rho):
        # a NaN used to pass the rho <= 0 test
        with pytest.raises(ValueError, match="^rho must be finite$"):
            gen_single_entry(2, 2, 0, 0, rho)


class TestBuildGenerator:
    def test_each_kind(self):
        assert build_generator(GeneratorSpec(kind="hadamard", m=4)).entries.shape == (4, 4)
        assert build_generator(GeneratorSpec(kind="dft", m=3)).is_complex
        t = build_generator(
            GeneratorSpec(kind="tensor", b=(1.0, -1.0), c=(1.0, 1.0))
        )
        assert t.entries.shape == (2, 2)
        s = build_generator(GeneratorSpec(kind="single", m=3, n=2, i=1, j=2, rho=2.5))
        assert s.entries[1, 2] == 2.5
        e = build_generator(
            GeneratorSpec(kind="svd", m=3, n=3, r="3", s="1.5", sigma=(2.0, 1.0))
        )
        assert e.entries.shape == (3, 3)

    def test_svd_rejects_extra_singular_values(self):
        # the default sigma has two values, more than min(1, 1)
        with pytest.raises(ValueError, match="more singular values than min"):
            build_generator(GeneratorSpec(kind="svd", m=1, n=1, r="3", s="1.5"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_generator(GeneratorSpec(kind="mystery"))

    def test_tensor_requires_vectors(self):
        with pytest.raises(ValueError):
            build_generator(GeneratorSpec(kind="tensor"))
