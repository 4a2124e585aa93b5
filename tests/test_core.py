"""Extended index arithmetic, vector norms, K-classes, and the vector
comparison bound."""

import math
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqnorm import (
    DEFAULT_TOL,
    ExtIndex,
    INF,
    KClassId,
    ONE,
    TWO,
    as_index,
    conjugate,
    index_str,
    k_class_test,
    sign_between,
    vector_comparison_factor,
    vector_equality_class,
    vector_norm,
)
from pqnorm.core import as_tol

INDEX_TOKENS = [1, 1.5, 2, 3, "inf"]


class TestExtIndex:
    def test_parse_numbers_and_tokens(self):
        assert as_index(1).value == 1.0
        assert as_index("1.5").value == 1.5
        assert as_index("inf").is_inf
        assert as_index("INF").is_inf
        assert as_index("Infinity").is_inf
        assert as_index("oo").is_inf
        assert as_index(float("inf")).is_inf
        assert as_index(ONE) is ONE

    def test_equal_exponents_share_one_instance(self, monkeypatch):
        # immutable, so numbers and strings of one value map to one shared
        # ExtIndex, from a table that stops growing at its size
        import pqnorm.core as core

        monkeypatch.setattr(core, "_INDEX_TABLE", {1.0: ONE, 2.0: TWO, math.inf: INF})
        assert as_index(1.5) is as_index("1.5") is as_index(np.float64(1.5))
        assert as_index(2) is TWO and as_index(float("inf")) is INF and as_index("1") is ONE
        for k in range(2 * core._INDEX_TABLE_SIZE):
            assert as_index(1.0 + k / 7.0).value == 1.0 + k / 7.0
        assert len(core._INDEX_TABLE) == core._INDEX_TABLE_SIZE
        with pytest.raises(AttributeError):
            as_index(1.5).value = 3.0

    def test_error_messages(self):
        for bad, kind, text in [
            (0.5, ValueError, "norm exponent must lie in [1, inf], got 0.5"),
            (-3, ValueError, "norm exponent must lie in [1, inf], got -3.0"),
            ("0.5", ValueError, "cannot parse norm exponent from '0.5'"),
            ("abc", ValueError, "cannot parse norm exponent from 'abc'"),
            (None, TypeError, "float() argument must be a string or a real number"),
        ]:
            with pytest.raises(kind) as err:
                as_index(bad)
            assert str(err.value).startswith(text), bad

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            as_index(0.5)
        with pytest.raises(ValueError):
            as_index(0)
        with pytest.raises(ValueError):
            as_index(-3)
        with pytest.raises(ValueError):
            as_index("abc")
        with pytest.raises(ValueError):
            as_index(float("nan"))

    def test_inv(self):
        assert as_index(2).inv == 0.5
        assert INF.inv == 0.0
        assert ONE.inv == 1.0

    def test_index_str_round_trip(self):
        for t in [1, 1.5, 2, 2.3, 3, 7.25, "inf"]:
            s = index_str(as_index(t))
            assert as_index(s) == as_index(t)

    def test_comparisons(self):
        assert as_index(1) < as_index(2) < INF
        assert INF <= INF
        assert sign_between(as_index(2), as_index(1)) == 1
        assert sign_between(as_index(2), as_index(3)) == -1
        assert sign_between(as_index(2), as_index(2)) == 0
        assert sign_between(INF, INF) == 0


class TestConjugate:
    # fixed values: 1* = inf, inf* = 1, 2* = 2, (3/2)* = 3, 3* = 3/2
    def test_corner_values(self):
        assert conjugate(ONE) == INF
        assert conjugate(INF) == ONE
        assert conjugate(TWO) == TWO

    def test_known_pairs(self):
        assert abs(conjugate(as_index(1.5)).value - 3.0) < 1e-15
        assert abs(conjugate(as_index(3)).value - 1.5) < 1e-15
        assert abs(conjugate(as_index(4)).value - 4.0 / 3.0) < 1e-15

    @given(st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, x):
        # the conjugate map is ill-conditioned in p for large p, but the
        # reciprocals (which every norm formula consumes) round-trip stably
        p = as_index(x)
        pp = conjugate(conjugate(p))
        if p.is_inf:
            assert pp.is_inf
        else:
            assert abs(pp.inv - p.inv) <= 1e-12

    @pytest.mark.parametrize("p", [1e15, 2.0**53, 1e16, 1e20, 1e300, 1.7e308, sys.float_info.max])
    def test_finite_exponent_keeps_a_conjugate_above_one(self, p):
        # p / (p - 1) rounds to 1 from about 2^53 on; p* is then the least
        # double above 1, so sgn(p* - 1) = 1 as for every finite p
        q = conjugate(p)
        assert sign_between(q, ONE) == 1 and not q.is_inf
        assert abs(q.inv + 1.0 / p - 1.0) <= 2.0**-52  # 1/p + 1/p* = 1 to an ulp

    @given(st.floats(min_value=1.0 + 1e-9, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_holder_identity(self, x):
        p = as_index(x)
        q = conjugate(p)
        if not q.is_inf:
            assert abs(p.inv + q.inv - 1.0) < 1e-12


class TestVectorNorm:
    def test_against_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            for p in [1, 1.5, 2, 3, 7]:
                assert math.isclose(
                    vector_norm(x, p), np.linalg.norm(x, ord=p), rel_tol=1e-12
                )
            assert math.isclose(
                vector_norm(x, "inf"), np.linalg.norm(x, ord=np.inf), rel_tol=1e-12
            )

    def test_zero_vector(self):
        assert vector_norm(np.zeros(3), 1.7) == 0.0

    def test_large_values_no_overflow(self):
        x = np.array([1e300, 1e300])
        v = vector_norm(x, 300.0)
        assert np.isfinite(v) and v >= 1e300

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=5),
        st.sampled_from(INDEX_TOKENS),
        st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_homogeneous(self, xs, p, c):
        x = np.array(xs)
        a = vector_norm(c * x, p)
        b = abs(c) * vector_norm(x, p)
        assert abs(a - b) <= 1e-9 * max(1.0, b)


class TestKClasses:
    def test_k1(self):
        assert k_class_test(np.array([1.0, -1.0]), KClassId.K1)
        assert k_class_test(np.array([1j, 1.0]), KClassId.K1)
        assert not k_class_test(np.array([1.0, 0.5]), KClassId.K1)
        assert not k_class_test(np.array([1.0, 0.0]), KClassId.K1)

    def test_kminus1(self):
        assert k_class_test(np.array([0.0, 3.0]), KClassId.KMINUS1)
        assert k_class_test(np.array([0.0, 0.0]), KClassId.KMINUS1)
        assert not k_class_test(np.array([1.0, 1.0]), KClassId.KMINUS1)

    def test_k0_is_everything(self):
        assert k_class_test(np.array([1.0, 2.0, 3.0]), KClassId.K0)

    def test_equality_class_signs(self):
        assert vector_equality_class(2, 1) is KClassId.K1
        assert vector_equality_class(1, 2) is KClassId.KMINUS1
        assert vector_equality_class(2, 2) is KClassId.K0
        assert vector_equality_class("inf", 1) is KClassId.K1


class TestVectorComparisonBound:
    """||x||_r <= m^{[(1/r)-(1/p)]_+} ||x||_p with equality exactly on
    K_{sgn(p-r)}."""

    def test_factor_values(self):
        assert vector_comparison_factor(1, "inf", 4) == 4.0
        assert vector_comparison_factor(1, 2, 4) == 2.0
        assert vector_comparison_factor(2, 1, 4) == 1.0
        assert vector_comparison_factor(2, 2, 9) == 1.0

    @given(
        st.lists(
            st.sampled_from([-1.0, 0.0, 1.0, 1j]), min_size=1, max_size=4
        ),
        st.sampled_from(INDEX_TOKENS),
        st.sampled_from(INDEX_TOKENS),
    )
    @settings(max_examples=120, deadline=None)
    def test_bound_and_equality(self, entries, p, r):
        x = np.array(entries, dtype=complex)
        m = len(x)
        lhs = vector_norm(x, r)
        rhs = vector_comparison_factor(r, p, m) * vector_norm(x, p)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)
        cls = vector_equality_class(p, r)
        expect_eq = k_class_test(x, cls, 1e-12)
        actual_eq = abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)
        assert expect_eq == actual_eq


def test_readme_entry_points_import():
    # every name in the first column of README's table of key entry points
    # is importable from the package
    import pqnorm

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    table = readme.read_text(encoding="utf-8").split("| Function | Purpose |", 1)[1]
    rows = [line for line in table.split("\n\n", 1)[0].splitlines() if line.startswith("| `")]
    names = [n for row in rows for n in re.findall(r"`(\w+)", row.split(" | ", 1)[0])]
    assert len(names) >= 35
    assert [n for n in names if not hasattr(pqnorm, n)] == []


class TestAsTol:
    @pytest.mark.parametrize("tol", [None, 0.0, 1e-8, 0.5, 3])
    def test_sound_tol_returned(self, tol):
        assert as_tol(tol) is tol

    @pytest.mark.parametrize("tol", [-1e-300, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_unsound_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="finite tolerance >= 0"):
            as_tol(tol)
        with pytest.raises(ValueError, match="finite tolerance >= 0"):
            k_class_test(np.ones(3), KClassId.K1, tol)
