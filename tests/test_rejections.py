"""Every public entry refuses malformed input with its own exception type
and message, before any work."""

import numpy as np
import pytest

from pqnorm import (
    GeneratorSpec,
    KClassId,
    MatrixFileError,
    MatrixValue,
    PreconditionError,
    build_generator,
    dav_normal_form,
    extremal_stats,
    gen_svd_extremal,
    k_class_test,
    loads_matrix,
    maximizer_eigencheck,
    norm_ratio,
    unitary_with_first_column,
    vector_comparison_factor,
    vector_norm,
)

B = np.array([[1.0, 1.0], [-1.0, 1.0]])

REJECTIONS = {
    "vector_norm-empty": (lambda: vector_norm([], 2), ValueError, "at least one entry"),
    "k_class_test-empty": (lambda: k_class_test([], KClassId.K1), ValueError, "at least one entry"),
    "k_class_test-not-a-class": (lambda: k_class_test([1.0], "K1"), TypeError, "unknown K class"),
    "vector_comparison_factor-m0": (
        lambda: vector_comparison_factor(1, 2, 0), ValueError, "dimension must be positive"
    ),
    "MatrixValue-unknown-field": (
        lambda: MatrixValue(B, "quaternion"), ValueError, "field must be 'real' or 'complex'"
    ),
    "norm_ratio-zero-witness": (
        lambda: norm_ratio(B, [0.0, 0.0], 2, 2), ValueError, "witness must be nonzero"
    ),
    "norm_ratio-nan": (
        lambda: norm_ratio(B, [np.nan, 1.0], 2, 2), ValueError, "finite entries"
    ),
    "norm_ratio-length": (
        lambda: norm_ratio(B, [1.0, 1.0, 1.0], 2, 2), ValueError, "vector length"
    ),
    "extremal_stats-nan": (
        lambda: extremal_stats(B, [np.nan, 1.0]), ValueError, "v must have finite entries"
    ),
    "extremal_stats-inf": (
        lambda: extremal_stats(B, [np.inf, 1.0]), ValueError, "v must have finite entries"
    ),
    "extremal_stats-length": (
        lambda: extremal_stats(B, [1.0, 1.0, 1.0]), ValueError, "vector length"
    ),
    "maximizer_eigencheck-length": (
        lambda: maximizer_eigencheck(B, [1.0, 1.0, 1.0], 2, 2), PreconditionError, "vector length"
    ),
    "maximizer_eigencheck-zero": (
        lambda: maximizer_eigencheck(B, [0.0, 0.0], 2, 2), PreconditionError, "zero vector"
    ),
    # B [1, 1] = [2, 0] has one nonzero modulus, so only the p = inf rule fails
    "maximizer_eigencheck-inf-two-nonzero": (
        lambda: maximizer_eigencheck(B, [1.0, 1.0], "inf", 2),
        PreconditionError,
        "at most one nonzero entry",
    ),
    "maximizer_eigencheck-nan": (
        lambda: maximizer_eigencheck(B, [np.nan, 1.0], 2, 2), PreconditionError, "finite entries"
    ),
    "maximizer_eigencheck-inf": (
        lambda: maximizer_eigencheck(B, [np.inf, 1.0], 2, 2), PreconditionError, "finite entries"
    ),
    "dav_normal_form-length": (
        lambda: dav_normal_form(B, [1.0, 1.0, 1.0]), ValueError, "vector length"
    ),
    "dav_normal_form-nan": (
        lambda: dav_normal_form(B, [np.nan, 1.0]), ValueError, "finite entries"
    ),
    "unitary_with_first_column-nan": (
        lambda: unitary_with_first_column([np.nan, 0.0]), ValueError, "must be unit length"
    ),
    "gen_svd_extremal-increasing": (
        lambda: gen_svd_extremal(3, 3, 2, 2, (2.0, 1.0, 1.5)), ValueError, "nonincreasing"
    ),
    "build_generator-svd-without-pair": (
        lambda: build_generator(GeneratorSpec("svd")), ValueError, "extremal pair (r, s)"
    ),
    "loads_matrix-list": (
        lambda: loads_matrix("[1, 2]"), MatrixFileError, "top-level JSON object expected"
    ),
    "loads_matrix-data-object": (
        lambda: loads_matrix('{"field": "real", "rows": 1, "cols": 1, "data": {}}'),
        MatrixFileError,
        "data must be an array",
    ),
}


@pytest.mark.parametrize("call, error, message", REJECTIONS.values(), ids=list(REJECTIONS))
def test_rejects(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)
