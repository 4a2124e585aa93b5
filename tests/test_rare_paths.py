"""Behaviours no other test reaches, one test each.

scripts/line_coverage.py lists the statements of src/pqnorm that a pytest
run never executes; these tests cover the ones that are behaviour, and two
safety branches: a LAPACK failure, raised by a patched numpy.linalg.svd,
and a rebuilt factorization that does not reproduce its matrix.
"""

import json
import math

import numpy as np

import pytest

from pqnorm import (
    Certainty,
    ClassId,
    ExtIndex,
    SvdConvergenceError,
    as_index,
    as_matrix,
    check_inequality,
    maximizer_eigencheck,
    maximizer_set_probe,
    norm_estimate,
    save_matrix,
    sufficient_e11,
    sufficient_e1inf,
    svd,
    vector_norm,
)
from pqnorm.equality_classes import _svd_with_first_vector
from pqnorm.cli import EXIT_ERROR, main
from pqnorm.matrixio import dumps_json

B = np.array([[1.0, 1.0], [-1.0, 1.0]])


def test_generate_rejects_a_non_numeric_sigma(capsys):
    assert main(["generate", "--kind", "svd", "--sigma", "1,x"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "could not convert" in err


def test_sweep_into_a_missing_directory(tmp_path, capsys):
    path = tmp_path / "b.json"
    save_matrix(as_matrix(B), path)
    out = tmp_path / "missing" / "sweep.csv"
    argv = ["sweep", str(path), str(out), "-p", "2", "-q", "2", "--r-grid", "1,2", "--s-grid", "2"]
    assert main(argv) == EXIT_ERROR
    assert f"cannot write {out}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_norm_estimate_returns_a_closed_form_exactly():
    A = np.random.default_rng(3).standard_normal((3, 4))
    res = norm_estimate(A, 1, 3)
    assert res.certainty is Certainty.CLOSED_FORM
    assert res.value == max(vector_norm(col, 3) for col in A.T)


def test_maximizer_set_probe_of_the_zero_matrix():
    assert maximizer_set_probe(np.zeros((3, 2)), 1.5, 3) == []


def test_sufficient_tests_hold_on_the_zero_matrix():
    Z = np.zeros((2, 3))
    assert sufficient_e1inf(Z, 2, 3) is True
    assert sufficient_e11(Z, 1.5, 1.2) is True


def test_eigencheck_with_a_zero_image():
    # A v = 0: A*A v = 0 v, an eigenvector with residual 0
    A = np.ones((2, 2))
    assert maximizer_eigencheck(A, [1.0, -1.0], 2, 2) is True


def test_dumps_json_of_a_class_an_index_and_a_plain_object():
    class Plain:
        def __str__(self):
            return "plain"

    doc = {"cls": ClassId.E_INF1, "p": as_index("inf"), "q": as_index(1.5), "x": Plain()}
    assert json.loads(dumps_json(doc)) == {"cls": "E_inf1", "p": "inf", "q": "1.5", "x": "plain"}


def test_ext_index_conversions_and_order():
    p, inf = ExtIndex(1.5), ExtIndex(math.inf)
    assert float(p) == 1.5 and float(inf) == math.inf
    assert inf > p and not p > inf and p > 1
    assert inf >= p and p >= 1.5 and not p >= 2
    assert repr(p) == "ExtIndex(1.5)" and repr(inf) == "ExtIndex(inf)"


def test_vector_norm_flattens_a_matrix():
    X = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert vector_norm(X, 2) == 5.0
    assert vector_norm(X, 1) == 7.0 and vector_norm(X, "inf") == 4.0


def test_bound_report_is_exact():
    # both sides closed forms at (1, 2) and (2, 2); an estimated side is not exact
    assert check_inequality(B, 2, 2, 1, 2).is_exact is True
    rep = check_inequality(as_matrix(B, "complex"), 2, 2, 1.5, 3)
    assert rep.rhs_certainty.is_exact and not rep.lhs_certainty.is_exact
    assert rep.is_exact is False


def test_svd_reports_lapack_non_convergence(monkeypatch):
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(SvdConvergenceError, match="did not converge") as info:
        svd(np.eye(2))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_svd_with_first_vector_refuses_a_bad_rebuild():
    # diag(3, 1) has a simple top singular value: a "top subspace" of
    # dimension 2 maps its second basis vector to a third of its length,
    # so the rebuilt U diag(3, 1) V* is not the matrix
    M = as_matrix(np.diag([3.0, 1.0]))
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert _svd_with_first_vector(M, svd(M), 2, v) is None
    assert _svd_with_first_vector(M, svd(M), 1, np.array([1.0, 0.0])) is not None
