"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

Each test prints its verdict line before asserting, so the tee'd output
carries the per-criterion result even on failure.  Oracles: closed forms,
exhaustive enumeration, and the sampling estimator, cross-checked against
each other; no criterion is weakened to make it pass.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import GRID5, grid_key, make_curated

from pqnorm import (
    ClassId,
    as_index,
    as_matrix,
    best_norm,
    bound_factor,
    check_E11,
    check_Einfinf,
    check_class,
    check_svd_equality,
    conjugate,
    gen_dft,
    gen_hadamard,
    gen_svd_extremal,
    index_str,
    k_class_test,
    save_matrix,
    sufficient_e11,
    sufficient_e1inf,
    sufficient_einfinf,
    vector_comparison_factor,
    vector_equality_class,
    vector_norm,
)
from pqnorm.cli import (
    EXIT_ERROR,
    EXIT_INEXACT,
    EXIT_NO,
    EXIT_OK,
    EXIT_UNDETERMINED,
    EXIT_VERIFY_FAILED,
    main,
)

B = np.array([[1.0, 1.0], [-1.0, 1.0]])


def _report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion-{num}: {label}" + (f" ({len(failures)} failures)" if failures else ""))
    assert not failures, failures[:10]


def test_criterion_1_worked_two_by_two():
    failures = []
    M = as_matrix(B, field="complex")
    for r in [2, 3, 4, "inf"]:
        for s in [1, 1.5, 2]:
            want = 2.0 ** (as_index(s).inv - as_index(r).inv + 0.5)
            got = best_norm(M, r, s, seed=0).value
            if abs(got - want) > 1e-6 * want:
                failures.append(("complex", r, s, got, want))
    Mr = as_matrix(B, field="real")
    res_inf1 = best_norm(Mr, "inf", 1, seed=0)
    if res_inf1.value != 2.0 or not res_inf1.certainty.is_exact:
        failures.append(("real inf,1", res_inf1.value, res_inf1.certainty))
    v22 = best_norm(Mr, 2, 2, seed=0).value
    if abs(v22 - math.sqrt(2.0)) > 1e-9:
        failures.append(("real 2,2", v22))
    # strictness of the real bound at (inf,1): ratio to the bound stays at
    # 2 / (m^{1/2} n^{1/2} sqrt(2)) = 2 / 2^{3/2}
    ratio = res_inf1.value / (bound_factor(2, 2, "inf", 1, 2, 2) * v22)
    if ratio > 2.0 / 2.0 ** 1.5 + 1e-9:
        failures.append(("real ratio", ratio))
    _report(1, "worked 2x2 example, complex grid formula + real strictness", failures)


def test_criterion_2_hadamard_dft_family():
    failures = []
    for k in (2, 4, 8):
        for M, tag in [(gen_hadamard(k), "hadamard"), (gen_dft(k), "dft")]:
            if check_E11(M, 2, 2).member != "yes":
                failures.append((tag, k, "E_11"))
            if check_Einfinf(M, 2, 2).member != "yes":
                failures.append((tag, k, "E_infinf"))
            v11 = best_norm(M, 1, 1, seed=0).value
            v22 = best_norm(M, 2, 2, seed=0).value
            if abs(v11 - k) > 1e-9 * k:
                failures.append((tag, k, "norm 1,1", v11))
            if abs(v11 - math.sqrt(k) * v22) > 1e-9 * v11:
                failures.append((tag, k, "norm identity", v11, v22))
    _report(2, "Hadamard/DFT scaled-unitary family at (2,2)", failures)


def test_criterion_3_bound_never_violated(corpus, corpus_tables):
    failures = []
    for M, (tab, _) in zip(corpus, corpus_tables):
        for p in GRID5:
            for q in GRID5:
                norm_pq = tab[grid_key(p, q)].value
                for r in GRID5:
                    for s in GRID5:
                        bound = bound_factor(p, q, r, s, M.m, M.n) * norm_pq
                        slack = bound - tab[grid_key(r, s)].value
                        if slack < -1e-4 * bound:
                            failures.append((M.n, M.m, index_str(p), index_str(q),
                                             index_str(r), index_str(s), slack))
    _report(3, "comparison bound on 200-matrix corpus, full exponent grid", failures)


def test_criterion_4_duality(corpus, corpus_tables):
    failures = []
    for M, (tab, tab_adj) in zip(corpus, corpus_tables):
        for p in GRID5:
            for q in GRID5:
                a = tab[grid_key(p, q)]
                b = tab_adj[grid_key(conjugate(q), conjugate(p))]
                tol = 1e-9 if (a.certainty.is_exact and b.certainty.is_exact) else 1e-3
                scale = max(a.value, b.value, 1e-300)
                if abs(a.value - b.value) > tol * scale:
                    failures.append((index_str(p), index_str(q), a.value, b.value))
    _report(4, "adjoint duality identity on the corpus", failures)


def test_criterion_5_monotonicity(corpus, corpus_tables):
    failures = []
    for M, (tab, _) in zip(corpus, corpus_tables):
        for fixed in GRID5:
            # nondecreasing in the domain index at fixed codomain index
            chain = [tab[grid_key(r, fixed)] for r in GRID5]
            for a, b in zip(chain, chain[1:]):
                tol = 1e-6 if (a.certainty.is_exact and b.certainty.is_exact) else 1e-3
                if a.value - b.value > tol * max(a.value, b.value, 1e-300):
                    failures.append(("r-chain", index_str(fixed), a.value, b.value))
            # nonincreasing in the codomain index at fixed domain index
            chain = [tab[grid_key(fixed, s)] for s in GRID5]
            for a, b in zip(chain, chain[1:]):
                tol = 1e-6 if (a.certainty.is_exact and b.certainty.is_exact) else 1e-3
                if b.value - a.value > tol * max(a.value, b.value, 1e-300):
                    failures.append(("s-chain", index_str(fixed), a.value, b.value))
    _report(5, "norm monotonicity chains on the corpus", failures)


def test_criterion_6_vector_comparison_exhaustive():
    failures = []
    alphabet = [-1.0, 0.0, 1.0, 1j]
    for length in range(1, 5):
        for tup in itertools.product(alphabet, repeat=length):
            x = np.array(tup)
            norms = {t: vector_norm(x, t) for t in GRID5}
            for p in GRID5:
                for r in GRID5:
                    c = vector_comparison_factor(r, p, length)
                    lhs, rhs = norms[r], c * norms[p]
                    if lhs > rhs + 1e-9 * max(rhs, 1e-300):
                        failures.append(("bound", tup, index_str(p), index_str(r)))
                    is_eq = abs(lhs - rhs) <= 1e-9 * max(rhs, 1e-300)
                    in_class = k_class_test(x, vector_equality_class(p, r))
                    if is_eq != in_class:
                        failures.append(("iff", tup, index_str(p), index_str(r),
                                         is_eq, in_class))
    _report(6, "vector comparison bound + equality classes, exhaustive", failures)


REP_POINTS = {
    ClassId.E_1INF: [(1, 3), (1.5, "inf")],
    ClassId.E_11: [(1, 1), (1.5, 1.5)],
    ClassId.E_INFINF: [(3, 3), ("inf", "inf")],
    ClassId.E_INF1: [("inf", 1), (3, 1.5)],
}


def _direct_equality(M, p, q, r, s, tol=1e-4) -> str:
    """Value-level equality test of the bound at (r,s) against anchor (p,q)."""
    bound = bound_factor(p, q, r, s, M.m, M.n) * best_norm(M, p, q, seed=0).value
    vrs = best_norm(M, r, s, seed=0).value
    return "yes" if abs(vrs - bound) <= tol * max(bound, 1e-300) else "no"


def test_criterion_7_class_checks_vs_direct_equality(curated):
    failures = []
    assert len(curated) >= 12
    for name, M in curated:
        for cls in ClassId:
            verdict = check_class(M, cls, 2, 2, tol=1e-4)
            if verdict.member not in ("yes", "no"):
                failures.append((name, cls.value, "undetermined"))
                continue
            for (r, s) in REP_POINTS[cls]:
                direct = _direct_equality(M, 2, 2, r, s)
                if direct != verdict.member:
                    failures.append((name, cls.value, r, s, verdict.member, direct))
    _report(7, "class predicates vs direct equality on curated suite", failures)


def test_criterion_8_generator_round_trip():
    failures = []
    corners = [(3, 1.5), (1, 3), (1, 1.5), (3, 3)]
    for i in range(50):
        r, s = corners[i % 4]
        rng = np.random.default_rng(4000 + i)
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(m, n) + 1))
        sigma = [2.0] + sorted(rng.uniform(0.5, 1.5, k - 1).tolist(), reverse=True)
        tag = "real" if i % 2 == 0 else "complex"
        E = gen_svd_extremal(m, n, r, s, sigma, seed=i, field_tag=tag)
        v = check_svd_equality(E, r, s)
        if v.member != "yes":
            failures.append((i, r, s, m, n, tag, v.member))
    _report(8, "50 generated extremal instances round-trip", failures)


SUFFICIENT_CASES = [
    (sufficient_e1inf, ClassId.E_1INF),
    (sufficient_e11, ClassId.E_11),
    (sufficient_einfinf, ClassId.E_INFINF),
]


def _rep_points_for(cls: ClassId, p, q) -> list:
    """Two sample points in the class quadrant at anchor (p,q); empty when
    the quadrant is empty."""
    pi, qi = as_index(p), as_index(q)
    pts = []
    if cls is ClassId.E_1INF and pi.value > 1 and not qi.is_inf:
        pts = [(1, "inf"), ((1 + pi.value) / 2, 2 * qi.value)]
    if cls is ClassId.E_11 and pi.value > 1 and qi.value > 1:
        mid_p = (1 + pi.value) / 2 if not pi.is_inf else 2.0
        mid_q = (1 + qi.value) / 2 if not qi.is_inf else 2.0
        pts = [(1, 1), (mid_p, mid_q)]
    if cls is ClassId.E_INFINF and not pi.is_inf and not qi.is_inf:
        pts = [("inf", "inf"), (2 * pi.value, 2 * qi.value)]
    return pts


def test_criterion_9_sufficient_conditions_sound(curated):
    failures = []
    hits = 0
    anchors = [(2, 2), (1.5, 3), (3, 1.5), (1, 1), ("inf", 2), (2, "inf")]
    for name, M in curated:
        for fn, cls in SUFFICIENT_CASES:
            for (p, q) in anchors:
                if fn(M, p, q) is not True:
                    continue
                hits += 1
                verdict = check_class(M, cls, p, q, tol=1e-4)
                if verdict.member != "yes":
                    failures.append((name, fn.__name__, p, q, verdict.member))
                for (r, s) in _rep_points_for(cls, p, q):
                    if _direct_equality(M, p, q, r, s) != "yes":
                        failures.append((name, fn.__name__, p, q, r, s, "oracle"))
    if hits == 0:
        failures.append(("no sufficient condition ever fired",))
    _report(9, f"sufficient conditions sound ({hits} positives confirmed)", failures)


def test_criterion_10_cli_determinism(tmp_path):
    failures = []
    bc = tmp_path / "bc.json"
    save_matrix(as_matrix(B, field="complex"), bc)
    br = tmp_path / "br.json"
    save_matrix(as_matrix(B, field="real"), br)
    sweep_args = ["-p", "2", "-q", "2", "--r-grid", "2,3,inf",
                  "--s-grid", "1,1.5,2", "--seed", "7"]
    # the second run reads a copy, so it estimates afresh rather than reuse
    # the first run's matrix
    bc2 = tmp_path / "bc2.json"
    bc2.write_bytes(bc.read_bytes())
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    if main(["sweep", str(bc), str(out1)] + sweep_args) != EXIT_OK:
        failures.append(("sweep run 1",))
    if main(["sweep", str(bc2), str(out2)] + sweep_args) != EXIT_OK:
        failures.append(("sweep run 2",))
    if out1.read_bytes() != out2.read_bytes():
        failures.append(("sweep not byte-identical",))
    # documented exit-code contract, one probe per path
    probes = [
        (EXIT_OK, ["norm", str(br), "-p", "2", "-q", "2"]),
        (EXIT_ERROR, ["norm", str(tmp_path / "absent.json"), "-p", "2", "-q", "2"]),
        (EXIT_ERROR, ["norm", str(br), "-p", "0.5", "-q", "2"]),
        (EXIT_INEXACT, ["norm", str(br), "-p", "1.7", "-q", "2.3", "--exact-only"]),
        (EXIT_NO, ["check", str(br), "E_inf1", "-p", "2", "-q", "2"]),
        (EXIT_UNDETERMINED, ["check", str(br), "3,1.5", "-p", "2", "-q", "2"]),
        (EXIT_VERIFY_FAILED, ["verify", str(br), "--assert-norm", "2,2,99"]),
    ]
    for want, argv in probes:
        got = main(argv)
        if got != want:
            failures.append((argv, want, got))
    _report(10, "CLI sweep determinism + exit-code contract", failures)
