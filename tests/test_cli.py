"""Command-line interface: exit codes, output contracts, determinism."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pqnorm import as_matrix, save_matrix
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


@pytest.fixture
def b_real(tmp_path):
    p = tmp_path / "b_real.json"
    save_matrix(as_matrix(B, field="real"), p)
    return str(p)


@pytest.fixture
def b_complex(tmp_path):
    p = tmp_path / "b_complex.json"
    save_matrix(as_matrix(B, field="complex"), p)
    return str(p)


@pytest.fixture
def had4(tmp_path):
    from pqnorm import gen_hadamard

    p = tmp_path / "had4.json"
    save_matrix(gen_hadamard(4), p)
    return str(p)


class TestNormCommand:
    def test_exact_value(self, b_real, capsys):
        assert main(["norm", b_real, "-p", "inf", "-q", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("2 ")
        assert "exact-enumeration" in out

    def test_closed_form(self, b_real, capsys):
        assert main(["norm", b_real, "-p", "2", "-q", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("1.4142135623730951 ")
        assert "exact-closed-form" in out

    def test_estimate_reports_seed(self, b_real, capsys):
        assert main(["norm", b_real, "-p", "1.7", "-q", "2.3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lower-bound-estimate" in out
        assert "(seed 0)" in out

    def test_exact_only_gate(self, b_real, capsys):
        assert main(["norm", b_real, "-p", "1.7", "-q", "2.3", "--exact-only"]) == (
            EXIT_INEXACT
        )
        assert main(["norm", b_real, "-p", "1", "-q", "2.3", "--exact-only"]) == EXIT_OK

    def test_missing_file(self, tmp_path):
        assert main(["norm", str(tmp_path / "nope.json"), "-p", "2", "-q", "2"]) == (
            EXIT_ERROR
        )

    def test_bad_index(self, b_real):
        assert main(["norm", b_real, "-p", "0.5", "-q", "2"]) == EXIT_ERROR

    @pytest.mark.parametrize("pq", [["2", "2"], ["inf", "1"], ["1.5", "3"]])
    @pytest.mark.parametrize("budget", ["5", "-7"])
    def test_bad_budget_on_every_route(self, b_real, pq, budget, capsys):
        # closed form, sign enumeration and estimate alike
        argv = ["norm", b_real, "-p", pq[0], "-q", pq[1], "--budget", budget]
        assert main(argv) == EXIT_ERROR
        assert "budget too small" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["norm"]) == EXIT_ERROR
        assert main(["frobnicate"]) == EXIT_ERROR


class TestCheckCommand:
    def test_class_yes(self, had4, capsys):
        assert main(["check", had4, "E_11", "-p", "2", "-q", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "yes" in out

    def test_class_no(self, b_real):
        assert main(["check", b_real, "E_inf1", "-p", "2", "-q", "2"]) == EXIT_NO

    def test_class_json(self, had4, capsys):
        assert main(["check", had4, "E_11", "-p", "2", "-q", "2", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["member"] == "yes"
        assert isinstance(doc["conditions"], list)
        assert all("name" in c and "satisfied" in c for c in doc["conditions"])

    def test_pointwise_yes(self, b_complex, capsys):
        assert main(["check", b_complex, "inf,1", "-p", "2", "-q", "2"]) == EXIT_OK
        assert "factor" in capsys.readouterr().out

    def test_pointwise_no(self, b_real):
        assert main(["check", b_real, "inf,1", "-p", "2", "-q", "2"]) == EXIT_NO

    def test_tol_is_one_rule_for_classes_and_pairs(self, b_real, capsys):
        # an explicit --tol is the slack of an (r,s) pair as of a class
        # token, whether the brackets read are exact or estimated
        argv = ["check", b_real, "3,1.5", "-p", "2", "-q", "2", "--tol", "1e-9", "--json"]
        main(argv)
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-9

    def test_pointwise_undetermined(self, b_real):
        # estimate lower bound sits strictly inside the spectral upper bound
        rc = main(["check", b_real, "3,1.5", "-p", "2", "-q", "2"])
        assert rc == EXIT_UNDETERMINED

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_rejects_unsound_tol(self, had4, tol, capsys):
        # a negative or NaN tolerance made Hadamard 4, a member, a "no" or
        # "undetermined": every tolerance must be finite and nonnegative
        assert main(["check", had4, "E_11", "-p", "2", "-q", "2", "--tol", tol]) == EXIT_ERROR
        assert "--tol" in capsys.readouterr().err

    def test_bad_class_token(self, b_real):
        assert main(["check", b_real, "E_22", "-p", "2", "-q", "2"]) == EXIT_ERROR

    def test_einf1_real_32(self, tmp_path, capsys):
        # a real 32 x 32 Gaussian has only simple eigenspaces: a conclusive
        # "no"; Hadamard 32 has one 32-dimensional eigenspace, past the cap
        from pqnorm import gen_hadamard

        g, h = tmp_path / "g32.json", tmp_path / "h32.json"
        save_matrix(as_matrix(np.random.default_rng(3).standard_normal((32, 32)), field="real"), g)
        save_matrix(gen_hadamard(32), h)
        assert main(["check", str(g), "E_inf1", "-p", "2", "-q", "2"]) == EXIT_NO
        assert "no (exact)" in capsys.readouterr().out
        assert main(["check", str(h), "E_inf1", "-p", "2", "-q", "2"]) == EXIT_UNDETERMINED
        assert "sign-enumeration-cap" in capsys.readouterr().out


class TestSweepCommand:
    ARGS = ["-p", "2", "-q", "2", "--r-grid", "2,3,inf", "--s-grid", "1,1.5,2"]

    def test_csv_contract(self, b_complex, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", b_complex, str(out)] + self.ARGS) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,s,norm_rs,factor,bound,ratio,certainty"
        assert len(lines) == 1 + 9
        # the worked matrix attains the bound at every grid point: ratio 1
        for ln in lines[1:]:
            ratio = float(ln.split(",")[5])
            assert abs(ratio - 1.0) <= 1e-6

    def test_zero_matrix(self, tmp_path, capsys):
        # every norm and bound is 0, so 0 = factor * 0 and each ratio is 1
        path = str(tmp_path / "zero.json")
        save_matrix(as_matrix(np.zeros((2, 3)), field="real"), path)
        assert main(["sweep", path, "-"] + self.ARGS) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 9
        for row in rows:
            _, _, value, _, bound, ratio, certainty = row.split(",")
            assert (float(value), float(bound), float(ratio)) == (0.0, 0.0, 1.0)
            assert certainty == "exact-closed-form"

    def test_stdout_dash(self, b_real, capsys):
        assert main(["sweep", b_real, "-"] + self.ARGS) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("r,s,norm_rs,factor,bound,ratio,certainty")

    def test_byte_identical_reruns(self, b_complex, tmp_path):
        # the second run reads a copy, so it estimates afresh rather than
        # reuse the first run's matrix
        copy = tmp_path / "copy.json"
        save_matrix(as_matrix(B, field="complex"), copy)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", b_complex, str(a)] + self.ARGS) == EXIT_OK
        assert main(["sweep", str(copy), str(b)] + self.ARGS) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_reuses_the_matrix_of_verify(self, tmp_path, capsys, monkeypatch):
        # sweep after verify on one file reads verify's estimates from the
        # matrix's memo; a copy at another path is parsed and estimated
        # afresh.  300 rows put each point in an ascent of its own.
        from pqnorm import induced_norms

        ascent, calls = induced_norms._ascent, []
        monkeypatch.setattr(
            induced_norms, "_ascent", lambda *a, **kw: calls.append(1) or ascent(*a, **kw)
        )
        path, copy = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(as_matrix(np.random.default_rng(3).standard_normal((300, 3))), path)
        copy.write_bytes(path.read_bytes())
        grid = ["--r-grid", "1,1.5,2,3,inf", "--s-grid", "1,1.5,2,3,inf"]
        assert main(["verify", str(path)]) == EXIT_OK
        runs = []
        for f in (path, copy):
            capsys.readouterr()
            calls.clear()
            code = main(["sweep", str(f), "-", "-p", "2", "-q", "2"] + grid)
            rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
            runs.append((code, len(calls), rows))
        (code, reused, rows), (code0, fresh, rows0) = runs
        assert code == code0 == EXIT_OK
        assert reused < fresh
        assert [r[:2] + r[-1:] for r in rows] == [r[:2] + r[-1:] for r in rows0]
        for r, r0 in zip(rows, rows0):
            for x, x0 in zip(map(float, r[2:6]), map(float, r0[2:6])):
                assert abs(x - x0) <= 1e-12 * abs(x0), (r, r0)

    def test_threads_env_same_bytes(self, b_complex, tmp_path, monkeypatch):
        copy = tmp_path / "copy.json"
        save_matrix(as_matrix(B, field="complex"), copy)
        a, b = tmp_path / "a.csv", tmp_path / "t.csv"
        assert main(["sweep", b_complex, str(a)] + self.ARGS) == EXIT_OK
        monkeypatch.setenv("THREADS", "4")
        assert main(["sweep", str(copy), str(b)] + self.ARGS) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_rows_match_norm_command(self, tmp_path, capsys):
        # the sweep estimates its points together; each row still carries
        # the value `pqnorm norm` reports for that point
        grid = "1,1.5,2,3,inf"
        r = np.random.default_rng(7)
        for field, A in (
            ("real", r.standard_normal((4, 5))),
            ("complex", r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))),
        ):
            path = str(tmp_path / f"{field}.json")
            save_matrix(as_matrix(A, field=field), path)
            args = ["-p", "2", "-q", "2", "--r-grid", grid, "--s-grid", grid]
            assert main(["sweep", path, "-"] + args) == EXIT_OK
            rows = capsys.readouterr().out.strip().splitlines()[1:]
            assert len(rows) == 25
            # a copy of the file, so each norm command estimates its point
            # alone rather than read the sweep's estimates
            copy = str(tmp_path / f"{field}-copy.json")
            save_matrix(as_matrix(A, field=field), copy)
            for row in rows:
                rr, ss, value, *_ = row.split(",")
                assert main(["norm", copy, "-p", rr, "-q", ss]) == EXIT_OK
                single = float(capsys.readouterr().out.split()[0])
                assert abs(float(value) - single) <= 1e-12 * single, (field, rr, ss)

    def test_bad_grid(self, b_real, tmp_path):
        rc = main(
            ["sweep", b_real, str(tmp_path / "x.csv"), "-p", "2", "-q", "2",
             "--r-grid", "2,zebra", "--s-grid", "1"]
        )
        assert rc == EXIT_ERROR

    def test_empty_grid(self, b_real, tmp_path):
        rc = main(
            ["sweep", b_real, str(tmp_path / "x.csv"), "-p", "2", "-q", "2",
             "--r-grid", "", "--s-grid", "1"]
        )
        assert rc == EXIT_ERROR


class TestGenerateCommand:
    def test_hadamard_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        rc = main(["generate", "--kind", "hadamard", "--m", "4", "--out", str(out)])
        assert rc == EXIT_OK
        from pqnorm import load_matrix

        M = load_matrix(out)
        assert M.entries.shape == (4, 4)
        err = capsys.readouterr().err
        assert "E_11" in err and "yes" in err

    def test_svd_kind_with_class(self, tmp_path):
        out = tmp_path / "e.json"
        rc = main(
            ["generate", "--kind", "svd", "--class", "E_inf1", "--m", "3", "--n", "3",
             "--sigma", "2,1", "--out", str(out)]
        )
        assert rc == EXIT_OK

    def test_svd_kind_checks_the_svd_characterization(self, tmp_path, capsys):
        # a degenerate top singular value: check_class's complex E_inf1
        # search is heuristic there, the SVD characterization is not
        for seed in range(20):
            rc = main(
                ["generate", "--kind", "svd", "--class", "E_inf1", "--m", "3", "--n", "3",
                 "--sigma", "2,2", "--field", "complex", "--seed", str(seed),
                 "--out", str(tmp_path / "e.json")]
            )
            assert (rc, capsys.readouterr().err) == (EXIT_OK, "E_inf1 at (2,2): yes\n"), seed

    def test_stdout_matrix(self, capsys):
        rc = main(["generate", "--kind", "single", "--m", "2", "--n", "2", "--rho", "3"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == 2

    def test_tensor_kind(self, capsys):
        rc = main(["generate", "--kind", "tensor", "--m", "2", "--n", "2"])
        assert rc == EXIT_OK

    def test_bad_sigma(self, tmp_path):
        rc = main(
            ["generate", "--kind", "svd", "--class", "E_11", "--sigma", "1,2",
             "--out", str(tmp_path / "x.json")]
        )
        assert rc == EXIT_ERROR

    def test_extra_singular_values(self, capsys):
        rc = main(["generate", "--kind", "svd", "--m", "1", "--n", "1"])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == "more singular values than min(m, n)\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--sigma", "inf,1", "singular values must be finite"),
         ("--sigma", "2,nan", "singular values must be finite"),
         ("--rho", "nan", "rho must be finite")],
    )
    def test_non_finite_parameters(self, flag, value, message, capsys):
        # exit 1 with the generator's message, and no RuntimeWarning from a
        # product formed on the non-finite value
        kind = "svd" if flag == "--sigma" else "single"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["generate", "--kind", kind, flag, value])
        assert rc == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"{message}\n" and captured.out == ""

    def test_empty_sigma(self, tmp_path):
        rc = main(
            ["generate", "--kind", "svd", "--class", "E_11", "--sigma", "",
             "--out", str(tmp_path / "x.json")]
        )
        assert rc == EXIT_ERROR


class TestVerifyCommand:
    def test_battery_passes(self, b_complex, capsys):
        assert main(["verify", b_complex]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("k", [-1000, -300, 511, 1000])
    def test_hadamard_power_of_two_scaling(self, k, tmp_path, capsys):
        # the maximizer eigencheck formed A*A v unscaled: past 2^511 it
        # overflowed and the battery failed
        from pqnorm import gen_hadamard

        p = tmp_path / "h4.json"
        save_matrix(as_matrix(np.ldexp(gen_hadamard(4).entries, k), field="real"), p)
        assert main(["verify", str(p)]) == EXIT_OK
        assert "PASS maximizer-eigencheck" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_rejects_unsound_tol(self, had4, tol, capsys):
        # a negative or NaN tolerance failed the adjoint and monotonicity
        # checks on Hadamard 4
        assert main(["verify", had4, "--tol", tol]) == EXIT_ERROR
        assert "--tol" in capsys.readouterr().err

    def test_assert_norm_pass(self, b_real, capsys):
        rc = main(["verify", b_real, "--assert-norm", "2,2,1.4142135623730951"])
        assert rc == EXIT_OK

    def test_assert_norm_fail(self, b_real, capsys):
        rc = main(["verify", b_real, "--assert-norm", "2,2,99"])
        assert rc == EXIT_VERIFY_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_disagreeing_estimates_are_not_a_failure(self, tmp_path, capsys):
        # real 32x32 Gaussians whose two (inf,1) estimates differ by more
        # than 1e-3 while both lie below the certified upper bound
        for seed in (3, 5):
            path = str(tmp_path / f"g{seed}.json")
            A = np.random.default_rng(seed).standard_normal((32, 32))
            save_matrix(as_matrix(A, field="real"), path)
            assert main(["verify", path]) == EXIT_OK
            out = capsys.readouterr().out
            assert "UNDETERMINED adjoint-norm-identity" in out
            assert "FAIL" not in out

    def test_lowered_estimates_are_not_a_failure(self, tmp_path, monkeypatch, capsys):
        # every estimate lowered to 0.99 of itself is still a lower bound
        # (same witness and certainty): the inequality grid's crossed lower
        # bounds settle nothing, where comparing them raw printed FAIL, exit 5
        import pqnorm.induced_norms as ind
        from pqnorm import NormResult, gen_dft

        estimates = ind._estimates

        def lowered(M, pairs, seed):
            return [NormResult(0.99 * r.value, r.witness, r.certainty)
                    for r in estimates(M, pairs, seed)]

        monkeypatch.setattr(ind, "_estimates", lowered)
        path = str(tmp_path / "dft4.json")
        save_matrix(gen_dft(4), path)
        assert main(["verify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "UNDETERMINED inequality-grid" in out
        assert "FAIL" not in out

    def test_planted_contradiction_fails(self, b_real, monkeypatch, capsys):
        # an adjoint estimate above its certified upper bound is a real
        # contradiction: FAIL, exit 5
        import pqnorm.cli as cli
        from pqnorm import Certainty, NormResult, as_index, load_matrix, norm_upper_bound

        M = load_matrix(b_real)
        adj = M.adjoint()
        key = (as_index(1.5), as_index(3), 0, None)
        adj._memo[key] = NormResult(
            2.0 * norm_upper_bound(adj, 1.5, 3), np.ones(2), Certainty.ESTIMATE
        )
        monkeypatch.setattr(cli, "load_matrix", lambda path: M)
        assert main(["verify", b_real]) == EXIT_VERIFY_FAILED
        assert "FAIL adjoint-norm-identity" in capsys.readouterr().out

    def test_adjoint_estimates_only_duality_and_sweep_reuses_the_rest(self, tmp_path, monkeypatch):
        # both monotonicity checks read A's own points, so on a complex file
        # the adjoint estimates only the duality pairs without a closed
        # form, and duality_check reads those estimates of A* itself; a sweep
        # after verify on the same file estimates only the points verify did not
        from pqnorm import best_norm, induced_norms, load_matrix

        estimates, calls = induced_norms._estimates, []

        def spy(M, pairs, seed):
            out = estimates(M, pairs, seed)
            calls.append((M, {(p.value, q.value): res for (p, q), res in zip(pairs, out)}))
            return out

        monkeypatch.setattr(induced_norms, "_estimates", spy)
        r = np.random.default_rng(39)
        path = str(tmp_path / "c6.json")
        save_matrix(as_matrix(r.standard_normal((6, 6)) + 1j * r.standard_normal((6, 6))), path)
        assert main(["verify", path]) == EXIT_OK
        M = load_matrix(path)
        adjoint = [got for X, got in calls if X is M.adjoint()]
        assert len(adjoint) == 1 and sorted(adjoint[0]) == [(1.5, 3.0), (math.inf, 1.0)]
        for (p, q), res in adjoint[0].items():
            assert best_norm(M.adjoint(), p, q) is res
        assert all(X is M for X, _ in calls if X is not M.adjoint())
        calls.clear()
        grid = "1,1.5,2,3,inf"
        sweep = ["sweep", path, "-", "-p", "2", "-q", "2", "--r-grid", grid, "--s-grid", grid]
        assert main(sweep) == EXIT_OK
        rest = [(1.5, 1), (1.5, 1.5), (3, 1), (3, 1.5), (3, 3), (math.inf, 1.5), (math.inf, 3)]
        assert [(X is M, sorted(got)) for X, got in calls] == [(True, rest)]

    def test_best_norms_calls(self, tmp_path, monkeypatch, capsys):
        # the README's count: a verify on a real 4x4 matrix makes 37
        # best_norms calls, best_norm's and the checks' own included
        import pqnorm.bounds as bounds
        import pqnorm.cli as cli
        import pqnorm.induced_norms as ind

        best_norms, calls = ind.best_norms, []

        def spy(*a, **k):
            calls.append(1)
            return best_norms(*a, **k)

        for mod in (ind, bounds, cli):
            monkeypatch.setattr(mod, "best_norms", spy)
        path = str(tmp_path / "r4.json")
        save_matrix(as_matrix(np.random.default_rng(0).standard_normal((4, 4))), path)
        assert main(["verify", path]) == EXIT_OK
        assert len(calls) == 37

    def test_malformed_assertion(self, b_real):
        assert main(["verify", b_real, "--assert-norm", "2,2"]) == EXIT_ERROR

    @pytest.mark.parametrize("claim", ["2,2,nan", "2,2,inf", "2,2,1e999", "2,2", "2,0.5,1", "x,2,1"])
    def test_unusable_claim_is_a_usage_error(self, b_real, claim, monkeypatch, capsys):
        # a claim needs two exponents and a finite value; anything else is
        # rejected while parsing, before any norm is computed, instead of
        # running the battery and printing "FAIL assert-norm" (exit 5)
        import pqnorm.cli as cli

        calls = []
        monkeypatch.setattr(cli, "best_norms", lambda *a, **k: calls.append(a))
        assert main(["verify", b_real, "--assert-norm", claim]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert calls == [] and out == ""
        assert "--assert-norm" in err


# stdout of JSON-carrying outputs, frozen byte for byte: a certificate
# array, a complex certificate and a complex witness ([re, im] pairs).  The
# witness was frozen again when the ascent's complex map at t < 2 stopped
# leaving the peak-free form on exact zero entries: 1.7817974362657607 ->
# 1.7817974362657614 (3.7e-16 relative), the witness in low bits
FROZEN_JSON = [
    (
        ["check", "had4", "E_11", "-p", "2", "-q", "2", "--json"],
        '{"member": "yes", "conditions": [{"name": "extremal-columns-constant-modulus", '
        '"satisfied": true, "measured": {"sigma": 4, "extremal_columns": [0, 1, 2, 3]}}, '
        '{"name": "extremal-columns-orthogonal", "satisfied": true, "measured": {}}, '
        '{"name": "column-bound-tight", "satisfied": true, "measured": {"sigma": 4, '
        '"norm_target": 2, "norm_bracket": [2, 2], "norm_exact": true}}], "certificate": '
        '{"column_index": 0, "column": [1, 1, 1, 1]}, "certainty": "exact"}\n',
    ),
    (
        ["check", "b_complex", "E_inf1", "-p", "2", "-q", "2", "--json"],
        '{"member": "yes", "conditions": [{"name": "amplitude-compatible-eigenspaces", '
        '"satisfied": true, "measured": {"window": [1.4142135482309595, 1.4142135765152306], '
        '"singular_values": [1.4142135623730951, 1.4142135623730949]}}, {"name": '
        '"eigenvector-with-matching-amplitude", "satisfied": true, "measured": {"lambda": 2, '
        '"tau": 1.4142135623730954}}], "certificate": {"v": [[-0.41912878393923808, '
        '-0.90792679356521677], [-0.90792679356521677, 0.41912878393923786]], "tau": '
        '1.4142135623730954, "lambda": 2}, "certainty": "exact"}\n',
    ),
    (
        ["norm", "b_complex", "-p", "3", "-q", "1.5"],
        "1.7817974362657614 lower-bound-estimate (seed 0)\n"
        "witness: [[-0.78425353261254671, -0.12207977129047459], "
        "[0.12208718366992587, -0.7842567790560524]]\n",
    ),
]


@pytest.mark.parametrize(
    "args, out", FROZEN_JSON, ids=["E_11-json", "E_inf1-complex-json", "norm-witness"]
)
def test_frozen_json_bytes(args, out, had4, b_complex, capsys):
    files = {"had4": had4, "b_complex": b_complex}
    assert main([files.get(a, a) for a in args]) == EXIT_OK
    assert capsys.readouterr().out == out


class TestEntryPoint:
    def test_repeated_main_same_bytes(self, b_real, tmp_path, capsys):
        # the parser is built once per process; a second call, on a
        # byte-identical copy at another path (so it parses and computes
        # afresh rather than reuse the first call's matrix), prints the
        # same bytes
        copy = tmp_path / "copy.json"
        with open(b_real, "rb") as fp:
            copy.write_bytes(fp.read())
        for argv in (
            ["norm", b_real, "-p", "1.5", "-q", "3"],
            ["norm", b_real, "-p", "1.5", "-q", "3", "--budget", "500"],
            ["check", b_real, "E_inf1", "-p", "2", "-q", "2"],
            ["norm", b_real, "-p", "0.5", "-q", "2"],
        ):
            first = (main(argv), capsys.readouterr())
            again = [str(copy) if a == b_real else a for a in argv]
            assert (main(again), capsys.readouterr()) == first

    def test_installed_script(self, tmp_path):
        p = tmp_path / "m.json"
        save_matrix(as_matrix(np.eye(2)), p)
        r = subprocess.run(
            [sys.executable, "-m", "pqnorm.cli", "norm", str(p), "-p", "2", "-q", "2"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0
        assert r.stdout.startswith("1 ")


class TestJsonOverflow:
    @pytest.fixture
    def huge(self, tmp_path):
        from pqnorm import gen_hadamard

        p = tmp_path / "huge.json"
        save_matrix(as_matrix(gen_hadamard(4).entries * 1e308, field="real"), p)
        return str(p)

    def test_pair_payload_parses(self, huge, capsys):
        # the bracket ends overflow to inf, written 1e999: valid JSON that
        # reads back as inf
        main(["check", huge, "1.5,3", "-p", "2", "-q", "2", "--json"])
        out = capsys.readouterr().out
        assert "inf" not in out
        doc = json.loads(out)
        assert doc["rhs_bracket"] == [float("inf"), float("inf")]
        assert doc["lhs_bracket"][1] == float("inf")

    def test_class_payload_parses(self, huge, capsys):
        # the column sums pass the float range, so the verdict is taken on
        # A / 2^1024, where its evidence is finite; the first condition
        # records the exponent
        assert main(["check", huge, "E_11", "-p", "2", "-q", "2", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        note, cond = doc["conditions"][:2]
        assert note == {
            "name": "rescaled-to-normal-range", "satisfied": True, "measured": {"e": 1024}
        }
        entry = math.ldexp(1e308, -1024)
        assert cond["measured"]["sigma"] == 4 * entry
        assert doc["certificate"]["column"] == [entry] * 4


class TestGenerateWrites:
    def test_stdout_is_the_file(self, tmp_path, capsys):
        # stdout carries the same bytes --out writes
        out = tmp_path / "d.json"
        argv = ["generate", "--kind", "dft", "--m", "4", "--field", "complex"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_unwritable_out(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "hadamard", "--m", "4", "--out", str(tmp_path)])
        assert rc == EXIT_ERROR
        assert f"cannot write {tmp_path}" in capsys.readouterr().err
