"""Command-line front end.

Subcommands::

    pqnorm norm FILE -p P -q Q [--exact-only] [--seed N] [--budget N]
    pqnorm check FILE TARGET -p P -q Q [--tol T] [--json] [--seed N]
    pqnorm sweep FILE OUT.CSV -p P -q Q --r-grid 2,4,inf --s-grid 1,1.5,2
    pqnorm generate --kind hadamard|dft|tensor|single|svd [options]
    pqnorm verify FILE [--tol T] [--seed N] [--assert-norm P,Q,VALUE]

TARGET for ``check`` is either a class token (E_1inf, E_11, E_infinf,
E_inf1) or an index pair "r,s".

Exit codes: 0 success / member yes; 1 usage or I/O error; 2 --exact-only
requested but only an estimate is available; 3 member no; 4 member
undetermined; 5 a verify property failed.

Sweeps run in one thread; sweep and verify estimate all their points of a
matrix together (best_norms), on the adjoint only verify's duality pairs.
The THREADS environment variable is accepted and ignored.  The norm
comparisons of verify, all but --assert-norm, are taken in bounds by its one
three-state rule, at --tol (1e-8 by default) on exact and estimated values
alike: a check whose estimates disagree by more than that without crossing
a certified bound prints UNDETERMINED and does not fail.  In one process, a
command on the file read last, its bytes unchanged, reuses its matrix and
memo (load_matrix), so an estimate keeps the last bits of the command that
first computed it; separate processes are unchanged.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import List, Optional

import numpy as np

from .core import DEFAULT_TOL, ExtIndex, as_index, as_tol, conjugate, index_str
from .induced_norms import (
    COMPLEX,
    DimensionError,
    MatrixValue,
    REAL,
    best_norm,
    best_norms,
)
from .bounds import (
    bound_factor,
    decide_equality,
    duality_check,
    inequality_grid_check,
    monotonicity_check,
    monotonicity_check_in_s,
)
from .equality_classes import (
    ClassId,
    PreconditionError,
    check_class,
    check_svd_equality,
    maximizer_eigencheck,
)
from .generators import GeneratorSpec, build_generator, kclass_unit_vector
from .core import KClassId
from .matrixio import (
    MatrixFileError,
    dumps_json,
    format_float,
    load_matrix,
    save_matrix,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INEXACT = 2
EXIT_NO = 3
EXIT_UNDETERMINED = 4
EXIT_VERIFY_FAILED = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 1 (2 is reserved)."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _index_arg(tok: str) -> ExtIndex:
    try:
        return as_index(tok)
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _grid_arg(tok: str) -> List[ExtIndex]:
    try:
        grid = [as_index(t.strip()) for t in tok.split(",") if t.strip()]
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if not grid:
        raise argparse.ArgumentTypeError("expected at least one index")
    return grid


def _tol_arg(tok: str) -> float:
    """A tolerance: a finite number >= 0 (see as_tol)."""
    try:
        return as_tol(float(tok))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite tolerance >= 0, got {tok!r}") from None


def _claim_arg(tok: str) -> tuple:
    """A claimed norm "p,q,value": two exponents and a finite value."""
    try:
        p, q, value = tok.split(",")
        claim = as_index(p.strip()), as_index(q.strip()), float(value)
    except (ValueError, TypeError):
        claim = None
    if claim is None or not math.isfinite(claim[2]):
        raise argparse.ArgumentTypeError(f'expected "p,q,value" with a finite value, got {tok!r}')
    return claim


def _floats_arg(tok: str) -> tuple:
    try:
        vals = tuple(float(t) for t in tok.split(",") if t.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one number")
    return vals


def _print_err(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------


def cmd_norm(args) -> int:
    M = load_matrix(args.file)
    res = best_norm(M, args.p, args.q, seed=args.seed, budget=args.budget)
    if args.exact_only and not res.certainty.is_exact:
        _print_err(
            f"no exact route for p={index_str(args.p)} q={index_str(args.q)}; "
            f"best available is {res.certainty.value} {format_float(res.value)}"
        )
        return EXIT_INEXACT
    tail = "" if res.certainty.is_exact else f" (seed {args.seed})"
    print(f"{format_float(res.value)} {res.certainty.value}{tail}")
    if res.witness is not None:
        print(f"witness: {dumps_json(np.asarray(res.witness))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _verdict_exit(member: str) -> int:
    return {"yes": EXIT_OK, "no": EXIT_NO, "undetermined": EXIT_UNDETERMINED}[member]


def _print_conditions(conds) -> None:
    for c in conds:
        state = {True: "yes", False: "no", None: "?"}[c.satisfied]
        parts = [
            f"{k}={format_float(v) if isinstance(v, float) else v}" for k, v in c.measured.items()
        ]
        extra = "  [" + ", ".join(parts) + "]" if parts else ""
        print(f"  {c.name:40s} {state}{extra}")


def cmd_check(args) -> int:
    M = load_matrix(args.file)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    token = args.target
    class_tokens = {c.value for c in ClassId}
    if token in class_tokens:
        verdict = check_class(M, ClassId.parse(token), args.p, args.q, tol, seed=args.seed)
        if args.json:
            print(dumps_json(verdict))
        else:
            print(
                f"{token} at (p,q)=({index_str(args.p)},{index_str(args.q)}): "
                f"{verdict.member} ({verdict.certainty})"
            )
            _print_conditions(verdict.conditions)
        return _verdict_exit(verdict.member)
    try:
        r_tok, s_tok = token.split(",")
        r, s = as_index(r_tok.strip()), as_index(s_tok.strip())
    except (ValueError, TypeError):
        raise _UsageError(
            f"TARGET must be a class token ({', '.join(sorted(class_tokens))}) "
            f'or an index pair "r,s"; got {token!r}'
        ) from None
    member, details = decide_equality(M, args.p, args.q, r, s, tol=args.tol, seed=args.seed)
    lb, rb = details["lhs"], details["rhs"]
    factor = details["factor"]
    if args.json:
        payload = {
            "member": member,
            "r": index_str(r),
            "s": index_str(s),
            "factor": factor,
            "lhs_bracket": [lb.lower, lb.upper],
            "rhs_bracket": [rb.lower, rb.upper],
            "tol": details["tol"],
        }
        print(dumps_json(payload))
    else:
        print(
            f"equality at (r,s)=({index_str(r)},{index_str(s)}) against "
            f"(p,q)=({index_str(args.p)},{index_str(args.q)}): {member}"
        )
        print(f"  factor {format_float(factor)}")
        print(f"  lhs in [{format_float(lb.lower)}, {format_float(lb.upper)}]")
        print(
            f"  bound in [{format_float(factor * rb.lower)}, {format_float(factor * rb.upper)}]"
        )
    return _verdict_exit(member)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_rows(M: MatrixValue, p, q, r_grid, s_grid, seed: int) -> List[str]:
    points = [(r, s) for r in r_grid for s in s_grid]
    base, *results = best_norms(M, [(p, q)] + points, seed=seed)

    def one(point, res) -> str:
        r, s = point
        factor = bound_factor(p, q, r, s, M.m, M.n)
        bound = factor * base.value
        if bound > 0:
            ratio = res.value / bound
        else:
            ratio = 1.0 if res.value == 0.0 else float("inf")
        numbers = map(format_float, (res.value, factor, bound, ratio))
        return ",".join([index_str(r), index_str(s), *numbers, res.certainty.value])

    return [one(pt, res) for pt, res in zip(points, results)]


def cmd_sweep(args) -> int:
    M = load_matrix(args.file)
    rows = _sweep_rows(M, args.p, args.q, args.r_grid, args.s_grid, args.seed)
    text = "r,s,norm_rs,factor,bound,ratio,certainty\n" + "".join(r + "\n" for r in rows)
    if args.out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)
    except OSError as e:
        _print_err(f"cannot write {args.out}: {e}")
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

_DEFAULT_CLASS_FOR_KIND = {
    "hadamard": ClassId.E_11,
    "dft": ClassId.E_11,
    "tensor": ClassId.E_INF1,
    "single": ClassId.E_1INF,
    "svd": ClassId.E_11,
}


def _build_generated(args) -> MatrixValue:
    extra = {}
    if args.kind == "tensor":
        rng = np.random.default_rng(args.seed)
        extra["b"] = kclass_unit_vector(KClassId.K1, args.m, rng, args.field)
        extra["c"] = kclass_unit_vector(KClassId.K1, args.n, rng, args.field)
    elif args.kind == "svd":
        cls = ClassId.parse(args.cls) if args.cls else ClassId.E_11
        extra.update(zip("rs", cls.extremal_pair), sigma=args.sigma or (2.0, 1.0))
    spec = GeneratorSpec(
        args.kind, args.m, args.n, seed=args.seed, field_tag=args.field, rho=args.rho, **extra
    )
    return build_generator(spec)


def cmd_generate(args) -> int:
    try:
        M = _build_generated(args)
    except (ValueError, DimensionError) as e:
        _print_err(str(e))
        return EXIT_ERROR
    cls = ClassId.parse(args.cls) if args.cls else _DEFAULT_CLASS_FOR_KIND[args.kind]
    if args.kind == "svd":  # the characterization the generator builds from
        verdict = check_svd_equality(M, *cls.extremal_pair, seed=args.seed)
    else:
        verdict = check_class(M, cls, 2, 2, seed=args.seed)
    _print_err(f"{cls.value} at (2,2): {verdict.member}")
    try:
        save_matrix(M, args.out or sys.stdout)
    except OSError as e:
        _print_err(f"cannot write {args.out or 'stdout'}: {e}")
        return EXIT_ERROR
    return EXIT_OK if verdict.member == "yes" else EXIT_ERROR


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    M = load_matrix(args.file)
    seed = args.seed
    lines = []
    all_ok = True

    def report(name: str, ok: Optional[bool], slack: Optional[float] = None) -> None:
        nonlocal all_ok
        if ok is None:
            lines.append(f"SKIP {name} (preconditions not met)")
            return
        all_ok = all_ok and ok
        tail = "" if slack is None else f" (slack={format_float(slack)})"
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}{tail}")

    def report_all(name: str, verdicts: list, slack: Optional[float] = None) -> None:
        # a None verdict: lower bounds disagree, but no certified bound is crossed
        if None in verdicts and False not in verdicts:
            lines.append(f"UNDETERMINED {name} (estimates differ within certified bounds)")
        else:
            report(name, False not in verdicts, slack)

    grid = [as_index(1), as_index(2), as_index("inf")]
    dual_pairs = [(1, 1), (1, 2), (2, 2), (2, "inf"), ("inf", 1), (1.5, 3)]
    mono_grid = [1, 1.5, 2, 3, "inf"]
    # every point the checks below read, estimated together per matrix: both
    # monotonicity checks read A's own (r, 2) and (2, s), A* only duality's
    pairs = [(a, b) for a in grid for b in grid] + dual_pairs
    best_norms(M, pairs + [(r, 2) for r in mono_grid] + [(2, s) for s in mono_grid], seed=seed)
    best_norms(M.adjoint(), [(conjugate(q), conjugate(p)) for p, q in dual_pairs], seed=seed)
    ineq, min_slack = inequality_grid_check(M, grid, tol=args.tol, seed=seed)
    report_all("inequality-grid", [ineq], min_slack)
    dual = [duality_check(M, p, q, tol=args.tol, seed=seed) for p, q in dual_pairs]
    report_all("adjoint-norm-identity", dual)
    mono = [
        monotonicity_check(M, 2, mono_grid, tol=args.tol, seed=seed),
        monotonicity_check_in_s(M, 2, mono_grid, tol=args.tol, seed=seed),
    ]
    report_all("norm-monotonicity", mono)
    w = best_norm(M, 2, 2, seed=seed).witness
    try:
        eig_ok = maximizer_eigencheck(M, w, 2, 2, tol=1e-6)
        report("maximizer-eigencheck", eig_ok)
    except PreconditionError:
        report("maximizer-eigencheck", None)
    if args.assert_norm:
        p, q, claimed = args.assert_norm
        res = best_norm(M, p, q, seed=seed)
        tol = args.tol if args.tol is not None else 1e-6
        slack = tol * max(1.0, abs(claimed)) - abs(res.value - claimed)
        report(
            f"assert-norm({index_str(p)},{index_str(q)})={format_float(claimed)}",
            slack >= 0.0,
            slack,
        )
    for ln in lines:
        print(ln)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The parser, built once per process: building it costs more than a
    small command."""
    parser = _Parser(prog="pqnorm", description="Induced matrix norms, the comparison bound, and its equality classes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pq(sp):
        sp.add_argument("-p", type=_index_arg, required=True, help="domain index in [1, inf]")
        sp.add_argument("-q", type=_index_arg, required=True, help="codomain index in [1, inf]")

    sp = sub.add_parser("norm", help="compute ||A||_{p,q}")
    sp.add_argument("file")
    add_pq(sp)
    sp.add_argument("--exact-only", action="store_true", help="exit 2 unless an exact route exists")
    sp.add_argument("--seed", type=int, default=0)
    budget_help = (
        "top up an estimate with fresh rounds of random restarts until one rediscovers its best,"
        " within N >= 100 starts in all"
    )
    sp.add_argument("--budget", type=int, default=None, metavar="N", help=budget_help)

    sp = sub.add_parser("check", help="equality-class or pointwise equality verdict")
    sp.add_argument("file")
    sp.add_argument("target", help='class token (E_1inf, E_11, E_infinf, E_inf1) or "r,s"')
    add_pq(sp)
    sp.add_argument("--tol", type=_tol_arg, default=None)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("sweep", help="grid sweep of the bound to CSV")
    sp.add_argument("file")
    sp.add_argument("out", help='output CSV path, or "-" for stdout')
    add_pq(sp)
    sp.add_argument("--r-grid", type=_grid_arg, required=True)
    sp.add_argument("--s-grid", type=_grid_arg, required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("generate", help="construct matrices attaining the bound")
    sp.add_argument("--kind", choices=sorted(_DEFAULT_CLASS_FOR_KIND), required=True)
    sp.add_argument("--class", dest="cls", default=None, help="target class token")
    sp.add_argument("--m", type=int, default=2, help="columns (order for hadamard/dft)")
    sp.add_argument("--n", type=int, default=2, help="rows")
    sp.add_argument("--sigma", type=_floats_arg, default=None, help="singular values, e.g. 2,1")
    sp.add_argument("--rho", type=float, default=1.0, help="entry value for --kind single")
    sp.add_argument("--field", choices=[REAL, COMPLEX], default=COMPLEX)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="write the matrix file here instead of stdout")

    sp = sub.add_parser("verify", help="run the invariant battery on a matrix")
    sp.add_argument("file")
    sp.add_argument("--tol", type=_tol_arg, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--assert-norm", type=_claim_arg, default=None, help='"p,q,value" to check a claimed norm'
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name at each call, so a replaced cmd_* takes effect
        return globals()[f"cmd_{args.command}"](args)
    except (_UsageError, MatrixFileError, ValueError, DimensionError) as e:
        _print_err(f"error: {e}")
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
